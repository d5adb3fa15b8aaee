"""Independent reference solver and the output checks of the benchmark.

Nothing here calls into poisolve: the reference is a numpy-only
conjugate-gradient solve of the 5-point system, and every check compares a
program output against that reference, an analytic value, a finite
difference or the generated input. Each check raises CheckFailed.
"""

from __future__ import annotations

import math

import numpy as np

# CG stops when the residual of the scaled interior system falls below this
# share of the right-hand side; float64 CG stagnates not far under it.
CG_RTOL = 1e-14
# ground_truth must agree with the reference to this relative 2-norm.
GROUND_TRUTH_RTOL = 1e-8
# Rounding slack on the threshold test: the benchmark's norm and the
# program's sum the same squares in a different order.
THRESHOLD_SLACK = 1e-9
# |rho - cos(pi/(n-1))| allowed for Jacobi, by estimator: a dense
# eigensolve is exact to rounding, the windowed power estimate to ~1e-6.
JACOBI_RADIUS_TOL = {"dense": 1e-9, "power": 1e-4}
# Central difference step (relative to the weight norm) and the allowed
# relative gap between the analytic and the finite-difference derivative.
FD_STEP = 1e-5
FD_RTOL = 1e-6


class CheckFailed(AssertionError):
    """A program output disagrees with its independent check."""


def _norm(x: np.ndarray) -> float:
    return math.sqrt(float(np.sum(x * x)))


def rel_gap(u: np.ndarray, ref: np.ndarray) -> float:
    """||u - ref||_2 / ||ref||_2 over all cells, summed in numpy only."""
    denom = _norm(ref)
    diff = _norm(u - ref)
    return diff / denom if denom > 0 else diff


def _stencil(v: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """h^2 times the negative 5-point Laplacian of v, kept at interior cells.

    v is zero outside the interior, so this is the SPD interior operator.
    """
    out = 4.0 * v
    out[1:-1, 1:-1] -= v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:]
    return np.where(inside, out, 0.0)


def reference_solution(mask, b, f, h, max_iter: int = 100000) -> np.ndarray:
    """Solve -laplacian(u) = f at interior cells, u = b elsewhere, by CG.

    The unknowns are the interior values v; the boundary enters the
    right-hand side through its interior neighbours.
    """
    inside = np.asarray(mask) == 1
    b0 = np.where(inside, 0.0, np.asarray(b, dtype=np.float64))
    nbr = np.zeros_like(b0)
    nbr[1:-1, 1:-1] = b0[:-2, 1:-1] + b0[2:, 1:-1] + b0[1:-1, :-2] + b0[1:-1, 2:]
    rhs = np.where(inside, h * h * np.asarray(f, dtype=np.float64) + nbr, 0.0)
    v = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rr = float(np.sum(r * r))
    stop = (CG_RTOL * _norm(rhs)) ** 2
    for _ in range(max_iter):
        if rr <= stop:
            break
        q = _stencil(d, inside)
        alpha = rr / float(np.sum(d * q))
        v += alpha * d
        r -= alpha * q
        rr_next = float(np.sum(r * r))
        d = r + (rr_next / rr) * d
        rr = rr_next
    else:
        raise CheckFailed(f"reference CG did not reach {CG_RTOL:g} in {max_iter} steps")
    return v + b0


def check_solve(label, mask, b, u, ref, threshold, converged) -> None:
    """A solve keeps its boundary exactly at b and meets the threshold."""
    if not converged:
        raise CheckFailed(f"{label}: solver reported no convergence")
    outside = np.asarray(mask) == 0
    if not np.array_equal(u[outside], np.asarray(b)[outside]):
        bad = float(np.abs(u[outside] - np.asarray(b)[outside]).max())
        raise CheckFailed(f"{label}: boundary cells differ from b by up to {bad:.3e}")
    gap = rel_gap(u, ref)
    if not gap <= threshold * (1.0 + THRESHOLD_SLACK):
        raise CheckFailed(f"{label}: relative error {gap:.6e} above threshold {threshold:g}")


def check_ground_truth(label, u, ref) -> None:
    gap = rel_gap(u, ref)
    if not gap <= GROUND_TRUTH_RTOL:
        raise CheckFailed(
            f"{label}: ground_truth differs from the CG reference by {gap:.3e} "
            f"(limit {GROUND_TRUTH_RTOL:g})")


def check_certificate(label, verdict) -> None:
    rho = verdict.rho_estimate
    if not (verdict.valid and math.isfinite(rho) and rho < 1.0):
        raise CheckFailed(
            f"{label}: certification not valid (rho = {rho!r}, "
            f"fixed-point residual = {verdict.fixed_point_residual!r})")


def check_jacobi_radius(verdict, n: int) -> None:
    """Jacobi on the n x n square has rho = cos(pi/(n-1)) exactly."""
    exact = math.cos(math.pi / (n - 1))
    tol = JACOBI_RADIUS_TOL[verdict.method]
    gap = abs(verdict.rho_estimate - exact)
    if not gap <= tol:
        raise CheckFailed(
            f"Jacobi radius at n = {n} ({verdict.method}): {verdict.rho_estimate!r} "
            f"vs cos(pi/{n - 1}) = {exact!r}, gap {gap:.3e} > {tol:g}")


def check_gradient(loss, weights, value, grads, seed: int = 0) -> None:
    """The analytic gradient matches an extrapolated central difference of loss.

    loss maps a list of kernel arrays to the batch loss; value and grads are
    the program's loss and gradient at weights.
    """
    if not math.isclose(loss(weights), value, rel_tol=1e-12):
        raise CheckFailed(f"loss_and_grad value {value!r} differs from loss")
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(w.shape) for w in weights]
    scale = math.sqrt(sum(float(np.sum(w * w)) for w in weights))
    eps = FD_STEP * max(scale, 1.0)

    def central(step):
        plus = loss([w + step * d for w, d in zip(weights, direction)])
        minus = loss([w - step * d for w, d in zip(weights, direction)])
        return (plus - minus) / (2.0 * step)

    # Richardson extrapolation cancels the step^2 term of the central
    # difference, which is large for deep nets (the loss is a polynomial of
    # degree layers * k in the weights).
    fd = (4.0 * central(eps / 2.0) - central(eps)) / 3.0
    analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))
    if not abs(analytic - fd) <= FD_RTOL * max(abs(fd), abs(analytic)):
        raise CheckFailed(
            f"directional derivative {analytic!r} vs central difference {fd!r}")


def check_round_trip(label, generated, loaded) -> None:
    """Problem fields read back from file equal the generated ones bit for bit."""
    for name in ("mask", "b", "f"):
        a, c = getattr(generated, name), getattr(loaded, name)
        if a.shape != c.shape or a.tobytes() != c.tobytes():
            raise CheckFailed(f"{label}: {name} changed in the file round trip")
    if generated.h != loaded.h or generated.n != loaded.n:
        raise CheckFailed(f"{label}: grid size or mesh width changed in the file round trip")
