"""Classical baseline solvers behind a uniform affine-iterator contract.

Both iterators map u -> T u + c for a constant T, c determined by the
problem, and both return fields whose boundary cells equal b exactly.

MultigridIterator(depth) runs a V-cycle over depth coarsening levels
with PRE_SMOOTH and POST_SMOOTH sweeps per level, damped by SMOOTH_OMEGA
= 2/3: the plain quarter-cross update leaves the highest-frequency modes
almost untouched (|update factor| -> 1 toward the corner of the
frequency square), and those are exactly the modes the coarse grid
cannot represent, so an undamped cycle contracts no faster than its
sweeps alone. The standalone Jacobi iterator stays undamped.

Both sweeps, plain and damped, for a field or a stack, are one kernel,
:func:`poisolve.grid._stencil`, and every f - A u here is
:func:`poisolve.grid.residual`. A sweep adds Problem.scaled_source
(h^2 f, multiplied once per problem), scales once, by 1/4 or omega/4,
and writes b at the exterior cells by Problem.exterior's indices, so no
step multiplies the source or compares the mask. When f has no nonzero
cell (a homogeneous problem, as every training and certification step
runs on) scaled_source is None and the sweeps skip the source, which
changes no value: only an exact zero may come out as -0.0 where the
padded formula gives +0.0. The V-cycle adds its prolonged correction in
place into its pre-smoothed iterate, then writes b with
:func:`poisolve.grid.set_boundary`; its restricted residual stays
unmasked (no f at an exterior cell is read), on the mask's coarse chain
(grid.Exterior.coarse).

ground_truth, the reference every error is measured against, runs CG on
A with restarts from the true residual (van der Vorst and Ye 2000). Its
preconditioner is the Jacobi scaling (h^2/4) r below
VCYCLE_PRECONDITIONER_MIN_N and one V-cycle from zero from there on
(Tatebe 1993), where a coarsening fits. The cycle is never iterated on
its own there: on the L-shape the deepest cycle diverges, but as a
preconditioner it is symmetric positive definite on every mask, which is
all CG needs.

Cost accounting conventions (used by every report in this package):

  * Jacobi sweep            = 1 layer, 4 mul-adds per interior cell
                              (plain or damped, standalone or V-cycle
                              smoothing on any level)
  * full-weighting restrict = 1 layer, 9 mul-adds per coarse cell
  * bilinear prolongation   = 1 layer, 4 mul-adds per fine cell
  * a V-cycle is the sum over its levels
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .grid import (
    CostReport,
    Exterior,
    Field,
    Problem,
    _relative_error_to,
    _stencil,
    reset,
    residual,
    residual_norms,
    set_boundary,
)

# mul-adds per interior cell of one sweep, plain or damped
SWEEP_MUL_ADDS = 4
# V-cycle smoothing: sweeps before and after the coarse correction (the
# coarsest level runs both counts), and their damping factor
PRE_SMOOTH = 2
POST_SMOOTH = 2
SMOOTH_OMEGA = 2.0 / 3.0
# ground_truth's gate: max-abs interior and boundary residual of its result
REFERENCE_TOL = 1e-8
# its PCG stops at this max-abs recursive residual, after at most
# PCG_MAX_ITERATIONS_PER_N * n iterations, and restarts from the true
# residual at most REFERENCE_RESTARTS times. A reference must be a fixed
# point of the baselines to 1e-12: at 0.1 * REFERENCE_TOL one mg2 V-cycle
# moved an n = 17 reference by 1.04e-12, at 0.05 by 3.2e-13.
PCG_TOL = 0.05 * REFERENCE_TOL
PCG_MAX_ITERATIONS_PER_N = 20
REFERENCE_RESTARTS = 5
# its CG is preconditioned by one V-cycle from this n on, by the Jacobi
# scaling below: timed at n = 17, 33, 49, 65 and 129, the Jacobi scaling
# was faster on every setting up to 49, the V-cycle on most at 65 and on
# every one at 129
VCYCLE_PRECONDITIONER_MIN_N = 65


class Iterator:
    """Affine single-step solver: step(u, p) = T u + c with exact boundary.

    step takes a field of shape (n, n) or a stack of shape (..., n, n) and
    returns a new array of the same shape; it never writes u. Every slice
    of a stack is stepped on its own, with the same floating-point
    operations in the same order as a single-field call, so the stacked
    result equals the per-field results bit for bit.
    """

    name = "iterator"

    def step(self, u: Field, p: Problem) -> Field:
        raise NotImplementedError

    def step_cost(self, p: Problem) -> tuple[int, int]:
        """(conv_layers, mul_adds) consumed by one step on this problem."""
        raise NotImplementedError


def jacobi_step(u: Field, p: Problem) -> Field:
    """One Jacobi sweep followed by a boundary reset.

    u_hat = (u_N + u_S + u_W + u_E + h^2 f)/4 at interior cells;
    boundary cells take the prescribed values b.
    """
    return _stencil(u, p, None)


def damped_jacobi_step(u: Field, p: Problem, omega: float) -> Field:
    """Weighted sweep (1-omega) u + omega * jacobi update, with reset."""
    return _stencil(u, p, omega)


class JacobiIterator(Iterator):
    name = "jacobi"

    def step(self, u, p):
        return jacobi_step(u, p)

    def step_cost(self, p):
        return 1, SWEEP_MUL_ADDS * p.interior_count


def depth_fault(n: int, depth: int) -> str | None:
    """Why an n x n grid cannot coarsen depth times, or None if it can.

    Each coarsening halves n - 1, so n - 1 must be divisible by 2^depth,
    and the coarsest grid must keep at least 3 x 3 points.
    """
    if (n - 1) % (2 ** depth) != 0:
        return f"n-1 = {n - 1} is not divisible by 2^depth = {2 ** depth}"
    if (n - 1) // (2 ** depth) + 1 < 3:
        return f"coarsest grid below 3x3 for n={n}, depth={depth}"
    return None


def restrict_full_weighting(r: Field) -> Field:
    """Full-weighting restriction onto the even-index coarse grid.

    Coarse interior cells combine the 3x3 fine neighborhood with weights
    1/4 (center), 1/8 (edges), 1/16 (corners); the coarse frame stays 0.
    """
    n = r.shape[-1]
    nc = (n - 1) // 2 + 1
    rc = np.zeros(r.shape[:-2] + (nc, nc))
    c = r[..., 2:-2:2, 2:-2:2]
    edges = (r[..., 1:-3:2, 2:-2:2] + r[..., 3:-1:2, 2:-2:2]
             + r[..., 2:-2:2, 1:-3:2] + r[..., 2:-2:2, 3:-1:2])
    corners = (r[..., 1:-3:2, 1:-3:2] + r[..., 1:-3:2, 3:-1:2]
               + r[..., 3:-1:2, 1:-3:2] + r[..., 3:-1:2, 3:-1:2])
    rc[..., 1:-1, 1:-1] = 0.25 * c + 0.125 * edges + 0.0625 * corners
    return rc


def prolong_bilinear(ec: Field, n: int) -> Field:
    """Bilinear interpolation from the coarse grid back to n points."""
    e = np.zeros(ec.shape[:-2] + (n, n))
    e[..., ::2, ::2] = ec
    e[..., 1::2, ::2] = 0.5 * (ec[..., :-1, :] + ec[..., 1:, :])
    e[..., ::2, 1::2] = 0.5 * (ec[..., :, :-1] + ec[..., :, 1:])
    e[..., 1::2, 1::2] = 0.25 * (ec[..., :-1, :-1] + ec[..., :-1, 1:]
                                 + ec[..., 1:, :-1] + ec[..., 1:, 1:])
    return e


class MultigridIterator(Iterator):
    """Geometric multigrid V-cycle in residual-correction form.

    MultigridIterator(depth) coarsens up to depth times, on grids that
    depth_fault accepts, on the levels p.exterior.coarse and on, built
    once per mask; an instance holds no state besides depth and name.
    Coarsening stops early on geometries whose injected mask runs out of
    interior cells; the cycle then bottoms out at the last usable level.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("multigrid depth must be >= 1")
        self.depth = depth
        self.name = f"mg{depth}"

    def _levels(self, p: Problem) -> list[Exterior]:
        """The exterior data of the coarse levels a cycle on p visits."""
        fault = depth_fault(p.n, self.depth)
        if fault is not None:
            raise ValueError(fault)
        levels = [p.exterior]
        while len(levels) <= self.depth and levels[-1].coarse is not None:
            levels.append(levels[-1].coarse)
        return levels[1:]

    def step(self, u, p):
        return self._cycle(u, p, self._levels(p))

    def _cycle(self, u, p, coarse):
        for _ in range(PRE_SMOOTH):
            u = damped_jacobi_step(u, p, SMOOTH_OMEGA)
        if coarse:
            r = residual(u, p)  # held to the end: its lifetime sets the page faults
            level = coarse[0]
            fc = restrict_full_weighting(r)
            # the error equation at twice the mesh width; fc may be a stack,
            # which make_problem would reject
            pc = Problem(mask=level.mask, b=level.b, f=fc, h=2.0 * p.h, exterior=level)
            ec = self._cycle(np.zeros(fc.shape), pc, coarse[1:])
            u += prolong_bilinear(ec, p.n)  # u is a sweep's own array (PRE_SMOOTH >= 1)
            set_boundary(u, p)
        for _ in range(POST_SMOOTH):
            u = damped_jacobi_step(u, p, SMOOTH_OMEGA)
        return u

    def step_cost(self, p):
        masks = [p.mask] + [level.mask for level in self._levels(p)]
        sweeps = PRE_SMOOTH + POST_SMOOTH
        # every level sweeps; every descent restricts and prolongs once
        layers = sweeps * len(masks) + 2 * (len(masks) - 1)
        ops = sum(sweeps * SWEEP_MUL_ADDS * int(m.sum()) for m in masks)
        ops += sum(9 * c.size + 4 * m.size for m, c in zip(masks, masks[1:]))
        return layers, ops


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless a stopping threshold is finite and positive."""
    if not 0 < threshold < np.inf:
        raise ValueError(f"threshold must be finite and positive, got {threshold}")


def solve_to_tol(
    it: Iterator,
    p: Problem,
    u0: Field,
    threshold: float,
    max_steps: int,
    u_star: Field | None = None,
) -> tuple[Field, CostReport]:
    """Iterate until the error or residual criterion is met.

    With u_star: stop when grid.relative_error(u, u_star) <= threshold,
                 tested by its own map, built once per solve (one u - u*
                 buffer, rewritten by every test and never returned: u is
                 u0 or the last step's own field).
    Without:     stop when max |grid.residual(u, p)| drops to threshold
                 times that of u0 (an Iterator keeps the boundary exact).
    The report's final_relative_error is the last tested ratio; exceeding
    max_steps is reported via converged=False, not raised.
    """
    check_threshold(threshold)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    layers_per, ops_per = it.step_cost(p)

    if u_star is not None:
        error = _relative_error_to(u_star)  # which also checks u's shape
    else:
        initial = residual_norms(p, u0)[0]  # which also checks u0's shape
        scale = initial if initial > 0 else 1.0

        def error(u):
            # a diverging iterate overflows the residual; the isfinite check
            # below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                return float(np.abs(residual(u, p)).max()) / scale

    u = u0
    err = error(u)
    steps = 0
    while err > threshold and steps < max_steps:
        u = it.step(u, p)
        steps += 1
        err = error(u)
        if not math.isfinite(err):
            break
    finite = math.isfinite(err)
    report = CostReport(
        iterations=steps,
        conv_layers=steps * layers_per,
        mul_adds=steps * ops_per,
        final_relative_error=float(err) if finite else math.inf,
        converged=bool(finite and err <= threshold),
    )
    return u, report


def _deepest_depth(n: int) -> int:
    depth = 0
    while depth_fault(n, depth + 1) is None:
        depth += 1
    return depth


class ReferenceSolveError(RuntimeError):
    """ground_truth could not produce a reference that passes its gate."""


def _preconditioner(p: Problem):
    """The map r -> z of ground_truth's CG.

    From n = VCYCLE_PRECONDITIONER_MIN_N on it is one V-cycle on A z = r
    from zero, at the deepest depth that fits n. Its 2 + 2 damped sweeps
    are symmetric, its prolongation is 4 x restriction^T and its coarsest
    level only smooths, so r -> z is symmetric positive definite, whether
    or not the injected coarse masks nest in p's domain. Below that n, or
    when no coarsening fits (n - 1 odd), it is the Jacobi scaling
    (h^2/4) r.
    """
    depth = _deepest_depth(p.n) if p.n >= VCYCLE_PRECONDITIONER_MIN_N else 0
    if depth == 0:
        c = 0.25 * p.h * p.h
        return lambda r: c * r
    mg = MultigridIterator(depth)
    zero = np.zeros((p.n, p.n))
    return lambda r: mg.step(zero, replace(p.homogeneous, f=r))


def _pcg(r: Field, p: Problem, precondition) -> Field:
    """e with A e = r: preconditioned CG from zero, run until the max-abs
    of its recursive residual is PCG_TOL or less."""
    cap = PCG_MAX_ITERATIONS_PER_N * p.n
    e = np.zeros_like(r)
    z = precondition(r)
    d = z
    rz = float(np.vdot(r, z))
    for _ in range(cap):
        if not rz > 0:
            raise ReferenceSolveError(
                f"preconditioner is not positive definite (r.z = {rz:.3e})")
        q = -residual(d, p.homogeneous)  # A d: residual ignores b
        alpha = rz / float(np.vdot(d, q))
        e += alpha * d
        r = r - alpha * q
        if float(np.abs(r).max()) <= PCG_TOL:
            return e
        z = precondition(r)
        rz, rz_old = float(np.vdot(r, z)), rz
        d = z + (rz / rz_old) * d
    raise ReferenceSolveError(
        f"preconditioned CG did not reach {PCG_TOL:g} within {cap} iterations")


def ground_truth(p: Problem) -> Field:
    """Reference solution of the interior system A u = f with u = b on the
    boundary, A = -discrete laplacian.

    Conjugate gradients on A from the zero field reset to b,
    preconditioned by _preconditioner(p), until the max-abs of the
    recursive residual is PCG_TOL. Each restart recomputes the true
    residual f - A u and runs CG on that (residual replacement), so drift
    between the recursive and the true residual costs one more short
    solve, not the gate.

    The result must meet a max-abs boundary residual of REFERENCE_TOL and
    a max-abs interior residual of REFERENCE_TOL or, on large data, the
    rounding floor of evaluating f - A u in float64,
    4 eps (max|f| + 8 max|u| / h^2), whichever is larger. Every failure
    raises ReferenceSolveError: that gate (also after REFERENCE_RESTARTS
    restarts), CG's iteration cap, and r.z <= 0, which a positive definite
    preconditioner never gives.
    """
    precondition = _preconditioner(p)
    u = reset(np.zeros((p.n, p.n)), p)
    for _ in range(REFERENCE_RESTARTS):
        r = residual(u, p)
        if float(np.abs(r).max()) <= REFERENCE_TOL:
            break
        u = u + _pcg(r, p, precondition)
    interior, boundary = residual_norms(p, u)
    # |A u| <= 8 max|u| / h^2 at any cell
    scale = np.abs(p.f).max() + 8 * np.abs(u).max() / (p.h * p.h)
    floor = 4 * np.finfo(np.float64).eps * scale
    if not (interior <= max(REFERENCE_TOL, floor) and boundary <= REFERENCE_TOL):
        raise ReferenceSolveError(
            f"ground truth residual check failed: interior {interior:.3e}, "
            f"boundary {boundary:.3e}"
        )
    return u
