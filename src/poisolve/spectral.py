"""Spectral certification of iterators.

An affine iterator u -> T u + c converges from every start iff the
spectral radius of T is below one, and its fixed point solves the
discretized system whenever the base splitting does. This module extracts
T by running iterators on Problem.homogeneous (f = 0, b = 0, so the
constant part vanishes), materializes it densely for small grids,
estimates the radius of larger ones by a windowed power iteration or by
restarted Arnoldi, and issues validity verdicts. Certification uses the
power iteration above DENSE_MAX_N; training's progress checks use Arnoldi
there, which is faster and reads the radius to about 1e-5 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Field, Problem, l2_norm
from .iterators import Iterator, ground_truth

DENSE_MAX_N = 33
RHO_VALID_MARGIN = 1e-6
FIXED_POINT_TOL = 1e-8
POWER_ITERATIONS = 2000  # power-iteration steps per restart
POWER_RESTARTS = 5  # power-iteration start fields, advanced as one stack
POWER_WINDOW = 50  # trailing power-iteration steps the growth is averaged over
POWER_SEED = 0  # seed of the power iteration's random start fields
ARNOLDI_DIM = 60  # Krylov dimension of one Arnoldi cycle; V holds 61 fields
ARNOLDI_TOL = 1e-5  # a cycle stops at Ritz residual <= ARNOLDI_TOL * |theta|
ARNOLDI_CYCLES = 30  # cycle cap: 1800 applications, under power's 2000 steps
ARNOLDI_SEED = 0  # seed of Arnoldi's white start field
# below this share of |T v_j|, the part of T v_j outside the Krylov basis
# is rounding: the basis spans an invariant subspace
ARNOLDI_BREAKDOWN = 1e-12


@dataclass
class LinearPart:
    """The update matrix T of an iterator on a fixed geometry, as an action.

    apply takes an (n, n) field or a (..., n, n) stack, as Iterator.step;
    its output vanishes off the interior cells of mask.
    """

    apply: Callable[[Field], Field]
    mask: np.ndarray

    @property
    def n(self) -> int:
        return self.mask.shape[0]


def linear_part(it: Iterator, p: Problem) -> LinearPart:
    """Extract u -> T u by running the iterator with f = 0, b = 0."""
    homog = p.homogeneous

    def apply(v: Field) -> Field:
        return it.step(v, homog)

    if np.abs(apply(np.zeros((p.n, p.n)))).max() != 0.0:
        raise ValueError(f"iterator {it.name} is not linear on the homogeneous problem")
    return LinearPart(apply=apply, mask=p.mask)


def materialize_dense(lp: LinearPart) -> np.ndarray:
    """T as an n^2 x n^2 matrix from basis fields, n = lp.n.

    The n basis fields of one grid row go through lp.apply as one stack,
    so a call holds n^3 cells, not n^4.
    """
    n = lp.n
    if n > DENSE_MAX_N:
        raise ValueError(
            f"n = {n} exceeds the dense cap {DENSE_MAX_N}; use mode 'power' or 'arnoldi'"
        )
    N = n * n
    T = np.zeros((N, N))
    cols = np.arange(n)
    for i in range(n):
        e = np.zeros((n, n, n))
        e[cols, i, cols] = 1.0
        T[:, i * n:(i + 1) * n] = lp.apply(e).reshape(n, N).T
    return T


def radius_mode(n: int) -> str:
    """The radius estimator for an n x n grid: dense up to DENSE_MAX_N, power above."""
    return "dense" if n <= DENSE_MAX_N else "power"


def spectral_radius(lp: LinearPart, mode: str = "dense") -> float:
    """Largest |eigenvalue| of T: exact eigensolve, power-growth or Arnoldi estimate.

    Power mode (Arnoldi: see _arnoldi_radius) runs POWER_ITERATIONS steps
    from each of POWER_RESTARTS start fields. It tracks the log growth of
    a renormalized iterate and averages the growth factor over the
    trailing POWER_WINDOW steps, which irons out the rotation of complex
    leading eigenpairs; the maximum over restarts guards against unlucky
    starts. The restarts advance together as one (restarts, n, n) stack;
    each is normalized by its own norm and stops on its own when its norm
    reaches zero.
    """
    if mode == "dense":
        T = materialize_dense(lp)
        return float(np.abs(np.linalg.eigvals(T)).max())
    if mode == "arnoldi":
        return _arnoldi_radius(lp)
    if mode != "power":
        raise ValueError(f"unknown mode {mode!r}")
    # one draw of the whole stack yields the same start fields as one
    # (n, n) draw per restart in turn
    n, window = lp.n, POWER_WINDOW
    iterations, restarts = POWER_ITERATIONS, POWER_RESTARTS
    v = np.random.default_rng(POWER_SEED).standard_normal((restarts, n, n))
    for r in range(restarts):
        v[r] /= l2_norm(v[r])
    log_growth = np.zeros((restarts, iterations + 1))
    steps_done = np.full(restarts, iterations)
    running = np.arange(restarts)  # restart index of each slice of v
    for t in range(iterations):
        if not running.size:
            break
        v = lp.apply(v)
        norms = np.array([l2_norm(x) for x in v])
        if not np.isfinite(norms).all():
            raise ArithmeticError("power iteration became non-finite despite rescaling")
        stopped = norms == 0.0
        if stopped.any():
            steps_done[running[stopped]] = t
            v, norms, running = v[~stopped], norms[~stopped], running[~stopped]
        log_growth[running, t + 1] = log_growth[running, t] + np.log(norms)
        v /= norms[:, None, None]
    best = 0.0  # a restart that stopped within its first window estimates 0
    for done, growth in zip(steps_done, log_growth):
        if done >= window:
            best = max(best, float(np.exp((growth[done] - growth[done - window]) / window)))
    return best


def _arnoldi_radius(lp: LinearPart) -> float:
    """|theta| of the dominant Ritz value of restarted Arnoldi on T.

    Each cycle builds an ARNOLDI_DIM-step Arnoldi basis V of the Krylov
    space of its start vector, orthogonalizing by classical Gram-Schmidt
    run twice, with Hessenberg H = V^T T V (Saad, Numerical Methods for
    Large Eigenvalue Problems, 2nd ed., ch. 6). The first cycle starts from
    a seeded white field masked to the interior, where T's spectrum lives;
    each later one from the dominant Ritz vector, with its real and
    imaginary parts summed so a complex pair keeps both of its directions.
    The estimate stops once the Ritz residual ||T x - theta x|| =
    |h_{m+1,m} y_m| is within ARNOLDI_TOL of |theta|, when the basis spans
    an invariant subspace (the Ritz values are then eigenvalues), or after
    ARNOLDI_CYCLES cycles.
    """
    n, m = lp.n, ARNOLDI_DIM
    rng = np.random.default_rng(ARNOLDI_SEED)
    v = np.where(lp.mask == 1, rng.standard_normal((n, n)), 0.0).ravel()
    V = np.empty((m + 1, n * n))  # a cycle reads only the rows it wrote
    for _ in range(ARNOLDI_CYCLES):
        H = np.zeros((m + 1, m))
        V[0] = v / l2_norm(v)
        k = m
        for j in range(m):
            w = lp.apply(V[j].reshape(n, n)).ravel()
            size = l2_norm(w)
            for _ in range(2):
                c = V[:j + 1] @ w
                w -= c @ V[:j + 1]
                H[:j + 1, j] += c
            H[j + 1, j] = l2_norm(w)
            if not np.isfinite(H[j + 1, j]):
                raise ArithmeticError("Arnoldi basis became non-finite")
            if H[j + 1, j] <= ARNOLDI_BREAKDOWN * size:
                k = j + 1
                break
            V[j + 1] = w / H[j + 1, j]
        theta, Y = np.linalg.eig(H[:k, :k])
        top = int(np.argmax(np.abs(theta)))
        rho = float(np.abs(theta[top]))
        if k < m or abs(H[k, k - 1] * Y[-1, top]) <= ARNOLDI_TOL * rho:
            break
        x = Y[:, top] @ V[:k]
        v = x.real + x.imag
    return rho


def spectral_norm(lp: LinearPart) -> float:
    """Largest singular value of the materialized T (dense path only)."""
    T = materialize_dense(lp)
    return float(np.linalg.svd(T, compute_uv=False)[0])


def contracts(rho: float) -> bool:
    """The contraction rule of every verdict: rho <= 1 - RHO_VALID_MARGIN."""
    return rho <= 1.0 - RHO_VALID_MARGIN


@dataclass
class ValidityVerdict:
    rho_estimate: float
    method: str
    fixed_point_residual: float
    valid: bool


def certify(it: Iterator, p: Problem) -> ValidityVerdict:
    """Geometry-level validity check: contraction plus fixed-point accuracy.

    The radius is read off the linear part, which ignores f and b entirely,
    so the verdict transfers to every right-hand side and boundary data on
    this geometry; radius_mode(p.n) picks its estimator.
    """
    mode = radius_mode(p.n)
    rho = spectral_radius(linear_part(it, p), mode=mode)
    u_star = ground_truth(p)
    fp_res = float(np.abs(it.step(u_star, p) - u_star).max())
    valid = bool(contracts(rho) and fp_res <= FIXED_POINT_TOL)
    return ValidityVerdict(
        rho_estimate=float(rho), method=mode,
        fixed_point_residual=fp_res, valid=valid,
    )
