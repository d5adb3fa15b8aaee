"""Spectral certification of iterators.

An affine iterator u -> T u + c converges from every start iff the
spectral radius of T is below one, and its fixed point solves the
discretized system whenever the base splitting does. This module extracts
T by running iterators on the homogeneous problem (f = 0, b = 0, so the
constant part vanishes), materializes it densely for small grids,
estimates the radius by a windowed power iteration for large ones, builds
the ideal one-step correction T (I - T)^-1 for cross-checks, probes the
convexity of the spectral norm in the correction operator, and issues
validity verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .grid import Field, Problem, l2_norm
from .iterators import Iterator, JacobiIterator, ground_truth

DENSE_MAX_N = 33
RHO_VALID_MARGIN = 1e-6
FIXED_POINT_TOL = 1e-8
POWER_WINDOW = 50  # trailing power-iteration steps the growth is averaged over
POWER_SEED = 0  # seed of the power iteration's random start fields


@dataclass
class LinearPart:
    """The update matrix T of an iterator on a fixed geometry, as an action.

    apply takes an (n, n) field or a (..., n, n) stack, as Iterator.step.
    """

    apply: Callable[[Field], Field]
    n: int


def homogeneous(p: Problem) -> Problem:
    """p's geometry with f = 0 and b = 0, where an affine step is its linear part."""
    zeros = np.zeros((p.n, p.n))
    return replace(p, b=zeros, f=zeros)


def linear_part(it: Iterator, p: Problem) -> LinearPart:
    """Extract u -> T u by running the iterator with f = 0, b = 0."""
    homog = homogeneous(p)

    def apply(v: Field) -> Field:
        return it.step(v, homog)

    if np.abs(apply(np.zeros((p.n, p.n)))).max() != 0.0:
        raise ValueError(f"iterator {it.name} is not linear on the homogeneous problem")
    return LinearPart(apply=apply, n=p.n)


def materialize_dense(lp: LinearPart) -> np.ndarray:
    """T as an n^2 x n^2 matrix from basis fields, n = lp.n.

    The n basis fields of one grid row go through lp.apply as one stack,
    so a call holds n^3 cells, not n^4.
    """
    n = lp.n
    if n > DENSE_MAX_N:
        raise ValueError(
            f"n = {n} exceeds the dense cap {DENSE_MAX_N}; use the power method"
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


def spectral_radius(
    lp: LinearPart,
    mode: str = "dense",
    iterations: int = 2000,
    restarts: int = 5,
) -> float:
    """Largest |eigenvalue| of T: exact eigensolve or power-growth estimate.

    Power mode tracks the log growth of a renormalized iterate and averages
    the growth factor over the trailing POWER_WINDOW steps, which irons out
    the rotation of complex leading eigenpairs; the maximum over restarts
    guards against unlucky starts. The restarts advance together as one
    (restarts, n, n) stack; each is normalized by its own norm and stops
    on its own when its norm reaches zero.
    """
    if mode == "dense":
        T = materialize_dense(lp)
        return float(np.abs(np.linalg.eigvals(T)).max())
    if mode != "power":
        raise ValueError(f"unknown mode {mode!r}")
    # one draw of the whole stack yields the same start fields as one
    # (n, n) draw per restart in turn
    n, window = lp.n, POWER_WINDOW
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
    best = 0.0
    for r in range(restarts):
        done = steps_done[r]
        if done < window:
            est = 0.0
        else:
            est = float(np.exp((log_growth[r, done] - log_growth[r, done - window]) / window))
        best = max(best, est)
    return best


def spectral_norm(lp: LinearPart) -> float:
    """Largest singular value of the materialized T (dense path only)."""
    T = materialize_dense(lp)
    return float(np.linalg.svd(T, compute_uv=False)[0])


def asymmetry(T: np.ndarray) -> float:
    """max |T - T^t|, reported for trained iterators (not asserted)."""
    return float(np.abs(T - T.T).max())


def mask_matrix(p: Problem) -> np.ndarray:
    """The diagonal 0/1 interior projector as a dense matrix."""
    return np.diag(p.mask.ravel().astype(np.float64))


def wrapped_linear_matrix(T: np.ndarray, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Update matrix of the corrected iterator: T + G H T - G H."""
    GH = G @ H
    return T + GH @ T - GH


@dataclass
class ConvexityReport:
    lam: float
    sigma_mix: float
    sigma_h1: float
    sigma_h2: float
    bound: float
    satisfied: bool


def convexity_probe(
    T: np.ndarray, G: np.ndarray, H1: np.ndarray, H2: np.ndarray,
    lam: float, tol: float = 1e-9,
) -> ConvexityReport:
    """Check sigma(lam*H1 + (1-lam)*H2) <= lam*sigma(H1) + (1-lam)*sigma(H2).

    sigma(H) is the spectral norm of the corrected update matrix, which is
    affine in H, so the inequality must hold up to numerical tolerance.
    """
    def sigma(H):
        return float(np.linalg.svd(wrapped_linear_matrix(T, G, H), compute_uv=False)[0])

    s1, s2 = sigma(H1), sigma(H2)
    smix = sigma(lam * H1 + (1.0 - lam) * H2)
    bound = lam * s1 + (1.0 - lam) * s2
    return ConvexityReport(
        lam=lam, sigma_mix=smix, sigma_h1=s1, sigma_h2=s2,
        bound=bound, satisfied=bool(smix <= bound + tol),
    )


@dataclass
class OneStepOracle:
    """Dense realization of the ideal correction R = T (I - T)^-1.

    Feeding the base update through R and masking recovers the entire
    remaining error, so a single corrected step lands on the solution.
    """

    R: np.ndarray
    T: np.ndarray
    problem: Problem
    base: Iterator

    def step(self, u: Field) -> Field:
        psi = self.base.step(u, self.problem)
        w = psi - u
        corr = (self.R @ w.ravel()).reshape(u.shape)
        return psi + np.where(self.problem.mask == 1, corr, 0.0)


def oracle_correction(p: Problem, base: Iterator | None = None) -> OneStepOracle:
    if p.n > 17:
        raise ValueError(f"one-step oracle is a dense construction; n = {p.n} > 17")
    base = base or JacobiIterator()
    T = materialize_dense(linear_part(base, p))
    eye = np.eye(T.shape[0])
    try:
        R = np.linalg.solve((eye - T).T, T.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "I - T is singular, so the base iterator cannot have spectral radius < 1"
        ) from exc
    return OneStepOracle(R=R, T=T, problem=p, base=base)


@dataclass
class ValidityVerdict:
    rho_estimate: float
    method: str
    fixed_point_residual: float
    valid: bool


def certify(it: Iterator, p: Problem, mode: str | None = None) -> ValidityVerdict:
    """Geometry-level validity check: contraction plus fixed-point accuracy.

    The radius is read off the linear part, which ignores f and b entirely,
    so the verdict transfers to every right-hand side and boundary data on
    this geometry.
    """
    if mode is None:
        mode = radius_mode(p.n)
    rho = spectral_radius(linear_part(it, p), mode=mode)
    u_star = ground_truth(p)
    fp_res = float(np.abs(it.step(u_star, p) - u_star).max())
    valid = bool(rho <= 1.0 - RHO_VALID_MARGIN and fp_res <= FIXED_POINT_TOL)
    return ValidityVerdict(
        rho_estimate=float(rho), method=mode,
        fixed_point_residual=fp_res, valid=valid,
    )
