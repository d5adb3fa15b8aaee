"""Spectral certification of iterators.

An affine iterator u -> T u + c converges from every start iff the
spectral radius of T is below one, and its fixed point solves the
discretized system whenever the base splitting does. This module extracts
T by running iterators on the homogeneous problem (f = 0, b = 0, so the
constant part vanishes), materializes it densely for small grids,
estimates the radius by a windowed power iteration for large ones, and
issues validity verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .grid import Field, Problem, l2_norm
from .iterators import Iterator, ground_truth

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
    valid = bool(rho <= 1.0 - RHO_VALID_MARGIN and fp_res <= FIXED_POINT_TOL)
    return ValidityVerdict(
        rho_estimate=float(rho), method=mode,
        fixed_point_residual=fp_res, valid=valid,
    )
