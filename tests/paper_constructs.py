"""The paper's dense constructs, kept executable for the tests.

For a base iterator with update matrix T and the interior projector G,
the wrapped iterator's update matrix is T + G H T - G H, affine in the
correction H. Two claims of the paper follow and are checked against
these dense realizations in tests/test_spectral.py:

  * the spectral norm of the wrapped update is convex in H
    (:func:`convexity_probe`);
  * the ideal correction R = T (I - T)^-1 lands on the solution in one
    wrapped step (:func:`oracle_correction`).

All of them build n^2 x n^2 matrices, so they suit small grids only.

Three model constructs ride along: the H = 0 model, the single-layer
quarter-cross model (the linear part of a Jacobi sweep) and a scaled copy
of a model, used to push a net past divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from poisolve.grid import Field, Problem
from poisolve.iterators import Iterator, JacobiIterator
from poisolve.model import ConvLayer, CorrectionModel, init_model
from poisolve.spectral import linear_part, materialize_dense


def asymmetry(T: np.ndarray) -> float:
    """max |T - T^t|: the coupling of interior rows to boundary columns."""
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


def zero_model(arch: str) -> CorrectionModel:
    """The H = 0 model: same structure, all kernels zero."""
    m = init_model(arch, seed=0)
    for layer in m.layers:
        layer.weights = np.zeros_like(layer.weights)
    return m


def quarter_cross_model() -> CorrectionModel:
    """Single layer holding the quarter-cross kernel, i.e. the linear part of
    a Jacobi sweep. Wrapping Jacobi with this model reproduces two sweeps."""
    k = np.zeros((1, 1, 3, 3))
    k[0, 0] = [[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]]
    return CorrectionModel("conv", 1, [ConvLayer(k)])


def scale_model(m: CorrectionModel, factor: float) -> CorrectionModel:
    """Copy of m with every kernel multiplied by factor."""
    layers = [ConvLayer(factor * L.weights) for L in m.layers]
    return CorrectionModel(m.arch, m.depth, layers)
