"""Classical baseline solvers behind a uniform affine-iterator contract.

Both iterators map u -> T u + c for a constant T, c determined by the
problem, and both return fields whose boundary cells equal b exactly.

The V-cycle smooths with damped sweeps (default omega = 2/3): the plain
quarter-cross update leaves the highest-frequency modes almost untouched
(|update factor| -> 1 toward the corner of the frequency square), and
those are exactly the modes the coarse grid cannot represent, so an
undamped cycle contracts no faster than its sweeps alone. The standalone
Jacobi iterator stays undamped.

Cost accounting conventions (used by every report in this package):

  * Jacobi sweep            = 1 layer, 4 mul-adds per interior cell
                              (plain or damped, standalone or V-cycle
                              smoothing on any level)
  * full-weighting restrict = 1 layer, 9 mul-adds per coarse cell
  * bilinear prolongation   = 1 layer, 4 mul-adds per fine cell
  * a V-cycle is the sum over its levels
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    CostReport,
    Field,
    Problem,
    laplacian_apply,
    make_problem,
    relative_error,
    residual_norms,
)

# mul-adds per interior cell of one sweep, plain or damped
SWEEP_MUL_ADDS = 4


class Iterator:
    """Affine single-step solver: step(u, p) = T u + c with exact boundary.

    step takes a field of shape (n, n) or a stack of shape (..., n, n) and
    returns the same shape. Every slice of a stack is stepped on its own,
    with the same floating-point operations in the same order as a
    single-field call, so the stacked result equals the per-field results
    bit for bit.
    """

    name = "iterator"

    def step(self, u: Field, p: Problem) -> Field:
        raise NotImplementedError

    def step_cost(self, p: Problem) -> tuple[int, int]:
        """(conv_layers, mul_adds) consumed by one step on this problem."""
        raise NotImplementedError


def neighbor_mean(u: Field) -> Field:
    """Quarter of the 4-neighbor sum at every cell, zero-padded at the edge."""
    up = np.zeros(u.shape[:-2] + (u.shape[-2] + 2, u.shape[-1] + 2))
    up[..., 1:-1, 1:-1] = u
    return 0.25 * (up[..., :-2, 1:-1] + up[..., 2:, 1:-1]
                   + up[..., 1:-1, :-2] + up[..., 1:-1, 2:])


def jacobi_step(u: Field, p: Problem) -> Field:
    """One Jacobi sweep followed by a boundary reset.

    u_hat = (u_N + u_S + u_W + u_E)/4 + (h^2/4) f at interior cells;
    boundary cells take the prescribed values b.
    """
    hat = neighbor_mean(u) + 0.25 * p.h * p.h * p.f
    return np.where(p.mask == 1, hat, p.b)


def damped_jacobi_step(u: Field, p: Problem, omega: float) -> Field:
    """Weighted sweep (1-omega) u + omega * jacobi update, with reset."""
    hat = (1.0 - omega) * u + omega * (neighbor_mean(u) + 0.25 * p.h * p.h * p.f)
    return np.where(p.mask == 1, hat, p.b)


class JacobiIterator(Iterator):
    name = "jacobi"

    def step(self, u, p):
        return jacobi_step(u, p)

    def step_cost(self, p):
        return 1, SWEEP_MUL_ADDS * p.interior_count


@dataclass(frozen=True)
class MultigridConfig:
    """V-cycle shape: number of coarsening levels and smoothing sweeps.

    The coarsest level runs pre_smooth + post_smooth sweeps instead of
    recursing further. omega is the smoothing damping factor.
    """

    depth: int
    pre_smooth: int = 2
    post_smooth: int = 2
    omega: float = 2.0 / 3.0

    def validate(self, n: int) -> None:
        if self.depth < 1:
            raise ValueError("multigrid depth must be >= 1")
        if self.pre_smooth < 0 or self.post_smooth < 0:
            raise ValueError("smoothing counts must be non-negative")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("smoothing damping must lie in (0, 1]")
        if (n - 1) % (2 ** self.depth) != 0:
            raise ValueError(
                f"n-1 = {n - 1} is not divisible by 2^depth = {2 ** self.depth}"
            )
        if (n - 1) // (2 ** self.depth) + 1 < 3:
            raise ValueError(f"coarsest grid below 3x3 for n={n}, depth={self.depth}")


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


def coarsen_mask(mask: np.ndarray) -> np.ndarray:
    """Injection: a coarse cell is interior only if its aligned fine cell is."""
    return mask[::2, ::2].copy()


def _interior_residual_field(u: Field, p: Problem) -> Field:
    """f - A u at interior cells (A = -discrete laplacian), zero elsewhere."""
    return np.where(p.mask == 1, p.f + laplacian_apply(u, p.h), 0.0)


class MultigridIterator(Iterator):
    """Geometric multigrid V-cycle in residual-correction form.

    Coarsening stops early on geometries whose injected mask runs out of
    interior cells; the cycle then bottoms out at the last usable level.
    """

    def __init__(self, config: MultigridConfig):
        self.config = config
        self.name = f"mg{config.depth}"
        # (mask, levels) of the last mask seen; solves reuse one mask
        self._hierarchy: tuple[np.ndarray, list[Problem]] | None = None

    def _coarse_problems(self, p: Problem) -> list[Problem]:
        """Zero-data problems at each level below p, for the error equation.

        Built, and the config validated against p.n, once per mask.
        """
        if self._hierarchy is not None and self._hierarchy[0] is p.mask:
            return self._hierarchy[1]
        self.config.validate(p.n)
        levels = []
        mask, h = p.mask, p.h
        for _ in range(self.config.depth):
            mask = coarsen_mask(mask)
            h = 2.0 * h
            if not mask.any():
                break
            nc = mask.shape[0]
            levels.append(
                make_problem(mask, np.zeros((nc, nc)), np.zeros((nc, nc)), h=h)
            )
        self._hierarchy = (p.mask, levels)
        return levels

    def step(self, u, p):
        return self._cycle(u, p, self._coarse_problems(p), 0)

    def _cycle(self, u, p, coarse, level):
        cfg = self.config
        if level == len(coarse):
            for _ in range(cfg.pre_smooth + cfg.post_smooth):
                u = damped_jacobi_step(u, p, cfg.omega)
            return u
        for _ in range(cfg.pre_smooth):
            u = damped_jacobi_step(u, p, cfg.omega)
        r = _interior_residual_field(u, p)
        pc = coarse[level]
        fc = np.where(pc.mask == 1, restrict_full_weighting(r), 0.0)
        # the cached level with the restricted residual as its source; fc
        # may be a stack, which make_problem would reject
        ec = self._cycle(np.zeros(fc.shape), replace(pc, f=fc), coarse, level + 1)
        e = prolong_bilinear(ec, p.n)
        u = u + np.where(p.mask == 1, e, 0.0)
        for _ in range(cfg.post_smooth):
            u = damped_jacobi_step(u, p, cfg.omega)
        return u

    def step_cost(self, p):
        cfg = self.config
        depth = len(self._coarse_problems(p))
        layers = 0
        ops = 0
        mask = p.mask
        for level in range(depth + 1):
            interior = int(mask.sum())
            n_level = mask.shape[0]
            sweeps = cfg.pre_smooth + cfg.post_smooth
            layers += sweeps
            ops += sweeps * SWEEP_MUL_ADDS * interior
            if level < depth:
                nc = (n_level - 1) // 2 + 1
                layers += 2  # restriction + prolongation
                ops += 9 * nc * nc + 4 * n_level * n_level
                mask = coarsen_mask(mask)
        return layers, ops


def solve_to_tol(
    it: Iterator,
    p: Problem,
    u0: Field,
    threshold: float,
    max_steps: int,
    u_star: Field | None = None,
) -> tuple[Field, CostReport]:
    """Iterate until the error or residual criterion is met.

    With u_star: stop when relative_error(u, u_star) <= threshold.
    Without:     stop when the interior residual drops below
                 threshold * (initial interior residual).
    Exceeding max_steps is reported via converged=False, not raised.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    layers_per, ops_per = it.step_cost(p)

    if u_star is not None:
        def error(u):
            return relative_error(u, u_star)
    else:
        initial = residual_norms(p, u0)[0]
        scale = initial if initial > 0 else 1.0

        def error(u):
            return residual_norms(p, u)[0] / scale

    u = u0
    err = error(u)
    steps = 0
    while err > threshold and steps < max_steps:
        u = it.step(u, p)
        steps += 1
        err = error(u)
        if not np.isfinite(err):
            break
    converged = bool(np.isfinite(err) and err <= threshold)
    report = CostReport(
        iterations=steps,
        conv_layers=steps * layers_per,
        mul_adds=steps * ops_per,
        final_relative_error=float(err) if np.isfinite(err) else float("inf"),
        converged=converged,
    )
    return u, report


def dense_system(p: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the full n^2 x n^2 linear system (interior equations plus
    boundary identities) for direct solves at small n."""
    n = p.n
    N = n * n
    A = np.zeros((N, N))
    rhs = np.zeros(N)
    inv_h2 = 1.0 / (p.h * p.h)
    for i in range(n):
        for j in range(n):
            k = i * n + j
            if p.mask[i, j] == 0:
                A[k, k] = 1.0
                rhs[k] = p.b[i, j]
            else:
                A[k, k] = 4.0 * inv_h2
                A[k, k - n] = -inv_h2
                A[k, k + n] = -inv_h2
                A[k, k - 1] = -inv_h2
                A[k, k + 1] = -inv_h2
                rhs[k] = p.f[i, j]
    return A, rhs


def _deepest_depth(n: int, cap: int = 8) -> int:
    depth = 0
    while (
        depth < cap
        and (n - 1) % (2 ** (depth + 1)) == 0
        and (n - 1) // (2 ** (depth + 1)) + 1 >= 3
    ):
        depth += 1
    return depth


def ground_truth(p: Problem, max_cycles: int = 20000) -> Field:
    """Reference solution: dense solve for n <= 32, multigrid otherwise.

    The result is checked against residual_norms; failure to reach
    1e-8 within the budget raises (it indicates an invalid problem).
    """
    if p.n <= 32:
        A, rhs = dense_system(p)
        u = np.linalg.solve(A, rhs).reshape(p.n, p.n)
    else:
        depth = _deepest_depth(p.n)
        if depth >= 1:
            it: Iterator = MultigridIterator(MultigridConfig(depth=depth))
        else:
            it = JacobiIterator()
        u = reset_start(p)
        for cycle in range(max_cycles):
            u_next = it.step(u, p)
            diff = float(np.abs(u_next - u).max())
            u = u_next
            if diff <= 1e-12 and residual_norms(p, u)[0] <= 1e-8:
                break
        else:
            raise RuntimeError(
                f"ground truth did not converge within {max_cycles} cycles "
                f"(last successive difference {diff:.3e})"
            )
    interior, boundary = residual_norms(p, u)
    if interior > 1e-8 or boundary > 1e-8:
        raise RuntimeError(
            f"ground truth residual check failed: interior {interior:.3e}, "
            f"boundary {boundary:.3e}"
        )
    return u


def reset_start(p: Problem) -> Field:
    """Zero field with the prescribed boundary values: a cheap sane start."""
    return np.where(p.mask == 1, 0.0, p.b)
