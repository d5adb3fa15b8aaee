"""Evaluation geometries and problem generators.

Four benchmark settings, all with reproducible randomized boundary data:

  square         frame boundary, one uniform[-1, 1] value per side, f = 0
  lshape         square minus the upper-right quadrant (those cells become
                 boundary with value 0)
  cylinders      square plus three disjoint disks of radius n/8, each held
                 at its own random constant
  square_poisson square geometry with two opposite point sources of
                 magnitude 50/h^2

plus a randomized-geometry generator (rectangular notches and disks) used
by the certification sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Problem, make_problem

SETTINGS = ("square", "lshape", "cylinders", "square_poisson")

NOTCH_FRACTION = 0.5  # lshape: removed fraction per axis
DISK_RADIUS_FRACTION = 0.125  # cylinders: radius as a fraction of n
# cylinders: disk centres as fractions of n - 1; for every n >= 9 the disks
# are disjoint and lie inside the frame (closest centres 0.45 (n - 1) apart)
DISK_CENTERS = ((0.25, 0.25), (0.25, 0.75), (0.625, 0.5))
SOURCE_MAGNITUDE = 50.0  # square_poisson, scaled by 1/h^2
SOURCE_POSITIONS = ((1 / 3, 1 / 3), (2 / 3, 2 / 3))


@dataclass
class GeometrySpec:
    kind: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SETTINGS:
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.n < 9:
            raise ValueError(f"geometry grids start at n = 9, got {self.n}")


def _frame_with_sides(n: int, sides) -> tuple[np.ndarray, np.ndarray]:
    mask = np.zeros((n, n), dtype=np.uint8)
    mask[1:-1, 1:-1] = 1
    b = np.zeros((n, n))
    b[0, :], b[-1, :] = sides[0], sides[1]
    b[1:-1, 0], b[1:-1, -1] = sides[2], sides[3]
    return mask, b


def square_problem(n: int, sides) -> Problem:
    """Laplace on the square, one constant per side (top, bottom, left, right).

    Corner cells take the value of the row side (top and bottom win over
    left and right).
    """
    mask, b = _frame_with_sides(n, sides)
    return make_problem(mask, b, np.zeros((n, n)))


def generate(spec: GeometrySpec) -> Problem:
    """Build the Problem for a geometry spec, seeded and reproducible."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    sides = rng.uniform(-1.0, 1.0, size=4)
    mask, b = _frame_with_sides(n, sides)
    f = np.zeros((n, n))

    if spec.kind == "lshape":
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        notch = (ii < NOTCH_FRACTION * n) & (jj >= n - NOTCH_FRACTION * n)
        mask[notch] = 0
        b[notch] = 0.0
    elif spec.kind == "cylinders":
        radius = DISK_RADIUS_FRACTION * n
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        for ci, cj in DISK_CENTERS:
            disk = (ii - ci * (n - 1)) ** 2 + (jj - cj * (n - 1)) ** 2 <= radius ** 2
            mask[disk] = 0
            b[disk] = rng.uniform(-1.0, 1.0)
    elif spec.kind == "square_poisson":
        h = 1.0 / (n - 1)
        amp = SOURCE_MAGNITUDE / (h * h)
        for sign, (ri, rj) in zip((1.0, -1.0), SOURCE_POSITIONS):
            f[int(round(ri * (n - 1))), int(round(rj * (n - 1)))] = sign * amp

    p = make_problem(mask, b, f)
    if p.interior_count < .25 * n * n:
        raise ValueError(
            f"{spec.kind} at n = {n} keeps only {p.interior_count} interior cells"
        )
    return p


def random_geometry(n: int, rng: np.random.Generator) -> Problem:
    """Square domain carved by 1-3 random rectangular notches and disks.

    Used by validity sweeps: the mask is what matters, the boundary data
    is random per region and the source is zero.
    """
    mask, b = _frame_with_sides(n, rng.uniform(-1.0, 1.0, size=4))
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for _ in range(int(rng.integers(1, 4))):
        value = rng.uniform(-1.0, 1.0)
        if rng.uniform() < 0.5:
            ri, rj = rng.integers(1, n - 2, size=2)
            hh, ww = rng.integers(1, max(2, n // 4), size=2)
            region = (ii >= ri) & (ii < ri + hh) & (jj >= rj) & (jj < rj + ww)
        else:
            ci, cj = rng.uniform(1, n - 2, size=2)
            radius = rng.uniform(1.0, n / 6)
            region = (ii - ci) ** 2 + (jj - cj) ** 2 <= radius ** 2
        mask[region] = 0
        b[region] = value
    if not mask.any():  # carving may have filled the domain; keep one cell free
        mask[n // 2, n // 2] = 1
    return make_problem(mask, b, np.zeros((n, n)))
