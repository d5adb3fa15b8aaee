import numpy as np
import pytest

from poisolve.geometry import (
    SETTINGS,
    GeometrySpec,
    generate,
    random_geometry,
    square_problem,
)
from poisolve.iterators import ground_truth


class TestGenerate:
    def test_square_zero_sides_solution_is_zero(self):
        p = generate(GeometrySpec(kind="square", n=17, seed=0))
        zero_b = p.b.copy()
        zero_b[:] = 0.0
        from poisolve.grid import make_problem
        p0 = make_problem(p.mask, zero_b, p.f)
        assert np.abs(ground_truth(p0)).max() < 1e-12

    def test_square_problem_is_the_square_setting(self):
        p = generate(GeometrySpec(kind="square", n=17, seed=3))
        sides = np.random.default_rng(3).uniform(-1.0, 1.0, size=4)
        q = square_problem(17, sides)
        assert np.array_equal(p.mask, q.mask) and p.mask.dtype == q.mask.dtype
        assert np.array_equal(p.b, q.b)
        assert np.array_equal(p.f, q.f) and p.h == q.h

    @pytest.mark.parametrize("kind", SETTINGS)
    def test_settings_valid_and_reproducible(self, kind):
        a = generate(GeometrySpec(kind=kind, n=33, seed=5))
        b = generate(GeometrySpec(kind=kind, n=33, seed=5))
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.f, b.f)
        assert a.interior_count >= 0.25 * 33 * 33

    def test_lshape_notch_is_boundary(self):
        n = 32
        p = generate(GeometrySpec(kind="lshape", n=n, seed=1))
        notch = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                notch[i, j] = i < n / 2 and j >= n / 2
        assert np.all(p.mask[notch] == 0)
        assert np.all(p.b[notch] == 0.0)
        inner = p.mask[1:-1, 1:-1]
        assert inner.sum() > 0

    def test_cylinders_hold_their_constants(self):
        p = generate(GeometrySpec(kind="cylinders", n=33, seed=2))
        us = ground_truth(p)
        n, radius = 33, 33 / 8
        centers = [(0.25 * 32, 0.25 * 32), (0.25 * 32, 0.75 * 32), (0.625 * 32, 0.5 * 32)]
        for ci, cj in centers:
            ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            disk = (ii - ci) ** 2 + (jj - cj) ** 2 <= radius ** 2
            values = us[disk]
            assert np.all(p.mask[disk] == 0)
            assert np.abs(values - values[0]).max() == 0.0  # exact by reset
            assert np.abs(values[0]) <= 1.0

    def test_poisson_sources(self):
        n = 33
        p = generate(GeometrySpec(kind="square_poisson", n=n, seed=3))
        h2 = p.h ** 2
        nz = np.argwhere(p.f != 0.0)
        assert len(nz) == 2
        values = sorted(p.f[i, j] * h2 for i, j in nz)
        assert values == [-50.0, 50.0]
        us = ground_truth(p)
        assert np.isfinite(us).all()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown geometry"):
            GeometrySpec(kind="hexagon", n=17)


class TestRandomGeometry:
    def test_always_valid_problems(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = random_geometry(17, rng)
            assert p.interior_count >= 1
            assert np.all(p.mask[0] == 0) and np.all(p.mask[:, -1] == 0)

    def test_solvable(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            p = random_geometry(17, rng)
            us = ground_truth(p)
            assert np.isfinite(us).all()
