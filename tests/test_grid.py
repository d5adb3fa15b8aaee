from dataclasses import replace

import numpy as np
import pytest

from poisolve.grid import (
    FileFormatError,
    laplacian_apply,
    load_field,
    load_problem,
    make_problem,
    relative_error,
    reset,
    residual,
    residual_norms,
    save_field,
    save_problem,
    set_boundary,
)
from poisolve.geometry import SETTINGS, GeometrySpec, generate, random_geometry
from poisolve.iterators import ground_truth, jacobi_step

from conftest import padded_laplacian, square_problem


class TestLaplacian:
    def test_constant_is_harmonic(self):
        u = np.full((9, 9), 4.2)
        assert np.all(laplacian_apply(u, 0.125) == 0.0)

    def test_linear_ramp_is_harmonic(self):
        h = 0.2
        u = np.outer(np.arange(7) * h, np.ones(7))
        assert np.abs(laplacian_apply(u, h)[1:-1, 1:-1]).max() < 1e-12

    def test_center_bump_stencil(self):
        u = np.zeros((5, 5))
        u[2, 2] = 1.0
        out = laplacian_apply(u, 1.0)
        expected = np.zeros((5, 5))
        expected[2, 2] = -4.0
        expected[1, 2] = expected[3, 2] = expected[2, 1] = expected[2, 3] = 1.0
        assert np.array_equal(out, expected)

    def test_frame_is_zero(self):
        rng = np.random.default_rng(0)
        out = laplacian_apply(rng.standard_normal((8, 8)), 0.3)
        assert np.all(out[0] == 0) and np.all(out[-1] == 0)
        assert np.all(out[:, 0] == 0) and np.all(out[:, -1] == 0)

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            laplacian_apply(np.zeros((2, 2)), 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal((2, 11, 11))
        a, b = 0.7, -1.3
        lhs = laplacian_apply(a * u + b * v, 0.1)
        rhs = a * laplacian_apply(u, 0.1) + b * laplacian_apply(v, 0.1)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shape", [(17, 17), (3, 17, 17)])
    def test_is_the_residual_on_the_framed_f0_problem(self, shape):
        u = np.random.default_rng(2).standard_normal(shape)
        mask = np.zeros((17, 17))
        mask[1:-1, 1:-1] = 1
        q = make_problem(mask, np.zeros((17, 17)), np.zeros((17, 17)), h=0.3)
        assert np.array_equal(laplacian_apply(u, 0.3).view(np.int64),
                              residual(u, q).view(np.int64))

    @pytest.mark.parametrize("h", [0.0, -0.5, np.inf, np.nan])
    def test_bad_mesh_width_rejected(self, h):
        with pytest.raises(ValueError, match="mesh width must be finite and positive"):
            laplacian_apply(np.zeros((5, 5)), h)


class TestReset:
    def test_single_interior_cell(self):
        n = 5
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[2, 2] = 1
        b = np.arange(n * n, dtype=float).reshape(n, n)
        p = make_problem(mask, b, np.zeros((n, n)))
        u = np.full((n, n), -7.0)
        out = reset(u, p)
        assert out[2, 2] == -7.0
        out[2, 2] = p.b[2, 2]
        assert np.array_equal(out, p.b)

    def test_idempotent(self, p17):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((17, 17))
        once = reset(u, p17)
        assert np.array_equal(reset(once, p17), once)

    def test_identity_on_satisfied_boundary(self, p17):
        rng = np.random.default_rng(3)
        u = np.where(p17.mask == 1, rng.standard_normal((17, 17)), p17.b)
        assert np.array_equal(reset(u, p17), u)

    def test_zero_field_ones_boundary(self):
        p = square_problem(7, sides=(1, 1, 1, 1))
        out = reset(np.zeros((7, 7)), p)
        assert np.all(out[p.mask == 0] == 1.0)
        assert np.all(out[p.mask == 1] == 0.0)

    def test_dimension_mismatch(self, p17):
        with pytest.raises(ValueError):
            reset(np.zeros((5, 5)), p17)


class TestResidualNorms:
    def test_all_zero_problem(self):
        n = 9
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[1:-1, 1:-1] = 1
        p = make_problem(mask, np.zeros((n, n)), np.zeros((n, n)))
        assert residual_norms(p, np.zeros((n, n))) == (0.0, 0.0)

    def test_shape_mismatch_rejected(self, p17):
        with pytest.raises(ValueError, match=r"field shape \(5, 5\) does not match problem n=17"):
            residual_norms(p17, np.zeros((5, 5)))

    def test_ground_truth_passes(self, p17_poisson):
        u = ground_truth(p17_poisson)
        interior, boundary = residual_norms(p17_poisson, u)
        assert interior <= 1e-8 and boundary <= 1e-8

    def test_boundary_violation_magnitude(self):
        p = square_problem(7, sides=(1, 1, 1, 1))
        interior, boundary = residual_norms(p, np.zeros((7, 7)))
        assert boundary == 1.0

    def test_zero_iff_exact_solution_small_grid(self):
        """Vanishing residuals pin down the unique solution of the system."""
        rng = np.random.default_rng(4)
        for trial in range(3):
            n = 9
            mask = np.zeros((n, n), dtype=np.uint8)
            mask[1:-1, 1:-1] = 1
            mask[rng.integers(2, n - 2), rng.integers(2, n - 2)] = 0
            b = np.where(mask == 0, rng.standard_normal((n, n)), 0.0)
            f = rng.standard_normal((n, n))
            p = make_problem(mask, b, f)
            u = ground_truth(p)
            interior, boundary = residual_norms(p, u)
            assert interior < 1e-9 and boundary < 1e-12
            # any perturbation of an interior cell breaks it
            u[3, 3] += 1e-3
            assert residual_norms(p, u)[0] > 1e-5


    @pytest.mark.parametrize("n", [9, 17, 33, 65])
    def test_interior_matches_padded_formula(self, n):
        """The interior norm reads grid.residual, f + L u; bit for bit it is
        max |(-L u) - f| over the interior, also on -0.0, NaN and +-inf
        cells, since |(-L u) - f| = |L u + f| in round-to-nearest."""
        rng = np.random.default_rng(n)
        masks = [generate(GeometrySpec(kind=k, n=n, seed=1)).mask for k in SETTINGS]
        masks += [random_geometry(n, rng).mask for _ in range(3)]
        bits = lambda x: np.array(x, dtype=np.float64).view(np.int64)  # noqa: E731
        for k, mask in enumerate(masks):
            h = None if k < len(SETTINGS) else 0.3 / (n - 1)  # h*h rounds
            p = make_problem(mask, rng.standard_normal((n, n)),
                             rng.standard_normal((n, n)), h=h)
            outside = mask == 0
            fields = [rng.standard_normal((n, n)) for _ in range(6)]
            fields[1][rng.random((n, n)) < 0.5] = -0.0
            fields[2][rng.random((n, n)) < 0.05] = np.nan
            fields[3][outside] = np.inf  # interior cells next to it read inf
            fields[4][outside] = -np.inf
            fields[5][rng.random((n, n)) < 0.05] = np.inf
            fields[5][rng.random((n, n)) < 0.05] = -np.inf
            cases = [(p, u) for u in fields]
            cases.append((replace(p, f=np.full((n, n), -0.0)), np.full((n, n), -0.0)))
            for q, u in cases:
                with np.errstate(over="ignore", invalid="ignore"):
                    au = -padded_laplacian(u, q.h)
                    old = float(np.abs(np.where(q.mask == 1, au - q.f, 0.0)).max())
                    new = residual_norms(q, u)[0]
                assert bits(new) == bits(old)


class TestRelativeError:
    def test_exact_match(self):
        u = np.ones((4, 4))
        assert relative_error(u, u) == 0.0

    def test_double(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((6, 6))
        assert abs(relative_error(2 * u, u) - 1.0) < 1e-12

    def test_single_cell_perturbation(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((6, 6))
        delta = 0.37
        v = u.copy()
        v[2, 4] += delta
        assert abs(relative_error(v, u) - delta / np.linalg.norm(u)) < 1e-12

    def test_zero_reference(self):
        u = np.zeros((3, 3))
        u[1, 1] = 3.0
        assert relative_error(u, np.zeros((3, 3))) == 3.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(3, 3\) vs \(4, 4\)"):
            relative_error(np.zeros((3, 3)), np.ones((4, 4)))


class TestProblemInvariants:
    def test_frame_must_be_boundary(self):
        mask = np.ones((5, 5), dtype=np.uint8)
        with pytest.raises(ValueError, match="frame"):
            make_problem(mask, np.zeros((5, 5)), np.zeros((5, 5)))

    @pytest.mark.parametrize("dtype, cell", [
        (bool, True), (np.uint8, 1), (np.int64, 1), (np.float64, 1.0), (np.float64, -0.0),
        (np.int64, 2), (np.int64, -1), (np.float64, 2.0), (np.float64, 0.5),
        (np.float64, np.nan), (np.float64, np.inf), (np.float32, 1.0)])
    def test_mask_cells_zero_or_one(self, dtype, cell):
        mask = np.zeros((5, 5), dtype=dtype)
        mask[1:-1, 1:-1] = 1
        mask[2, 3] = cell
        # the membership test the comparison replaced
        if np.isin(mask, (0, 1)).all():
            p = make_problem(mask, np.zeros((5, 5)), np.zeros((5, 5)))
            assert p.mask.dtype == np.uint8 and p.mask[2, 3] == (cell == 1)
        else:
            with pytest.raises(ValueError, match="mask cells must be 0 or 1"):
                make_problem(mask, np.zeros((5, 5)), np.zeros((5, 5)))

    @pytest.mark.parametrize("token", ["2", "nan", "-nan", "0.5", "-1", "inf", "-0", "1.0", "1e0"])
    def test_loaded_mask_cells_zero_or_one(self, tmp_path, token):
        save_problem(square_problem(7), tmp_path / "p.txt")
        lines = (tmp_path / "p.txt").read_text().splitlines()
        row = lines[4].split()
        row[3] = token
        lines[4] = " ".join(row)
        (tmp_path / "p.txt").write_text("\n".join(lines) + "\n")
        if np.isin(float(token), (0.0, 1.0)):
            assert load_problem(tmp_path / "p.txt").mask[3, 3] == float(token)
        else:
            with pytest.raises(FileFormatError, match="^line 5: mask cells must be 0 or 1$"):
                load_problem(tmp_path / "p.txt")

    @pytest.mark.parametrize("mask_shape, b_shape, f_shape, match", [
        ((5, 4), (5, 4), (5, 4), r"mask must be square 2D, got shape \(5, 4\)"),
        ((25,), (25,), (25,), r"mask must be square 2D, got shape \(25,\)"),
        ((2, 2), (2, 2), (2, 2), "grid size must be at least 3, got 2"),
        ((5, 5), (4, 4), (5, 5), r"shape mismatch: mask \(5, 5\), b \(4, 4\), f \(5, 5\)"),
        ((5, 5), (5, 5), (5, 6), r"shape mismatch: mask \(5, 5\), b \(5, 5\), f \(5, 6\)"),
    ], ids=["non-square", "1d", "n-below-3", "b-shape", "f-shape"])
    def test_shapes_refused(self, mask_shape, b_shape, f_shape, match):
        mask = np.zeros(mask_shape, dtype=np.uint8)
        with pytest.raises(ValueError, match=f"^{match}$"):
            make_problem(mask, np.zeros(b_shape), np.zeros(f_shape))

    def test_needs_interior(self):
        mask = np.zeros((5, 5), dtype=np.uint8)
        with pytest.raises(ValueError, match="interior"):
            make_problem(mask, np.zeros((5, 5)), np.zeros((5, 5)))

    def test_b_zeroed_inside(self):
        n = 5
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[1:-1, 1:-1] = 1
        b = np.ones((n, n))
        p = make_problem(mask, b, np.zeros((n, n)))
        assert np.all(p.b[mask == 1] == 0.0)
        assert np.all(p.b[mask == 0] == 1.0)

    def test_rejects_nonfinite(self):
        n = 5
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[1:-1, 1:-1] = 1
        b = np.zeros((n, n))
        b[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            make_problem(mask, b, np.zeros((n, n)))

    def test_has_source(self):
        n = 5
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[1:-1, 1:-1] = 1
        f = np.zeros((n, n))
        f[0, 0] = -0.0
        p = make_problem(mask, np.zeros((n, n)), f)
        assert p.scaled_source is None
        f[2, 2] = 1e-300  # make_problem copied f
        assert p.scaled_source is None
        assert replace(p, f=f).scaled_source is not None
        assert replace(p, f=np.zeros((3, n, n))).scaled_source is None


class TestExterior:
    """A problem's exterior cells (mask != 1) are indexed once per mask."""

    @staticmethod
    def _lshape():
        return generate(GeometrySpec(kind="lshape", n=17, seed=0))

    def test_indices_are_the_cells_off_the_interior(self):
        p = self._lshape()
        assert np.array_equal(p.exterior.index, np.flatnonzero(p.mask.reshape(-1) != 1))
        cells, values = p.exterior[(17, 17)]
        assert np.array_equal(cells, p.exterior.index)
        assert np.array_equal(values, p.b.reshape(-1)[cells])

    def test_replace_keeps_the_index_and_reads_the_new_b(self):
        p = self._lshape()
        rng = np.random.default_rng(1)
        q = replace(p, f=rng.standard_normal((17, 17)))
        assert q.exterior is p.exterior  # same mask and b: nothing rebuilt
        b = np.where(p.mask == 1, 0.0, rng.standard_normal((17, 17)))
        r = replace(p, b=b)
        assert r.exterior.index is p.exterior.index
        cells, values = r.exterior[(17, 17)]
        assert np.array_equal(values, b.reshape(-1)[cells])
        assert np.array_equal(p.exterior[(17, 17)][1], p.b.reshape(-1)[cells])
        both = replace(r, b=p.b, f=q.f)
        assert both.exterior.index is p.exterior.index

    def test_replace_with_a_mask_of_another_size_takes_its_n(self):
        # a cylinders n = 17 problem given the n = 33 L-shape's arrays
        p = generate(GeometrySpec(kind="cylinders", n=17, seed=0))
        q = generate(GeometrySpec(kind="lshape", n=33, seed=0))
        moved = replace(p, mask=q.mask, b=q.b, f=q.f, h=q.h)
        assert moved.n == 33
        u = np.random.default_rng(5).standard_normal((33, 33))
        assert np.array_equal(jacobi_step(u, moved).view(np.int64),
                              jacobi_step(u, q).view(np.int64))
        assert np.array_equal(reset(u, moved), reset(u, q))

    @pytest.mark.parametrize("change", ["stacked-b", "other-mask"])
    def test_replace_refuses_a_b_not_of_the_masks_shape(self, change):
        # b is one field of the mask's shape, after dataclasses.replace too
        p = self._lshape()
        if change == "stacked-b":
            kwargs = {"b": np.zeros((2, 17, 17))}
        else:
            kwargs = {"mask": generate(GeometrySpec(kind="lshape", n=33, seed=0)).mask}
        with pytest.raises(ValueError, match="shape mismatch"):
            replace(p, **kwargs)

    def test_homogeneous_twin_shares_the_mask_data(self):
        p = self._lshape()
        z = p.homogeneous
        assert z is p.homogeneous  # built once
        assert z.mask is p.mask and z.h == p.h and z.scaled_source is None
        assert not z.b.any() and not z.f.any() and not z.b.flags.writeable
        assert z.exterior.index is p.exterior.index
        assert z.exterior.coarse is p.exterior.coarse

    def test_reset_writes_b_into_a_field_of_any_memory_order(self):
        p = self._lshape()
        u = np.random.default_rng(6).standard_normal((17, 17)).T  # Fortran order
        out = reset(u, p)
        assert np.array_equal(out[p.mask == 0], p.b[p.mask == 0])
        assert np.array_equal(out[p.mask == 1], u[p.mask == 1])

    @pytest.mark.parametrize("layout", ["fortran", "strided-stack"])
    def test_set_boundary_refuses_what_it_cannot_write_in_place(self, layout):
        # a flat view of these arrays is a copy, which would take the write
        p = self._lshape()
        rng = np.random.default_rng(7)
        if layout == "fortran":
            a = np.asfortranarray(rng.standard_normal((17, 17)))
        else:
            a = rng.standard_normal((3, 17, 17))[::2]
        before = a.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            set_boundary(a, p)
        assert np.array_equal(a, before)

    def test_replace_with_another_mask_rebuilds(self):
        p = self._lshape()
        other = generate(GeometrySpec(kind="cylinders", n=17, seed=0)).mask
        q = replace(p, mask=other)
        assert q.exterior.index is not p.exterior.index
        assert np.array_equal(q.exterior.index, np.flatnonzero(other.reshape(-1) != 1))

    def test_coarse_chain_is_the_injected_masks_with_zero_b(self):
        p = generate(GeometrySpec(kind="lshape", n=65, seed=0))
        level, mask = p.exterior, p.mask
        for nc in (33, 17, 9, 5, 3):
            mask = mask[::2, ::2]
            level = level.coarse
            assert np.array_equal(level.mask, mask) and level.mask.shape == (nc, nc)
            assert np.array_equal(level.b, np.zeros((nc, nc)))
            assert not level.mask.flags.writeable and not level.b.flags.writeable
            assert np.array_equal(level.index, np.flatnonzero(mask.reshape(-1) != 1))
            assert level.coarse is level.coarse  # built once
        # a 3 x 3 grid's injected 2 x 2 mask is all frame
        assert level.coarse is None

    def test_coarse_chain_stops_where_the_grid_does_not_halve(self):
        mask = np.zeros((18, 18), dtype=np.uint8)
        mask[1:-1, 1:-1] = 1
        assert make_problem(mask, np.zeros((18, 18)), np.zeros((18, 18))).exterior.coarse is None

    def test_replace_shares_the_coarse_chain(self):
        # whichever Exterior of the mask builds it first
        p = self._lshape()
        b = np.where(p.mask == 1, 0.0, 1.0)
        r = replace(p, b=b)
        chain = r.exterior.coarse
        assert chain is p.exterior.coarse is replace(r, b=p.b).exterior.coarse
        assert chain is replace(p, f=np.ones((17, 17)), h=0.5).exterior.coarse
        assert replace(p, mask=p.mask.copy()).exterior.coarse is not chain

    @pytest.mark.parametrize("lead", [(3,), (3, 1), (2, 2)])
    def test_stacks_repeat_the_index_per_field(self, lead):
        p = self._lshape()
        cells, values = p.exterior[lead + (17, 17)]
        k = p.exterior.index.size
        fields = int(np.prod(lead))
        assert np.array_equal(cells.reshape(fields, k) - 17 * 17 * np.arange(fields)[:, None],
                              np.broadcast_to(p.exterior.index, (fields, k)))
        assert np.array_equal(values, np.tile(p.b.reshape(-1)[p.exterior.index], fields))
        assert p.exterior[lead + (17, 17)][0] is cells  # kept for the next lookup

    def test_wrong_field_size_rejected(self):
        p = self._lshape()
        with pytest.raises(ValueError, match="does not match problem n=17"):
            jacobi_step(np.zeros((9, 9)), p)


class TestFileRoundTrips:
    def test_field_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((6, 6)) * 1e3
        path = tmp_path / "field.txt"
        save_field(u, path)
        v = load_field(path)
        assert np.array_equal(u, v)
        save_field(v, tmp_path / "field2.txt")
        assert (tmp_path / "field.txt").read_text() == (tmp_path / "field2.txt").read_text()

    def test_problem_round_trip(self, tmp_path, p17_poisson):
        path = tmp_path / "problem.txt"
        save_problem(p17_poisson, path)
        q = load_problem(path)
        assert q.n == p17_poisson.n and q.h == p17_poisson.h
        assert np.array_equal(q.mask, p17_poisson.mask)
        assert np.array_equal(q.b, p17_poisson.b)
        assert np.array_equal(q.f, p17_poisson.f)

    def test_field_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3\n1 2 3\n4 5 6\n")
        with pytest.raises(FileFormatError):
            load_field(path)

    def test_field_row_width_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n3\n")
        with pytest.raises(FileFormatError) as err:
            load_field(path)
        assert err.value.line == 3

    def test_problem_mask_interior_on_frame(self, tmp_path, p17):
        path = tmp_path / "problem.txt"
        save_problem(p17, path)
        lines = path.read_text().splitlines()
        row1 = lines[1].split()
        row1[0] = "1"  # interior cell on the frame
        lines[1] = " ".join(row1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="frame"):
            load_problem(path)

    def test_problem_bad_token(self, tmp_path, p17):
        path = tmp_path / "problem.txt"
        save_problem(p17, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("0", "x", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            load_problem(path)
