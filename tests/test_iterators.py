import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from poisolve import grid, iterators
from poisolve.geometry import SETTINGS, GeometrySpec, generate, random_geometry
from poisolve.grid import (
    laplacian_apply,
    make_problem,
    relative_error,
    reset,
    residual,
    residual_norms,
)
from poisolve.iterators import (
    POST_SMOOTH,
    PRE_SMOOTH,
    REFERENCE_TOL,
    SMOOTH_OMEGA,
    VCYCLE_PRECONDITIONER_MIN_N,
    JacobiIterator,
    MultigridIterator,
    ReferenceSolveError,
    _deepest_depth,
    _preconditioner,
    damped_jacobi_step,
    ground_truth,
    jacobi_step,
    prolong_bilinear,
    restrict_full_weighting,
    solve_to_tol,
)
from poisolve.model import PhiIterator, init_model, load_model

from conftest import (
    boundary_bits_equal,
    neighbor_mean,
    padded_laplacian,
    square_problem,
    with_negative_zeros,
)
from paper_constructs import quarter_cross_model, scale_model, zero_model

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


class TestJacobiStep:
    def test_constant_fixed_point(self):
        p = square_problem(9, sides=(1, 1, 1, 1))
        u = np.ones((9, 9))
        assert np.array_equal(jacobi_step(u, p), u)

    def test_neighbor_average_formula(self):
        p = square_problem(5, sides=(0, 0, 0, 0))
        u = np.zeros((5, 5))
        u[1, 2] = 4.0  # north neighbor of (2, 2)
        assert jacobi_step(u, p)[2, 2] == 1.0

    def test_homogeneous_is_linear_with_zero_at_zero(self):
        p = square_problem(9, sides=(0, 0, 0, 0))
        assert np.all(jacobi_step(np.zeros((9, 9)), p) == 0.0)
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((2, 9, 9))
        lhs = jacobi_step(0.3 * u + 0.7 * v, p)
        rhs = 0.3 * jacobi_step(u, p) + 0.7 * jacobi_step(v, p)
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_source_term_enters_scaled(self):
        f = np.zeros((5, 5))
        f[2, 2] = 8.0
        p = square_problem(5, sides=(0, 0, 0, 0), f=f)
        out = jacobi_step(np.zeros((5, 5)), p)
        assert abs(out[2, 2] - 0.25 * p.h ** 2 * 8.0) < 1e-15

    def test_cost(self, p17):
        assert JacobiIterator().step_cost(p17) == (1, 4 * 15 * 15)


class TestAffinity:
    """step(a*u + (1-a)*v) == a*step(u) + (1-a)*step(v) for affine maps."""

    @pytest.mark.parametrize("make_iter", [
        lambda: JacobiIterator(),
        lambda: MultigridIterator(2),
    ])
    def test_affine_combination(self, make_iter, p17_poisson):
        it = make_iter()
        rng = np.random.default_rng(1)
        for alpha in (0.5, -1.5, 2.0):
            u, v = rng.standard_normal((2, 17, 17))
            lhs = it.step(alpha * u + (1 - alpha) * v, p17_poisson)
            rhs = alpha * it.step(u, p17_poisson) + (1 - alpha) * it.step(v, p17_poisson)
            assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    @pytest.mark.parametrize("make_iter", [
        lambda: JacobiIterator(),
        lambda: MultigridIterator(2),
        lambda: PhiIterator(JacobiIterator(), init_model("conv3", seed=2)),
        lambda: PhiIterator(JacobiIterator(), init_model("unet2", seed=2)),
    ])
    def test_boundary_exact_after_step(self, make_iter, p17_poisson):
        # b's bits come back, -0.0 included, on a field and on a stack
        p = with_negative_zeros(p17_poisson)
        rng = np.random.default_rng(2)
        for lead in ((), (3,)):
            u = make_iter().step(rng.standard_normal(lead + (17, 17)), p)
            assert boundary_bits_equal(u, p)


class TestMultigrid:
    def test_fixed_point_preserved(self, p17_poisson):
        us = ground_truth(p17_poisson)
        mg = MultigridIterator(2)
        assert np.abs(mg.step(us, p17_poisson) - us).max() < 1e-12 * max(1, np.abs(us).max())

    def test_one_vcycle_beats_eight_jacobi_sweeps(self):
        rng = np.random.default_rng(3)
        p = square_problem(65, sides=tuple(rng.uniform(-1, 1, 4)))
        us = ground_truth(p)
        u0 = rng.standard_normal((65, 65))
        mg = MultigridIterator(2)
        e_mg = relative_error(mg.step(u0, p), us)
        uj = u0
        for _ in range(8):
            uj = jacobi_step(uj, p)
        assert e_mg < relative_error(uj, us)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            MultigridIterator(0)
        with pytest.raises(ValueError, match="divisible"):
            MultigridIterator(2).step(np.zeros((18, 18)), square_problem(18))
        with pytest.raises(ValueError, match="coarsest"):
            MultigridIterator(4).step(np.zeros((17, 17)), square_problem(17))
        with pytest.raises(ValueError):
            MultigridIterator(3).step(np.zeros((21, 21)), square_problem(21))

    @pytest.mark.parametrize("depth", range(1, 9))
    @pytest.mark.parametrize("n", [9, 17, 18, 21, 33, 65, 257])
    def test_grid_size_rule_agrees(self, n, depth):
        """V-cycle validation, ground_truth's depth and U-net compatibility
        apply one rule: n - 1 divisible by 2^depth, coarsest grid >= 3."""
        fits = (n - 1) % 2 ** depth == 0 and (n - 1) // 2 ** depth + 1 >= 3
        try:
            MultigridIterator(depth).step_cost(square_problem(n))
            mg_fits = True
        except ValueError as exc:
            assert "divisible" in str(exc) or "coarsest" in str(exc)
            mg_fits = False
        assert mg_fits == fits
        assert (_deepest_depth(n) >= depth) == fits
        try:
            init_model(f"unet{depth}", seed=0).check_compatible(n)
            net_fits = True
        except ValueError:
            net_fits = False
        assert net_fits == fits

    def test_vcycle_cost_sums_levels(self, ):
        p = square_problem(17)
        mg = MultigridIterator(2)
        layers, ops = mg.step_cost(p)
        # sweeps: 4 per level over 3 levels; transfers: 2 per descent
        assert layers == 4 * 3 + 2 * 2
        expected_ops = (4 * 4 * 15 * 15 + 4 * 4 * 7 * 7 + 4 * 4 * 3 * 3
                        + 9 * 9 * 9 + 4 * 17 * 17 + 9 * 5 * 5 + 4 * 9 * 9)
        assert ops == expected_ops

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_new_mesh_width_on_the_same_mask_matches_a_fresh_iterator(self, lead):
        # the levels must take h from the problem stepped, not from the
        # first problem seen with that mask object
        p = generate(GeometrySpec(kind="square_poisson", n=65, seed=0))
        q = replace(p, h=p.h / 2)
        assert q.mask is p.mask
        u = np.random.default_rng(11).standard_normal(lead + (65, 65))
        mg = MultigridIterator(2)
        mg.step(u, p)
        assert _same_bits(mg.step(u, q), MultigridIterator(2).step(u, q))
        assert vars(mg) == {"depth": 2, "name": "mg2"}  # nothing cached

    def test_instances_share_one_chain_per_mask(self, monkeypatch):
        p = generate(GeometrySpec(kind="lshape", n=65, seed=0))
        u = np.random.default_rng(12).standard_normal((65, 65))
        r = residual(u, p)
        # the preconditioner's b = 0 problem runs the deepest cycle at n = 65
        assert _deepest_depth(65) == 5
        _preconditioner(p)(r)
        assert p.homogeneous.exterior.index is p.exterior.index
        assert p.homogeneous.exterior.coarse is p.exterior.coarse
        built = []

        class Counting(grid.Exterior):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(grid, "Exterior", Counting)
        MultigridIterator(2).step(u, p)
        MultigridIterator(3).step(u, p)
        MultigridIterator(3).step_cost(p)
        assert built == []
        # a second preconditioner reuses the problem's b = 0 twin
        _preconditioner(p)(r)
        assert built == []

    def test_one_instance_alternating_masks_matches_fresh_instances(self):
        ps = [generate(GeometrySpec(kind=kind, n=65, seed=0)) for kind in ("lshape", "cylinders")]
        rng = np.random.default_rng(13)
        mg = MultigridIterator(2)
        for p in ps + ps + ps[::-1]:
            u = rng.standard_normal((65, 65))
            assert _same_bits(mg.step(u, p), MultigridIterator(2).step(u, p))

    def test_mask_with_no_injected_interior_bottoms_out_at_the_fine_level(self):
        # interior cells on odd rows only: mask[::2, ::2] is all boundary
        n = 17
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[1:-1:2, 1:-1] = 1
        rng = np.random.default_rng(14)
        p = make_problem(mask, rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        assert p.exterior.coarse is None
        u = rng.standard_normal((n, n))
        expect = u
        for _ in range(PRE_SMOOTH + POST_SMOOTH):
            expect = damped_jacobi_step(expect, p, SMOOTH_OMEGA)
        for depth in (1, 2, 3):
            mg = MultigridIterator(depth)
            assert _same_bits(mg.step(u, p), expect)
            sweeps = PRE_SMOOTH + POST_SMOOTH
            # 4 mul-adds per sweep on each of 8 rows x 15 interior cells
            assert mg.step_cost(p) == (sweeps, sweeps * 4 * 8 * 15)


class TestFixedPointProperty:
    def test_stationary_point_solves_system(self, p17_poisson):
        """Any u with step(u) ~= u satisfies the discrete equations."""
        us = ground_truth(p17_poisson)
        for it in (JacobiIterator(), MultigridIterator(2)):
            u = us + 1e-13 * np.ones_like(us)
            assert np.abs(it.step(u, p17_poisson) - u).max() < 1e-10
            interior, boundary = residual_norms(p17_poisson, u)
            assert interior <= 1e-8 and boundary <= 1e-8

    def test_jacobi_error_decays_to_zero(self):
        rng = np.random.default_rng(4)
        p = square_problem(17, sides=tuple(rng.uniform(-1, 1, 4)))
        us = ground_truth(p)
        it = JacobiIterator()
        u = rng.standard_normal((17, 17))
        errors = []
        for _ in range(600):
            u = it.step(u, p)
            errors.append(relative_error(u, us))
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-3


class TestSolveToTol:
    def test_exact_start_costs_nothing(self, p17):
        us = ground_truth(p17)
        u, rep = solve_to_tol(JacobiIterator(), p17, us, 1e-8, 100, u_star=us)
        assert rep.iterations == 0 and rep.converged

    def test_jacobi_converges_on_16ish_grid(self):
        rng = np.random.default_rng(5)
        p = square_problem(17, sides=tuple(rng.uniform(-1, 1, 4)))
        us = ground_truth(p)
        u0 = rng.standard_normal((17, 17))
        u, rep = solve_to_tol(JacobiIterator(), p, u0, 1e-2, 100000, u_star=us)
        assert rep.converged and rep.iterations > 0
        assert relative_error(u, us) <= 1e-2

    def test_budget_zero_reports_not_converged(self, p17):
        us = ground_truth(p17)
        u0 = us + 1.0
        _, rep = solve_to_tol(JacobiIterator(), p17, u0, 1e-6, 0, u_star=us)
        assert not rep.converged and rep.iterations == 0

    def test_residual_stopping_without_reference(self, p17_poisson):
        u0 = reset(np.zeros((17, 17)), p17_poisson)
        u, rep = solve_to_tol(JacobiIterator(), p17_poisson, u0, 1e-3, 100000)
        assert rep.converged
        initial = residual_norms(p17_poisson, u0)[0]
        assert residual_norms(p17_poisson, u)[0] <= 1e-3 * initial

    def test_stopping_error_is_relative_error(self, p17_poisson):
        us = ground_truth(p17_poisson)
        u0 = np.random.default_rng(12).standard_normal((17, 17))
        for steps in (0, 7):
            u, rep = solve_to_tol(JacobiIterator(), p17_poisson, u0, 1e-9, steps,
                                  u_star=us)
            assert rep.final_relative_error == relative_error(u, us)
        # u* = 0: the absolute norm, as relative_error reads it
        u, rep = solve_to_tol(JacobiIterator(), p17_poisson, u0, 1e-9, 3,
                              u_star=np.zeros((17, 17)))
        assert rep.final_relative_error == relative_error(u, np.zeros((17, 17)))

    def test_reference_shape_mismatch_rejected(self, p17):
        with pytest.raises(ValueError, match="shape mismatch"):
            solve_to_tol(JacobiIterator(), p17, np.zeros((17, 17)), 1e-2, 10,
                         u_star=np.zeros((9, 9)))

    @pytest.mark.parametrize("arch", ["conv3", "unet2"])
    def test_divergent_solve_reports_inf(self, arch):
        # the shipped kernels scaled by 10 diverge, and no overflow may warn;
        # unet2's overflowing iterates also pass its stride-2 and transposed layers
        model = scale_model(load_model(MODELS / f"{arch}.model"), 10.0)
        p = generate(GeometrySpec(kind="lshape", n=33))
        u0 = reset(np.random.default_rng(0).standard_normal((33, 33)), p)
        for u_star in (None, ground_truth(p)):
            _, rep = solve_to_tol(PhiIterator(JacobiIterator(), model), p, u0, 1e-6, 3000,
                                  u_star=u_star)
            assert not rep.converged
            assert rep.final_relative_error == float("inf")

    @pytest.mark.parametrize("solver", ["jacobi", "mg2", "quarter_cross", "conv3x10"])
    @pytest.mark.parametrize("kind", SETTINGS)
    def test_residual_mode_matches_reference_stopping_test(self, solver, kind):
        # conv3x10 diverges: inf, and no overflow may warn
        it = {"jacobi": JacobiIterator(), "mg2": MultigridIterator(2),
              "quarter_cross": PhiIterator(JacobiIterator(), quarter_cross_model()),
              "conv3x10": PhiIterator(JacobiIterator(), scale_model(
                  load_model(MODELS / "conv3.model"), 10.0))}[solver]
        p = generate(GeometrySpec(kind=kind, n=33, seed=0))
        u0 = reset(np.random.default_rng(3).standard_normal((33, 33)), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, rep = solve_to_tol(it, p, u0, 1e-3, 5000)
        ref_u, steps, err = _ref_residual_solve(it, p, u0, 1e-3, 5000)
        assert rep.iterations == steps and _same_bits(u, ref_u)
        assert rep.final_relative_error == err
        assert rep.converged == (solver != "conv3x10")

    @pytest.mark.parametrize("solver", ["jacobi", "mg2", "conv3", "conv3_zero"])
    @pytest.mark.parametrize("with_reference", [False, True])
    def test_back_to_back_solves_return_their_own_fields(self, solver, with_reference):
        # the error test rewrites one buffer per solve: no returned field may
        # be that buffer or share memory with the next solve's
        it = {"jacobi": JacobiIterator(), "mg2": MultigridIterator(2),
              "conv3": PhiIterator(JacobiIterator(), load_model(MODELS / "conv3.model")),
              "conv3_zero": PhiIterator(JacobiIterator(), zero_model("conv3"))}[solver]
        p = generate(GeometrySpec(kind="lshape", n=33, seed=0))
        u0 = reset(np.random.default_rng(4).standard_normal((33, 33)), p)
        u_star = ground_truth(p) if with_reference else None
        first, rep1 = solve_to_tol(it, p, u0, 1e-2, 5000, u_star=u_star)
        kept = first.copy()
        second, rep2 = solve_to_tol(it, p, u0, 1e-2, 5000, u_star=u_star)
        assert rep1.converged and rep1.iterations > 0
        assert not np.shares_memory(first, second)
        assert _same_bits(first, kept)
        assert _same_bits(first, second) and rep1 == rep2

    def test_cost_accumulation(self, p17):
        rng = np.random.default_rng(6)
        u0 = rng.standard_normal((17, 17))
        us = ground_truth(p17)
        _, rep = solve_to_tol(JacobiIterator(), p17, u0, 0.05, 100000, u_star=us)
        assert rep.conv_layers == rep.iterations
        assert rep.mul_adds == rep.iterations * 4 * 15 * 15


def _ref_residual_solve(it, p, u0, threshold, max_steps):
    """solve_to_tol's residual mode over the padded formula: the stopping
    norm is max |(-laplacian u) - f| over the interior, with the boundary
    violation left out. Returns (u, iterations, final error)."""
    def interior(u):
        with np.errstate(over="ignore", invalid="ignore"):
            au = -padded_laplacian(u, p.h)
            return float(np.abs(np.where(p.mask == 1, au - p.f, 0.0)).max())

    initial = interior(u0)
    scale = initial if initial > 0 else 1.0
    u, steps, err = u0, 0, interior(u0) / scale
    while err > threshold and steps < max_steps:
        u = it.step(u, p)
        steps += 1
        err = interior(u) / scale
        if not np.isfinite(err):
            break
    return u, steps, err if np.isfinite(err) else float("inf")


class TestGroundTruth:
    def test_constant_boundary(self):
        p = square_problem(17, sides=(0.6, 0.6, 0.6, 0.6))
        us = ground_truth(p)
        assert np.abs(us - 0.6).max() < 1e-10

    def test_strip_is_linear_interpolation(self):
        """Identical rows in b give a solution linear across the columns."""
        n = 17
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[1:-1, 1:-1] = 1
        cols = np.linspace(0.25, -0.5, n)
        b = np.tile(cols, (n, 1))
        p = make_problem(mask, b, np.zeros((n, n)))
        us = ground_truth(p)
        assert np.abs(us - np.tile(cols, (n, 1))).max() < 1e-9

    def test_dense_vs_multigrid_cross_check(self):
        rng = np.random.default_rng(7)
        p = square_problem(17, sides=tuple(rng.uniform(-1, 1, 4)))
        us = ground_truth(p)
        mg = MultigridIterator(2)
        u = reset(np.zeros((17, 17)), p)
        for _ in range(200):
            u_next = mg.step(u, p)
            if np.abs(u_next - u).max() <= 1e-12:
                u = u_next
                break
            u = u_next
        assert np.abs(u - us).max() <= 1e-8


def _gate(p, u):
    interior, boundary = residual_norms(p, u)
    return interior <= REFERENCE_TOL and boundary <= REFERENCE_TOL


def _coefficient_loop(p):
    """The oracle's system: A and the right-hand side of p, interior
    equations and boundary identities u = b, written cell by cell."""
    n = p.n
    A = np.zeros((n * n, n * n))
    rhs = np.zeros(n * n)
    inv_h2 = 1.0 / (p.h * p.h)
    for i in range(n):
        for j in range(n):
            k = i * n + j
            if p.mask[i, j] == 0:
                A[k, k] = 1.0
                rhs[k] = p.b[i, j]
            else:
                A[k, k] = 4.0 * inv_h2
                for other in (k - n, k + n, k - 1, k + 1):
                    A[k, other] = -inv_h2
                rhs[k] = p.f[i, j]
    return A, rhs


class TestReferenceCG:
    """ground_truth: restarted CG, Jacobi-scaled below
    VCYCLE_PRECONDITIONER_MIN_N and V-cycle-preconditioned from there on."""

    @pytest.mark.parametrize("kind", [*SETTINGS, "random"])
    def test_matches_dense_oracle(self, kind):
        """kind's geometry, or three random masks, at n = 9, 17, 32 and 33."""
        for n in (9, 17, 32, 33):
            if kind == "random":
                rng = np.random.default_rng(n)
                problems = [random_geometry(n, rng) for _ in range(3)]
            else:
                problems = [generate(GeometrySpec(kind=kind, n=n, seed=0))]
            for p in problems:
                oracle = np.linalg.solve(*_coefficient_loop(p)).reshape(n, n)
                assert np.abs(ground_truth(p) - oracle).max() <= 1e-9

    @pytest.mark.parametrize("n", [65, 257])
    def test_lshape_meets_gate(self, n):
        """The deepest V-cycle alone diverges here; as a preconditioner it does not."""
        p = generate(GeometrySpec(kind="lshape", n=n, seed=0))
        assert _gate(p, ground_truth(p))

    @pytest.mark.parametrize("kind", SETTINGS)
    def test_even_grid_meets_gate(self, kind):
        """n - 1 = 99 admits no coarsening: CG with Jacobi scaling."""
        assert _deepest_depth(100) == 0
        p = generate(GeometrySpec(kind=kind, n=100, seed=0))
        assert _gate(p, ground_truth(p))

    def test_random_masks_meet_gate(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            p = random_geometry(65, rng)
            assert _gate(p, ground_truth(p))

    def test_preconditioner_is_symmetric_positive(self):
        """One V-cycle at the cut, the Jacobi scaling below it (n = 17,
        where a three-level cycle would fit)."""
        rng = np.random.default_rng(12)
        for n in (VCYCLE_PRECONDITIONER_MIN_N, 17):
            p = generate(GeometrySpec(kind="lshape", n=n, seed=0))
            precondition = _preconditioner(p)
            r1, r2 = np.where(p.mask == 1, rng.standard_normal((2, n, n)), 0.0)
            a, b = np.vdot(r1, precondition(r2)), np.vdot(r2, precondition(r1))
            assert abs(a - b) <= 1e-12 * abs(a)
            assert np.vdot(r1, precondition(r1)) > 0
            jacobi = np.array_equal(precondition(r1), 0.25 * p.h * p.h * r1)
            assert jacobi == (n < VCYCLE_PRECONDITIONER_MIN_N)

    def test_indefinite_preconditioner_raises(self, monkeypatch):
        monkeypatch.setattr(iterators, "_preconditioner", lambda p: lambda r: -r)
        p = generate(GeometrySpec(kind="square", n=65, seed=0))
        with pytest.raises(ReferenceSolveError, match="not positive definite"):
            ground_truth(p)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(iterators, "PCG_MAX_ITERATIONS_PER_N", 0)
        p = generate(GeometrySpec(kind="square", n=65, seed=0))
        with pytest.raises(ReferenceSolveError, match="did not reach"):
            ground_truth(p)

    def test_large_source_meets_rounding_floor(self):
        """f x 1000: rounding in f - A u alone exceeds 1e-8, however exact u is."""
        p = generate(GeometrySpec(kind="square_poisson", n=65, seed=0))
        big = replace(p, f=1000.0 * p.f)
        u = ground_truth(big)
        interior = residual_norms(big, u)[0]
        scale = np.abs(big.f).max() + 8 * np.abs(u).max() / big.h ** 2
        assert REFERENCE_TOL < interior <= 4 * np.finfo(np.float64).eps * scale
        # u is linear in (b, f)
        ref = ground_truth(p) + 999.0 * ground_truth(replace(p, b=np.zeros((65, 65))))
        assert np.abs(u - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_gate_raises_after_restarts(self, monkeypatch):
        monkeypatch.setattr(iterators, "REFERENCE_RESTARTS", 0)
        p = generate(GeometrySpec(kind="square", n=65, seed=0))
        with pytest.raises(ReferenceSolveError, match="residual check failed"):
            ground_truth(p)


# ------------------------------------------------------------------
# The flat-view stencil kernels against the padded formulas they replace.
# ------------------------------------------------------------------

def _ref_jacobi(u, p):
    hat = neighbor_mean(u) + 0.25 * p.h * p.h * p.f
    return np.where(p.mask == 1, hat, p.b)


def _ref_damped(u, p, omega):
    hat = (1.0 - omega) * u + omega * (neighbor_mean(u) + 0.25 * p.h * p.h * p.f)
    return np.where(p.mask == 1, hat, p.b)


def _ref_residual(u, p):
    return np.where(p.mask == 1, p.f + padded_laplacian(u, p.h), 0.0)


def _ref_levels(p, depth):
    """The cycle's coarse levels, built apart from the code under test:
    injected masks through make_problem with zero data, h doubled."""
    levels, mask, h = [], p.mask, p.h
    for _ in range(depth):
        mask, h = mask[::2, ::2], 2.0 * h
        if not mask.any():
            break
        nc = mask.shape[0]
        levels.append(make_problem(mask, np.zeros((nc, nc)), np.zeros((nc, nc)), h=h))
    return levels


def _ref_cycle(u, p, coarse, level):
    """MultigridIterator._cycle, written with the reference kernels."""
    if level == len(coarse):
        for _ in range(PRE_SMOOTH + POST_SMOOTH):
            u = _ref_damped(u, p, SMOOTH_OMEGA)
        return u
    for _ in range(PRE_SMOOTH):
        u = _ref_damped(u, p, SMOOTH_OMEGA)
    pc = coarse[level]
    fc = np.where(pc.mask == 1, restrict_full_weighting(_ref_residual(u, p)), 0.0)
    ec = _ref_cycle(np.zeros(fc.shape), replace(pc, f=fc), coarse, level + 1)
    u = u + np.where(p.mask == 1, prolong_bilinear(ec, p.n), 0.0)
    for _ in range(POST_SMOOTH):
        u = _ref_damped(u, p, SMOOTH_OMEGA)
    return u


def _interior_source(p):
    """p with f zeroed at its exterior cells, which no kernel reads."""
    return replace(p, f=np.where(p.mask == 1, p.f, 0.0))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


def _stencil_problems(n):
    """The four settings and two random geometries, with random data.

    At n = 3 the only mask with an interior is the single centre cell;
    the geometry generators start at n = 9. The last problem repeats the
    first mask with a mesh width that is not a power of two, so that h*h
    rounds.
    """
    rng = np.random.default_rng(n)
    if n == 3:
        masks = [np.pad(np.ones((1, 1), dtype=np.uint8), 1)]
    else:
        masks = [generate(GeometrySpec(kind=kind, n=n, seed=1)).mask
                 for kind in ("square", "lshape", "cylinders", "square_poisson")]
        masks += [random_geometry(n, rng).mask for _ in range(2)]
    hs = [None] * len(masks) + [0.3 / (n - 1)]
    return [make_problem(m, rng.standard_normal((n, n)), rng.standard_normal((n, n)), h=h)
            for m, h in zip(masks + masks[:1], hs)]


KERNELS = {
    "jacobi": (jacobi_step, _ref_jacobi),
    "damped": (lambda u, p: damped_jacobi_step(u, p, 2.0 / 3.0),
               lambda u, p: _ref_damped(u, p, 2.0 / 3.0)),
    "damped_half": (lambda u, p: damped_jacobi_step(u, p, 0.5),
                    lambda u, p: _ref_damped(u, p, 0.5)),
    "residual": (residual, _ref_residual),
    "laplacian": (lambda u, p: laplacian_apply(u, p.h),
                  lambda u, p: padded_laplacian(u, p.h)),
}


class TestFlatStencil:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n", [3, 17, 65])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_matches_padded_formula(self, kernel, n, lead):
        # the problems hold random f at their exterior cells too
        fn, ref = KERNELS[kernel]
        rng = np.random.default_rng(7)
        for p in _stencil_problems(n):
            u = rng.standard_normal(lead + (n, n))
            out = fn(u, p)
            assert _same_bits(out, ref(u, p))
            assert _same_bits(out, fn(u, _interior_source(p)))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n", [3, 17, 65])
    def test_stacked_data_as_in_training_unroll(self, kernel, n):
        # u and f stacked per sample, shape (B, 1, n, n), as a training
        # unroll stacks its errors and the V-cycle its restricted residuals;
        # b stays the problem's one (n, n) field
        fn, ref = KERNELS[kernel]
        rng = np.random.default_rng(8)
        for p in _stencil_problems(n):
            ps = replace(p, f=rng.standard_normal((4, 1, n, n)))
            u = rng.standard_normal((4, 1, n, n))
            assert _same_bits(fn(u, ps), ref(u, ps))
            # and a retiring unroll's leading rows
            ps2 = replace(ps, f=ps.f[:2])
            assert _same_bits(fn(u[:2], ps2), ref(u[:2], ps2))

    @pytest.mark.parametrize("kernel", ["jacobi", "damped", "damped_half"])
    @pytest.mark.parametrize("n", [3, 17, 65])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_homogeneous_sweeps_match_padded_formula(self, kernel, n, lead):
        # with f = 0 the sweeps skip adding (h^2/4) f: equal values, though an
        # exact zero may keep the sign that adding +0.0 would have cleared
        fn, ref = KERNELS[kernel]
        rng = np.random.default_rng(10)
        for p in _stencil_problems(n):
            u = rng.standard_normal(lead + (n, n))
            u[..., : n // 2, :] = -0.0
            for f in (np.zeros((n, n)), np.full(lead + (n, n), -0.0)):
                ph = replace(p, f=f)
                out, expect = fn(u, ph), ref(u, ph)
                assert out.shape == expect.shape and np.array_equal(out, expect)

    def test_frame_cells_hold_boundary_values(self):
        # NaN everywhere: nothing computed from the wrapped reads survives
        p = _stencil_problems(17)[1]
        u = np.full((17, 17), np.nan)
        for kernel in ("jacobi", "damped"):
            out = KERNELS[kernel][0](u, p)
            assert np.array_equal(out[p.mask == 0], p.b[p.mask == 0])
        assert np.all(residual(u, p)[p.mask == 0] == 0.0)

    def test_cycles_and_preconditioner_build_no_exterior(self, monkeypatch):
        # the V-cycle's replace(pc, f=fc) and the preconditioner's problem
        # with the residual as source reuse their level's exterior data
        p = generate(GeometrySpec(kind="lshape", n=65, seed=0))
        mg = MultigridIterator(2)
        u = np.random.default_rng(5).standard_normal((65, 65))
        mg.step(u, p)
        precondition = _preconditioner(p)
        precondition(residual(u, p))
        built = []

        class Counting(grid.Exterior):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(grid, "Exterior", Counting)
        for _ in range(2):
            mg.step(u, p)
            precondition(residual(u, p))
        assert built == []

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("n", [17, 65])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_vcycle_matches_reference_cycle(self, depth, n, lead):
        rng = np.random.default_rng(9)
        for p in _stencil_problems(n):
            mg = MultigridIterator(depth)
            u = rng.standard_normal(lead + (n, n))
            ref = _ref_cycle(u, p, _ref_levels(p, depth), 0)
            out = mg.step(u, p)
            assert _same_bits(out, ref)
            # no f at an exterior cell is read, on any level
            assert _same_bits(out, mg.step(u, _interior_source(p)))


# ------------------------------------------------------------------
# A step returns an array of its own and never writes its input: the
# V-cycle adds its correction into its pre-smoothed iterate in place,
# and the wrapped iterator its correction into the base step's output.
# ------------------------------------------------------------------

STEPPERS = {
    "jacobi": lambda: JacobiIterator(),
    "mg1": lambda: MultigridIterator(1),
    "mg2": lambda: MultigridIterator(2),
    "mg3": lambda: MultigridIterator(3),
    "conv3": lambda: PhiIterator(JacobiIterator(), load_model(MODELS / "conv3.model")),
    "unet2": lambda: PhiIterator(JacobiIterator(), load_model(MODELS / "unet2.model")),
    "unet2-over-mg2": lambda: PhiIterator(MultigridIterator(2),
                                          load_model(MODELS / "unet2.model")),
}


class TestStepKeepsItsInput:
    @pytest.mark.parametrize("solver", STEPPERS)
    @pytest.mark.parametrize("n", [17, 65])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_step_never_writes_its_input(self, solver, n, lead):
        it = STEPPERS[solver]()
        rng = np.random.default_rng(11)
        for p in _stencil_problems(n):
            u = rng.standard_normal(lead + (n, n))
            kept = u.copy()
            out = it.step(u, p)
            assert _same_bits(u, kept)
            assert not np.shares_memory(out, u)
            # a second step from the same input gives the same bits
            assert _same_bits(it.step(u, p), out)

    def test_ground_truth_preconditioner_keeps_its_zero_field(self, monkeypatch):
        # every preconditioner call starts one V-cycle from one shared zero field
        starts = []
        step = MultigridIterator.step

        def recording(self, u, p):
            starts.append(u)
            return step(self, u, p)

        monkeypatch.setattr(MultigridIterator, "step", recording)
        p = generate(GeometrySpec(kind="lshape", n=VCYCLE_PRECONDITIONER_MIN_N, seed=0))
        ground_truth(p)
        assert len(starts) > 1 and all(u is starts[0] for u in starts)
        assert _same_bits(starts[0], np.zeros((p.n, p.n)))
