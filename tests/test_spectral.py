import math

import numpy as np
import pytest

from poisolve.grid import make_problem, reset
from poisolve.geometry import GeometrySpec, generate, random_geometry
from poisolve.iterators import (
    JacobiIterator,
    MultigridIterator,
    ground_truth,
    jacobi_step,
    solve_to_tol,
)
from poisolve.model import PhiIterator, apply_H, init_model
from poisolve.spectral import (
    FIXED_POINT_TOL,
    LinearPart,
    certify,
    linear_part,
    materialize_dense,
    spectral_norm,
    spectral_radius,
)

from conftest import square_problem
from paper_constructs import (
    asymmetry,
    convexity_probe,
    mask_matrix,
    oracle_correction,
    quarter_cross_model,
    scale_model,
    wrapped_linear_matrix,
)


class _ZeroIterator:
    name = "zero"

    def step(self, u, p):
        return np.where(p.mask == 1, np.zeros_like(u), p.b)

    def step_cost(self, p):
        return 0, 0


class _MaskedConvIterator:
    """Random masked 3x3 stencil update; affine with constant zero here."""

    name = "masked-conv"

    def __init__(self, seed):
        self.kernel = np.random.default_rng(seed).standard_normal((3, 3)) * 0.2

    def step(self, u, p):
        out = np.zeros_like(u)
        rows, cols = u.shape[-2:]
        pad = np.zeros(u.shape[:-2] + (rows + 2, cols + 2))
        pad[..., 1:-1, 1:-1] = u
        for di in range(3):
            for dj in range(3):
                out += self.kernel[di, dj] * pad[..., di:di + rows, dj:dj + cols]
        return np.where(p.mask == 1, out, p.b)

    def step_cost(self, p):
        return 1, 9 * p.n * p.n


class TestLinearPart:
    def test_extraction_is_linear(self, p17_poisson):
        rng = np.random.default_rng(0)
        for it in (JacobiIterator(), PhiIterator(JacobiIterator(), init_model("conv3", 1))):
            lp = linear_part(it, p17_poisson)
            for _ in range(20):
                u, v = rng.standard_normal((2, 17, 17))
                a, b = rng.standard_normal(2)
                lhs = lp.apply(a * u + b * v)
                rhs = a * lp.apply(u) + b * lp.apply(v)
                assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_matrix_matches_action(self, p17):
        lp = linear_part(JacobiIterator(), p17)
        T = materialize_dense(lp)
        rng = np.random.default_rng(1)
        u = rng.standard_normal((17, 17))
        assert np.abs((T @ u.ravel()).reshape(17, 17) - lp.apply(u)).max() < 1e-12

    def test_jacobi_stencil_structure(self):
        p = square_problem(5)
        T = materialize_dense(linear_part(JacobiIterator(), p))
        n = 5
        for i in range(n):
            for j in range(n):
                row = T[i * n + j]
                if p.mask[i, j] == 0:
                    assert np.all(row == 0.0)
                else:
                    nz = np.flatnonzero(row)
                    assert sorted(nz) == sorted([(i - 1) * n + j, (i + 1) * n + j,
                                                 i * n + j - 1, i * n + j + 1])
                    assert np.allclose(row[nz], 0.25)

    def test_interior_block_symmetric(self, p17):
        """The update couples interior cells symmetrically; the columns that
        read prescribed cells are the only asymmetric part."""
        T = materialize_dense(linear_part(JacobiIterator(), p17))
        idx = np.flatnonzero(p17.mask.ravel())
        block = T[np.ix_(idx, idx)]
        assert np.abs(block - block.T).max() <= 1e-12
        assert asymmetry(T) > 0  # boundary-column coupling, reported not hidden

    def test_dense_cap(self, ):
        p = square_problem(65)
        lp = linear_part(JacobiIterator(), p)
        with pytest.raises(ValueError, match="power"):
            materialize_dense(lp)


class TestSpectralRadius:
    def test_jacobi_square_closed_form(self, p17):
        rho = spectral_radius(linear_part(JacobiIterator(), p17), mode="dense")
        assert abs(rho - math.cos(math.pi / 16)) < 1e-9

    def test_closed_form_other_sizes(self):
        for n in (9, 33):
            p = square_problem(n)
            rho = spectral_radius(linear_part(JacobiIterator(), p), mode="dense")
            assert abs(rho - math.cos(math.pi / (n - 1))) < 1e-9

    def test_zero_iterator(self, p17):
        lp = linear_part(_ZeroIterator(), p17)
        assert spectral_radius(lp, mode="dense") == 0.0
        assert spectral_radius(lp, mode="power") == 0.0
        assert spectral_radius(lp, mode="arnoldi") == 0.0

    def test_power_matches_dense(self, p17):
        lp = linear_part(JacobiIterator(), p17)
        dense = spectral_radius(lp, mode="dense")
        power = spectral_radius(lp, mode="power")
        assert abs(dense - power) <= 1e-3

    def test_power_matches_dense_on_wrapped_model(self, p17):
        phi = PhiIterator(JacobiIterator(), quarter_cross_model())
        lp = linear_part(phi, p17)
        dense = spectral_radius(lp, mode="dense")
        power = spectral_radius(lp, mode="power")
        assert abs(dense - power) <= 1e-3


def _arnoldi_cases():
    """Jacobi, mg2, and conv3/unet2 at three seeds, at init scale and x3; at
    x3 the wrapped T is non-normal with rho > 1."""
    yield JacobiIterator()
    yield MultigridIterator(2)
    for arch in ("conv3", "unet2"):
        for seed in range(3):
            m = init_model(arch, seed=seed)
            yield PhiIterator(JacobiIterator(), m)
            yield PhiIterator(JacobiIterator(), scale_model(m, 3.0))


def _mask_problem(key, n):
    """A setting by name, or the random_geometry mask drawn from a seed."""
    if isinstance(key, str):
        return generate(GeometrySpec(kind=key, n=n, seed=0))
    return random_geometry(n, np.random.default_rng(key))


class TestArnoldi:
    @pytest.mark.parametrize("key", ["square", "lshape", "cylinders", "square_poisson",
                                     30, 31, 32, 33])
    def test_matches_dense_at_17(self, key):
        p = _mask_problem(key, 17)
        for it in _arnoldi_cases():
            lp = linear_part(it, p)
            dense = spectral_radius(lp, mode="dense")
            assert abs(spectral_radius(lp, mode="arnoldi") - dense) <= 1e-5 * dense, it.name

    @pytest.mark.parametrize("key", [40, 41])
    def test_matches_dense_at_33(self, key):
        p = _mask_problem(key, 33)
        scaled = scale_model(init_model("unet2", seed=0), 3.0)
        for it in (JacobiIterator(), PhiIterator(JacobiIterator(), scaled)):
            lp = linear_part(it, p)
            dense = spectral_radius(lp, mode="dense")
            assert abs(spectral_radius(lp, mode="arnoldi") - dense) <= 1e-5 * dense, it.name

    def test_interior_smaller_than_basis(self):
        """30 interior cells: the basis spans T's invariant interior space
        before ARNOLDI_DIM steps, and the Ritz values are its eigenvalues."""
        mask = np.zeros((17, 17), dtype=np.uint8)
        mask[3:8, 4:10] = 1
        p = make_problem(mask, np.zeros((17, 17)), np.zeros((17, 17)))
        scaled = scale_model(init_model("unet2", seed=0), 3.0)
        for it in (JacobiIterator(), PhiIterator(JacobiIterator(), scaled)):
            lp = linear_part(it, p)
            dense = spectral_radius(lp, mode="dense")
            assert abs(spectral_radius(lp, mode="arnoldi") - dense) <= 1e-12, it.name

    def test_jacobi_closed_form_above_dense_cap(self):
        lp = linear_part(JacobiIterator(), square_problem(65))
        assert abs(spectral_radius(lp, mode="arnoldi") - math.cos(math.pi / 64)) <= 1e-6

    def test_repeatable(self, p17):
        lp = linear_part(PhiIterator(JacobiIterator(), init_model("unet2", seed=1)), p17)
        assert spectral_radius(lp, mode="arnoldi") == spectral_radius(lp, mode="arnoldi")


class TestSpectralNorm:
    def test_norm_at_least_radius_random_masked_convs(self, p17):
        for seed in range(50):
            lp = linear_part(_MaskedConvIterator(seed), p17)
            T = materialize_dense(lp)
            rho = float(np.abs(np.linalg.eigvals(T)).max())
            norm = float(np.linalg.svd(T, compute_uv=False)[0])
            assert norm >= rho - 1e-10

    def test_interior_block_norm_equals_radius(self, p17):
        """On the symmetric interior block the two quantities coincide."""
        T = materialize_dense(linear_part(JacobiIterator(), p17))
        idx = np.flatnonzero(p17.mask.ravel())
        block = T[np.ix_(idx, idx)]
        rho = float(np.abs(np.linalg.eigvals(block)).max())
        norm = float(np.linalg.svd(block, compute_uv=False)[0])
        assert abs(rho - norm) <= 1e-10

    def test_scaled_identity(self, p17):
        class _TwoX:
            name = "twox"

            def step(self, u, p):
                return np.where(p.mask == 1, 2.0 * u, p.b)

            def step_cost(self, p):
                return 0, 0

        assert abs(spectral_norm(linear_part(_TwoX(), p17)) - 2.0) < 1e-12


class TestOracle:
    def test_defining_identity(self):
        p = square_problem(9)
        oc = oracle_correction(p)
        eye = np.eye(81)
        assert np.abs(oc.R @ (eye - oc.T) - oc.T).max() <= 1e-10

    def test_one_step_convergence(self):
        rng = np.random.default_rng(3)
        p = square_problem(9, sides=tuple(rng.uniform(-1, 1, 4)))
        us = ground_truth(p)
        oc = oracle_correction(p)
        for _ in range(5):
            u0 = rng.standard_normal((9, 9))
            u1 = oc.step(u0)
            e0 = np.linalg.norm(u0 - us)
            e1 = np.linalg.norm(u1 - us)
            assert e0 / max(e1, 1e-300) >= 1e8

    def test_fixed_point(self):
        p = square_problem(9)
        us = ground_truth(p)
        oc = oracle_correction(p)
        assert np.abs(oc.step(us) - us).max() < 1e-11

    def test_size_guard(self):
        with pytest.raises(ValueError, match="dense"):
            oracle_correction(square_problem(33))


class TestConvexity:
    def test_random_probes_hold(self):
        p = square_problem(9)
        T = materialize_dense(linear_part(JacobiIterator(), p))
        G = mask_matrix(p)
        rng = np.random.default_rng(4)
        for _ in range(40):
            H1, H2 = rng.standard_normal((2, 81, 81)) * rng.uniform(0.01, 2.0)
            rep = convexity_probe(T, G, H1, H2, float(rng.uniform()))
            assert rep.satisfied

    def test_equal_arguments_give_equality(self):
        p = square_problem(9)
        T = materialize_dense(linear_part(JacobiIterator(), p))
        G = mask_matrix(p)
        H = np.random.default_rng(5).standard_normal((81, 81))
        rep = convexity_probe(T, G, H, H, 0.3)
        assert abs(rep.sigma_mix - rep.bound) <= 1e-12

    def test_endpoints(self):
        p = square_problem(9)
        T = materialize_dense(linear_part(JacobiIterator(), p))
        G = mask_matrix(p)
        rng = np.random.default_rng(6)
        H1, H2 = rng.standard_normal((2, 81, 81))
        for lam, ref in ((1.0, "sigma_h1"), (0.0, "sigma_h2")):
            rep = convexity_probe(T, G, H1, H2, lam)
            assert abs(rep.sigma_mix - getattr(rep, ref)) <= 1e-12

    def test_wrapped_matrix_matches_wrapped_iterator(self, p17):
        """T + GHT - GH materialized from the wrapped iterator equals the
        formula applied to the base T and the dense single-layer H."""
        m = quarter_cross_model()
        phi = PhiIterator(JacobiIterator(), m)
        T_phi = materialize_dense(linear_part(phi, p17))
        T = materialize_dense(linear_part(JacobiIterator(), p17))
        # dense matrix of the quarter-cross conv (no mask)
        H = np.zeros((289, 289))
        e = np.zeros((17, 17))
        from poisolve.model import apply_H
        for j in range(289):
            e.flat[j] = 1.0
            H[:, j] = apply_H(m, e).ravel()
            e.flat[j] = 0.0
        G = mask_matrix(p17)
        assert np.abs(wrapped_linear_matrix(T, G, H) - T_phi).max() <= 1e-12


class TestCertify:
    def test_jacobi_valid_on_random_geometries(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_geometry(17, rng)
            v = certify(JacobiIterator(), p)
            assert v.valid and v.rho_estimate < 1.0

    def test_verdict_is_data_independent(self):
        """Same geometry, ten different (f, b): one verdict."""
        rng = np.random.default_rng(8)
        n = 17
        mask = np.zeros((n, n), dtype=np.uint8)
        mask[1:-1, 1:-1] = 1
        phi = PhiIterator(JacobiIterator(), init_model("conv3", seed=2))
        verdicts = []
        for _ in range(10):
            b = np.where(mask == 0, rng.standard_normal((n, n)), 0.0)
            f = rng.standard_normal((n, n))
            p = make_problem(mask, b, f)
            v = certify(phi, p)
            verdicts.append((round(v.rho_estimate, 12), v.valid))
        assert len(set(verdicts)) == 1

    def test_scaled_model_diverges_but_never_lies(self, p17):
        """Blowing the kernels up kills contraction; the solver then reports
        failure instead of returning a wrong answer."""
        m = scale_model(init_model("conv3", seed=6), 100.0)
        phi = PhiIterator(JacobiIterator(), m)
        v = certify(phi, p17)
        assert v.rho_estimate > 1.0 and not v.valid
        assert v.fixed_point_residual <= 1e-8  # the fixed point survives
        us = ground_truth(p17)
        rng = np.random.default_rng(9)
        u0 = rng.standard_normal((17, 17))
        _, rep = solve_to_tol(phi, p17, u0, 1e-2, 500, u_star=us)
        assert not rep.converged

    def test_wrapping_with_cross_kernel_squares_the_radius(self):
        p = square_problem(9)
        rho = spectral_radius(linear_part(JacobiIterator(), p), mode="dense")
        phi = PhiIterator(JacobiIterator(), quarter_cross_model())
        rho2 = spectral_radius(linear_part(phi, p), mode="dense")
        assert abs(rho2 - rho ** 2) <= 1e-6


class TestGuaranteeOverRandomWeights:
    """The guarantee as a property: random masks at n = 17, random weights at
    init scale and with every kernel x100."""

    @pytest.mark.parametrize("arch", ["conv3", "unet2"])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_fixed_point_kept_and_certificate_matches_convergence(self, arch, scale):
        rng = np.random.default_rng(21)
        for seed in range(8):
            p = random_geometry(17, rng)
            m = scale_model(init_model(arch, seed=seed), scale)
            phi = PhiIterator(JacobiIterator(), m)
            us = ground_truth(p)
            # Phi(u*) - u* = d + M H d with d = psi(u*) - u*, the base step's
            # rounding: zero in exact arithmetic for any weights, but M H
            # amplifies d by up to its max row sum, about 1e16 for unet2
            # x100, whose drift then exceeds FIXED_POINT_TOL; certify must
            # refuse it
            d = np.abs(jacobi_step(us, p) - us).max()
            MH = materialize_dense(LinearPart(
                lambda w: np.where(p.mask == 1, apply_H(m, w), 0.0), p.mask))
            gain = np.abs(MH).sum(axis=1).max()
            drift = np.abs(phi.step(us, p) - us).max()
            assert drift <= 2.0 * (1.0 + gain) * d
            assert drift <= FIXED_POINT_TOL or (arch, scale) == ("unet2", 100.0)
            v = certify(phi, p)
            assert drift <= FIXED_POINT_TOL or not v.valid
            if abs(v.rho_estimate - 1.0) < 1e-3:
                continue
            u0 = reset(rng.standard_normal((17, 17)), p)
            _, rep = solve_to_tol(phi, p, u0, 1e-2, 5000, u_star=us)
            assert rep.converged == v.valid
