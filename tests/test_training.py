from dataclasses import replace

import numpy as np
import pytest

from poisolve import training
from poisolve.geometry import random_geometry
from poisolve.grid import make_problem, residual_norms
from poisolve.iterators import jacobi_step
from poisolve.model import (
    apply_H,
    backward,
    forward,
    init_model,
    save_model,
    scale_model,
    zero_model,
)
from poisolve.spectral import homogeneous
from poisolve.training import (
    SquareSolutionCache,
    TrainConfig,
    TrainSample,
    TrainingError,
    default_config,
    grad,
    loss,
    loss_and_grad,
    sample_batch,
    sample_square_problem,
    square_problem,
    train,
)

from conftest import neighbor_mean


@pytest.fixture(scope="module")
def cache17():
    return SquareSolutionCache(17)


def _batch(cache, cfg, seed):
    return sample_batch(cfg, cache, np.random.default_rng(seed))


class TestSampler:
    def test_equal_sides_give_constant_solution(self, cache17):
        p = square_problem(17, (0.4, 0.4, 0.4, 0.4))
        us = cache17.solution(p)
        assert np.abs(us - 0.4).max() < 1e-10

    def test_reproducible(self):
        a = sample_square_problem(17, np.random.default_rng(5))
        b = sample_square_problem(17, np.random.default_rng(5))
        assert np.array_equal(a.b, b.b)

    def test_sides_in_range_and_f_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = sample_square_problem(9, rng)
            assert np.all(p.f == 0.0)
            assert np.abs(p.b).max() <= 1.0

    def test_corner_precedence(self):
        p = square_problem(9, (0.1, 0.2, 0.3, 0.4))
        assert p.b[0, 0] == p.b[0, -1] == 0.1
        assert p.b[-1, 0] == p.b[-1, -1] == 0.2

    def test_maximum_principle(self, cache17):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = sample_square_problem(17, rng)
            us = cache17.solution(p)
            sides = [p.b[0, 1], p.b[-1, 1], p.b[1, 0], p.b[1, -1]]
            assert us[1:-1, 1:-1].min() >= min(sides) - 1e-10
            assert us[1:-1, 1:-1].max() <= max(sides) + 1e-10

    def test_cached_solutions_pass_residual_check(self, cache17):
        rng = np.random.default_rng(8)
        p = sample_square_problem(17, rng)
        us = cache17.solution(p)
        interior, boundary = residual_norms(p, us)
        assert interior <= 1e-8 and boundary <= 1e-8

    def test_start_fields_are_boundary_consistent(self, cache17):
        cfg = default_config("conv3", steps=0)
        for s in _batch(cache17, cfg, 9):
            fixed = s.problem.mask == 0
            assert np.array_equal(s.u0[fixed], s.problem.b[fixed])
            assert 1 <= s.k <= cfg.k_max


class TestLoss:
    def test_zero_at_solution(self, cache17):
        cfg = default_config("conv3", steps=0)
        batch = [TrainSample(s.problem, s.u_star, s.u_star, s.k)
                 for s in _batch(cache17, cfg, 10)]
        assert loss(zero_model("conv3"), batch) < 1e-18
        assert loss(init_model("conv3", 1), batch) < 1e-18

    def test_zero_model_equals_plain_sweeps(self, cache17):
        cfg = default_config("conv3", steps=0)
        batch = _batch(cache17, cfg, 11)
        expected = 0.0
        for s in batch:
            u = s.u0
            for _ in range(s.k):
                u = jacobi_step(u, s.problem)
            expected += ((u - s.u_star) ** 2).sum()
        expected /= len(batch)
        got = loss(zero_model("conv3"), batch)
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    def test_single_step_hand_composition(self, cache17):
        cfg = default_config("conv3", steps=0)
        s = _batch(cache17, cfg, 12)[0]
        m = init_model("conv3", seed=4)
        psi = jacobi_step(s.u0, s.problem)
        w = psi - s.u0
        u1 = psi + np.where(s.problem.mask == 1, apply_H(m, w), 0.0)
        expected = ((u1 - s.u_star) ** 2).sum()
        got = loss(m, [TrainSample(s.problem, s.u_star, s.u0, 1)])
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss(zero_model("conv1"), [])


class TestGrad:
    @pytest.mark.parametrize("arch", ["conv3", "unet2"])
    def test_matches_central_differences(self, cache17, arch):
        """Reverse-mode gradients vs the finite-difference oracle.

        The model is scaled to unit per-layer gain so that every sampled
        coordinate carries signal well above float64 noise; at the tiny
        default init the deep-path derivatives are themselves ~1e-16 and a
        relative comparison would be vacuous.
        """
        m = scale_model(init_model(arch, seed=7), 10.0)
        cfg = TrainConfig(arch=arch, n=17, steps=0)
        batch = _batch(cache17, cfg, 23)
        grads = grad(m, batch)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            li = int(rng.integers(0, len(m.layers)))
            idx = tuple(rng.integers(0, d) for d in m.layers[li].weights.shape)
            orig = m.layers[li].weights[idx]
            m.layers[li].weights[idx] = orig + h
            up = loss(m, batch)
            m.layers[li].weights[idx] = orig - h
            down = loss(m, batch)
            m.layers[li].weights[idx] = orig
            fd = (up - down) / (2.0 * h)
            g = grads[li][idx]
            assert abs(fd - g) <= 1e-4 * max(abs(fd), abs(g)), (arch, li, idx, fd, g)

    def test_zero_gradient_at_solution(self, cache17):
        cfg = default_config("conv3", steps=0)
        batch = [TrainSample(s.problem, s.u_star, s.u_star, s.k)
                 for s in _batch(cache17, cfg, 13)]
        grads = grad(init_model("conv3", seed=3), batch)
        assert max(np.abs(g).max() for g in grads) < 1e-16

    def test_linear_in_batch_average(self, cache17):
        cfg = default_config("conv3", steps=0)
        batch = _batch(cache17, cfg, 14)
        m = init_model("conv3", seed=5)
        _, g_all = loss_and_grad(m, batch)
        _, g_a = loss_and_grad(m, batch[:4])
        _, g_b = loss_and_grad(m, batch[4:])
        for ga, gb, gc in zip(g_all, g_a, g_b):
            assert np.abs(ga - 0.5 * (gb + gc)).max() <= 1e-12


def _full_batch_unroll(model, batch, error_form=True):
    """Loss and gradients with every sample carried to the batch's largest k.

    The reference for the retiring unroll: a sample past its k is stepped
    on but adds nothing to the loss, and its adjoint is zero until its k.
    The error form steps e = M (u0 - u*) on b = 0, f = 0 towards 0, as
    training does; the data form steps u0 on the sample's own problem
    towards u*, the objective ||Phi^k(u0) - u*||^2 as first written.
    """
    def pile(arrs):
        return np.stack(arrs)[:, None, :, :]

    M = pile([s.problem.mask.astype(np.float64) for s in batch])
    u = pile([s.u0 for s in batch])
    ustar = pile([s.u_star for s in batch])
    if error_form:
        u, ustar = M * (u - ustar), np.zeros_like(u)

        def sweep(v):
            return M * neighbor_mean(v)
    else:
        bb = pile([s.problem.b for s in batch])
        q = pile([0.25 * s.problem.h ** 2 * s.problem.f for s in batch])

        def sweep(v):
            return M * (neighbor_mean(v) + q) + (1.0 - M) * bb
    ks = np.array([s.k for s in batch])
    value = 0.0
    finals = np.zeros_like(u)
    tapes = []
    for t in range(1, ks.max() + 1):
        psi = sweep(u)
        tape = []
        u = psi + M * forward(model, psi - u, tape)
        tapes.append(tape)
        done = ks == t
        if done.any():
            finals[done] = u[done]
            diff = u[done] - ustar[done]
            value += float((diff * diff).sum())
    value /= len(batch)
    grads = [np.zeros_like(layer.weights) for layer in model.layers]
    g = np.zeros_like(u)
    for t in range(ks.max(), 0, -1):
        done = ks == t
        g[done] += (2.0 / len(batch)) * (finals[done] - ustar[done])
        gw = backward(model, tapes[t - 1], M * g, grads)
        g = neighbor_mean(M * (g + gw)) - gw
    return value, grads


class TestAdjointSweep:
    @pytest.mark.parametrize("n", [17, 33, 65])
    def test_interior_matches_padded_adjoint(self, n):
        """loss_and_grad's adjoint, a sweep of the masked g on the homogeneous
        problem, is M neighbor_mean(M g) bit for bit at interior cells."""
        rng = np.random.default_rng(n)
        for _ in range(20):
            p = homogeneous(random_geometry(n, rng))
            g = np.where(p.mask == 1, rng.standard_normal((3, 1, n, n)), 0.0)
            out, ref = jacobi_step(g, p), neighbor_mean(g)
            inside = np.broadcast_to(p.mask == 1, g.shape)
            assert np.array_equal(out[inside].view(np.int64), ref[inside].view(np.int64))
            assert np.all(out[~inside] == 0.0)


class TestRetiringUnroll:
    @pytest.mark.parametrize("arch", ["conv3", "unet2"])
    @pytest.mark.parametrize("ks", [[5] * 8, [3, 8, 1, 6, 2, 7, 4, 5], [1] * 8],
                             ids=["equal", "distinct", "one"])
    def test_matches_full_batch_unroll(self, cache17, arch, ks):
        m = scale_model(init_model(arch, seed=7), 10.0)
        cfg = TrainConfig(arch=arch, n=17, steps=0)
        batch = [replace(s, k=k) for s, k in zip(_batch(cache17, cfg, 31), ks)]
        value, grads = loss_and_grad(m, batch)
        ref_value, ref_grads = _full_batch_unroll(m, batch)
        assert value == ref_value
        assert loss(m, batch) == ref_value
        for g, r in zip(grads, ref_grads):
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()

    @pytest.mark.parametrize("arch", ["conv3", "unet2"])
    def test_error_form_matches_data_form(self, cache17, arch):
        # Phi keeps u* fixed, so stepping the error is stepping the data
        # shifted by u*: the two objectives differ only by rounding
        m = scale_model(init_model(arch, seed=7), 10.0)
        cfg = TrainConfig(arch=arch, n=17, steps=0)
        for seed in (31, 34, 35):
            batch = _batch(cache17, cfg, seed)
            value, grads = loss_and_grad(m, batch)
            ref_value, ref_grads = _full_batch_unroll(m, batch, error_form=False)
            assert abs(value - ref_value) <= 1e-10 * ref_value
            for g, r in zip(grads, ref_grads):
                assert np.abs(g - r).max() <= 1e-10 * np.abs(r).max()

    def test_forward_rows_sum_to_k(self, cache17, monkeypatch):
        rows = []

        def counting_forward(model, x, tape=None):
            rows.append(x.shape[0])
            return forward(model, x, tape)

        monkeypatch.setattr("poisolve.model.forward", counting_forward)
        batch = _batch(cache17, default_config("conv3", steps=0), 32)
        ks = [s.k for s in batch]
        assert sum(ks) < len(ks) * max(ks)
        loss_and_grad(init_model("conv3", seed=1), batch)
        assert len(rows) == max(ks)
        assert sum(rows) == sum(ks)

    def test_divergent_model_raises_from_unroll(self, cache17):
        # at this scale the first steps overflow the iterates themselves,
        # before any retiring sample's squared error overflows the loss
        m = scale_model(init_model("conv3", seed=0), 1e100)
        batch = _batch(cache17, default_config("conv3", steps=0), 0)
        with pytest.raises(TrainingError, match="non-finite iterate at unroll step 2"):
            loss_and_grad(m, batch)

    def test_divergent_model_raises_on_non_finite_loss(self, cache17):
        # every iterate stays finite; only the accumulated squared error overflows
        m = scale_model(init_model("conv3", seed=0), 1e6)
        batch = _batch(cache17, default_config("conv3"), 0)
        for fn in (loss, loss_and_grad):
            with pytest.raises(TrainingError,
                               match=r"non-finite loss \(inf\) at unroll step 14"):
                fn(m, batch)

    def test_divergent_model_raises_from_reverse_pass(self):
        # the adjoint carried back to step 1 is about the loss over the start
        # error, so start errors of 1e-100 keep the loss finite (about 7e230)
        # while the adjoint overflows
        m = scale_model(init_model("conv3", seed=0), 1e10)
        p = square_problem(17, (0.0, 0.0, 0.0, 0.0))
        rng = np.random.default_rng(0)
        batch = [TrainSample(p, np.zeros((17, 17)),
                             np.where(p.mask == 1, 1e-100 * rng.standard_normal((17, 17)), 0.0), k)
                 for k in (3, 5, 8)]
        assert np.isfinite(loss(m, batch))
        with pytest.raises(TrainingError, match="non-finite adjoint at unroll step"):
            loss_and_grad(m, batch)

    def test_mixed_geometries_rejected(self, cache17):
        batch = _batch(cache17, default_config("conv3", steps=0), 33)
        s = batch[-1]
        mask = s.problem.mask.copy()
        mask[8, 8] = 0
        batch[-1] = replace(s, problem=make_problem(mask, s.problem.b, s.problem.f))
        with pytest.raises(ValueError, match="mixes geometries"):
            loss_and_grad(init_model("conv3", seed=1), batch)


class TestTrainLoop:
    def test_zero_steps_returns_init(self):
        cfg = default_config("conv3", steps=0, seed=21)
        model, log = train(cfg)
        ref = init_model("conv3", seed=21)
        assert log == []
        for la, lb in zip(model.layers, ref.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_short_run_learns_and_logs(self):
        cfg = default_config("conv3", steps=60, seed=3, rho_every=30)
        model, log = train(cfg)
        assert len(log) == 60
        assert log[29].rho_estimate is not None and log[29].rho_estimate < 1.0
        assert log[0].rho_estimate is None
        assert all(np.isfinite(row.loss) for row in log)

    def test_deterministic_model_files(self, tmp_path):
        paths = []
        for run in range(2):
            cfg = default_config("conv3", steps=25, seed=11, rho_every=0)
            model, _ = train(cfg)
            path = tmp_path / f"run{run}.model"
            save_model(model, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_divergent_lr_aborts(self):
        cfg = default_config("conv3", steps=400, lr=30.0, seed=0, rho_every=0)
        with pytest.raises(TrainingError):
            train(cfg)

    def test_rho_inside_certify_margin_rejected(self, monkeypatch):
        # certify, and so bench, refuses rho > 1 - RHO_VALID_MARGIN (1e-6)
        monkeypatch.setattr(training, "_train_rho", lambda model, p: 1.0 - 1e-7)
        with pytest.raises(TrainingError, match="not contractive"):
            train(default_config("conv3", steps=1, rho_every=0))

    def test_log_csv_format(self, tmp_path):
        cfg = default_config("conv3", steps=10, seed=2, rho_every=5)
        path = tmp_path / "log.csv"
        train(cfg, log_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,rho_estimate,wall_seconds"
        assert len(lines) == 11
        assert lines[1].split(",")[2] == ""   # rho not measured at step 1
        assert lines[5].split(",")[2] != ""   # measured at step 5
