from dataclasses import replace

import numpy as np
import pytest

from poisolve import training
from poisolve.geometry import random_geometry
from poisolve.grid import reset, residual_norms
from poisolve.iterators import jacobi_step
from poisolve.model import (
    apply_H,
    backward,
    forward,
    init_model,
    save_model,
)
from poisolve.training import (
    Batch,
    SquareSolutionCache,
    TrainConfig,
    TrainingError,
    default_config,
    loss,
    loss_and_grad,
    sample_batch,
    square_problem,
    train,
    write_log,
)

from conftest import neighbor_mean
from paper_constructs import scale_model, zero_model


@pytest.fixture(scope="module")
def cache17():
    return SquareSolutionCache(17)


def _batch(cache, cfg, seed):
    return sample_batch(cfg, cache, np.random.default_rng(seed))


def _samples(cache, cfg, seed):
    """(problem, u*, u0, k) of each sample _batch draws from seed, built the
    long way: the same draws in sample_batch's order (four sides, an (n, n)
    start field, k), the sides' own problem, and the start field reset to it."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(cfg.batch):
        sides = rng.uniform(-1.0, 1.0, size=4)
        z = rng.standard_normal((cfg.n, cfg.n))
        k = int(rng.integers(1, cfg.k_max + 1))
        p = square_problem(cfg.n, sides)
        out.append((p, cache.solution(sides), reset(z, p), k))
    return out


class TestSampler:
    def test_equal_sides_give_constant_solution(self, cache17):
        us = cache17.solution((0.4, 0.4, 0.4, 0.4))
        assert np.abs(us - 0.4).max() < 1e-10

    def test_reproducible(self, cache17):
        cfg = default_config("conv3", steps=0)
        a, b = _batch(cache17, cfg, 5), _batch(cache17, cfg, 5)
        assert np.array_equal(a.e0, b.e0) and a.ks == b.ks

    def test_sides_in_range_and_f_zero(self, cache17):
        cfg = default_config("conv3", steps=0)
        batch = _batch(cache17, cfg, 6)
        assert np.all(batch.geometry.f == 0.0) and np.all(batch.geometry.b == 0.0)
        for p, _, _, _ in _samples(cache17, cfg, 6):
            assert np.all(p.f == 0.0)
            assert np.abs(p.b).max() <= 1.0

    def test_start_errors_equal_reset_construction(self, cache17):
        cfg = default_config("conv3", steps=0)
        for seed in (9, 10):
            batch = _batch(cache17, cfg, seed)
            samples = _samples(cache17, cfg, seed)
            ref = np.stack([np.where(p.mask == 1, u0 - us, 0.0) for p, us, u0, _ in samples])
            assert np.array_equal(batch.e0.view(np.int64), ref.view(np.int64))
            assert batch.ks == [k for _, _, _, k in samples]
            assert np.array_equal(batch.geometry.mask, samples[0][0].mask)

    def test_mismatched_start_errors_rejected(self, cache17):
        with pytest.raises(ValueError, match="do not match"):
            Batch(cache17.geometry, np.zeros((3, 17, 17)), [1, 2])

    def test_corner_precedence(self):
        p = square_problem(9, (0.1, 0.2, 0.3, 0.4))
        assert p.b[0, 0] == p.b[0, -1] == 0.1
        assert p.b[-1, 0] == p.b[-1, -1] == 0.2

    def test_maximum_principle(self, cache17):
        rng = np.random.default_rng(7)
        for _ in range(5):
            sides = rng.uniform(-1.0, 1.0, size=4)
            us = cache17.solution(sides)
            assert us[1:-1, 1:-1].min() >= min(sides) - 1e-10
            assert us[1:-1, 1:-1].max() <= max(sides) + 1e-10

    def test_cached_solutions_pass_residual_check(self, cache17):
        sides = np.random.default_rng(8).uniform(-1.0, 1.0, size=4)
        us = cache17.solution(sides)
        interior, boundary = residual_norms(square_problem(17, sides), us)
        assert interior <= 1e-8 and boundary <= 1e-8

    def test_start_fields_are_boundary_consistent(self, cache17):
        # the error of a start field reset to the boundary values is zero there
        cfg = default_config("conv3", steps=0)
        batch = _batch(cache17, cfg, 9)
        assert batch.e0.shape == (cfg.batch, 17, 17)
        assert np.all(batch.e0[:, batch.geometry.mask == 0] == 0.0)
        assert all(1 <= k <= cfg.k_max for k in batch.ks)


class TestLoss:
    def test_zero_at_solution(self, cache17):
        cfg = default_config("conv3", steps=0)
        batch = _batch(cache17, cfg, 10)
        batch = replace(batch, e0=np.zeros_like(batch.e0))
        assert loss(zero_model("conv3"), batch) < 1e-18
        assert loss(init_model("conv3", 1), batch) < 1e-18

    def test_zero_model_equals_plain_sweeps(self, cache17):
        cfg = default_config("conv3", steps=0)
        expected = 0.0
        for p, us, u0, k in _samples(cache17, cfg, 11):
            u = u0
            for _ in range(k):
                u = jacobi_step(u, p)
            expected += ((u - us) ** 2).sum()
        expected /= cfg.batch
        got = loss(zero_model("conv3"), _batch(cache17, cfg, 11))
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    def test_single_step_hand_composition(self, cache17):
        cfg = default_config("conv3", steps=0)
        p, us, u0, _ = _samples(cache17, cfg, 12)[0]
        m = init_model("conv3", seed=4)
        psi = jacobi_step(u0, p)
        w = psi - u0
        u1 = psi + np.where(p.mask == 1, apply_H(m, w), 0.0)
        expected = ((u1 - us) ** 2).sum()
        batch = _batch(cache17, cfg, 12)
        got = loss(m, Batch(batch.geometry, batch.e0[:1], [1]))
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    def test_batch_steps_on_the_homogeneous_twin(self):
        # the errors step on b = 0, f = 0 whatever problem of the geometry the
        # batch is given; b written into them would change loss and gradient
        p = square_problem(17, (0.3, -0.4, 0.7, 0.2))
        rng = np.random.default_rng(0)
        e0 = np.where(p.mask == 1, rng.standard_normal((2, 17, 17)), 0.0)
        m = init_model("conv3", 1)
        on_p, on_twin = Batch(p, e0, [3, 1]), Batch(p.homogeneous, e0, [3, 1])
        assert loss(m, on_p) == loss(m, on_twin)
        (value_p, grads_p), (value_twin, grads_twin) = (
            loss_and_grad(m, on_p), loss_and_grad(m, on_twin))
        assert value_p == value_twin
        for gp, gt in zip(grads_p, grads_twin):
            assert np.array_equal(gp, gt)

    def test_empty_batch_rejected(self, cache17):
        with pytest.raises(ValueError):
            loss(zero_model("conv1"), Batch(cache17.geometry, np.zeros((0, 17, 17)), []))


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
        _, grads = loss_and_grad(m, batch)
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
        batch = _batch(cache17, cfg, 13)
        batch = replace(batch, e0=np.zeros_like(batch.e0))
        _, grads = loss_and_grad(init_model("conv3", seed=3), batch)
        assert max(np.abs(g).max() for g in grads) < 1e-16

    def test_linear_in_batch_average(self, cache17):
        cfg = default_config("conv3", steps=0)
        batch = _batch(cache17, cfg, 14)
        m = init_model("conv3", seed=5)
        _, g_all = loss_and_grad(m, batch)
        _, g_a = loss_and_grad(m, Batch(batch.geometry, batch.e0[:4], batch.ks[:4]))
        _, g_b = loss_and_grad(m, Batch(batch.geometry, batch.e0[4:], batch.ks[4:]))
        for ga, gb, gc in zip(g_all, g_a, g_b):
            assert np.abs(ga - 0.5 * (gb + gc)).max() <= 1e-12


def _full_batch_unroll(model, batch, samples=None):
    """Loss and gradients with every sample carried to the batch's largest k.

    The reference for the retiring unroll: a sample past its k is stepped
    on but adds nothing to the loss, and its adjoint is zero until its k.
    The error form steps batch.e0 on b = 0, f = 0 towards 0, as training
    does; given the batch's samples (see _samples), the data form steps
    each u0 on its own problem towards u*, the objective
    ||Phi^k(u0) - u*||^2 as first written.
    """
    M = batch.geometry.mask.astype(np.float64)
    if samples is None:
        u, ustar = batch.e0, np.zeros_like(batch.e0)

        def sweep(v):
            return M * neighbor_mean(v)
    else:
        u = np.stack([u0 for _, _, u0, _ in samples])
        ustar = np.stack([us for _, us, _, _ in samples])
        bb = np.stack([p.b for p, _, _, _ in samples])
        q = np.stack([0.25 * p.h ** 2 * p.f for p, _, _, _ in samples])

        def sweep(v):
            return M * (neighbor_mean(v) + q) + (1.0 - M) * bb
    ks = np.array(batch.ks)
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
    value /= len(ks)
    grads = [np.zeros_like(layer.weights) for layer in model.layers]
    g = np.zeros_like(u)
    for t in range(ks.max(), 0, -1):
        done = ks == t
        g[done] += (2.0 / len(ks)) * (finals[done] - ustar[done])
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
            p = random_geometry(n, rng).homogeneous
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
        batch = replace(_batch(cache17, cfg, 31), ks=ks)
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
            ref_value, ref_grads = _full_batch_unroll(m, batch, _samples(cache17, cfg, seed))
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
        ks = batch.ks
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
        e0 = np.stack([np.where(p.mask == 1, 1e-100 * rng.standard_normal((17, 17)), 0.0)
                       for _ in range(3)])
        batch = Batch(p, e0, [3, 5, 8])
        assert np.isfinite(loss(m, batch))
        with pytest.raises(TrainingError, match="non-finite adjoint at unroll step"):
            loss_and_grad(m, batch)


class TestTrainLoop:
    def test_zero_steps_returns_init(self):
        cfg = default_config("conv3", steps=0, seed=21)
        model, log = train(cfg)
        ref = init_model("conv3", seed=21)
        assert log == []
        for la, lb in zip(model.layers, ref.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_short_run_learns_and_logs(self, monkeypatch):
        monkeypatch.setattr(training, "RHO_EVERY", 30)
        cfg = default_config("conv3", steps=60, seed=3)
        model, log = train(cfg)
        assert len(log) == 60
        assert log[29].rho_estimate is not None and log[29].rho_estimate < 1.0
        assert log[0].rho_estimate is None
        assert all(np.isfinite(row.loss) for row in log)

    def test_deterministic_model_files(self, tmp_path):
        paths = []
        for run in range(2):
            cfg = default_config("conv3", steps=25, seed=11)
            model, _ = train(cfg)
            path = tmp_path / f"run{run}.model"
            save_model(model, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_divergent_lr_aborts(self):
        cfg = default_config("conv3", steps=400, lr=30.0, seed=0)
        with pytest.raises(TrainingError):
            train(cfg)

    def test_grid_checked_before_references(self, monkeypatch):
        def no_reference(p):
            raise AssertionError("ground_truth called")

        monkeypatch.setattr(training, "ground_truth", no_reference)
        with pytest.raises(ValueError, match="incompatible"):
            train(default_config("unet2", n=400))
        with pytest.raises(ValueError, match="too small"):
            default_config("conv3", n=4)

    def test_rho_inside_certify_margin_rejected(self, monkeypatch):
        # certify, and so bench, refuses rho > 1 - RHO_VALID_MARGIN (1e-6)
        monkeypatch.setattr(training, "_train_rho", lambda model, p: 1.0 - 1e-7)
        with pytest.raises(TrainingError, match="not contractive"):
            train(default_config("conv3", steps=1))

    def test_log_csv_format(self, tmp_path, monkeypatch):
        monkeypatch.setattr(training, "RHO_EVERY", 5)
        cfg = default_config("conv3", steps=10, seed=2)
        path = tmp_path / "log.csv"
        _, log = train(cfg)
        write_log(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,rho_estimate,wall_seconds"
        assert len(lines) == 11
        assert lines[1].split(",")[2] == ""   # rho not measured at step 1
        assert lines[5].split(",")[2] != ""   # measured at step 5
