import tracemalloc

import numpy as np
import pytest

from poisolve.grid import FileFormatError
from poisolve.iterators import JacobiIterator, MultigridIterator, ground_truth, jacobi_step
from poisolve.model import (
    PhiIterator,
    apply_H,
    init_model,
    load_model,
    model_cost,
    parse_arch,
    save_model,
)

from conftest import boundary_bits_equal, square_problem, with_negative_zeros
from paper_constructs import quarter_cross_model, scale_model, zero_model

_HEAD = "arch conv depth 1 channels 1\n"
_LAYER = "layer 0 in 1 out 1 stride 1 transposed 0\n"
_ROW = "0 0 0 0 1 0 0 0 0\n"


class TestApplyH:
    def test_zero_in_zero_out(self):
        for arch in ("conv3", "unet2"):
            m = init_model(arch, seed=1)
            out = apply_H(m, np.zeros((17, 17)))
            assert np.all(out == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for arch in ("conv2", "unet2"):
            m = init_model(arch, seed=3)
            for _ in range(10):
                w1, w2 = rng.standard_normal((2, 17, 17))
                a, b = rng.standard_normal(2)
                lhs = apply_H(m, a * w1 + b * w2)
                rhs = a * apply_H(m, w1) + b * apply_H(m, w2)
                assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_identity_kernel(self):
        m = quarter_cross_model()
        m.layers[0].weights[0, 0] = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
        w = np.random.default_rng(4).standard_normal((9, 9))
        assert np.array_equal(apply_H(m, w), w)

    def test_incompatible_size_rejected(self):
        m = init_model("unet2", seed=0)
        with pytest.raises(ValueError, match="incompatible"):
            apply_H(m, np.zeros((18, 18)))

    @pytest.mark.parametrize("arch, n, reason", [
        ("unet2", 5, "coarsest grid below 3x3"),
        ("unet2", 7, "not divisible"),
        ("conv3", 2, "coarsest grid below 3x3"),
    ])
    def test_incompatible_size_names_its_reason(self, arch, n, reason):
        # 4 divides n - 1 = 4: a 5 x 5 grid fails unet2 only by coarsening to 2 x 2
        with pytest.raises(ValueError, match=f"incompatible with {arch}: .*{reason}"):
            init_model(arch, seed=0).check_compatible(n)

    @pytest.mark.parametrize("arch", ["conv3", "unet2"])
    def test_tape_holds_each_layers_input(self, arch):
        m = init_model(arch, seed=1)
        w = np.random.default_rng(7).standard_normal((2, 17, 17))
        tape = []
        out = apply_H(m, w, tape)
        assert len(tape) == len(m.layers)
        assert np.array_equal(tape[0], w)
        assert np.array_equal(out, apply_H(m, w))

    @pytest.mark.parametrize("arch, edit", [
        ("conv3", lambda layers: layers[:-1]),
        ("unet2", lambda layers: layers + layers[:1]),
    ], ids=["short", "long"])
    def test_kernel_list_off_the_plan_rejected(self, tmp_path, arch, edit):
        """A hand-built kernel list of the wrong length never runs a truncated net."""
        m = init_model(arch, seed=0)
        m.layers = edit(m.layers)
        for use in (lambda: apply_H(m, np.zeros((17, 17))), lambda: model_cost(m, 17),
                    lambda: save_model(m, tmp_path / "m.model")):
            with pytest.raises(ValueError, match="argument 2 is (shorter|longer)"):
                use()
        assert not (tmp_path / "m.model").exists()

    def test_doubling(self):
        m = init_model("unet3", seed=5)
        w = np.random.default_rng(6).standard_normal((17, 17))
        assert np.abs(apply_H(m, 2 * w) - 2 * apply_H(m, w)).max() < 1e-10


class TestPhiIterator:
    def test_fixed_point_preserved_any_model(self, p17_poisson):
        us = ground_truth(p17_poisson)
        jac = JacobiIterator()
        models = [init_model("conv3", seed=s) for s in range(3)]
        models += [scale_model(init_model("conv3", seed=9), 100.0),
                   init_model("unet2", seed=1), zero_model("conv2")]
        for m in models:
            phi = PhiIterator(jac, m)
            drift = np.abs(phi.step(us, p17_poisson) - us).max()
            assert drift <= 1e-8 * max(1.0, np.abs(us).max())

    def test_zero_model_reduces_to_base(self, p17_poisson):
        rng = np.random.default_rng(7)
        jac = JacobiIterator()
        phi = PhiIterator(jac, zero_model("conv3"))
        for _ in range(5):
            u = rng.standard_normal((17, 17))
            assert np.abs(phi.step(u, p17_poisson) - jac.step(u, p17_poisson)).max() <= 1e-14

    def test_quarter_cross_model_is_two_sweeps(self, p17, p17_poisson):
        """H holding the sweep's own linear part turns one wrapped step
        into exactly two base sweeps."""
        jac = JacobiIterator()
        phi = PhiIterator(jac, quarter_cross_model())
        rng = np.random.default_rng(8)
        for p in (p17, p17_poisson):
            for _ in range(50):
                u = rng.standard_normal((17, 17))
                two = jacobi_step(jacobi_step(u, p), p)
                assert np.abs(phi.step(u, p) - two).max() <= 1e-10

    def test_affinity(self, p17_poisson):
        phi = PhiIterator(JacobiIterator(), init_model("conv3", seed=11))
        rng = np.random.default_rng(12)
        u, v = rng.standard_normal((2, 17, 17))
        lhs = phi.step(0.25 * u + 0.75 * v, p17_poisson)
        rhs = 0.25 * phi.step(u, p17_poisson) + 0.75 * phi.step(v, p17_poisson)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_boundary_exact(self, p17_poisson):
        # b's bits, -0.0 included, whatever the correction held there
        p = with_negative_zeros(p17_poisson)
        rng = np.random.default_rng(14)
        for arch in ("conv3", "unet2"):
            for base in (JacobiIterator(), MultigridIterator(2)):
                phi = PhiIterator(base, init_model(arch, seed=13))
                for lead in ((), (3,)):
                    u = phi.step(rng.standard_normal(lead + (17, 17)), p)
                    assert boundary_bits_equal(u, p)


class TestCost:
    def test_conv3_at_65(self, ):
        p = square_problem(65)
        phi = PhiIterator(JacobiIterator(), init_model("conv3", seed=0))
        layers, ops = phi.step_cost(p)
        assert layers == 1 + 3
        assert ops == 4 * 63 * 63 + 3 * 9 * 65 * 65

    def test_zero_model_costs_the_same(self):
        a = model_cost(init_model("conv4", seed=1), 33)
        b = model_cost(zero_model("conv4"), 33)
        assert a == b

    def test_unet_resolution_budget(self):
        """Cells across the coarsened resolutions stay within 4/3 of the
        finest level, the geometric-series bound behind the design."""
        for n, depth in ((65, 2), (257, 3)):
            m = init_model(f"unet{depth}", seed=2)
            tape = []  # each layer's input, as the net runs
            out = apply_H(m, np.zeros((n, n)), tape)
            seen = {a.shape[-1] for a in tape} | {out.shape[-1]}
            assert seen == {(n - 1) // 2 ** k + 1 for k in range(depth + 1)}
            assert sum(r * r for r in seen) <= (4.0 / 3.0) * n * n

    def test_unet_requires_divisible_grid(self):
        with pytest.raises(ValueError):
            model_cost(init_model("unet2", seed=0), 18)


class TestInitAndFiles:
    def test_same_seed_identical(self):
        a = init_model("unet2", seed=42)
        b = init_model("unet2", seed=42)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_different_seed_differs(self):
        a = init_model("conv2", seed=0)
        b = init_model("conv2", seed=1)
        assert any(not np.array_equal(la.weights, lb.weights)
                   for la, lb in zip(a.layers, b.layers))

    def test_zero_model_is_zero(self):
        m = zero_model("unet2")
        assert all(np.all(L.weights == 0.0) for L in m.layers)

    def test_fresh_model_contracts(self, p17):
        """Random init perturbs the base only slightly, so the wrapped
        iterator stays contractive at the training size."""
        from poisolve.spectral import linear_part, spectral_radius

        phi = PhiIterator(JacobiIterator(), init_model("conv3", seed=3))
        rho = spectral_radius(linear_part(phi, p17), mode="dense")
        assert rho < 1.0

    def test_parse_arch(self):
        assert parse_arch("conv4") == ("conv", 4)
        assert parse_arch("unet3") == ("unet", 3)
        for bad in ("conv", "unet0", "resnet2", "conv-3"):
            with pytest.raises(ValueError):
                parse_arch(bad)

    def test_round_trip_bytes(self, tmp_path):
        m = init_model("unet3", seed=7)
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(m, p1)
        save_model(load_model(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("arch conv depth 1 channels 1\nlayer 0 in 1 out 1 stride 1 transposed 0\n1 2 3\n")
        with pytest.raises(ValueError, match="9 values"):
            load_model(path)

    @pytest.mark.parametrize("text, line, match", [
        ("arch conv depth x channels 1\n" + _LAYER + _ROW, 1, "integers"),
        ("arch conv depth 0 channels 1\n" + _LAYER + _ROW, 1, "positive"),
        (_HEAD + "layer 0 in 1 out one stride 1 transposed 0\n" + _ROW, 2, "integers"),
        (_HEAD + "layer 0 in 0 out 1 stride 1 transposed 0\n" + _ROW, 2, "single-channel"),
        (_HEAD + "layer 0 in 1 out 1 stride 3 transposed 0\n" + _ROW, 2, "stride"),
        (_HEAD + "layer 0 in 1 out 1 stride 1 transposed 2\n" + _ROW, 2, "transposed"),
        (_HEAD + _LAYER + "0 0 0 0 x 0 0 0 0\n", 3, "numeric"),
        (_HEAD + _LAYER, 3, "missing kernel row"),
        (_HEAD + _LAYER + _ROW + "layer 1 in 1 out 1\n", 4, "layer header"),
        (_HEAD + _LAYER + _ROW + _LAYER + _ROW, 4, "layer index 0, expected 1"),
    ], ids=["header-int", "header-depth", "layer-int", "layer-channels", "stride",
            "transposed", "kernel-value", "kernel-row", "layer-header", "layer-index"])
    def test_load_error_names_its_line(self, tmp_path, text, line, match):
        path = tmp_path / "bad.model"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=f"^line {line}: .*{match}") as info:
            load_model(path)
        assert info.value.line == line

    @pytest.mark.parametrize("arch, edit, line, match", [
        # one layer short: the error falls on the first missing line
        ("conv3", lambda lines: lines[:-2], 6, "conv3 has 3 layers, the file ends after 2"),
        # one layer too many: on the extra layer's header
        ("conv1", lambda lines: lines + lines[1:], 4, "conv1 has 1 layers, got layer 1"),
        ("unet2", lambda lines: [line.replace("stride 2", "stride 1") for line in lines],
         4, "layer 1 of unet2 has stride 2 transposed 0, got stride 1 transposed 0"),
        # a downsampling layer dropped: its successor stands where it stood
        ("unet2", lambda lines: lines[:5] + lines[7:],
         6, "layer 2 of unet2 has stride 2 transposed 0, got stride 1 transposed 0"),
    ], ids=["short", "long", "strides", "unbalanced"])
    def test_load_rejects_other_layer_lists(self, tmp_path, arch, edit, line, match):
        path = tmp_path / "m.model"
        save_model(init_model(arch, seed=0), path)
        lines = edit(path.read_text().splitlines())
        # number the layers 0, 1, ... again, so the list is the only fault
        layer_lines = [i for i, line in enumerate(lines) if line.startswith("layer ")]
        for idx, i in enumerate(layer_lines):
            lines[i] = f"layer {idx} " + lines[i].split(" ", 2)[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"^line {line}: {match}$") as info:
            load_model(path)
        assert info.value.line == line

    @pytest.mark.parametrize("arch", ["conv", "unet"])
    def test_depth_past_the_file_rejected_on_line_1(self, tmp_path, arch):
        # every net has at least depth layers of two lines each; the plan,
        # whose size grows with depth, is never built
        path = tmp_path / "m.model"
        path.write_text(f"arch {arch} depth 1000000 channels 1\n" + _LAYER + _ROW)
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError) as info:
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == \
            f"line 1: {arch}1000000 has at least 1000000 layers, the file has 3 lines"
        assert info.value.line == 1
        assert peak < 1_000_000

    def test_depth_up_to_the_line_count_keeps_the_plan_message(self, tmp_path):
        path = tmp_path / "m.model"
        for depth, line, message in [
                (3, 4, "conv3 has 3 layers, the file ends after 1"),
                (4, 1, "conv4 has at least 4 layers, the file has 3 lines")]:
            path.write_text(f"arch conv depth {depth} channels 1\n" + _LAYER + _ROW)
            with pytest.raises(FileFormatError) as info:
                load_model(path)
            assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)
