import numpy as np
import pytest

from poisolve import bench
from poisolve.bench import (
    BenchError,
    baseline_for,
    bench_size_for,
    certify_for_bench,
    format_bench_row,
    run_benchmark,
    write_bench_csv,
)
from poisolve.grid import residual_norms
from poisolve.iterators import JacobiIterator, solve_to_tol
from poisolve.model import init_model

from conftest import square_problem
from paper_constructs import scale_model, zero_model


class TestBenchPlumbing:
    def test_baseline_pairing(self):
        assert baseline_for(zero_model("conv3")).name == "jacobi"
        assert baseline_for(zero_model("unet2")).name == "mg2"
        assert baseline_for(zero_model("unet3")).name == "mg3"

    def test_bench_sizes(self):
        assert bench_size_for(zero_model("conv1")) == 65
        assert bench_size_for(zero_model("unet2")) == 257

    def test_uncertified_model_rejected(self):
        bad = scale_model(init_model("conv3", seed=0), 100.0)
        with pytest.raises(BenchError, match="not certified"):
            run_benchmark(bad)

    def test_certify_for_bench_accepts_fresh_model(self):
        v = certify_for_bench(init_model("conv3", seed=1))
        assert v.valid


@pytest.fixture(scope="module")
def zero_results():
    """H = 0 wrapped model on a small grid: structural-cost sanity row."""
    return run_benchmark(zero_model("conv3"), suite=("square",), n=33, seed=0)


class TestBenchRuns:

    def test_zero_model_ratios(self, zero_results):
        row = zero_results[0]
        assert row.converged
        # identical trajectory to the baseline, but every step carries the
        # correction layers, so the ratios are the per-step cost ratios
        assert row.layers_ratio == pytest.approx(4.0)
        base_per_step = 4 * 31 * 31
        model_per_step = base_per_step + 3 * 9 * 33 * 33
        assert row.ops_ratio == pytest.approx(model_per_step / base_per_step)
        assert row.ops_ratio > 1.0

    def test_csv_round_trip(self, zero_results, tmp_path):
        path = tmp_path / "bench.csv"
        with open(path, "w", newline="") as fh:
            write_bench_csv(zero_results, fh)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,baseline,setting,n,")
        assert len(lines) == 2
        assert lines[1].split(",")[:2] == ["conv3", "jacobi"]

    def test_rows_reproducible(self, zero_results):
        again = run_benchmark(zero_model("conv3"), suite=("square",), n=33, seed=0)
        assert [format_bench_row(r) for r in again] == \
               [format_bench_row(r) for r in zero_results]

    def test_start_residual_evaluated_once(self, monkeypatch):
        fields = []

        def counting(p, u):
            fields.append(u)
            return residual_norms(p, u)

        monkeypatch.setattr(bench, "residual_norms", counting)
        row, = run_benchmark(zero_model("conv3"), suite=("square",), n=33)
        assert row.converged
        # the start field once, then each converged solve's answer
        assert len(fields) == 3

    def test_unknown_setting_rejected(self, monkeypatch):
        # before the certificate, which takes seconds on a U-net
        def no_certificate(model):
            raise AssertionError("certify_for_bench called")

        monkeypatch.setattr(bench, "certify_for_bench", no_certificate)
        for suite in (("triangle",), ("square", "triangle")):
            with pytest.raises(ValueError, match="unknown setting 'triangle'"):
                run_benchmark(zero_model("conv1"), suite=suite, n=17)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, -0.01])
    def test_bad_threshold_rejected_before_certificate(self, monkeypatch, threshold):
        def no_certificate(model):
            raise AssertionError("certify_for_bench called")

        monkeypatch.setattr(bench, "certify_for_bench", no_certificate)
        message = f"threshold must be finite and positive, got {threshold}"
        with pytest.raises(ValueError) as info:
            run_benchmark(zero_model("conv1"), suite=("square",), threshold=threshold, n=17)
        assert str(info.value) == message
        p = square_problem(17)
        with pytest.raises(ValueError) as info:  # the same words as solve_to_tol's
            solve_to_tol(JacobiIterator(), p, p.b, threshold, 10)
        assert str(info.value) == message
