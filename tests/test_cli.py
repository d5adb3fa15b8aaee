import shlex
from pathlib import Path

import numpy as np
import pytest

from poisolve import cli, spectral
from poisolve.cli import build_parser, main
from poisolve.iterators import ReferenceSolveError
from poisolve.model import save_model, zero_model
from poisolve.training import TrainingError, default_config, train


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenSolve:
    def test_end_to_end_smoke(self, tmp_path, capsys):
        problem = tmp_path / "p.txt"
        code, out, _ = run(capsys, "gen", "--kind", "square", "--n", "17",
                           "--seed", "7", "--out", str(problem))
        assert code == 0
        code, out, _ = run(capsys, "solve", "--problem", str(problem),
                           "--solver", "jacobi", "--tol", "1e-2")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "iterations,conv_layers,mul_adds,final_relative_error,converged"
        assert row.endswith(",1")

    def test_solve_non_convergence_exit_code(self, tmp_path, capsys):
        problem = tmp_path / "p.txt"
        run(capsys, "gen", "--kind", "square", "--n", "17", "--seed", "1",
            "--out", str(problem))
        code, out, _ = run(capsys, "solve", "--problem", str(problem),
                           "--solver", "jacobi", "--tol", "1e-6",
                           "--max-steps", "3")
        assert code == 3

    def test_malformed_problem_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a problem\n")
        code, _, err = run(capsys, "solve", "--problem", str(bad),
                           "--solver", "jacobi")
        assert code == 2 and "error" in err

    def test_gen_all_kinds(self, tmp_path, capsys):
        for kind in ("square", "lshape", "cylinders", "poisson"):
            code, _, _ = run(capsys, "gen", "--kind", kind, "--n", "33",
                             "--seed", "0", "--out", str(tmp_path / f"{kind}.txt"))
            assert code == 0


class TestSpectral:
    def test_jacobi_dense_value(self, capsys):
        code, out, _ = run(capsys, "spectral", "--solver", "jacobi", "--n", "17")
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["mode"] == "dense"  # certify's choice at n <= 33
        assert abs(float(fields["rho"]) - 0.9808) < 1e-3
        assert fields["valid"] == "1"

    def test_model_solver_needs_model_file(self, capsys):
        code, _, err = run(capsys, "spectral", "--solver", "conv3", "--n", "17")
        assert code == 2 and "model" in err

    def test_even_grid_above_dense_size(self, capsys):
        """n = 100 admits no coarsening; its reference still converges."""
        code, out, _ = run(capsys, "spectral", "--solver", "jacobi", "--n", "100")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",1")

    def test_failing_reference_exits_3(self, monkeypatch, capsys):
        def fail(p):
            raise ReferenceSolveError("ground truth residual check failed")

        monkeypatch.setattr(spectral, "ground_truth", fail)
        code, _, err = run(capsys, "spectral", "--solver", "jacobi", "--n", "17")
        assert code == 3
        assert err.startswith("error: ground truth residual check failed")


class TestTrainBench:
    def test_train_writes_model_and_log(self, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        log_path = tmp_path / "log.csv"
        code, out, _ = run(capsys, "train", "--arch", "conv2", "--steps", "15",
                           "--seed", "4", "--out", str(model_path),
                           "--report", str(log_path))
        assert code == 0
        assert model_path.exists()
        assert log_path.read_text().startswith("step,loss,")

    def test_diverged_training_exits_3(self, tmp_path, monkeypatch, capsys):
        def fail(cfg):
            raise TrainingError("training diverged (loss = 1.000e+07)", step=3)

        monkeypatch.setattr(cli, "train", fail)
        code, _, err = run(capsys, "train", "--arch", "conv2", "--out",
                           str(tmp_path / "m.model"))
        assert code == 3
        assert err.startswith("error: step 3: training diverged")

    def test_bench_without_model_exits_2(self, capsys):
        code, _, err = run(capsys, "bench")
        assert code == 2 and "--model" in err

    def test_bench_uncertified_model_exits_2(self, tmp_path, capsys):
        from poisolve.model import init_model, scale_model

        bad = scale_model(init_model("conv3", seed=0), 100.0)
        path = tmp_path / "bad.model"
        save_model(bad, path)
        code, _, err = run(capsys, "bench", "--model", str(path))
        assert code == 2 and "not certified" in err

    def test_solve_with_trained_model(self, tmp_path, capsys):
        cfg = default_config("conv2", steps=40, seed=8, rho_every=0)
        model, _ = train(cfg)
        mp = tmp_path / "m.model"
        save_model(model, mp)
        problem = tmp_path / "p.txt"
        run(capsys, "gen", "--kind", "square", "--n", "17", "--seed", "2",
            "--out", str(problem))
        code, out, _ = run(capsys, "solve", "--problem", str(problem),
                           "--solver", "conv2", "--model", str(mp),
                           "--tol", "1e-2")
        assert code == 0

    def test_solver_arch_mismatch(self, tmp_path, capsys):
        mp = tmp_path / "m.model"
        save_model(zero_model("conv2"), mp)
        problem = tmp_path / "p.txt"
        run(capsys, "gen", "--kind", "square", "--n", "17", "--seed", "0",
            "--out", str(problem))
        code, _, err = run(capsys, "solve", "--problem", str(problem),
                           "--solver", "conv3", "--model", str(mp))
        assert code == 2 and "conv2" in err


def test_readme_cli_examples_parse():
    """Every `poisolve ...` line in README's CLI section is a valid command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = [line for line in section.splitlines() if line.startswith("poisolve ")]
    assert len(examples) >= 5
    parser = build_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
