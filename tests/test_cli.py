import shlex
from pathlib import Path

import numpy as np
import pytest

from poisolve import bench as bench_mod
from poisolve import cli, spectral
from poisolve.cli import build_parser, main
from poisolve.grid import save_problem
from poisolve.iterators import ReferenceSolveError
from poisolve.model import init_model, save_model
from poisolve.training import TrainingError, default_config, train

from conftest import square_problem
from paper_constructs import scale_model, zero_model


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
        assert header == "iterations,conv_layers,mul_adds,final_residual_ratio,converged"
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

    def test_multigrid_depth_4(self, capsys):
        code, out, _ = run(capsys, "spectral", "--solver", "mg4", "--n", "33")
        assert code == 0
        assert out.strip().splitlines()[1].startswith("mg4,square,33,dense,")

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

    @pytest.mark.parametrize("field,value", [("batch", "0"), ("lr", "nan")])
    def test_train_config_error_names_its_field(self, tmp_path, capsys, field, value):
        code, _, err = run(capsys, "train", "--arch", "conv3", f"--{field}", value,
                           "--out", str(tmp_path / "m.model"))
        assert code == 2
        assert err == f"error: invalid training configuration: {field} = {value}\n"

    def test_bench_report_equals_stdout(self, tmp_path, monkeypatch, capsys):
        rows = [bench_mod.BenchResult("conv3", "jacobi", s, 65, 10, 30, 400, 500,
                                      ratio, ratio, ratio is not None)
                for s, ratio in (("square", 1 / 3), ("lshape", None))]
        monkeypatch.setattr(bench_mod, "run_benchmark", lambda model, **kw: rows)
        mp, report = tmp_path / "m.model", tmp_path / "bench.csv"
        save_model(zero_model("conv3"), mp)
        code, out, _ = run(capsys, "bench", "--model", str(mp), "--report", str(report))
        assert code == 3  # the lshape row did not converge
        assert report.read_bytes() == out.encode()
        assert out.splitlines()[1:] == [
            "conv3,jacobi,square,65,10,30,400,500,0.333333,0.333333,1",
            "conv3,jacobi,lshape,65,10,30,400,500,,,0"]
        assert out.endswith("0\n") and "\r" not in out

    def test_bench_without_model_exits_2(self, capsys):
        code, _, err = run(capsys, "bench")
        assert code == 2 and "--model" in err

    def test_bench_uncertified_model_exits_2(self, tmp_path, capsys):
        bad = scale_model(init_model("conv3", seed=0), 100.0)
        path = tmp_path / "bad.model"
        save_model(bad, path)
        code, _, err = run(capsys, "bench", "--model", str(path))
        assert code == 2 and "not certified" in err

    def test_solve_with_trained_model(self, tmp_path, capsys):
        cfg = default_config("conv2", steps=40, seed=8)
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

    def test_solve_conv5(self, tmp_path, capsys):
        """Any depth train --arch accepts is a solver name."""
        mp = tmp_path / "m.model"
        save_model(zero_model("conv5"), mp)
        problem = tmp_path / "p.txt"
        save_problem(square_problem(17), problem)
        code, out, _ = run(capsys, "solve", "--problem", str(problem),
                           "--solver", "conv5", "--model", str(mp), "--tol", "1e-1")
        assert code == 0 and out.strip().endswith(",1")

    def test_solver_arch_mismatch(self, tmp_path, capsys):
        mp = tmp_path / "m.model"
        save_model(zero_model("conv2"), mp)
        problem = tmp_path / "p.txt"
        run(capsys, "gen", "--kind", "square", "--n", "17", "--seed", "0",
            "--out", str(problem))
        code, _, err = run(capsys, "solve", "--problem", str(problem),
                           "--solver", "conv3", "--model", str(mp))
        assert code == 2 and "conv2" in err


MODELS_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "models"


def _solve(*opts):
    def argv(tmp_path):
        problem = tmp_path / "p.txt"
        save_problem(square_problem(17), problem)
        return ["solve", "--problem", str(problem), "--solver", "jacobi", *opts]
    return argv


def _train(*opts):
    return lambda tmp_path: ["train", "--arch", "conv3", "--out",
                             str(tmp_path / "m.model"), *opts]


def _bench_edited(arch, edit):
    """bench on a fresh arch model file whose lines went through edit."""
    def argv(tmp_path):
        path = tmp_path / f"{arch}.model"
        save_model(init_model(arch, seed=0), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        return ["bench", "--model", str(path)]
    return argv


class TestExitCodes:
    """Bad values exit 2 with one `error:` line, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (_solve("--tol", "nan"), "threshold must be finite and positive, got nan"),
        (_solve("--tol", "inf"), "threshold must be finite and positive, got inf"),
        (_solve("--tol", "-1"), "threshold must be finite and positive, got -1.0"),
        (_solve("--tol", "0"), "threshold must be finite and positive, got 0.0"),
        (_solve("--max-steps", "-1"), "max_steps must be non-negative, got -1"),
        (_train("--lr", "inf"), "invalid training configuration: lr = inf"),
        (_train("--lr", "nan"), "invalid training configuration: lr = nan"),
        (_train("--lr", "0"), "invalid training configuration: lr = 0.0"),
        (_train("--batch", "0"), "invalid training configuration: batch = 0"),
        # layer 1 of unet2, on line 4, is its first stride-2 conv
        (_bench_edited("unet2", lambda lines: lines[:3] + [
            lines[3].replace("stride 2", "stride 3")] + lines[4:]),
         "line 4: layer 1 of unet2 has stride 2 transposed 0, got stride 3 transposed 0"),
        (_bench_edited("conv3", lambda lines: lines[:-2]),
         "line 6: conv3 has 3 layers, the file ends after 2"),
    ], ids=["tol-nan", "tol-inf", "tol-negative", "tol-zero", "max-steps-negative",
            "lr-inf", "lr-nan", "lr-zero", "batch-zero", "model-stride", "model-missing"])
    def test_bad_value_exits_2(self, tmp_path, capsys, argv, message):
        code, out, err = run(capsys, *argv(tmp_path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["solve", "spectral"])
    @pytest.mark.parametrize("name, message", [
        ("mg0", "multigrid depth must be >= 1"),
        ("conv0", "unknown solver 'conv0' (expected jacobi, mgN, convN or unetN)"),
        ("foo", "unknown solver 'foo' (expected jacobi, mgN, convN or unetN)"),
    ])
    def test_bad_solver_name_exits_2(self, tmp_path, capsys, command, name, message):
        argv = (_solve()(tmp_path) if command == "solve"
                else ["spectral", "--solver", "jacobi", "--n", "9"])
        argv[argv.index("jacobi")] = name
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_kernel_value_exits_2(self, tmp_path, capsys, value):
        # before solving a step, not as a diverged solve (exit 3)
        lines = (MODELS_DIR / "conv3.model").read_text().splitlines()
        lines[2] = " ".join([value] + lines[2].split()[1:])
        path = tmp_path / "conv3.model"
        path.write_text("\n".join(lines) + "\n")
        argv = _solve("--model", str(path))(tmp_path)
        argv[argv.index("jacobi")] = "conv3"
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: line 3: non-finite value in kernel row\n")

    @pytest.mark.parametrize("target", ["missing/out", "file/out", "dir"])
    @pytest.mark.parametrize("command, option", [
        ("gen", "--out"), ("solve", "--out"), ("train", "--out"), ("train", "--report"),
        ("bench", "--report")])
    def test_unwritable_output_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                      command, option, target):
        def never(*args, **kwargs):
            raise AssertionError("the run started before the output was checked")

        monkeypatch.setattr(cli, "generate", never)
        monkeypatch.setattr(cli, "train", never)
        monkeypatch.setattr(cli, "solve_to_tol", never)
        monkeypatch.setattr(bench_mod, "run_benchmark", never)
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        path = str(tmp_path / target)
        argv = {"gen": lambda _: ["gen", "--kind", "square", "--n", "9"],
                "solve": _solve(), "train": _train(),
                "bench": lambda _: ["bench", "--model", str(MODELS_DIR / "conv3.model")],
                }[command](tmp_path)
        code, out, err = run(capsys, *argv, option, path)
        assert (code, out, err) == (
            2, "", f"error: cannot write {path}: not a file in a writable directory\n")

    def test_bench_start_within_tol_exits_0(self, capsys):
        # the start field already meets --tol 2, so both solves take 0 steps
        code, out, err = run(capsys, "bench", "--model", str(MODELS_DIR / "conv3.model"),
                             "--suite", "square", "--tol", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "conv3,jacobi,square,65,0,0,0,0,,,1"


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
