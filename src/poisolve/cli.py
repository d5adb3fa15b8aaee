"""Command-line surface: gen | train | solve | spectral | bench.

Exit codes: 0 success, 2 validation failure (a ValueError or OSError: bad
inputs, invariant violations, uncertified models), 3 non-convergence: a solve that misses
its tolerance, a reference solution that cannot be computed
(iterators.ReferenceSolveError) or a training run that diverges
(training.TrainingError). Every error is printed as ``error: ...``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from .geometry import SETTINGS, GeometrySpec, generate
from .grid import FileFormatError, load_problem, reset, save_field, save_problem
from .iterators import (
    Iterator,
    JacobiIterator,
    MultigridIterator,
    ReferenceSolveError,
    solve_to_tol,
)
from .model import PhiIterator, load_model, parse_arch, save_model
from .spectral import DENSE_MAX_N, certify, linear_part, spectral_norm
from .training import TrainingError, default_config, train, write_log

SOLVER_HELP = "jacobi, mgN (N-level V-cycle) or a trained convN / unetN with --model"
KIND_ALIASES = {"poisson": "square_poisson"}
KINDS = SETTINGS + tuple(KIND_ALIASES)  # what --kind and --suite accept

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _build_solver(name: str, model_path) -> Iterator:
    if name == "jacobi":
        return JacobiIterator()
    if name.startswith("mg") and name[2:].isdigit():
        return MultigridIterator(int(name[2:]))
    try:
        kind, depth = parse_arch(name)
    except ValueError:
        raise ValueError(f"unknown solver {name!r} "
                         "(expected jacobi, mgN, convN or unetN)") from None
    if model_path is None:
        raise ValueError(f"solver {name!r} needs --model with trained weights")
    model = load_model(model_path)
    if (model.arch, model.depth) != (kind, depth):
        raise ValueError(f"model file holds {model.arch}{model.depth}, "
                         f"but --solver says {name}")
    return PhiIterator(JacobiIterator(), model)


def _geometry_kind(kind: str) -> str:
    return KIND_ALIASES.get(kind, kind)


def cmd_gen(args) -> int:
    spec = GeometrySpec(kind=_geometry_kind(args.kind), n=args.n, seed=args.seed)
    p = generate(spec)
    save_problem(p, args.out)
    print(f"wrote {spec.kind} problem (n = {p.n}) to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    p = load_problem(args.problem)
    it = _build_solver(args.solver, args.model)
    rng = np.random.default_rng(args.seed)
    u0 = reset(rng.standard_normal((p.n, p.n)), p)
    u, report = solve_to_tol(it, p, u0, args.tol, args.max_steps)
    print("iterations,conv_layers,mul_adds,final_relative_error,converged")
    print(f"{report.iterations},{report.conv_layers},{report.mul_adds},"
          f"{report.final_relative_error:.6g},{int(report.converged)}")
    if args.out:
        save_field(u, args.out)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_spectral(args) -> int:
    kind = _geometry_kind(args.kind)
    p = generate(GeometrySpec(kind=kind, n=args.n, seed=args.seed))
    it = _build_solver(args.solver, args.model)
    v = certify(it, p)
    norm_s = ""
    if args.n <= DENSE_MAX_N:
        norm_s = format(spectral_norm(linear_part(it, p)), ".6g")
    print("iterator,geometry,n,mode,rho,norm,fixed_point_residual,valid")
    print(f"{it.name},{kind},{args.n},{v.method},{v.rho_estimate:.6g},{norm_s},"
          f"{v.fixed_point_residual:.6g},{int(v.valid)}")
    return EXIT_OK


def cmd_train(args) -> int:
    overrides = {}
    for key in ("n", "steps", "batch", "lr", "seed"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    cfg = default_config(args.arch, **overrides)
    model, log = train(cfg)
    save_model(model, args.out)
    if args.report:
        write_log(log, args.report)
    final = log[-1].loss if log else float("nan")
    print(f"trained {args.arch} for {cfg.steps} steps (final loss {final:.6g}); "
          f"model written to {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.model is None:
        raise ValueError("bench needs --model with trained weights")
    model = load_model(args.model)
    suite = SETTINGS if args.suite == "all" else (_geometry_kind(args.suite),)
    results = bench_mod.run_benchmark(model, suite=suite, threshold=args.tol, seed=args.seed)
    bench_mod.write_bench_csv(results, sys.stdout)
    if args.report:
        with open(args.report, "w", newline="") as fh:
            bench_mod.write_bench_csv(results, fh)
    if not all(r.converged for r in results):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisolve",
        description="Learned-correction iterative Poisson solvers: generate "
                    "problems, train correction operators, solve, certify "
                    "spectra, and benchmark cost ratios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem file")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve a problem file to tolerance")
    solve.add_argument("--problem", required=True)
    solve.add_argument("--solver", required=True, help=SOLVER_HELP)
    solve.add_argument("--model", default=None)
    solve.add_argument("--tol", type=float, default=0.01)
    solve.add_argument("--max-steps", type=int, default=200000)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", default=None, help="optional solution field file")
    solve.set_defaults(func=cmd_solve)

    spectral = sub.add_parser("spectral", help="spectral radius / validity report")
    spectral.add_argument("--solver", required=True, help=SOLVER_HELP)
    spectral.add_argument("--model", default=None)
    spectral.add_argument("--n", type=int, default=17)
    spectral.add_argument("--kind", default="square", choices=KINDS)
    spectral.add_argument("--seed", type=int, default=0)
    spectral.set_defaults(func=cmd_spectral)

    tr = sub.add_parser("train", help="train a correction operator")
    tr.add_argument("--arch", required=True)
    tr.add_argument("--steps", type=int, default=None)
    tr.add_argument("--batch", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--n", type=int, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--out", required=True)
    tr.add_argument("--report", default=None, help="training log CSV path")
    tr.set_defaults(func=cmd_train)

    be = sub.add_parser("bench", help="cost-ratio benchmark vs the baseline")
    be.add_argument("--model", default=None)
    be.add_argument("--suite", default="all", choices=("all",) + KINDS)
    be.add_argument("--tol", type=float, default=0.01)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--report", default=None)
    be.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ReferenceSolveError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
