"""Cost-ratio benchmarks: trained model vs its classical baseline.

Each row solves one evaluation setting twice from the same random start,
once with the baseline and once with the wrapped model, both down to the
same relative-error threshold against a precomputed reference solution,
and reports the layer and multiply-add ratios. A model that fails to
converge on a setting is flagged, never silently scored: a converged
answer is always correct because the wrapped iterator shares the
baseline's fixed point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import SETTINGS, GeometrySpec, generate, square_problem
from .grid import Problem, reset, residual_norms
from .iterators import (
    Iterator,
    JacobiIterator,
    MultigridIterator,
    check_threshold,
    ground_truth,
    solve_to_tol,
)
from .model import CorrectionModel, PhiIterator
from .spectral import ValidityVerdict, certify
from .training import default_config

DEFAULT_THRESHOLD = 0.01  # stop at 1 percent of the initial error
MAX_STEPS = 200000  # steps per solve before a setting counts as not converged


class BenchError(ValueError):
    """Benchmark precondition failure (e.g. an uncertified model)."""


@dataclass
class BenchResult:
    model_id: str
    baseline_id: str
    setting: str
    n: int
    layers_model: int
    layers_base: int
    ops_model: int
    ops_base: int
    layers_ratio: float | None
    ops_ratio: float | None
    converged: bool


def baseline_for(model: CorrectionModel) -> Iterator:
    """Conv stacks race plain Jacobi; U-nets race multigrid of equal depth."""
    if model.arch == "conv":
        return JacobiIterator()
    return MultigridIterator(model.depth)


def bench_size_for(model: CorrectionModel) -> int:
    """Models are evaluated at four times their training resolution,
    4 (n - 1) + 1: 65 for conv stacks (trained at 17), 257 for U-nets
    (trained at 65)."""
    return 4 * (train_size_for(model) - 1) + 1


def train_size_for(model: CorrectionModel) -> int:
    return default_config(f"{model.arch}{model.depth}").n


def certify_for_bench(model: CorrectionModel) -> ValidityVerdict:
    """Certify the wrapped iterator on its training geometry and size."""
    n = train_size_for(model)
    p = square_problem(n, (0.3, -0.4, 0.7, 0.2))
    return certify(PhiIterator(JacobiIterator(), model), p)


def run_benchmark(
    model: CorrectionModel,
    suite=SETTINGS,
    threshold: float = DEFAULT_THRESHOLD,
    n: int | None = None,
    seed: int = 0,
) -> list[BenchResult]:
    for setting in suite:  # before the certificate, which takes seconds
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}")
    check_threshold(threshold)
    verdict = certify_for_bench(model)
    if not verdict.valid:
        raise BenchError(
            f"model is not certified valid on its training geometry "
            f"(rho = {verdict.rho_estimate:.6f}, "
            f"fixed-point residual = {verdict.fixed_point_residual:.3e})"
        )
    n = n or bench_size_for(model)
    base = baseline_for(model)
    phi = PhiIterator(JacobiIterator(), model)
    results = []
    for setting in suite:
        p = generate(GeometrySpec(kind=setting, n=n, seed=seed))
        u_star = ground_truth(p)
        rng = np.random.default_rng(seed + 1)
        u0 = reset(rng.standard_normal((n, n)), p)
        ub, rb = solve_to_tol(base, p, u0, threshold, MAX_STEPS, u_star=u_star)
        um, rm = solve_to_tol(phi, p, u0, threshold, MAX_STEPS, u_star=u_star)
        both = rb.converged and rm.converged
        initial = residual_norms(p, u0)[0]
        for u, rep in ((ub, rb), (um, rm)):
            if rep.converged:
                _check_solution(p, u, initial, threshold)
        # a start that already meets the threshold takes 0 steps: no ratio
        scored = both and rb.iterations > 0
        results.append(BenchResult(
            model_id=phi.name,
            baseline_id=base.name,
            setting=setting,
            n=n,
            layers_model=rm.conv_layers,
            layers_base=rb.conv_layers,
            ops_model=rm.mul_adds,
            ops_base=rb.mul_adds,
            layers_ratio=rm.conv_layers / rb.conv_layers if scored else None,
            ops_ratio=rm.mul_adds / rb.mul_adds if scored else None,
            converged=both,
        ))
    return results


def _check_solution(p: Problem, u, initial: float, threshold: float) -> None:
    """A converged benchmark answer must actually solve the system; initial
    is the interior residual norm of the start field."""
    interior, boundary = residual_norms(p, u)
    if boundary != 0.0:
        raise AssertionError(f"benchmark solution violates the boundary by {boundary:.3e}")
    if interior > 10.0 * threshold * max(initial, 1.0):
        raise AssertionError(
            f"benchmark solution residual {interior:.3e} exceeds "
            f"{10.0 * threshold:.3e} x initial {initial:.3e}"
        )


BENCH_COLUMNS = [
    "model", "baseline", "setting", "n",
    "layers_model", "layers_base", "ops_model", "ops_base",
    "layers_ratio", "ops_ratio", "converged",
]


def write_bench_csv(results: list[BenchResult], fh) -> None:
    """The bench table as CSV with LF line ends, to an open text stream."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for r in results:
        writer.writerow(format_bench_row(r))


def format_bench_row(r: BenchResult) -> list[str]:
    ratio = lambda x: "" if x is None else format(x, ".6g")  # noqa: E731
    return [
        r.model_id, r.baseline_id, r.setting, str(r.n),
        str(r.layers_model), str(r.layers_base),
        str(r.ops_model), str(r.ops_base),
        ratio(r.layers_ratio), ratio(r.ops_ratio),
        str(int(r.converged)),
    ]
