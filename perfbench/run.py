#!/usr/bin/env python3
"""End-to-end benchmark of poisolve: set up, train, certify, solve.

    python3 perfbench/run.py --workload conv65 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One run repeats whole rounds of the workload while another round
still fits in --seconds (at least one round), checks every output against
the benchmark's own references (checks.py), and prints one JSON object as
its last line. With --trace 0 it reports the end-to-end metrics, each the
median of its samples; with --trace 1 it traces the package's functions
(tracing.py), reports per-round calls and self time per function instead,
and writes the spans to perfbench/out/trace_<workload>.csv.gz.

BLAS is pinned to one thread before numpy loads: the default two-thread
OpenBLAS pool stalls whenever the other core of a small machine is busy.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracing import SPAN_NAMES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODELS = HERE / "models"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "solve_model_s": "s",
    "solve_base_s": "s",
    "reference_s": "s",
    "certify_s": "s",
    "train_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TIMED = tuple(key for key in END_TO_END if key != "peak_rss_mb")
SOLVER_COUNTS = ("iters_model", "iters_base", "madds_model", "madds_base")
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    **dict.fromkeys(SOLVER_COUNTS, "count"),
    **{f"traced.{key}": END_TO_END[key] for key in TIMED},
}
MAX_STEPS = 200000
TRAIN_SEED = 0


@dataclass(frozen=True)
class Workload:
    model_file: str
    n: int
    settings: tuple[str, ...]
    # settings on which iterators.ground_truth converges (it diverges on
    # the L-shape); reference_s sums over these
    reference_settings: tuple[str, ...]
    # problems per setting, with geometry seeds 0..instances-1 on every
    # run; --seed draws only the start fields (see README: drawing the
    # boundary data from --seed moved iteration counts by up to 18 %)
    instances: int
    train_steps: int
    # a round is these passes in order, each timing the metrics it names
    # once; the first must set up. A metric named in several passes gets
    # its samples at moments spread over the round, which a machine whose
    # speed drifts over tens of seconds needs.
    passes: tuple[frozenset[str], ...]


def passes(*names: str) -> tuple[frozenset[str], ...]:
    """Passes of a round from space-separated metric names; "all" is every metric."""
    return tuple(frozenset(TIMED if n == "all" else n.split()) for n in names)


WORKLOADS = {
    # Thousands of cheap steps on small grids: per-call overhead of the
    # Jacobi sweep, the 3 single-channel convs and the stopping test.
    "conv65": Workload("conv3.model", 65,
                       ("square", "lshape", "cylinders", "square_poisson"),
                       ("square", "cylinders", "square_poisson"),
                       instances=4, train_steps=100,
                       passes=passes("all", "setup_s reference_s certify_s",
                                     "setup_s certify_s", "certify_s", "certify_s")),
    # Hundreds of steps on large arrays: V-cycles, stride-2 and transposed
    # convs, power-iteration certification. unet2 diverges on lshape and
    # cylinders, so those are left out. One round fills a run: the short
    # operations run in every pass, the three 10 s certifications fall at
    # its start, middle and end, and the base solves and training between.
    "unet257": Workload("unet2.model", 257, ("square", "square_poisson"),
                        ("square", "square_poisson"),
                        instances=1, train_steps=20,
                        passes=passes(
                            "setup_s reference_s solve_model_s certify_s",
                            "setup_s reference_s solve_model_s solve_base_s train_steps_per_s",
                            "setup_s reference_s solve_model_s certify_s",
                            "setup_s reference_s solve_model_s solve_base_s train_steps_per_s",
                            "setup_s reference_s solve_model_s certify_s")),
}
for _w in WORKLOADS.values():
    assert "setup_s" in _w.passes[0] and set().union(*_w.passes) == set(TIMED)


def load_program():
    """Import poisolve from the checkout's sources; exit 2 if they are absent."""
    if not (SRC / "poisolve" / "__init__.py").is_file():
        print(f"error: no poisolve sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import poisolve  # noqa: F401  (loads every submodule)


@dataclass
class Case:
    """One problem of a workload: its setting, generator spec, start and reference."""

    setting: str
    spec: object
    start: object
    ref: object

    @property
    def label(self) -> str:
        return f"{self.setting} (seed {self.spec.seed})"


class Round:
    """Timed samples and solver counts of one round of a workload."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {key: [] for key in TIMED}
        self.counts = dict.fromkeys(SOLVER_COUNTS, 0)

    @property
    def operations(self) -> int:
        return sum(len(v) for v in self.samples.values())


class Runner:
    def __init__(self, name: str, seed: int, workdir: Path):
        import numpy as np
        from poisolve import bench, geometry, model

        self.w = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.model_path = MODELS / self.w.model_file
        self.cases = []
        for i in range(self.w.instances):
            for k, s in enumerate(self.w.settings):
                spec = geometry.GeometrySpec(kind=s, n=self.w.n, seed=i)
                p = geometry.generate(spec)
                rng = np.random.default_rng([seed, i, k])
                start = np.where(p.mask == 1, rng.standard_normal((p.n, p.n)), p.b)
                ref = checks.reference_solution(p.mask, p.b, p.f, p.h)
                self.cases.append(Case(s, spec, start, ref))
        m = model.load_model(self.model_path)
        self.arch = f"{m.arch}{m.depth}"
        self.threshold = bench.DEFAULT_THRESHOLD

    @staticmethod
    def _timed(r: Round, key: str, fn):
        """Run fn(); its wall time is one sample of metric key."""
        t0 = time.perf_counter()
        out = fn()
        r.samples[key].append(time.perf_counter() - t0)
        return out

    def setup(self):
        """Generate, write and read back every problem; load the model."""
        from poisolve import geometry, grid, model

        generated, problems = [], []
        for k, case in enumerate(self.cases):
            p = geometry.generate(case.spec)
            path = self.workdir / f"problem{k}.txt"
            grid.save_problem(p, path)
            problems.append(grid.load_problem(path))
            generated.append(p)
        return generated, problems, model.load_model(self.model_path)

    def round(self) -> Round:
        """The workload's passes in order; a pass without set-up reuses the last one's."""
        from poisolve import bench, iterators, model, training

        r = Round()
        for due in self.w.passes:
            if "setup_s" in due:
                generated, problems, m = self._timed(r, "setup_s", self.setup)
                for case, p, q in zip(self.cases, generated, problems):
                    checks.check_round_trip(case.label, p, q)

            if "reference_s" in due:
                refs = [(c, p) for c, p in zip(self.cases, problems)
                        if c.setting in self.w.reference_settings]
                truths = self._timed(r, "reference_s",
                                     lambda: [iterators.ground_truth(p) for _, p in refs])
                for (case, _), u in zip(refs, truths):
                    checks.check_ground_truth(case.label, u, case.ref)

            for kind, it in (("model", model.PhiIterator(iterators.JacobiIterator(), m)),
                             ("base", bench.baseline_for(m))):
                if f"solve_{kind}_s" not in due:
                    continue
                solved = self._timed(r, f"solve_{kind}_s", lambda: [
                    iterators.solve_to_tol(it, p, case.start, self.threshold, MAX_STEPS,
                                           u_star=case.ref)
                    for case, p in zip(self.cases, problems)])
                for case, p, (u, rep) in zip(self.cases, problems, solved):
                    checks.check_solve(f"{it.name} on {case.label}", p.mask, p.b, u,
                                       case.ref, self.threshold, rep.converged)
                r.counts[f"iters_{kind}"] = sum(rep.iterations for _, rep in solved)
                r.counts[f"madds_{kind}"] = sum(rep.mul_adds for _, rep in solved)

            if "certify_s" in due:
                verdict = self._timed(r, "certify_s", lambda: bench.certify_for_bench(m))
                checks.check_certificate(f"{self.arch} certification", verdict)

            if "train_steps_per_s" in due:
                cfg = training.default_config(self.arch, steps=self.w.train_steps,
                                              seed=TRAIN_SEED)
                t0 = time.perf_counter()
                training.train(cfg)
                r.samples["train_steps_per_s"].append(cfg.steps / (time.perf_counter() - t0))
        return r

    def final_checks(self) -> None:
        """Checks whose inputs do not change between rounds."""
        import numpy as np
        from poisolve import iterators, model, spectral, training

        cfg = training.default_config(self.arch)
        square = training.square_problem(cfg.n, (0.3, -0.4, 0.7, 0.2))
        checks.check_jacobi_radius(spectral.certify(iterators.JacobiIterator(), square), cfg.n)

        m = model.load_model(self.model_path)
        small = training.default_config(self.arch, batch=2, k_max=4)
        batch = training.sample_batch(small, training.SquareSolutionCache(small.n),
                                      np.random.default_rng(self.seed))
        value, grads = training.loss_and_grad(m, batch)
        checks.check_gradient(loss_over_weights(m, batch), [L.weights for L in m.layers],
                              value, grads, seed=self.seed)


def loss_over_weights(m, batch):
    """training.loss on batch as a function of m's list of kernels."""
    from poisolve import training

    def loss(weights):
        layers = [replace(L, weights=w) for L, w in zip(m.layers, weights)]
        return training.loss(replace(m, layers=layers), batch)

    return loss


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    return {key: statistics.median([t for r in rounds for t in r.samples[key]])
            for key in TIMED}


def per_layer(rounds, summaries) -> dict[str, float]:
    med = statistics.median
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = med([s[name][0] for s in summaries])
        out[f"{name}.self_ms"] = med([s[name][1] for s in summaries])
    for key in SOLVER_COUNTS:
        out[key] = med([r.counts[key] for r in rounds])
    for key, value in end_to_end(rounds).items():
        out[f"traced.{key}"] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = None
    try:
        runner = Runner(args.workload, args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            tracer.install()
        rounds, summaries = [], []
        begin = time.perf_counter()
        while True:
            lo = len(tracer) if tracer else 0
            rounds.append(runner.round())
            if tracer:
                summaries.append(tracer.summarize(lo, len(tracer)))
            elapsed = time.perf_counter() - begin
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        if tracer:
            tracer.uninstall()
        runner.final_checks()
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics, units = per_layer(rounds, summaries), PER_LAYER
        tracer.write_csv(OUT / f"trace_{args.workload}.csv.gz")
    else:
        metrics, units = end_to_end(rounds), END_TO_END
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds in {elapsed:.1f} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.operations for r in rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
