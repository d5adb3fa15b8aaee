#!/usr/bin/env python3
"""Show that every benchmark check passes on a correct output and fails on
a corrupted one.

    python3 perfbench/selftest.py

Runs in a few seconds on small grids; exits 1 if any check accepts a
corrupted output or rejects a correct one.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from run import MODELS, OUT, load_program, loss_over_weights  # noqa: E402


def cases():
    """Yield (check name, corruption, call on good output, call on corrupted one)."""
    from poisolve import geometry, grid, iterators, model, spectral, training

    n = 33
    p = geometry.generate(geometry.GeometrySpec(kind="cylinders", n=n, seed=3))
    ref = checks.reference_solution(p.mask, p.b, p.f, p.h)
    gt = iterators.ground_truth(p)
    u0 = np.where(p.mask == 1, np.random.default_rng(3).standard_normal((n, n)), p.b)
    u, rep = iterators.solve_to_tol(iterators.JacobiIterator(), p, u0, 0.01, 100000, u_star=ref)

    def solve(v, converged=True):
        return lambda: checks.check_solve("jacobi", p.mask, p.b, v, ref, 0.01, converged)

    edge = u.copy()
    edge[0, 5] = np.nextafter(edge[0, 5], np.inf)
    yield "check_solve", "one boundary cell off by one ulp", solve(u), solve(edge)
    early = ref + 1.5 * (u - ref)
    yield "check_solve", "error 1.5x the threshold", solve(u), solve(early)
    yield "check_solve", "reported not converged", solve(u), solve(u, converged=False)

    off = gt + 1e-7 * np.abs(ref).max() * p.mask
    yield ("check_ground_truth", "interior shifted by 1e-7",
           lambda: checks.check_ground_truth("cylinders", gt, ref),
           lambda: checks.check_ground_truth("cylinders", off, ref))

    m = model.load_model(MODELS / "conv3.model")
    verdict = spectral.certify(model.PhiIterator(iterators.JacobiIterator(), m),
                               training.square_problem(17, (0.3, -0.4, 0.7, 0.2)))
    yield ("check_certificate", "radius raised to 1.0",
           lambda: checks.check_certificate("conv3", verdict),
           lambda: checks.check_certificate("conv3", replace(verdict, rho_estimate=1.0)))
    yield ("check_certificate", "verdict marked invalid",
           lambda: checks.check_certificate("conv3", verdict),
           lambda: checks.check_certificate("conv3", replace(verdict, valid=False)))

    jac = spectral.certify(iterators.JacobiIterator(), training.square_problem(17, (1, 0, 0, 0)))
    yield ("check_jacobi_radius", "dense radius off by 1e-6",
           lambda: checks.check_jacobi_radius(jac, 17),
           lambda: checks.check_jacobi_radius(
               replace(jac, rho_estimate=jac.rho_estimate + 1e-6), 17))

    cfg = training.default_config("conv3", batch=2, k_max=4)
    batch = training.sample_batch(cfg, training.SquareSolutionCache(cfg.n),
                                  np.random.default_rng(3))
    value, grads = training.loss_and_grad(m, batch)
    weights = [L.weights for L in m.layers]
    loss = loss_over_weights(m, batch)
    bent = [g.copy() for g in grads]
    bent[1][0, 0, 1, 1] *= 1.01
    yield ("check_gradient", "one gradient entry scaled by 1.01",
           lambda: checks.check_gradient(loss, weights, value, grads),
           lambda: checks.check_gradient(loss, weights, value, bent))

    OUT.mkdir(exist_ok=True)
    path = OUT / "selftest.txt"
    grid.save_problem(p, path)
    back = grid.load_problem(path)
    os.remove(path)
    b = p.b.copy()
    b[0, 3] = np.nextafter(b[0, 3], np.inf)
    flipped = grid.make_problem(p.mask, b, p.f, h=p.h)
    yield ("check_round_trip", "one boundary value off by one ulp",
           lambda: checks.check_round_trip("cylinders", p, back),
           lambda: checks.check_round_trip("cylinders", p, flipped))


def benchmark_json_mismatches() -> list[str]:
    """(name, unit) pairs in BENCHMARK.json that run.py does not report, and back."""
    import json

    from run import END_TO_END, HERE, PER_LAYER

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in doc["end_to_end"] + doc["per_layer"]}
    reported = set(END_TO_END.items()) | set(PER_LAYER.items())
    return sorted(declared ^ reported)


def main() -> int:
    load_program()
    bad = 0
    mismatched = benchmark_json_mismatches()
    if mismatched:
        print(f"FAIL BENCHMARK.json and run.py disagree on {mismatched}")
        bad += 1
    for name, corruption, good, corrupted in cases():
        try:
            good()
        except checks.CheckFailed as exc:
            print(f"FAIL {name} rejects a correct output: {exc}")
            bad += 1
            continue
        try:
            corrupted()
        except checks.CheckFailed as exc:
            print(f"ok   {name} rejects {corruption}: {exc}")
        else:
            print(f"FAIL {name} accepts {corruption}")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
