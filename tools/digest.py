"""Print one sha256 per named output of poisolve, for "same numbers" checks.

    python tools/digest.py > digest.txt

Run it on two source trees and diff the two listings: a refactor that
keeps every number prints the same lines. Each line is a name and the
sha256 of that output's exact bits (an array's shape, dtype and bytes,
or the repr of a report, whose floats print every digit). It covers:

  * 3 steps of Jacobi, mg1-mg3, conv3 and unet2 wrapped around Jacobi,
    and unet2 wrapped around mg2 (the shipped models), on the four
    settings, square_poisson at a mesh width 0.3 / (n - 1) (h = 1/(n - 1)
    is a power of two at these n, so h * h rounds only there) and three
    random_geometry masks at n = 17, 65 and 257, on a field and on a
    (3,)-stack;
  * ground_truth on those problems at n = 17 and 65, and on the 257 square;
  * solve_to_tol fields and CostReports: Jacobi and wrapped conv3 at
    n = 65 on the four settings, stopping on the error and on the
    residual; mg2 and wrapped unet2 at n = 257 on square and
    square_poisson, stopping on the error;
  * bench.certify_for_bench's verdicts for both shipped models;
  * training.loss_and_grad and training.loss on one sample_batch per
    architecture, and the kernels and the log's losses and rho after
    3 training.train steps from each architecture's default_config.

It takes about ten seconds on one core. BLAS is held to one thread, so that
the reductions it runs sum in the same order on every machine.
"""

import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from poisolve.bench import DEFAULT_THRESHOLD, MAX_STEPS, certify_for_bench  # noqa: E402
from poisolve.geometry import SETTINGS, GeometrySpec, generate, random_geometry  # noqa: E402
from poisolve.grid import reset  # noqa: E402
from poisolve.iterators import (  # noqa: E402
    JacobiIterator,
    MultigridIterator,
    ground_truth,
    solve_to_tol,
)
from poisolve.model import PhiIterator, load_model  # noqa: E402
from poisolve.training import (  # noqa: E402
    SquareSolutionCache,
    default_config,
    loss,
    loss_and_grad,
    sample_batch,
    train,
)

MODELS = ROOT / "perfbench" / "models"
SIZES = (17, 65, 257)
STEPS = 3


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(f"{a.shape}{a.dtype}".encode())
            h.update(a.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def emit(name: str, *parts) -> None:
    print(name, digest(*parts), flush=True)


def problems(n: int) -> dict:
    """The four settings (geometry seed 0), square_poisson at a mesh width
    that is not a power of two, and three random masks at n."""
    named = {kind: generate(GeometrySpec(kind=kind, n=n, seed=0)) for kind in SETTINGS}
    named["square_poisson_h0.3"] = replace(named["square_poisson"], h=0.3 / (n - 1))
    rng = np.random.default_rng(n)
    for i in range(3):
        named[f"random{i}"] = random_geometry(n, rng)
    return named


def start(p, lead=(), seed=1):
    """A white start field, or stack, reset to b."""
    u = np.random.default_rng(seed).standard_normal(lead + (p.n, p.n))
    return u if lead else reset(u, p)


def main() -> None:
    conv3 = load_model(MODELS / "conv3.model")
    unet2 = load_model(MODELS / "unet2.model")
    iterators = {
        "jacobi": JacobiIterator(),
        "mg1": MultigridIterator(1),
        "mg2": MultigridIterator(2),
        "mg3": MultigridIterator(3),
        "conv3": PhiIterator(JacobiIterator(), conv3),
        "unet2": PhiIterator(JacobiIterator(), unet2),
        "unet2-mg2": PhiIterator(MultigridIterator(2), unet2),
    }
    for n in SIZES:
        for setting, p in problems(n).items():
            for lead in ((), (3,)):
                for name, it in iterators.items():
                    u = start(p, lead)
                    for _ in range(STEPS):
                        u = it.step(u, p)
                    emit(f"step/{name}/{n}/{setting}/{lead}", u)
            if n < 257 or setting == "square":
                emit(f"ground_truth/{n}/{setting}", ground_truth(p))

    at65 = problems(65)
    for name in ("jacobi", "conv3"):
        for setting in SETTINGS:
            p = at65[setting]
            u_star = ground_truth(p)
            for mode, ref in (("error", u_star), ("residual", None)):
                u, report = solve_to_tol(iterators[name], p, start(p), DEFAULT_THRESHOLD,
                                         MAX_STEPS, u_star=ref)
                emit(f"solve/{name}/65/{setting}/{mode}", u, report)
    at257 = problems(257)
    for name in ("mg2", "unet2"):
        for setting in ("square", "square_poisson"):
            p = at257[setting]
            u, report = solve_to_tol(iterators[name], p, start(p), DEFAULT_THRESHOLD,
                                     MAX_STEPS, u_star=ground_truth(p))
            emit(f"solve/{name}/257/{setting}/error", u, report)

    for arch, model in (("conv3", conv3), ("unet2", unet2)):
        emit(f"certify_for_bench/{arch}", certify_for_bench(model))
        cfg = default_config(arch)
        batch = sample_batch(cfg, SquareSolutionCache(cfg.n), np.random.default_rng(0))
        value, grads = loss_and_grad(model, batch)
        emit(f"loss_and_grad/{arch}", value, *grads)
        emit(f"loss/{arch}", loss(model, batch))
        trained, log = train(default_config(arch, steps=3))
        emit(f"train/{arch}", *(layer.weights for layer in trained.layers),
             [(row.step, row.loss, row.rho_estimate) for row in log])


if __name__ == "__main__":
    main()
