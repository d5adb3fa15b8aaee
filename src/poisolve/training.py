"""Training the correction operator on sampled square Laplace problems.

The objective is the squared distance to the reference solution after k
wrapped-iterator steps, with k drawn per sample from {1, ..., k_max} and
the start field drawn white-Gaussian then reset to the boundary values.
The wrapped iterator keeps the base solver's fixed point for any weights,
so Phi(u) - u* = T_H (u - u*) exactly, where the linear part T_H depends
on the mask alone. The unroll therefore runs the error recursion: the
wrapped iterator's own step (:meth:`poisolve.model.PhiIterator.step`) on
the batch's homogeneous problem (b = 0, f = 0), from e0 = mask (u0 - u*),
and the loss sums the squared final errors; T_H is the operator that
:func:`poisolve.spectral.certify` measures. The unroll retires each sample
at its own k: step t advances only the samples still short of their k.
Gradients are computed by an explicit reverse pass over the unrolled
steps, which takes each sample in at its own k: the sweep's linear part
is self-adjoint on interior cells, so its adjoint is the sweep itself
(:func:`poisolve.iterators.jacobi_step` on the homogeneous problem) after
masking, and the adjoint of the correction net is the tape walk in
:mod:`poisolve.model`.

The base solver is fixed to Jacobi here; the wrapped iterator remains
usable with any base at inference time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import square_problem
from .grid import Field, Problem, reset
from .iterators import JacobiIterator, ground_truth, jacobi_step
from .model import CorrectionModel, PhiIterator, backward, init_model, parse_arch
from .spectral import (
    DENSE_MAX_N,
    RHO_VALID_MARGIN,
    homogeneous,
    linear_part,
    spectral_radius,
)


class TrainingError(RuntimeError):
    def __init__(self, message, step=None, log=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step
        self.log = log or []


@dataclass
class TrainConfig:
    arch: str = "conv3"
    n: int = 17
    k_max: int = 20
    batch: int = 8
    lr: float = 1e-3
    steps: int = 20000
    seed: int = 0
    rho_every: int = 500

    def __post_init__(self):
        if self.k_max < 1 or self.batch < 1 or self.lr <= 0 or self.steps < 0:
            raise ValueError("invalid training configuration")


def default_config(arch: str, **overrides) -> TrainConfig:
    """Per-architecture defaults: conv nets train at n=17, U-nets at n=65."""
    kind, _ = parse_arch(arch)
    base = dict(arch=arch)
    if kind == "conv":
        base.update(n=17, steps=20000)
    else:
        base.update(n=65, steps=4000)
    base.update(overrides)
    return TrainConfig(**base)


@dataclass
class TrainSample:
    problem: Problem
    u_star: Field
    u0: Field
    k: int


@dataclass
class LogRow:
    step: int
    loss: float
    rho_estimate: float | None
    wall_seconds: float


def sample_square_problem(n: int, rng: np.random.Generator) -> Problem:
    """Laplace on the square with each side a fresh uniform value in [-1, 1]."""
    if n < 5:
        raise ValueError(f"training grid too small: n = {n}")
    return square_problem(n, rng.uniform(-1.0, 1.0, size=4))


class SquareSolutionCache:
    """Reference solutions for sampled square problems in O(1) per sample.

    The solution of the Laplace problem is linear in the boundary data, so
    the four unit-side solutions span every sampled problem exactly.
    """

    def __init__(self, n: int):
        self.n = n
        self.basis = []
        for side in range(4):
            sides = [0.0] * 4
            sides[side] = 1.0
            self.basis.append(ground_truth(square_problem(n, sides)))

    def solution(self, p: Problem) -> Field:
        sides = (p.b[0, 1], p.b[-1, 1], p.b[1, 0], p.b[1, -1])
        u = sides[0] * self.basis[0]
        for v, base in zip(sides[1:], self.basis[1:]):
            u = u + v * base
        return u


def sample_batch(cfg: TrainConfig, cache: SquareSolutionCache,
                 rng: np.random.Generator) -> list[TrainSample]:
    batch = []
    for _ in range(cfg.batch):
        p = sample_square_problem(cfg.n, rng)
        u_star = cache.solution(p)
        u0 = reset(rng.standard_normal((cfg.n, cfg.n)), p)
        k = int(rng.integers(1, cfg.k_max + 1))
        batch.append(TrainSample(problem=p, u_star=u_star, u0=u0, k=k))
    return batch


# ------------------------------------------------------------------
# Batched unrolled forward/backward on the error. Shapes are (B, n, n).
# ------------------------------------------------------------------

def _geometry(batch: list[TrainSample]) -> Problem:
    """The batch's one geometry, homogeneous (b = 0, f = 0): errors step there."""
    p = batch[0].problem
    for s in batch[1:]:
        if s.problem.h != p.h or not np.array_equal(s.problem.mask, p.mask):
            raise ValueError("training batch mixes geometries")
    return homogeneous(p)


def _unrolled(model: CorrectionModel, batch: list[TrainSample], record: bool):
    """Run every sample's error to its own k and no further.

    The batch is stable-sorted by k, largest first, so the samples still
    short of their k at step t are the leading live[t] rows, and those that
    retire at t keep their order in the batch. Returns the loss and, if
    record, what the reverse pass needs: the homogeneous problem, live, the
    final errors of the samples retiring at each step, and the tapes.
    Raises TrainingError at the first step whose iterate or accumulated
    loss is not finite.
    """
    if not batch:
        raise ValueError("empty batch")
    batch = sorted(batch, key=lambda s: -s.k)
    ks = [s.k for s in batch]
    live = [sum(k >= t for k in ks) for t in range(ks[0] + 2)]
    p = _geometry(batch)
    phi = PhiIterator(JacobiIterator(), model)
    e = np.stack([s.u0 - s.u_star for s in batch])
    e = np.where(p.mask == 1, e, 0.0)
    loss = 0.0
    retired, tapes = [], []
    # a divergent model overflows; the finiteness checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, ks[0] + 1):
            tape: list | None = [] if record else None
            e = phi.step(e[:live[t]], p, tape)
            if not np.isfinite(e).all():
                raise TrainingError(f"non-finite iterate at unroll step {t}")
            final = e[live[t + 1]:].copy()  # a view would keep all of e alive
            loss += float((final * final).sum())
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss ({loss}) at unroll step {t}")
            retired.append(final)
            tapes.append(tape)
    loss /= len(batch)
    return loss, (p, live, retired, tapes)


def loss(model: CorrectionModel, batch: list[TrainSample]) -> float:
    """Mean over the batch of ||Phi^k(u0) - u*||_2^2."""
    return _unrolled(model, batch, record=False)[0]


def loss_and_grad(model: CorrectionModel, batch: list[TrainSample]):
    """The batch loss and its exact gradient w.r.t. every kernel weight."""
    value, (p, live, retired, tapes) = _unrolled(model, batch, record=True)
    grads = [np.zeros_like(layer.weights) for layer in model.layers]
    scale = 2.0 / len(batch)
    g = scale * retired[-1]
    # as in the forward pass, overflow is reported by the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(tapes), 0, -1):
            if live[t] > len(g):  # samples whose k = t enter the adjoint here
                g = np.concatenate([g, scale * retired[t - 1]])
            gw = backward(model, tapes[t - 1], np.where(p.mask == 1, g, 0.0), grads)
            # the sweep's linear part u -> M (N+S+W+E)/4 has the adjoint
            # g -> (N+S+W+E)/4 of M g; a sweep of M g is that, op for op, at
            # interior cells and 0 elsewhere, where g is never read: backward
            # gets M g, and the next step masks g + gw again
            g = jacobi_step(np.where(p.mask == 1, g + gw, 0.0), p) - gw
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite adjoint at unroll step {t}")
    if not all(np.isfinite(gr).all() for gr in grads):
        raise TrainingError("non-finite gradient")
    return value, grads


ADAM_BETA1 = 0.9  # decay of the first-moment average
ADAM_BETA2 = 0.999  # decay of the second-moment average
ADAM_EPS = 1e-8  # added to the root of the second moment


class Adam:
    """Adaptive-moment gradient descent on the kernel list."""

    def __init__(self, model: CorrectionModel, lr):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(layer.weights) for layer in model.layers]
        self.v = [np.zeros_like(layer.weights) for layer in model.layers]

    def update(self, model: CorrectionModel, grads) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for layer, g, m, v in zip(model.layers, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            layer.weights = layer.weights - self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def _train_rho(model: CorrectionModel, p: Problem) -> float:
    """Spectral radius of the wrapped iterator at the training size.

    Exact (dense) up to DENSE_MAX_N, as in certification; above it,
    restarted Arnoldi, which reads the radius to about 1e-5 relative in a
    fraction of the time of certification's power iteration.
    """
    lp = linear_part(PhiIterator(JacobiIterator(), model), p)
    return spectral_radius(lp, mode="dense" if p.n <= DENSE_MAX_N else "arnoldi")


def train(cfg: TrainConfig, log_path=None):
    """Run the optimizer; returns (model, log rows).

    Fully reproducible from cfg.seed. Aborts with TrainingError on
    divergence and on a failed post-training validity check.
    """
    model = init_model(cfg.arch, seed=cfg.seed)
    cache = SquareSolutionCache(cfg.n)
    model.check_compatible(cfg.n)
    rng = np.random.default_rng(cfg.seed + 1000003)
    opt = Adam(model, cfg.lr)
    log: list[LogRow] = []
    t_start = time.time()
    geometry = square_problem(cfg.n, (0.0, 0.0, 0.0, 0.0))
    for step in range(1, cfg.steps + 1):
        batch = sample_batch(cfg, cache, rng)
        try:
            value, grads = loss_and_grad(model, batch)
        except TrainingError as exc:
            raise TrainingError(str(exc), step=step, log=log) from exc
        if not np.isfinite(value) or value > 1e6:
            raise TrainingError(f"training diverged (loss = {value:.3e})",
                                step=step, log=log)
        opt.update(model, grads)
        rho = None
        if cfg.rho_every and (step % cfg.rho_every == 0 or step == cfg.steps):
            rho = _train_rho(model, geometry)
        log.append(LogRow(step=step, loss=value, rho_estimate=rho,
                          wall_seconds=time.time() - t_start))
    if cfg.steps > 0:
        final_rho = log[-1].rho_estimate
        if final_rho is None:
            final_rho = _train_rho(model, geometry)
        if not final_rho <= 1.0 - RHO_VALID_MARGIN:  # certify's rule
            raise TrainingError(
                f"trained iterator is not contractive (rho = {final_rho:.6f})",
                step=cfg.steps, log=log)
    if log_path is not None:
        write_log(log, log_path)
    return model, log


def write_log(log: list[LogRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("step,loss,rho_estimate,wall_seconds\n")
        for row in log:
            rho = "" if row.rho_estimate is None else format(row.rho_estimate, ".12g")
            fh.write(f"{row.step},{row.loss:.12g},{rho},{row.wall_seconds:.3f}\n")
