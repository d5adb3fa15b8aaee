"""Training the correction operator on sampled square Laplace problems.

The objective is the squared distance to the reference solution after k
wrapped-iterator steps, with k drawn per sample from {1, ..., k_max} and
the start field drawn white-Gaussian then reset to the boundary values.
The wrapped iterator keeps the base solver's fixed point for any weights,
so Phi(u) - u* = T_H (u - u*) exactly, where the linear part T_H depends
on the mask alone. A training step therefore carries only what that error
recursion reads: a :class:`Batch` holds the one geometry, homogeneous
(b = 0, f = 0), the start errors e0 = mask (u0 - u*) as a (B, n, n) stack,
and each sample's k. The unroll runs the wrapped iterator's own step
(:meth:`poisolve.model.PhiIterator.step`) on that geometry, and the loss
sums the squared final errors; T_H is the operator that
:func:`poisolve.spectral.certify` measures. The unroll retires each sample
at its own k: step t advances only the samples still short of their k.
Gradients are computed by an explicit reverse pass over the unrolled
steps, which takes each sample in at its own k: the sweep's linear part
is self-adjoint on interior cells, so its adjoint is the sweep itself
(:func:`poisolve.iterators.jacobi_step` on the homogeneous problem) after
masking, and the adjoint of the correction net is the walk over the
layer-input tape in :mod:`poisolve.model`.

The base solver is fixed to Jacobi here; the wrapped iterator remains
usable with any base at inference time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import square_problem
from .grid import Field, Problem, zero_exterior
from .iterators import JacobiIterator, ground_truth, jacobi_step
from .model import CorrectionModel, PhiIterator, backward, init_model, parse_arch
from .spectral import DENSE_MAX_N, contracts, linear_part, spectral_radius

RHO_EVERY = 500  # training steps between the log's rho_estimate checks


class TrainingError(RuntimeError):
    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


@dataclass
class TrainConfig:
    arch: str = "conv3"
    n: int = 17
    k_max: int = 20
    batch: int = 8
    lr: float = 1e-3
    steps: int = 20000
    seed: int = 0

    def __post_init__(self):
        for name, bad in (("k_max", self.k_max < 1), ("batch", self.batch < 1),
                          ("lr", not 0 < self.lr < math.inf), ("steps", self.steps < 0)):
            if bad:
                raise ValueError(f"invalid training configuration: "
                                 f"{name} = {getattr(self, name)}")
        if self.n < 5:
            raise ValueError(f"training grid too small: n = {self.n}")


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
class Batch:
    """One training step's samples, all on one geometry.

    geometry is the homogeneous problem (b = 0, f = 0) the errors step on
    (the square, for sample_batch), e0 the (B, n, n) stack of start errors
    mask (u0 - u*), zero off the interior, and ks[i] the number of steps
    sample i is unrolled for.
    """

    geometry: Problem
    e0: np.ndarray
    ks: list[int]

    def __post_init__(self):
        if self.e0.shape != (len(self.ks), self.geometry.n, self.geometry.n):
            raise ValueError(f"start errors of shape {self.e0.shape} do not match "
                             f"{len(self.ks)} samples on n = {self.geometry.n}")


@dataclass
class LogRow:
    step: int
    loss: float
    rho_estimate: float | None
    wall_seconds: float


class SquareSolutionCache:
    """Reference solutions for sampled square problems in O(1) per sample.

    The solution of the Laplace problem is linear in the boundary data, so
    the four unit-side solutions span every sampled problem exactly. The
    homogeneous square, the geometry every sample shares, is built once.
    """

    def __init__(self, n: int):
        self.geometry = square_problem(n, (0.0, 0.0, 0.0, 0.0))
        self.basis = []
        for side in range(4):
            sides = [0.0] * 4
            sides[side] = 1.0
            self.basis.append(ground_truth(square_problem(n, sides)))

    def solution(self, sides) -> Field:
        """The solution for one value per side (top, bottom, left, right)."""
        u = sides[0] * self.basis[0]
        for v, base in zip(sides[1:], self.basis[1:]):
            u = u + v * base
        return u


def sample_batch(cfg: TrainConfig, cache: SquareSolutionCache,
                 rng: np.random.Generator) -> Batch:
    """cfg.batch samples on the square, each drawn in turn as four uniform
    [-1, 1] sides, an (n, n) white start field z and k in {1, ..., k_max}.

    Resetting z to the sides changes only boundary cells, where the error
    is zero, so e0 = mask (z - u*) for the sides' solution u*.
    """
    n = cfg.n
    e0 = np.empty((cfg.batch, n, n))
    ks = []
    for i in range(cfg.batch):
        sides = rng.uniform(-1.0, 1.0, size=4)
        z = rng.standard_normal((n, n))
        e0[i] = z - cache.solution(sides)
        ks.append(int(rng.integers(1, cfg.k_max + 1)))
    return Batch(cache.geometry, zero_exterior(e0, cache.geometry.exterior), ks)


# ------------------------------------------------------------------
# Batched unrolled forward/backward on the error. Shapes are (B, n, n).
# ------------------------------------------------------------------

def _unrolled(model: CorrectionModel, batch: Batch, record: bool):
    """Run every sample's error to its own k and no further.

    The samples are stable-sorted by k, largest first, so those still
    short of their k at step t are the leading live[t] rows, and those that
    retire at t keep their order in the batch. Returns the loss and, if
    record, what the reverse pass needs: live, the final errors of the
    samples retiring at each step, and the tapes. Raises TrainingError at
    the first step whose iterate or accumulated loss is not finite.
    """
    if not batch.ks:
        raise ValueError("empty batch")
    order = sorted(range(len(batch.ks)), key=lambda i: -batch.ks[i])
    ks = [batch.ks[i] for i in order]
    live = [sum(k >= t for k in ks) for t in range(ks[0] + 2)]
    p = batch.geometry
    phi = PhiIterator(JacobiIterator(), model)
    e = batch.e0[order]
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
    loss /= len(ks)
    return loss, (live, retired, tapes)


def loss(model: CorrectionModel, batch: Batch) -> float:
    """Mean over the batch of ||Phi^k(u0) - u*||_2^2."""
    return _unrolled(model, batch, record=False)[0]


def loss_and_grad(model: CorrectionModel, batch: Batch):
    """The batch loss and its exact gradient w.r.t. every kernel weight."""
    value, (live, retired, tapes) = _unrolled(model, batch, record=True)
    p = batch.geometry
    grads = [np.zeros_like(layer.weights) for layer in model.layers]
    scale = 2.0 / len(batch.ks)
    g = scale * retired[-1]
    # as in the forward pass, overflow is reported by the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(tapes), 0, -1):
            if live[t] > len(g):  # samples whose k = t enter the adjoint here
                g = np.concatenate([g, scale * retired[t - 1]])
            # g is this pass's own array, masked in place
            gw = backward(model, tapes[t - 1], zero_exterior(g, p.exterior), grads)
            # the sweep's linear part u -> M (N+S+W+E)/4 has the adjoint
            # g -> (N+S+W+E)/4 of M g; a sweep of M g is that, op for op, at
            # interior cells and 0 elsewhere, where g is never read: backward
            # gets M g, and the next step masks g + gw again
            g = jacobi_step(zero_exterior(g + gw, p.exterior), p) - gw
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


def train(cfg: TrainConfig):
    """Run the optimizer; returns (model, log rows).

    Fully reproducible from cfg.seed. Aborts with TrainingError on
    divergence and on a failed post-training validity check.
    """
    model = init_model(cfg.arch, seed=cfg.seed)
    model.check_compatible(cfg.n)
    cache = SquareSolutionCache(cfg.n)
    rng = np.random.default_rng(cfg.seed + 1000003)
    opt = Adam(model, cfg.lr)
    log: list[LogRow] = []
    t_start = time.time()
    for step in range(1, cfg.steps + 1):
        batch = sample_batch(cfg, cache, rng)
        try:
            value, grads = loss_and_grad(model, batch)
        except TrainingError as exc:
            raise TrainingError(str(exc), step=step) from exc
        if not np.isfinite(value) or value > 1e6:
            raise TrainingError(f"training diverged (loss = {value:.3e})", step=step)
        opt.update(model, grads)
        rho = None
        if step % RHO_EVERY == 0 or step == cfg.steps:
            rho = _train_rho(model, cache.geometry)
        log.append(LogRow(step=step, loss=value, rho_estimate=rho,
                          wall_seconds=time.time() - t_start))
    if cfg.steps > 0 and not contracts(rho):  # rho: measured at the last step
        raise TrainingError(f"trained iterator is not contractive (rho = {rho:.6f})",
                            step=cfg.steps)
    return model, log


def write_log(log: list[LogRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("step,loss,rho_estimate,wall_seconds\n")
        for row in log:
            rho = "" if row.rho_estimate is None else format(row.rho_estimate, ".12g")
            fh.write(f"{row.step},{row.loss:.12g},{rho},{row.wall_seconds:.3f}\n")
