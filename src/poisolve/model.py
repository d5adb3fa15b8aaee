"""Linear correction operators and the wrapped iterator built on them.

Two architectures, both single-channel (every kernel one 3x3 array),
bias-free and purely linear so that H(0) = 0:

  * conv-d:  d plain 3x3 layers.
  * unet-k:  a V-shaped net with k stride-2 downsampling convs, a stack of
    convs at the coarsest resolution (cheap there, and that is where the
    smooth error lives), k stride-2 transposed-conv upsamplings with
    additive skip connections, and a conv after each upsampling.

The architecture name alone fixes the shape: _layer_plan lists every
layer's stride and kind, and a model holds only its kernels, one per entry.

The wrapped iterator applies the base solver, feeds its update through the
correction net, adds the correction into the base step's array in place
and writes b back (grid.set_boundary), so it reaches interior cells only.
Any fixed point of the base is therefore a fixed point of the wrapped
iterator regardless of the weights, exactly so in exact arithmetic. In
float64 the base step leaves a rounding residue d at its fixed point, and
the wrapper adds M H d on top, so the fixed point holds to rounding times
the gain of M H; spectral.certify checks it against FIXED_POINT_TOL and
refuses a model whose gain breaks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conv import (
    conv2d,
    conv2d_input_grad,
    conv2d_weight_grad,
    transposed_conv2d,
    transposed_conv2d_weight_grad,
)
from .grid import Field, FileFormatError, _floats, _write_rows, set_boundary
from .iterators import Iterator, depth_fault


@dataclass
class ConvLayer:
    # one 3x3 kernel (the stride and kind are the layer's _layer_plan entry),
    # kept with unit in and out axes as (1, 1, 3, 3), the layout of a gradient
    # that perfbench's self-test indexes [0, 0, i, j]; convs take weights[0, 0]
    weights: np.ndarray


@dataclass
class CorrectionModel:
    arch: str  # "conv" | "unet"
    depth: int
    layers: list[ConvLayer] = field(default_factory=list)  # one per _layer_plan entry

    def check_compatible(self, n: int) -> None:
        """Raise ValueError unless an n x n grid fits the net.

        A U-Net coarsens depth times, a conv stack not at all, so both
        follow the multigrid rule at their number of coarsenings.
        """
        fault = depth_fault(n, self.depth if self.arch == "unet" else 0)
        if fault is not None:
            raise ValueError(
                f"grid size {n} incompatible with {self.arch}{self.depth}: {fault}")


def parse_arch(name: str) -> tuple[str, int]:
    """'conv3' -> ('conv', 3), 'unet2' -> ('unet', 2)."""
    for prefix in ("conv", "unet"):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            depth = int(name[len(prefix):])
            if depth >= 1:
                return prefix, depth
    raise ValueError(f"unknown architecture {name!r} (expected convN or unetN)")


UNET_BOTTOM_LAYERS = 10  # stride-1 convs at a U-Net's coarsest resolution


def _layer_plan(arch: str, depth: int) -> list[tuple[int, bool]]:
    """(stride, transposed) of every layer of arch at depth, in order."""
    if arch == "conv":
        return [(1, False)] * depth
    down = [(1, False)] + [(2, False)] * depth + [(1, False)] * UNET_BOTTOM_LAYERS
    # upsample, add the skip branch, then a conv at that resolution
    return down + [(2, True), (1, False)] * depth


def _planned(model: CorrectionModel) -> list[tuple[tuple[int, bool], ConvLayer]]:
    """((stride, transposed), layer) per layer; ValueError if a kernel is missing or extra."""
    return list(zip(_layer_plan(model.arch, model.depth), model.layers, strict=True))


def _layer_text(stride: int, transposed: bool) -> str:
    return f"stride {stride} transposed {int(transposed)}"


def init_model(arch: str, seed: int) -> CorrectionModel:
    """Fresh model with kernels ~ N(0, (0.1/3)^2), 0.1/sqrt(fan_in) for fan_in = 9."""
    kind, depth = parse_arch(arch)
    rng = np.random.default_rng(seed)
    layers = [ConvLayer(rng.normal(0.0, 0.1 / 3.0, size=(1, 1, 3, 3)))
              for _ in _layer_plan(kind, depth)]
    return CorrectionModel(kind, depth, layers)


# ------------------------------------------------------------------
# Forward / backward through the net. The tape holds each layer's input,
# one entry per layer; skip branches are matched LIFO, mirroring the
# forward stack discipline.
# ------------------------------------------------------------------

def forward(model: CorrectionModel, x: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Run the net on a (B, n, n) batch; optionally record a tape.

    Skip wiring is positional: the input of every stride-2 conv is pushed,
    and after every transposed conv the most recent branch is popped and
    added in. The layer plan alone therefore determines the topology.
    """
    stack: list[np.ndarray] = []
    a = x
    for (stride, transposed), layer in _planned(model):
        if tape is not None:
            tape.append(a)
        if transposed:
            a = transposed_conv2d(a, layer.weights[0, 0], stride) + stack.pop()
        else:
            if stride == 2:
                stack.append(a)
            a = conv2d(a, layer.weights[0, 0], stride)
    return a


def backward(model: CorrectionModel, tape: list, g: np.ndarray,
             grads: list[np.ndarray]) -> np.ndarray:
    """Adjoint pass over a recorded tape, walking the layers in reverse.

    The adjoint at each transposed conv is also the skip branch's, so it is
    pushed there and popped back in after the stride-2 conv that opened
    the branch. Accumulates kernel gradients into grads (one array per
    layer, same shapes as the weights) and returns the gradient w.r.t. the
    net input.
    """
    pending: list[np.ndarray] = []
    for ((stride, transposed), layer), x, grad in zip(
            reversed(_planned(model)), reversed(tape), reversed(grads), strict=True):
        w = layer.weights[0, 0]
        if transposed:
            pending.append(g)
            grad[0, 0] += transposed_conv2d_weight_grad(x, g, stride)
            g = conv2d(g, w, stride)
        else:
            grad[0, 0] += conv2d_weight_grad(x, g, stride)
            g = conv2d_input_grad(g, w, stride, x.shape[1:])
            if stride == 2:
                g += pending.pop()  # g is conv2d_input_grad's fresh output
    return g


def apply_H(model: CorrectionModel, w: Field, tape: list | None = None) -> Field:
    """Forward pass on an (n, n) field or a (..., n, n) stack of them.

    The leading dimensions fold into the conv batch axis, (B, n, n).
    A tape, if given, records the pass as :func:`forward` does.
    """
    n = w.shape[-1]
    model.check_compatible(n)
    out = forward(model, w.reshape(-1, n, n), tape)
    return out.reshape(w.shape)


def model_cost(model: CorrectionModel, n: int) -> tuple[int, int]:
    """(layers, mul_adds) per application on an n x n grid.

    Each 3x3 kernel costs 9 mul-adds per cell at the layer's output
    resolution; the count is structural, independent of the weight values.
    """
    model.check_compatible(n)
    planned = _planned(model)
    ops = 0
    res = n
    for (stride, transposed), _ in planned:
        if transposed:
            res = stride * (res - 1) + 1
        elif stride == 2:
            res = (res - 1) // 2 + 1
        ops += 9 * res * res
    return len(planned), ops


class PhiIterator(Iterator):
    """Base solver plus the learned correction of its own update, on interior cells."""

    def __init__(self, base: Iterator, model: CorrectionModel):
        self.base = base
        self.model = model
        self.name = f"{model.arch}{model.depth}"

    def step(self, u, p, tape: list | None = None):
        """One wrapped step, corrected in place; a tape, if given, records the net's pass."""
        psi = self.base.step(u, p)  # a new array (see Iterator), so added to in place
        psi += apply_H(self.model, psi - u, tape)
        return set_boundary(psi, p)

    def step_cost(self, p):
        bl, bo = self.base.step_cost(p)
        hl, ho = model_cost(self.model, p.n)
        return bl + hl, bo + ho


# ------------------------------------------------------------------
# Model files: a plain text header plus one block per layer.
# ------------------------------------------------------------------

def save_model(m: CorrectionModel, path) -> None:
    planned = _planned(m)
    with open(path, "w") as fh:
        fh.write(f"arch {m.arch} depth {m.depth} channels 1\n")
        for idx, ((stride, transposed), layer) in enumerate(planned):
            fh.write(f"layer {idx} in 1 out 1 {_layer_text(stride, transposed)}\n")
            _write_rows(fh, layer.weights.reshape(1, 9))


def _ints(tokens: list[str], what: str, line: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FileFormatError(f"{what} values must be integers", line) from None


def load_model(path) -> CorrectionModel:
    """Read a model file.

    A malformed line, a non-finite kernel value among them, raises
    FileFormatError with its line number; so does a header whose depth
    exceeds the file's line count (on line 1, before the plan is built), a
    layer header off _layer_plan for the header's arch and depth, and a
    file that ends before the plan does, on its first missing line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError("empty model file", 1)
    head = lines[0].split()
    if len(head) != 6 or head[0] != "arch" or head[2] != "depth" or head[4] != "channels":
        raise FileFormatError(f"bad model header: {lines[0]!r}", 1)
    arch = head[1]
    depth, channels = _ints([head[3], head[5]], "header", 1)
    if arch not in ("conv", "unet"):
        raise FileFormatError(f"unknown architecture {arch!r}", 1)
    if depth < 1:
        raise FileFormatError(f"depth must be positive, got {depth}", 1)
    if channels != 1:
        raise FileFormatError(f"nets are single-channel, got channels {channels}", 1)
    # every net has at least depth layers of two lines each, so a depth past
    # the file's length is refused before the plan is built
    if depth > len(lines):
        raise FileFormatError(f"{arch}{depth} has at least {depth} layers, "
                              f"the file has {len(lines)} lines", 1)
    name, plan = f"{arch}{depth}", _layer_plan(arch, depth)
    layers = []
    pos = 1
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        tok = lines[pos].split()
        if len(tok) != 10 or tok[0] != "layer":
            raise FileFormatError(f"expected layer header, got {lines[pos]!r}", pos + 1)
        idx, ci, co, stride, transposed = _ints(tok[1::2], "layer", pos + 1)
        if idx != len(layers):
            raise FileFormatError(f"layer index {idx}, expected {len(layers)}", pos + 1)
        if (ci, co) != (1, 1):
            raise FileFormatError(f"layers are single-channel, got in {ci} out {co}", pos + 1)
        if idx >= len(plan):
            raise FileFormatError(f"{name} has {len(plan)} layers, got layer {idx}", pos + 1)
        if (stride, transposed) != plan[idx]:  # a flag 0 or 1 equals False or True
            raise FileFormatError(f"layer {idx} of {name} has {_layer_text(*plan[idx])}, "
                                  f"got {_layer_text(stride, transposed)}", pos + 1)
        pos += 1
        if pos >= len(lines):
            raise FileFormatError("missing kernel row", pos + 1)
        vals = lines[pos].split()
        if len(vals) != 9:
            raise FileFormatError("kernel row needs 9 values", pos + 1)
        w = _floats([vals], [1], 9, pos + 1,
                    "bad numeric value in kernel row").reshape(1, 1, 3, 3)
        if not np.isfinite(w).all():
            raise FileFormatError("non-finite value in kernel row", pos + 1)
        pos += 1
        layers.append(ConvLayer(w))
    if len(layers) < len(plan):
        raise FileFormatError(f"{name} has {len(plan)} layers, the file ends after "
                              f"{len(layers)}", len(lines) + 1)
    return CorrectionModel(arch, depth, layers)
