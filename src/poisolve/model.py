"""Linear correction operators and the wrapped iterator built on them.

Two architectures, both single-channel (every kernel one 3x3 array),
bias-free and purely linear so that H(0) = 0:

  * conv-d:  d plain 3x3 layers.
  * unet-k:  a V-shaped net with k stride-2 downsampling convs, a stack of
    convs at the coarsest resolution (cheap there, and that is where the
    smooth error lives), k stride-2 transposed-conv upsamplings with
    additive skip connections, and a conv after each upsampling.

The wrapped iterator applies the base solver, feeds its update through the
correction net, masks the correction to interior cells, and adds it on.
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
    transposed_conv2d_input_grad,
    transposed_conv2d_weight_grad,
)
from .grid import Field, FileFormatError, _floats, _write_rows
from .iterators import Iterator, depth_fault


@dataclass
class ConvLayer:
    stride: int
    transposed: bool
    # one 3x3 kernel, kept with unit in and out axes as (1, 1, 3, 3), the
    # layout of a gradient that perfbench's self-test indexes [0, 0, i, j];
    # the convs take the (3, 3) view weights[0, 0]
    weights: np.ndarray


@dataclass
class CorrectionModel:
    arch: str  # "conv" | "unet"
    depth: int
    layers: list[ConvLayer] = field(default_factory=list)

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    def _fault(self, n: int) -> str | None:
        """Why an n x n grid does not fit the net, or None if it does.

        A U-Net coarsens depth times, a conv stack not at all, so both
        follow the multigrid rule at their number of coarsenings.
        """
        return depth_fault(n, self.depth if self.arch == "unet" else 0)

    def compatible(self, n: int) -> bool:
        return self._fault(n) is None

    def check_compatible(self, n: int) -> None:
        fault = self._fault(n)
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


def init_model(arch: str, seed: int) -> CorrectionModel:
    """Fresh model with kernels ~ N(0, (0.1/3)^2), 0.1/sqrt(fan_in) for fan_in = 9."""
    kind, depth = parse_arch(arch)
    rng = np.random.default_rng(seed)
    layers = [ConvLayer(stride, transposed, rng.normal(0.0, 0.1 / 3.0, size=(1, 1, 3, 3)))
              for stride, transposed in _layer_plan(kind, depth)]
    return CorrectionModel(kind, depth, layers)


def zero_model(arch: str) -> CorrectionModel:
    """The H = 0 model: same structure, all kernels zero."""
    m = init_model(arch, seed=0)
    for layer in m.layers:
        layer.weights = np.zeros_like(layer.weights)
    return m


def quarter_cross_model() -> CorrectionModel:
    """Single layer holding the quarter-cross kernel, i.e. the linear part of
    a Jacobi sweep. Wrapping Jacobi with this model reproduces two sweeps."""
    k = np.zeros((1, 1, 3, 3))
    k[0, 0] = [[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]]
    return CorrectionModel("conv", 1, [ConvLayer(1, False, k)])


def scale_model(m: CorrectionModel, factor: float) -> CorrectionModel:
    """Copy of m with every kernel multiplied by factor."""
    layers = [ConvLayer(L.stride, L.transposed, factor * L.weights) for L in m.layers]
    return CorrectionModel(m.arch, m.depth, layers)


# ------------------------------------------------------------------
# Forward / backward through the net. The tape is a flat op list; skip
# branches are matched LIFO, mirroring the forward stack discipline.
# ------------------------------------------------------------------

def forward(model: CorrectionModel, x: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Run the net on a (B, n, n) batch; optionally record a tape.

    Skip wiring is positional: the input of every stride-2 conv is pushed,
    and after every transposed conv the most recent branch is popped and
    added in. The layer list alone therefore determines the topology.
    """
    stack: list[np.ndarray] = []
    a = x
    for li, layer in enumerate(model.layers):
        if layer.transposed:
            if tape is not None:
                tape.append(("tconv", li, a))
            a = transposed_conv2d(a, layer.weights[0, 0], layer.stride)
            a = a + stack.pop()
            if tape is not None:
                tape.append(("add",))
        else:
            if layer.stride == 2:
                stack.append(a)
                if tape is not None:
                    tape.append(("push",))
            if tape is not None:
                tape.append(("conv", li, a))
            a = conv2d(a, layer.weights[0, 0], layer.stride)
    if stack:
        raise ValueError("malformed layer list: unconsumed skip branches")
    return a


def backward(model: CorrectionModel, tape: list, g: np.ndarray,
             grads: list[np.ndarray]) -> np.ndarray:
    """Adjoint pass over a recorded tape.

    Accumulates kernel gradients into grads (one array per layer, same
    shapes as the weights) and returns the gradient w.r.t. the net input.
    """
    pending: list[np.ndarray] = []
    for entry in reversed(tape):
        kind = entry[0]
        if kind == "conv":
            _, li, x = entry
            layer = model.layers[li]
            grads[li][0, 0] += conv2d_weight_grad(x, g, layer.stride)
            g = conv2d_input_grad(g, layer.weights[0, 0], layer.stride, x.shape[1:])
        elif kind == "push":
            g = g + pending.pop()
        elif kind == "add":
            pending.append(g)
        else:  # tconv
            _, li, x = entry
            layer = model.layers[li]
            grads[li][0, 0] += transposed_conv2d_weight_grad(x, g, layer.stride)
            g = transposed_conv2d_input_grad(g, layer.weights[0, 0], layer.stride)
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
    layers = len(model.layers)
    ops = 0
    res = n
    for layer in model.layers:
        if layer.transposed:
            res = layer.stride * (res - 1) + 1
        elif layer.stride == 2:
            res = (res - 1) // 2 + 1
        ops += 9 * res * res
    return layers, ops


class PhiIterator(Iterator):
    """Base solver plus masked learned correction of its own update."""

    def __init__(self, base: Iterator, model: CorrectionModel, name: str | None = None):
        self.base = base
        self.model = model
        self.name = name or f"{model.arch}{model.depth}+{base.name}"

    def step(self, u, p, tape: list | None = None):
        """One wrapped step; a tape, if given, records the correction net's pass."""
        psi = self.base.step(u, p)
        w = psi - u
        corr = apply_H(self.model, w, tape)
        return psi + np.where(p.mask == 1, corr, 0.0)

    def step_cost(self, p):
        bl, bo = self.base.step_cost(p)
        hl, ho = model_cost(self.model, p.n)
        return bl + hl, bo + ho


# ------------------------------------------------------------------
# Model files: a plain text header plus one block per layer.
# ------------------------------------------------------------------

def save_model(m: CorrectionModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"arch {m.arch} depth {m.depth} channels 1\n")
        for idx, layer in enumerate(m.layers):
            fh.write(f"layer {idx} in 1 out 1 stride {layer.stride} "
                     f"transposed {int(layer.transposed)}\n")
            _write_rows(fh, layer.weights.reshape(1, 9))


def _ints(tokens: list[str], what: str, line: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FileFormatError(f"{what} values must be integers", line) from None


def load_model(path) -> CorrectionModel:
    """Read a model file.

    A malformed line raises FileFormatError with its line number; a layer
    list other than the one init_model builds for the header's arch and
    depth raises ValueError.
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
    layers = []
    pos = 1
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        tok = lines[pos].split()
        if len(tok) != 10 or tok[0] != "layer":
            raise FileFormatError(f"expected layer header, got {lines[pos]!r}", pos + 1)
        ci, co, stride, transposed = _ints(tok[3::2], "layer", pos + 1)
        if (ci, co) != (1, 1):
            raise FileFormatError(f"layers are single-channel, got in {ci} out {co}", pos + 1)
        if stride not in (1, 2):
            raise FileFormatError(f"stride must be 1 or 2, got {stride}", pos + 1)
        if transposed not in (0, 1):
            raise FileFormatError(f"transposed must be 0 or 1, got {transposed}", pos + 1)
        pos += 1
        if pos >= len(lines):
            raise FileFormatError("missing kernel row", pos + 1)
        vals = lines[pos].split()
        if len(vals) != 9:
            raise FileFormatError("kernel row needs 9 values", pos + 1)
        w = _floats([vals], 9, pos + 1, "bad numeric value in kernel row").reshape(1, 1, 3, 3)
        pos += 1
        layers.append(ConvLayer(stride, bool(transposed), w))
    found = [(L.stride, L.transposed) for L in layers]
    expected = _layer_plan(arch, depth)
    if found != expected:
        raise ValueError(
            f"inconsistent layer list for {arch}{depth}: (stride, transposed) "
            f"{found} differs from {expected}")
    return CorrectionModel(arch, depth, layers)
