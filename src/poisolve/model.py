"""Linear correction operators and the wrapped iterator built on them.

Two architectures, both bias-free and purely linear so that H(0) = 0:

  * conv-d:  d plain 3x3 layers, single channel.
  * unet-k:  a V-shaped net with k stride-2 downsampling convs, a stack of
    convs at the coarsest resolution (cheap there, and that is where the
    smooth error lives), k stride-2 transposed-conv upsamplings with
    additive skip connections, and a conv after each upsampling.

The wrapped iterator applies the base solver, feeds its update through the
correction net, masks the correction to interior cells, and adds it on.
Any fixed point of the base is therefore a fixed point of the wrapped
iterator regardless of the weights.
"""

from __future__ import annotations

import math
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
    in_ch: int
    out_ch: int
    stride: int
    transposed: bool
    weights: np.ndarray  # (in_ch, out_ch, 3, 3)


@dataclass
class CorrectionModel:
    arch: str  # "conv" | "unet"
    depth: int
    channels: int
    layers: list[ConvLayer] = field(default_factory=list)

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    def compatible(self, n: int) -> bool:
        if self.arch == "conv":
            return n >= 3
        return depth_fault(n, self.depth) is None

    def check_compatible(self, n: int) -> None:
        if not self.compatible(n):
            raise ValueError(
                f"grid size {n} incompatible with {self.arch}{self.depth} "
                f"(need n-1 divisible by {2 ** self.depth})"
            )


def parse_arch(name: str) -> tuple[str, int]:
    """'conv3' -> ('conv', 3), 'unet2' -> ('unet', 2)."""
    for prefix in ("conv", "unet"):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            depth = int(name[len(prefix):])
            if depth >= 1:
                return prefix, depth
    raise ValueError(f"unknown architecture {name!r} (expected convN or unetN)")


def _layer_shapes(arch: str, depth: int, channels: int,
                  bottom_layers: int) -> list[tuple[int, int, int, bool]]:
    if arch == "conv":
        return [(1, 1, 1, False)] * depth
    c = channels
    shapes: list[tuple[int, int, int, bool]] = [(1, c, 1, False)]
    shapes += [(c, c, 2, False)] * depth
    shapes += [(c, c, 1, False)] * bottom_layers
    for level in range(depth):
        shapes.append((c, c, 2, True))  # upsample, then add the skip branch
        out_ch = 1 if level == depth - 1 else c
        shapes.append((c, out_ch, 1, False))
    return shapes


DEFAULT_UNET_CHANNELS = 1
DEFAULT_UNET_BOTTOM = 10


def init_model(arch: str, seed: int, channels: int | None = None,
               bottom_layers: int | None = None) -> CorrectionModel:
    """Fresh model with kernels ~ N(0, (0.1/sqrt(fan_in))^2), fan_in = 9*in_ch."""
    kind, depth = parse_arch(arch)
    c = channels if channels is not None else (1 if kind == "conv" else DEFAULT_UNET_CHANNELS)
    nb = bottom_layers if bottom_layers is not None else DEFAULT_UNET_BOTTOM
    rng = np.random.default_rng(seed)
    layers = []
    for ci, co, stride, transposed in _layer_shapes(kind, depth, c, nb):
        std = 0.1 / math.sqrt(9 * ci)
        layers.append(ConvLayer(ci, co, stride, transposed,
                                rng.normal(0.0, std, size=(ci, co, 3, 3))))
    return CorrectionModel(kind, depth, c, layers)


def zero_model(arch: str, channels: int | None = None,
               bottom_layers: int | None = None) -> CorrectionModel:
    """The H = 0 model: same structure, all kernels zero."""
    m = init_model(arch, seed=0, channels=channels, bottom_layers=bottom_layers)
    for layer in m.layers:
        layer.weights = np.zeros_like(layer.weights)
    return m


def quarter_cross_model() -> CorrectionModel:
    """Single layer holding the quarter-cross kernel, i.e. the linear part of
    a Jacobi sweep. Wrapping Jacobi with this model reproduces two sweeps."""
    k = np.zeros((1, 1, 3, 3))
    k[0, 0] = [[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]]
    return CorrectionModel("conv", 1, 1, [ConvLayer(1, 1, 1, False, k)])


def scale_model(m: CorrectionModel, factor: float) -> CorrectionModel:
    """Copy of m with every kernel multiplied by factor."""
    layers = [ConvLayer(L.in_ch, L.out_ch, L.stride, L.transposed,
                        factor * L.weights) for L in m.layers]
    return CorrectionModel(m.arch, m.depth, m.channels, layers)


# ------------------------------------------------------------------
# Forward / backward through the net. The tape is a flat op list; skip
# branches are matched LIFO, mirroring the forward stack discipline.
# ------------------------------------------------------------------

def forward(model: CorrectionModel, x: np.ndarray, tape: list | None = None) -> np.ndarray:
    """Run the net on a (B, 1, n, n) batch; optionally record a tape.

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
            a = transposed_conv2d(a, layer.weights, layer.stride)
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
            a = conv2d(a, layer.weights, layer.stride)
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
            grads[li] += conv2d_weight_grad(x, g, layer.stride)
            g = conv2d_input_grad(g, layer.weights, layer.stride, x.shape[2:])
        elif kind == "push":
            g = g + pending.pop()
        elif kind == "add":
            pending.append(g)
        else:  # tconv
            _, li, x = entry
            layer = model.layers[li]
            grads[li] += transposed_conv2d_weight_grad(x, g, layer.stride)
            g = transposed_conv2d_input_grad(g, layer.weights, layer.stride)
    return g


def apply_H(model: CorrectionModel, w: Field, tape: list | None = None) -> Field:
    """Forward pass on an (n, n) field or a (..., n, n) stack of them.

    The leading dimensions fold into the conv batch axis, (B, 1, n, n).
    A tape, if given, records the pass as :func:`forward` does.
    """
    n = w.shape[-1]
    model.check_compatible(n)
    out = forward(model, w.reshape(-1, 1, n, n), tape)
    return out.reshape(w.shape)


def model_cost(model: CorrectionModel, n: int) -> tuple[int, int]:
    """(layers, mul_adds) per application on an n x n grid.

    Each 3x3 kernel costs 9 * in_ch * out_ch mul-adds per cell at the
    layer's output resolution; the count is structural, independent of the
    weight values.
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
        ops += 9 * layer.in_ch * layer.out_ch * res * res
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
        fh.write(f"arch {m.arch} depth {m.depth} channels {m.channels}\n")
        for idx, layer in enumerate(m.layers):
            fh.write(
                f"layer {idx} in {layer.in_ch} out {layer.out_ch} "
                f"stride {layer.stride} transposed {int(layer.transposed)}\n"
            )
            _write_rows(fh, layer.weights.reshape(-1, 9))  # one kernel per line


def _ints(tokens: list[str], what: str, line: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FileFormatError(f"{what} values must be integers", line) from None


def load_model(path) -> CorrectionModel:
    """Read a model file.

    A malformed line raises FileFormatError with its line number; a layer
    list that does not wire up raises ValueError.
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
    if depth < 1 or channels < 1:
        raise FileFormatError(f"depth and channels must be positive, got {depth} and {channels}", 1)
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
        if ci < 1 or co < 1:
            raise FileFormatError(f"channel counts must be positive, got {ci} and {co}", pos + 1)
        if stride not in (1, 2):
            raise FileFormatError(f"stride must be 1 or 2, got {stride}", pos + 1)
        if transposed not in (0, 1):
            raise FileFormatError(f"transposed must be 0 or 1, got {transposed}", pos + 1)
        pos += 1
        w = np.zeros((ci, co, 3, 3))
        for i in range(ci):
            for o in range(co):
                if pos >= len(lines):
                    raise FileFormatError("missing kernel row", pos + 1)
                vals = lines[pos].split()
                if len(vals) != 9:
                    raise FileFormatError("kernel row needs 9 values", pos + 1)
                w[i, o] = _floats([vals], 9, pos + 1,
                                  "bad numeric value in kernel row").reshape(3, 3)
                pos += 1
        layers.append(ConvLayer(ci, co, stride, bool(transposed), w))
    m = CorrectionModel(arch, depth, channels, layers)
    _check_wiring(m)
    return m


def _check_wiring(m: CorrectionModel) -> None:
    """Shape-check the layer list by running a tiny zero input through it."""
    n = 2 ** (m.depth + 1) + 1 if m.arch == "unet" else 3
    try:
        forward(m, np.zeros((1, 1, n, n)))
    except Exception as exc:  # noqa: BLE001 - re-raise with context
        raise ValueError(f"inconsistent layer list for {m.arch}{m.depth}: {exc}") from exc
