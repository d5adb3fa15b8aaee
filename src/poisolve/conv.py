"""3x3 convolution primitives with explicit forward and adjoint passes.

The correction nets are single-channel: kernels are (3, 3) arrays and
activations (B, H, W) stacks of float64 fields, each field convolved on
its own with a one-cell zero pad, so a stride-1 convolution preserves the
grid size. On the (2^m + 1)-point grids used here, a stride-2 convolution
lands exactly on the even-index coarse grid of size (n-1)/2 + 1, and the
transposed stride-2 convolution maps back; the pairs below are exact
adjoints of each other, which the gradient tests rely on.

Every layer, of either stride, transposed or not, runs through one flat
gather, _flat_taps. The stack it reads (x, or gy in the adjoint) is
copied once into a zero frame split into its s x s phases for stride s
(gy's frame has one phase): phase (p, q) is the (B, R, F) block of
framed cells (s*r + p, s*c + q), all phases share R and F, and the
blocks lie end to end in one flat run. Stride 1 is the one-phase case.
Tap (di, dj) of the forward is then a contiguous slice of phase (di mod
s, dj mod s) at offset (di // s)*F + dj // s from the output cell's
position (di*F + dj at stride 1). The adjoint, which is also the
transposed conv's forward, gathers from the frame of gy into each of its
s x s output phases the taps whose parity matches that phase; the phases
are then interleaved into the output, which at stride 1 is the one phase
itself. Reads that wrap past a row's end or across fields land only on
output cells outside the window, which are dropped.

The forward, the adjoint and the transposed conv add the taps in
row-major (di, dj) order starting from zeros: the same operations in the
same order as the multiply-add over strided views and the scatter-add
into them, so they match those formulas bit for bit at both strides.
Where the adjoint's gather reads gy's zero frame and the scatter has no
term, it adds a zero, which changes no bit of a sum started from +0.0.
The weight gradient takes one np.dot per tap over the phase slices, at
both strides; at stride 2 it rounds differently from a strided sum.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_TAPS = [(di, dj) for di in range(3) for dj in range(3)]


def _phases(x, s):
    """x zero-framed and split into its s x s phases, as one flat run.

    Phase (p, q) is the (B, R, F) block of framed cells (s*r + p, s*c + q);
    the blocks lie end to end, followed by 2F + 2 zeros so that every tap's
    slice spans a whole block. Returns the run, R and F.
    """
    B, H, W = x.shape
    R, F = (H + 1) // s + 1, (W + 1) // s + 1
    run = np.zeros(s * s * B * R * F + 2 * F + 2)
    blocks = run[:s * s * B * R * F].reshape(s, s, B, R, F)
    for p in range(s):
        for q in range(s):
            # framed row s*r + p holds row s*r + p - 1 of x
            xs = x[:, (p - 1) % s::s, (q - 1) % s::s]
            r, c = int(p == 0), int(q == 0)
            blocks[p, q, :, r:r + xs.shape[1], c:c + xs.shape[2]] = xs
    return run, R, F


# The tap plans depend on shapes alone; caching them keeps the per-call
# overhead of the many small-grid calls down.
@lru_cache(maxsize=256)
def _forward_taps(s, block, F):
    """(kernel index, flat offset) of each tap, in runs of block-cell phases."""
    return tuple((t, (di % s * s + dj % s) * block + di // s * F + dj // s)
                 for t, (di, dj) in enumerate(_TAPS))


@lru_cache(maxsize=16)
def _adjoint_taps(s, F):
    """(kernel index, flat offset into framed gy) of the taps of each output
    phase (a, c) of the adjoint, phases in row-major order.

    Output row s*I + a meets the taps with di = a + 1 (mod s), each reading
    gy row I + (a + 1 - di) / s, framed row I + 1 + (a + 1 - di) / s; the
    same holds for columns.
    """
    return tuple(tuple((t, (1 + (a + 1 - di) // s) * F + 1 + (c + 1 - dj) // s)
                       for t, (di, dj) in enumerate(_TAPS)
                       if (a + 1 - di) % s == (c + 1 - dj) % s == 0)
                 for a in range(s) for c in range(s))


def _flat_taps(run, k, taps, acc):
    """acc[q] += k[t] * run[q + off] for each (t, off) of taps in turn.

    acc is a flat run of zeros, the frame the taps are gathered into.
    """
    term = np.empty(acc.size)
    for t, off in taps:
        np.multiply(run[off:off + acc.size], k[t], out=term)
        acc += term


def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    """y[b,i,j] = sum_{di,dj} x[b, s*i-1+di, s*j-1+dj] * w[di,dj]."""
    B, H, W = x.shape
    run, R, F = _phases(x, stride)
    out = np.zeros((B, R, F))
    _flat_taps(run, w.ravel(), _forward_taps(stride, out.size, F), out.reshape(-1))
    return out[:, :(H - 1) // stride + 1, :(W - 1) // stride + 1]


def conv2d_input_grad(gy: np.ndarray, w: np.ndarray,
                      stride: int, in_hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of conv2d in its input: gather gy back through the kernel."""
    s = stride
    B = gy.shape[0]
    run, R, F = _phases(gy, 1)
    k = w.ravel()
    out = np.zeros((s * s, B, R, F))
    for phase, taps in zip(out, _adjoint_taps(s, F)):
        _flat_taps(run, k, taps, phase.reshape(-1))
    if s > 1:  # interleave: cell (s*I + a, s*J + c) is (I, J) of phase a*s + c
        gx = np.empty((B, R, s, F, s))
        for a in range(s):
            for c in range(s):
                gx[:, :, a, :, c] = out[a * s + c]
        out = gx
    return out.reshape(B, R * s, F * s)[:, :in_hw[0], :in_hw[1]]


def conv2d_weight_grad(x: np.ndarray, gy: np.ndarray, stride: int) -> np.ndarray:
    """d(loss)/d(kernel) for conv2d given the saved input and output adjoint."""
    B, Ho, Wo = gy.shape
    run, R, F = _phases(x, stride)
    g = np.zeros((B, R, F))
    g[:, :Ho, :Wo] = gy
    taps = _forward_taps(stride, g.size, F)
    # the dots run up to the last output cell; g is zero wherever a slice wraps
    g = g.reshape(-1)[:g.size - R * F + (Ho - 1) * F + Wo]
    return np.array([np.dot(run[off:off + g.size], g) for _, off in taps]).reshape(3, 3)


def transposed_conv2d(x: np.ndarray, w: np.ndarray, stride: int = 2) -> np.ndarray:
    """Adjoint-shaped upsampling conv: (m, m) -> (stride*(m-1)+1, ...)."""
    H, W = x.shape[1], x.shape[2]
    return conv2d_input_grad(x, w, stride, (stride * (H - 1) + 1, stride * (W - 1) + 1))


def transposed_conv2d_weight_grad(x: np.ndarray, gy: np.ndarray,
                                  stride: int) -> np.ndarray:
    return conv2d_weight_grad(gy, x, stride)
