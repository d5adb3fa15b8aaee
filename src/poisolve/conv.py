"""3x3 convolution primitives with explicit forward and adjoint passes.

Everything operates on (batch, channels, rows, cols) float64 arrays with a
one-cell zero pad, so a stride-1 convolution preserves the grid size. On
the (2^m + 1)-point grids used here, a stride-2 convolution lands exactly
on the even-index coarse grid of size (n-1)/2 + 1, and the transposed
stride-2 convolution maps back; the pairs below are exact adjoints of each
other, which the gradient tests rely on.

Kernels are stored as (in_ch, out_ch, 3, 3).

Single-channel (in_ch = out_ch = 1) stride-1 layers, every layer of a
conv-d net and most of a U-Net, take one flat-index path in conv2d,
conv2d_input_grad and conv2d_weight_grad. The (B, 1, H, W) input is copied
once into a zero-framed (B, H+2, W+2) buffer viewed as one flat run of
cells, so each kernel tap (di, dj) is a contiguous slice at offset
di*(W+2) + dj from the output cell's position (the adjoint reads at the
flipped offset (2-di)*(W+2) + (2-dj)). Reads that wrap past a row's end or
across fields land only on output cells outside the (H, W) window, which
are dropped. The forward and adjoint add the taps in row-major (di, dj)
order starting from zeros, the same operations in the same order as the
strided formula, so they match it bit for bit; the weight gradient takes
one dot product per tap, which rounds differently from a strided sum.
Multi-channel layers sum over channels with einsum, and stride-2 and
transposed layers use strided views of the padded input.
"""

from __future__ import annotations

import numpy as np


def _padded(x):
    B, C, H, W = x.shape
    xp = np.zeros((B, C, H + 2, W + 2))
    xp[:, :, 1:-1, 1:-1] = x
    return xp


def _tap_offsets(W):
    """Flat offset of tap (di, dj) in a zero-framed row of W + 2 cells."""
    return [di * (W + 2) + dj for di in range(3) for dj in range(3)]


def _flat_taps(xf, taps, shape):
    """Sum of kernel taps over the flat run of a zero-framed single channel.

    xf is a (B, 1, H+2, W+2) zero-framed array as one flat run and taps
    pairs each weight with its flat offset; out[q] = sum k * xf[q + off] in
    the order of taps, from zeros. Returns the (B, 1, H, W) window.
    """
    B, _, H, W = shape
    out = np.zeros((B, 1, H + 2, W + 2))
    n = xf.size - 2 * (W + 2) - 2
    acc = out.reshape(-1)[:n]
    term = np.empty(n)
    for k, off in taps:
        np.multiply(xf[off:off + n], k, out=term)
        acc += term
    return out[:, :, :H, :W]


def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    """y[b,o,i,j] = sum_{c,di,dj} x[b,c, s*i-1+di, s*j-1+dj] * w[c,o,di,dj]."""
    B, Ci, H, W = x.shape
    xp = _padded(x)
    if stride == 1 and w.shape[:2] == (1, 1):
        return _flat_taps(xp.reshape(-1), zip(w[0, 0].ravel(), _tap_offsets(W)),
                          x.shape)
    Ho = (H - 1) // stride + 1
    Wo = (W - 1) // stride + 1
    out = np.zeros((B, w.shape[1], Ho, Wo))
    single = Ci == 1 and w.shape[1] == 1
    for di in range(3):
        for dj in range(3):
            xs = xp[:, :, di:di + stride * (Ho - 1) + 1:stride,
                    dj:dj + stride * (Wo - 1) + 1:stride]
            if single:
                out += w[0, 0, di, dj] * xs
            else:
                out += np.einsum("bcij,co->boij", xs, w[:, :, di, dj])
    return out


def conv2d_input_grad(gy: np.ndarray, w: np.ndarray,
                      stride: int, in_hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of conv2d in its input: scatter gy back through the kernel."""
    if stride == 1 and w.shape[:2] == (1, 1):
        # tap (di, dj) gathers gy at the flipped offset: the list reversed
        offsets = _tap_offsets(gy.shape[3])[::-1]
        return _flat_taps(_padded(gy).reshape(-1),
                          zip(w[0, 0].ravel(), offsets), gy.shape)
    H, W = in_hw
    B, Co, Ho, Wo = gy.shape
    Ci = w.shape[0]
    gxp = np.zeros((B, Ci, H + 2, W + 2))
    single = Ci == 1 and Co == 1
    for di in range(3):
        for dj in range(3):
            g = w[0, 0, di, dj] * gy if single else np.einsum(
                "boij,co->bcij", gy, w[:, :, di, dj])
            gxp[:, :, di:di + stride * (Ho - 1) + 1:stride,
                dj:dj + stride * (Wo - 1) + 1:stride] += g
    return gxp[:, :, 1:-1, 1:-1]


def conv2d_weight_grad(x: np.ndarray, gy: np.ndarray, stride: int) -> np.ndarray:
    """d(loss)/d(kernel) for conv2d given the saved input and output adjoint."""
    B, Ci, H, W = x.shape
    _, Co, Ho, Wo = gy.shape
    xp = _padded(x)
    if stride == 1 and Ci == Co == 1:
        xf = xp.reshape(-1)
        n = xf.size - 2 * (W + 2) - 2
        # gy's own frame holds zeros exactly where the x slices wrap
        g = _padded(gy).reshape(-1)[W + 3:W + 3 + n]
        return np.array([np.dot(xf[off:off + n], g)
                         for off in _tap_offsets(W)]).reshape(1, 1, 3, 3)
    gw = np.zeros((Ci, Co, 3, 3))
    for di in range(3):
        for dj in range(3):
            xs = xp[:, :, di:di + stride * (Ho - 1) + 1:stride,
                    dj:dj + stride * (Wo - 1) + 1:stride]
            gw[:, :, di, dj] = np.einsum("bcij,boij->co", xs, gy)
    return gw


def transposed_conv2d(x: np.ndarray, w: np.ndarray, stride: int = 2) -> np.ndarray:
    """Adjoint-shaped upsampling conv: (m, m) -> (stride*(m-1)+1, ...)."""
    H, W = x.shape[2], x.shape[3]
    out_hw = (stride * (H - 1) + 1, stride * (W - 1) + 1)
    return conv2d_input_grad(x, np.ascontiguousarray(w.transpose(1, 0, 2, 3)),
                             stride, out_hw)


def transposed_conv2d_input_grad(gy: np.ndarray, w: np.ndarray,
                                 stride: int) -> np.ndarray:
    return conv2d(gy, np.ascontiguousarray(w.transpose(1, 0, 2, 3)), stride)


def transposed_conv2d_weight_grad(x: np.ndarray, gy: np.ndarray,
                                  stride: int) -> np.ndarray:
    return conv2d_weight_grad(gy, x, stride).transpose(1, 0, 2, 3)
