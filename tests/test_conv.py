"""The conv primitives against the strided formulas and their adjoint identities."""

import numpy as np
import pytest

from poisolve.conv import (
    conv2d,
    conv2d_input_grad,
    conv2d_weight_grad,
    transposed_conv2d,
    transposed_conv2d_input_grad,
)

SINGLE_SHAPES = [(1, 1, 3, 3), (8, 1, 17, 17), (5, 1, 65, 65)]


def _padded(x):
    xp = np.zeros(x.shape[:2] + (x.shape[2] + 2, x.shape[3] + 2))
    xp[:, :, 1:-1, 1:-1] = x
    return xp


def _ref_conv_single(x, w):
    """Single-channel stride-1 forward as the 9-tap strided multiply-add."""
    _, _, H, W = x.shape
    xp = _padded(x)
    out = np.zeros(x.shape)
    for di in range(3):
        for dj in range(3):
            out += w[0, 0, di, dj] * xp[:, :, di:di + H, dj:dj + W]
    return out


def _ref_input_grad_single(gy, w):
    """Single-channel stride-1 adjoint as the 9-tap strided scatter-add."""
    _, _, H, W = gy.shape
    gxp = np.zeros(gy.shape[:2] + (H + 2, W + 2))
    for di in range(3):
        for dj in range(3):
            gxp[:, :, di:di + H, dj:dj + W] += w[0, 0, di, dj] * gy
    return gxp[:, :, 1:-1, 1:-1]


def _ref_weight_grad(x, gy, stride):
    """Weight gradient as one einsum per tap over strided views."""
    _, Ho, Wo = gy.shape[1:]
    xp = _padded(x)
    gw = np.zeros((x.shape[1], gy.shape[1], 3, 3))
    for di in range(3):
        for dj in range(3):
            xs = xp[:, :, di:di + stride * (Ho - 1) + 1:stride,
                    dj:dj + stride * (Wo - 1) + 1:stride]
            gw[:, :, di, dj] = np.einsum("bcij,boij->co", xs, gy)
    return gw


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64))


def _data(shape, seed):
    """Random field with a third of its rows and one 4x4 block set to -0.0.

    The zeros catch sign-of-zero slips: a sum started from its first term
    instead of from +0.0 keeps -0.0 where every term is -0.0.
    """
    x = np.random.default_rng(seed).standard_normal(shape)
    x[..., ::3, :] = -0.0
    x[..., 1:5, 1:5] = -0.0
    return x


@pytest.mark.parametrize("shape", SINGLE_SHAPES)
def test_single_channel_forward_matches_strided_formula(shape):
    x = _data(shape, 0)
    w = np.random.default_rng(1).standard_normal((1, 1, 3, 3))
    assert _same_bits(conv2d(x, w), _ref_conv_single(x, w))
    assert _same_bits(conv2d(x, w, 1), _ref_conv_single(x, w))


@pytest.mark.parametrize("shape", SINGLE_SHAPES)
def test_single_channel_input_grad_matches_strided_formula(shape):
    gy = _data(shape, 2)
    w = np.random.default_rng(3).standard_normal((1, 1, 3, 3))
    assert _same_bits(conv2d_input_grad(gy, w, 1, shape[2:]),
                      _ref_input_grad_single(gy, w))


def test_single_channel_kernel_with_zero_taps():
    # the quarter-cross kernel: over the -0.0 block every product is -0.0
    x = _data((4, 1, 17, 17), 4)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0] = [[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]]
    assert _same_bits(conv2d(x, w), _ref_conv_single(x, w))
    assert _same_bits(conv2d_input_grad(x, w, 1, (17, 17)), _ref_input_grad_single(x, w))


def test_fields_of_a_stack_stay_separate():
    # the flat runs read across field borders only into dropped cells
    x = _data((3, 1, 17, 17), 5)
    x[1] = np.nan
    w = np.random.default_rng(6).standard_normal((1, 1, 3, 3))
    for out in (conv2d(x, w), conv2d_input_grad(x, w, 1, (17, 17))):
        assert np.isnan(out[1]).all()
        assert np.isfinite(out[[0, 2]]).all()
    assert _same_bits(conv2d(x, w)[[0, 2]], conv2d(x[[0, 2]], w))


@pytest.mark.parametrize("shape", SINGLE_SHAPES)
def test_single_channel_weight_grad_matches_einsum(shape):
    x = _data(shape, 7)
    gy = _data(shape, 8)
    gw = conv2d_weight_grad(x, gy, 1)
    ref = _ref_weight_grad(x, gy, 1)
    assert gw.shape == (1, 1, 3, 3)
    assert np.abs(gw - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("ci,co", [(1, 2), (3, 2)])
def test_multi_channel_weight_grad_matches_einsum(stride, ci, co):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, ci, 17, 17))
    gy = rng.standard_normal((3, co) + conv2d(x, np.zeros((ci, co, 3, 3)), stride).shape[2:])
    ref = _ref_weight_grad(x, gy, stride)
    assert np.abs(conv2d_weight_grad(x, gy, stride) - ref).max() <= 1e-13 * np.abs(ref).max()


def _adjoint_gap(ax, y, x, aty):
    """|<Ax, y> - <x, A^T y>| relative to ||Ax|| ||y||, which bounds both sides."""
    lhs = float(np.vdot(ax, y))
    rhs = float(np.vdot(x, aty))
    return abs(lhs - rhs) / (np.linalg.norm(ax) * np.linalg.norm(y))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("ci,co", [(1, 1), (1, 2), (2, 1), (3, 2)])
def test_conv_adjoint_identity(stride, ci, co):
    rng = np.random.default_rng(10 + 4 * ci + co)
    x = rng.standard_normal((4, ci, 17, 17))
    w = rng.standard_normal((ci, co, 3, 3))
    ax = conv2d(x, w, stride)
    y = rng.standard_normal(ax.shape)
    assert _adjoint_gap(ax, y, x, conv2d_input_grad(y, w, stride, x.shape[2:])) <= 1e-12


@pytest.mark.parametrize("ci,co", [(1, 1), (2, 3)])
def test_transposed_conv_adjoint_identity(ci, co):
    rng = np.random.default_rng(20 + ci)
    x = rng.standard_normal((4, ci, 9, 9))
    w = rng.standard_normal((ci, co, 3, 3))
    ax = transposed_conv2d(x, w, 2)
    assert ax.shape == (4, co, 17, 17)
    y = rng.standard_normal(ax.shape)
    assert _adjoint_gap(ax, y, x, transposed_conv2d_input_grad(y, w, 2)) <= 1e-12

