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

SINGLE_SHAPES = [(1, 3, 3), (8, 17, 17), (5, 65, 65)]
QUARTER_CROSS = np.array([[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]])


def _padded(x):
    xp = np.zeros(x.shape[:1] + (x.shape[1] + 2, x.shape[2] + 2))
    xp[:, 1:-1, 1:-1] = x
    return xp


def _view(xp, di, dj, stride, Ho, Wo):
    """The (B, Ho, Wo) view of padded xp that tap (di, dj) meets."""
    return xp[:, di:di + stride * (Ho - 1) + 1:stride,
              dj:dj + stride * (Wo - 1) + 1:stride]


def _ref_conv(x, w, stride):
    """Forward as the 9-tap multiply-add over strided views."""
    B, H, W = x.shape
    Ho, Wo = (H - 1) // stride + 1, (W - 1) // stride + 1
    xp = _padded(x)
    out = np.zeros((B, Ho, Wo))
    for di in range(3):
        for dj in range(3):
            out += w[di, dj] * _view(xp, di, dj, stride, Ho, Wo)
    return out


def _ref_input_grad(gy, w, stride, in_hw):
    """Adjoint as the 9-tap scatter-add into strided views."""
    B, Ho, Wo = gy.shape
    gxp = np.zeros((B, in_hw[0] + 2, in_hw[1] + 2))
    for di in range(3):
        for dj in range(3):
            _view(gxp, di, dj, stride, Ho, Wo)[...] += w[di, dj] * gy
    return gxp[:, 1:-1, 1:-1]


def _ref_weight_grad(x, gy, stride):
    """Weight gradient as one sum of products per tap over strided views."""
    _, Ho, Wo = gy.shape
    xp = _padded(x)
    gw = np.zeros((3, 3))
    for di in range(3):
        for dj in range(3):
            gw[di, dj] = (_view(xp, di, dj, stride, Ho, Wo) * gy).sum()
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
    w = np.random.default_rng(1).standard_normal((3, 3))
    assert _same_bits(conv2d(x, w), _ref_conv(x, w, 1))
    assert _same_bits(conv2d(x, w, 1), _ref_conv(x, w, 1))


@pytest.mark.parametrize("shape", SINGLE_SHAPES)
def test_single_channel_input_grad_matches_strided_formula(shape):
    gy = _data(shape, 2)
    w = np.random.default_rng(3).standard_normal((3, 3))
    assert _same_bits(conv2d_input_grad(gy, w, 1, shape[1:]),
                      _ref_input_grad(gy, w, 1, shape[1:]))


def test_single_channel_kernel_with_zero_taps():
    # the quarter-cross kernel: over the -0.0 block every product is -0.0
    x = _data((4, 17, 17), 4)
    gy = _data((4, 9, 9), 17)
    w = QUARTER_CROSS
    assert _same_bits(conv2d(x, w), _ref_conv(x, w, 1))
    assert _same_bits(conv2d_input_grad(x, w, 1, (17, 17)), _ref_input_grad(x, w, 1, (17, 17)))
    assert _same_bits(conv2d(x, w, 2), _ref_conv(x, w, 2))
    assert _same_bits(conv2d_input_grad(gy, w, 2, (17, 17)),
                      _ref_input_grad(gy, w, 2, (17, 17)))
    assert _same_bits(transposed_conv2d(gy, w, 2), _ref_input_grad(gy, w, 2, (17, 17)))


def test_fields_of_a_stack_stay_separate():
    # the flat runs read across field borders only into dropped cells
    x = _data((3, 17, 17), 5)
    x[1] = np.nan
    coarse = x[:, ::2, ::2]
    w = np.random.default_rng(6).standard_normal((3, 3))
    cases = [(x, lambda a: conv2d(a, w)),
             (x, lambda a: conv2d_input_grad(a, w, 1, (17, 17))),
             (x, lambda a: conv2d(a, w, 2)),
             (coarse, lambda a: conv2d_input_grad(a, w, 2, (17, 17))),
             (coarse, lambda a: transposed_conv2d(a, w, 2))]
    for a, layer in cases:
        out = layer(a)
        assert np.isnan(out[1]).all()
        assert np.isfinite(out[[0, 2]]).all()
        assert _same_bits(out[[0, 2]], layer(a[[0, 2]]))


@pytest.mark.parametrize("shape", SINGLE_SHAPES)
def test_single_channel_weight_grad_matches_einsum(shape):
    x = _data(shape, 7)
    gy = _data(shape, 8)
    gw = conv2d_weight_grad(x, gy, 1)
    ref = _ref_weight_grad(x, gy, 1)
    assert gw.shape == (3, 3)
    assert np.abs(gw - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [9, 17, 65, 16])
def test_stride2_weight_grad_matches_sum(n):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, n, n))
    gy = rng.standard_normal((3, (n - 1) // 2 + 1, (n - 1) // 2 + 1))
    ref = _ref_weight_grad(x, gy, 2)
    gw = conv2d_weight_grad(x, gy, 2)
    assert gw.shape == (3, 3)
    assert np.abs(gw - ref).max() <= 1e-13 * np.abs(ref).max()


# square sizes with their coarse grid (n-1)/2 + 1, one of them even, and
# one rectangle
STRIDE2_SHAPES = [(9, 9), (17, 17), (65, 65), (16, 16), (9, 16)]


def _coarse(hw):
    return tuple((k - 1) // 2 + 1 for k in hw)


@pytest.mark.parametrize("hw", STRIDE2_SHAPES)
def test_stride2_forward_matches_strided_formula(hw):
    x = _data((4, *hw), 10)
    w = np.random.default_rng(11).standard_normal((3, 3))
    assert _same_bits(conv2d(x, w, 2), _ref_conv(x, w, 2))


@pytest.mark.parametrize("hw", STRIDE2_SHAPES)
def test_stride2_input_grad_matches_scatter(hw):
    gy = _data((4, *_coarse(hw)), 12)
    w = np.random.default_rng(13).standard_normal((3, 3))
    assert _same_bits(conv2d_input_grad(gy, w, 2, hw), _ref_input_grad(gy, w, 2, hw))


@pytest.mark.parametrize("hw", STRIDE2_SHAPES)
def test_transposed_matches_scatter(hw):
    # upsampling m -> 2m - 1 is the stride-2 adjoint onto the fine grid
    x = _data((4, *_coarse(hw)), 14)
    w = np.random.default_rng(15).standard_normal((3, 3))
    fine = tuple(2 * k - 1 for k in x.shape[1:])
    assert _same_bits(transposed_conv2d(x, w, 2), _ref_input_grad(x, w, 2, fine))


def _adjoint_gap(ax, y, x, aty):
    """|<Ax, y> - <x, A^T y>| relative to ||Ax|| ||y||, which bounds both sides."""
    lhs = float(np.vdot(ax, y))
    rhs = float(np.vdot(x, aty))
    return abs(lhs - rhs) / (np.linalg.norm(ax) * np.linalg.norm(y))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_adjoint_identity(stride):
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, 17, 17))
    w = rng.standard_normal((3, 3))
    ax = conv2d(x, w, stride)
    y = rng.standard_normal(ax.shape)
    assert _adjoint_gap(ax, y, x, conv2d_input_grad(y, w, stride, x.shape[1:])) <= 1e-12


def test_transposed_conv_adjoint_identity():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 9, 9))
    w = rng.standard_normal((3, 3))
    ax = transposed_conv2d(x, w, 2)
    assert ax.shape == (4, 17, 17)
    y = rng.standard_normal(ax.shape)
    assert _adjoint_gap(ax, y, x, transposed_conv2d_input_grad(y, w, 2)) <= 1e-12
