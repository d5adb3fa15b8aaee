from dataclasses import replace

import numpy as np
import pytest

from poisolve.grid import make_problem


def square_problem(n, sides=(0.3, -0.2, 0.8, 0.1), f=None):
    """Square domain with constant per-side boundary values."""
    mask = np.zeros((n, n), dtype=np.uint8)
    mask[1:-1, 1:-1] = 1
    b = np.zeros((n, n))
    b[0, :], b[-1, :] = sides[0], sides[1]
    b[1:-1, 0], b[1:-1, -1] = sides[2], sides[3]
    return make_problem(mask, b, np.zeros((n, n)) if f is None else f)


def with_negative_zeros(p):
    """p with b = -0.0 at every other cell of its top row and left column."""
    b = p.b.copy()
    b[0, ::2] = -0.0
    b[1:-1:2, 0] = -0.0
    return replace(p, b=b)


def boundary_bits_equal(u, p):
    """Whether u, a field or stack on p, holds b's exact bits at every exterior cell."""
    fixed = np.broadcast_to(p.mask != 1, u.shape)
    expect = np.broadcast_to(p.b, u.shape)[fixed]
    return np.array_equal(u[fixed].view(np.int64), expect.view(np.int64))


def neighbor_mean(u):
    """Reference: quarter of the 4-neighbour sum at every cell, zero-padded."""
    up = np.zeros(u.shape[:-2] + (u.shape[-2] + 2, u.shape[-1] + 2))
    up[..., 1:-1, 1:-1] = u
    return 0.25 * (up[..., :-2, 1:-1] + up[..., 2:, 1:-1]
                   + up[..., 1:-1, :-2] + up[..., 1:-1, 2:])


def padded_laplacian(u, h):
    """Reference: the 5-point Laplacian by padded slices, zero on the frame."""
    out = np.zeros_like(u)
    out[..., 1:-1, 1:-1] = (
        u[..., :-2, 1:-1] + u[..., 2:, 1:-1] + u[..., 1:-1, :-2] + u[..., 1:-1, 2:]
        - 4.0 * u[..., 1:-1, 1:-1]
    ) / (h * h)
    return out


@pytest.fixture
def p17():
    return square_problem(17)


@pytest.fixture
def p17_poisson():
    rng = np.random.default_rng(99)
    f = rng.standard_normal((17, 17))
    return square_problem(17, f=f)
