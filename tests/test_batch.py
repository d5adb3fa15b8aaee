"""Stacked steps: a (..., n, n) stack is stepped slice by slice, bit for bit.

Certification advances whole stacks at once, so every iterator it runs
must return exactly the per-field results; np.array_equal, no tolerance.
"""

import numpy as np
import pytest

from poisolve import spectral
from poisolve.geometry import GeometrySpec, generate
from poisolve.iterators import JacobiIterator, MultigridIterator
from poisolve.model import PhiIterator, init_model
from poisolve.spectral import (
    POWER_SEED,
    POWER_WINDOW,
    linear_part,
    materialize_dense,
    spectral_radius,
)


def _iterators():
    return {
        "jacobi": JacobiIterator(),
        "mg2": MultigridIterator(2),
        "conv3": PhiIterator(JacobiIterator(), init_model("conv3", seed=1)),
        "unet2": PhiIterator(JacobiIterator(), init_model("unet2", seed=2)),
    }


ITERATORS = ("jacobi", "mg2", "conv3", "unet2")


@pytest.fixture(scope="module")
def problems():
    return [generate(GeometrySpec(kind=kind, n=17, seed=0))
            for kind in ("square_poisson", "lshape", "cylinders")]


def _reference_power(lp, n, iterations, window, restarts, seed):
    """The windowed power estimate, one (n, n) restart after another."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(restarts):
        v = rng.standard_normal((n, n))
        v /= float(np.linalg.norm(v))
        log_growth = np.zeros(iterations + 1)
        steps_done = iterations
        for t in range(iterations):
            v = lp.apply(v)
            norm = float(np.linalg.norm(v))
            if norm == 0.0:
                steps_done = t
                break
            log_growth[t + 1] = log_growth[t] + np.log(norm)
            v /= norm
        est = 0.0
        if steps_done >= window:
            est = float(np.exp((log_growth[steps_done]
                                - log_growth[steps_done - window]) / window))
        best = max(best, est)
    return best


def _reference_dense(lp, n):
    """T column by column from single basis fields."""
    T = np.zeros((n * n, n * n))
    for j in range(n * n):
        e = np.zeros((n, n))
        e.flat[j] = 1.0
        T[:, j] = lp.apply(e).ravel()
    return T


@pytest.mark.parametrize("name", ITERATORS)
@pytest.mark.parametrize("lead", [(3,), (2, 2)])
def test_step_equals_per_field_steps(problems, name, lead):
    it = _iterators()[name]
    rng = np.random.default_rng(11)
    for p in problems:
        u = rng.standard_normal(lead + (p.n, p.n))
        stacked = it.step(u, p)
        assert stacked.shape == u.shape
        per_field = np.array([it.step(x, p) for x in u.reshape(-1, p.n, p.n)])
        assert np.array_equal(stacked, per_field.reshape(u.shape))


@pytest.mark.parametrize("name", ITERATORS)
def test_power_radius_equals_sequential_restarts(problems, name, monkeypatch):
    monkeypatch.setattr(spectral, "POWER_ITERATIONS", 120)
    monkeypatch.setattr(spectral, "POWER_RESTARTS", 3)
    lp = linear_part(_iterators()[name], problems[1])
    got = spectral_radius(lp, mode="power")
    assert got == _reference_power(lp, 17, iterations=120, window=POWER_WINDOW,
                                   restarts=3, seed=POWER_SEED)


@pytest.mark.parametrize("name", ITERATORS)
def test_dense_matrix_equals_column_loop(problems, name):
    lp = linear_part(_iterators()[name], problems[2])
    assert np.array_equal(materialize_dense(lp), _reference_dense(lp, 17))
