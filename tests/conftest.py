"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from sliarith import lanes


class _PerturbedNumpy:
    """numpy, but for exp, log, expm1 and log1p, which move each nonzero
    finite float64 result k ulps: all up, all down, or each a seeded
    random 0..k either way.  Zeros and non-finite results stay: the
    lanes' bounds are relative, and both paths give those exactly."""

    def __init__(self, k: int, mode: str) -> None:
        self._k, self._mode = k, mode
        self._rng = np.random.default_rng(4)
        for name in ("exp", "log", "expm1", "log1p"):
            setattr(self, name, self._perturbed(getattr(np, name)))

    def __getattr__(self, name):
        return getattr(np, name)

    def _perturbed(self, fn):
        def call(*args, **kwargs):
            r = fn(*args, **kwargs)
            x = np.asarray(r)
            steps = {"up": self._k, "down": -self._k}.get(self._mode)
            if steps is None:
                steps = self._rng.integers(-self._k, self._k + 1, x.shape)
            steps = np.where(np.isfinite(x) & (x != 0.0), steps, 0)
            moved = x
            for j in range(1, self._k + 1):
                moved = np.where(steps >= j, np.nextafter(moved, np.inf), moved)
                moved = np.where(-steps >= j, np.nextafter(moved, -np.inf), moved)
            if isinstance(r, np.ndarray):
                r[...] = moved
                return r
            return type(r)(moved)
        return call


@pytest.fixture(params=["up", "down", "random"])
def perturbed_numpy(request, monkeypatch):
    """lanes' numpy with its transcendentals moved four ulps, the
    difference from libm that lanes._TRANS allows for."""
    monkeypatch.setattr(lanes, "np", _PerturbedNumpy(4, request.param))
