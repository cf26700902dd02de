from collections import Counter

import numpy as np
import pytest

from jumpdiff import eigensolver
from jumpdiff.eigensolver import CharDeterminant
from jumpdiff.model import Interval, JumpDistribution, ProcessSpec, unit_spec


@pytest.fixture(autouse=True)
def fresh_gap_cache():
    """Each test starts with no remembered gap, so solve counts and patched
    solvers see every drift it asks for."""
    eigensolver._gap.cache_clear()


@pytest.fixture
def spec0():
    return unit_spec(0.0)


@pytest.fixture
def spec20():
    return unit_spec(20.0)


@pytest.fixture
def two_atom_spec():
    return ProcessSpec(
        interval=Interval(0.0, 1.0),
        sigma=1.0,
        mu=5.0,
        nu=JumpDistribution(((0.25, 0.5), (0.75, 0.5))),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240808)


class CountingDet:
    """A determinant that counts its kernel calls and records every point
    they evaluate, with or without the derivative."""

    def __init__(self, spec):
        self.det = CharDeterminant(spec)
        self.config = self.det.config
        self.calls = 0
        self.sizes = []
        self.points = []

    def _count(self, lam_arr):
        self.calls += 1
        self.sizes.append(len(lam_arr))
        self.points.extend(complex(z) for z in lam_arr)

    def with_scale(self, lam_arr):
        self._count(lam_arr)
        return self.det.with_scale(lam_arr)

    def with_derivative(self, lam_arr):
        self._count(lam_arr)
        return self.det.with_derivative(lam_arr)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts every ``CharDeterminant._kernel`` call: those made inside a
    winding count under "contour", all others (Newton steps and single
    residuals) under "newton"."""
    calls = Counter()
    in_contour = [False]
    kernel, winding_count = CharDeterminant._kernel, eigensolver._winding_count

    def counted_kernel(self, lam_arr, deriv):
        calls["contour" if in_contour[0] else "newton"] += 1
        return kernel(self, lam_arr, deriv)

    def counted_winding_count(f, box):
        in_contour[0] = True
        try:
            return winding_count(f, box)
        finally:
            in_contour[0] = False

    monkeypatch.setattr(CharDeterminant, "_kernel", counted_kernel)
    monkeypatch.setattr(eigensolver, "_winding_count", counted_winding_count)
    return calls


@pytest.fixture
def wound_boxes(monkeypatch):
    """Records every box ``_winding_count`` winds around, in order."""
    boxes = []
    winding_count = eigensolver._winding_count

    def recorded_winding_count(f, box):
        boxes.append(box)
        return winding_count(f, box)

    monkeypatch.setattr(eigensolver, "_winding_count", recorded_winding_count)
    return boxes
