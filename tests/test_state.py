"""Slice container invariants."""

import importlib
import pkgutil
import weakref

import numpy as np
import pytest

import cmclab
from cmclab import (
    AXIAL,
    GridSpec,
    NonPositiveLapse,
    NonPositiveMetric,
    ScalarField,
    SliceState,
    SymTensorField,
    kasner_initial_data,
)


def _pieces(grid):
    g = SymTensorField.identity(grid)
    k = SymTensorField(grid, -g.values)
    n = ScalarField.constant(grid, 1.0 / 3.0)
    return g, k, n


def test_valid_state(grid8):
    g, k, n = _pieces(grid8)
    s = SliceState(t=-3.0, g=g, K=k, N=n)
    assert s.t == -3.0
    assert s.grid is grid8


def test_time_must_be_negative_and_finite(grid8):
    g, k, n = _pieces(grid8)
    for bad in (0.0, 1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SliceState(t=bad, g=g, K=k, N=n)


def test_fields_must_share_the_grid(grid8):
    g, k, n = _pieces(grid8)
    other = GridSpec.cubic(10)
    g2 = SymTensorField.identity(other)
    with pytest.raises(ValueError):
        SliceState(t=-1.0, g=g2, K=k, N=n)
    n2 = ScalarField.constant(other, 1.0)
    with pytest.raises(ValueError):
        SliceState(t=-1.0, g=g, K=k, N=n2)


def test_metric_must_be_positive(grid8):
    g, k, n = _pieces(grid8)
    vals = g.values.copy()
    vals[..., 0] = -1.0
    with pytest.raises(NonPositiveMetric):
        SliceState(t=-1.0, g=SymTensorField(grid8, vals), K=k, N=n)


def test_lapse_must_be_positive(grid8):
    g, k, n = _pieces(grid8)
    vals = n.values.copy()
    vals[2, 3, 4] = 0.0
    with pytest.raises(NonPositiveLapse):
        SliceState(t=-1.0, g=g, K=k, N=ScalarField(grid8, vals))


def test_state_arrays_are_read_only(grid8):
    # one state object means one set of values, which per-state memos rely on
    state = kasner_initial_data(AXIAL, -1.0, grid8)
    for field in (state.g, state.K, state.N):
        with pytest.raises(ValueError):
            field.values[0, 0, 0] = 1.0


def test_only_the_state_module_keys_a_registry_on_states():
    # what a reader derives from one slice lives on the slice; only the
    # head rule, which spans states, keeps a module-level weak-keyed registry
    holders = []
    for info in pkgutil.iter_modules(cmclab.__path__):
        module = importlib.import_module(f"cmclab.{info.name}")
        if any(isinstance(value, weakref.WeakKeyDictionary) for value in vars(module).values()):
            holders.append(info.name)
    assert holders == ["state"]
