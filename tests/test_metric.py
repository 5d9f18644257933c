"""The checked per-slice Metric: each derived quantity once, never kept by a state."""

import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from cmclab import (
    AXIAL,
    DiagnosticsCollector,
    GridSpec,
    Metric,
    NonPositiveMetric,
    SliceState,
    SymTensorField,
    as_metric,
    christoffels,
    evolve_states,
    inverse_metric,
    load_state,
    metric_determinant,
    perturb,
    rescale,
    save_state,
    time_step,
    warped_kasner_state,
)
from cmclab import grid as grid_module
from cmclab.checks import random_metric


@pytest.fixture(scope="module")
def perturbed12():
    state = warped_kasner_state(AXIAL, -1.0, GridSpec.cubic(12))
    return perturb(state, 1e-3, seed=11)[0]


@contextmanager
def counting(*names):
    """Count calls of grid-module functions, through every cmclab binding of each."""
    counts = Counter()
    saved = []
    for name in names:
        original = getattr(grid_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("cmclab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, attr, value))
                    setattr(module, attr, counted)
    try:
        yield counts
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


DERIVED = ("_inverse", "_checked_determinant", "christoffels")


def test_collector_record_derives_each_quantity_once(perturbed12):
    with counting(*DERIVED) as counts:
        DiagnosticsCollector().add(perturbed12)
    assert [counts[name] for name in DERIVED] == [1, 1, 1]


def test_rk4_step_derives_once_per_stage(perturbed12):
    # one Metric per stage (inverse, guard, Gamma) and one for the updated
    # slice (inverse, guard); the new SliceState runs its own guard
    with counting(*DERIVED) as counts:
        time_step(perturbed12, 1e-3, trace_correction=True)
    assert [counts[name] for name in DERIVED] == [5, 6, 4]


def test_metric_caches_read_only_quantities(grid8, rng):
    g = random_metric(grid8, rng)
    m = as_metric(g)
    assert isinstance(m, Metric) and as_metric(m) is m
    assert np.array_equal(m.det, metric_determinant(g))
    assert np.array_equal(m.sqrt_det, np.sqrt(metric_determinant(g)))
    assert m.inv is m.inv and inverse_metric(m) is m.inv
    assert np.array_equal(m.inv, inverse_metric(g))
    assert m.gamma is m.gamma
    assert np.array_equal(m.gamma.coefficients, christoffels(g).coefficients)
    for array in (m.det, m.sqrt_det, m.inv, m.gamma.coefficients):
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_metric_rejects_indefinite_values(grid8):
    with pytest.raises(NonPositiveMetric):
        Metric.diagonal_constant(grid8, (-1.0, -1.0, 1.0))


def test_states_keep_plain_metric_fields(perturbed12, tmp_path):
    stepped = time_step(perturbed12, 1e-3, trace_correction=True)
    evolved = list(evolve_states(perturbed12, -0.998, dt=1e-3, trace_correction=True))
    path = tmp_path / "evolved.npz"
    save_state(evolved[-1], path)
    loaded = load_state(path)
    handed = SliceState(t=stepped.t, g=Metric(stepped.grid, stepped.g.values),
                        K=stepped.K, N=stepped.N)
    states = [perturbed12, stepped, *evolved, rescale(stepped, 2.0), loaded, handed]
    assert all(type(s.g) is SymTensorField for s in states)
    assert loaded.t == evolved[-1].t
    for name in ("g", "K", "N"):
        assert np.array_equal(getattr(loaded, name).values, getattr(evolved[-1], name).values)
