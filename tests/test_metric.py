"""The checked per-slice Metric: each derived quantity once, never kept by a state."""

import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    constraint_norms,
    electric_weyl,
    evolve_states,
    hamiltonian_constraint,
    inverse_metric,
    load_state,
    metric_determinant,
    perturb,
    rescale,
    ricci,
    save_state,
    scalar_curvature,
    static_residual,
    sym_to_matrix,
    time_step,
    warped_kasner_state,
    weyl_parts,
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


DERIVED = ("_inverse", "_checked_determinant", "christoffels", "ricci")


def test_collector_record_derives_each_quantity_once(perturbed12):
    with counting(*DERIVED) as counts:
        DiagnosticsCollector().add(perturbed12)
    assert [counts[name] for name in DERIVED] == [1, 1, 1, 1]


def test_rk4_step_derives_once_per_stage(perturbed12):
    # one Metric per stage (inverse, guard, Gamma, Ric) and one for the
    # updated slice (inverse, guard); the new SliceState runs its own guard
    with counting(*DERIVED) as counts:
        time_step(perturbed12, 1e-3, trace_correction=True)
    assert [counts[name] for name in DERIVED] == [5, 6, 4, 4]


def test_curvature_ops_share_one_ricci(perturbed12):
    g, K, N = as_metric(perturbed12.g), perturbed12.K, perturbed12.N
    with counting("ricci") as counts:
        hamiltonian_constraint(g, K)
        electric_weyl(g, K)
        constraint_norms(g, K)
        weyl_parts(g, K)
        static_residual(g, N)
        scalar_curvature(g)
    assert counts["ricci"] == 1


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
    assert m.ricci is m.ricci
    assert np.array_equal(m.ricci.values, ricci(g).values)
    for array in (m.det, m.sqrt_det, m.inv, m.gamma.coefficients, m.ricci.values):
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_metric_rejects_indefinite_values(grid8):
    with pytest.raises(NonPositiveMetric):
        Metric.diagonal_constant(grid8, (-1.0, -1.0, 1.0))


_entries = st.floats(-10.0, 10.0, allow_nan=False)
_point = st.integers(0, 7)


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(st.tuples(*[_entries] * 6), st.floats(0.0, 20.0), st.tuples(_point, _point, _point))
def test_metric_accepts_exactly_the_positive_definite_fields(entries, shift, point):
    # oracle: eigvalsh at the one non-identity point, independent of the
    # leading-minor guard; near-singular matrices are left to rounding.
    # The diagonal shift makes definite and indefinite draws both common.
    entries = np.array(entries) + shift * np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    matrix = sym_to_matrix(entries)
    eigenvalues = np.linalg.eigvalsh(matrix)
    assume(abs(eigenvalues[0]) > 1e-9 * max(1.0, abs(eigenvalues[-1])))
    grid = GridSpec.cubic(8)
    values = SymTensorField.identity(grid).values.copy()
    values[point] = entries
    if eigenvalues[0] > 0.0:
        Metric(grid, values)
    else:
        with pytest.raises(NonPositiveMetric):
            Metric(grid, values)


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
