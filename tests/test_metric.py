"""The checked per-slice Metric and SecondForm: each derived quantity once, never kept by a state."""

import gc
import sys
from collections import defaultdict
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
    ScalarField,
    SecondForm,
    SliceState,
    SymTensorField,
    as_metric,
    as_second_form,
    br_energy,
    br_flux,
    christoffels,
    constraint_norms,
    covariant_derivative_sym,
    curvature_radius,
    divergence,
    electric_weyl,
    evolution_rhs,
    evolve_states,
    gradient_lapse_estimate_check,
    hamiltonian_constraint,
    hessian,
    integrate,
    inverse_metric,
    kasner_initial_data,
    lapse_bound_margins,
    load_fields,
    load_state,
    magnetic_weyl,
    matrix_to_sym,
    metric_determinant,
    momentum_constraint,
    norm_sq,
    perturb,
    raise_first_index,
    rescale,
    ricci,
    save_fields,
    save_state,
    scalar_curvature,
    solve_lapse,
    spacetime_br_energy,
    static_residual,
    sym_to_matrix,
    time_step,
    trace,
    warped_kasner_state,
    weyl_parts,
)
from cmclab import diagnostics as diagnostics_module
from cmclab import geometry as geometry_module
from cmclab import grid as grid_module
from cmclab import lapse as lapse_module
from cmclab.checks import random_metric


@pytest.fixture(scope="module")
def perturbed12():
    state = warped_kasner_state(AXIAL, -1.0, GridSpec.cubic(12))
    return perturb(state, 1e-3, seed=11)[0]


def _fresh(state):
    """A new state object over the same arrays, which no per-state memo has seen."""
    return SliceState(t=state.t, g=state.g, K=state.K, N=state.N)


@contextmanager
def counting(*names, module=grid_module):
    """Record, by name, the positional arguments of each call of functions of module.

    Every cmclab binding of each function is counted, including the
    module-level ones that grid's own Metric and SecondForm call.
    """
    calls = defaultdict(list)
    saved = []
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        for binder_name, binder in list(sys.modules.items()):
            if binder is None or not binder_name.startswith("cmclab"):
                continue
            for attr, value in list(vars(binder).items()):
                if value is original:
                    saved.append((binder, attr, value))
                    setattr(binder, attr, counted)
    try:
        yield calls
    finally:
        for binder, attr, value in reversed(saved):
            setattr(binder, attr, value)


DERIVED = ("_inverse", "_checked_determinant", "christoffels", "ricci")
K_DERIVED = ("raise_first_index", "covariant_derivative_sym")
GATHERS = ("sym_to_matrix", "matrix_to_sym")


@contextmanager
def counting_cached(*names):
    """Record, by name, each SecondForm whose cached property is computed.

    Each entry is a 1-tuple (instance,), shaped like a `counting` entry.
    """
    calls = defaultdict(list)
    saved = []
    for name in names:
        prop = SecondForm.__dict__[name]

        def counted(self, _name=name, _original=prop.func):
            calls[_name].append((self,))
            return _original(self)

        saved.append((prop, prop.func))
        prop.func = counted
    try:
        yield calls
    finally:
        for prop, original in saved:
            prop.func = original


def _of(calls, K):
    """How many of the recorded calls took K's values as their first argument."""
    return sum(np.array_equal(args[0].values, K.values) for args in calls)


def test_collector_record_derives_each_quantity_once(perturbed12):
    K, state = perturbed12.K, _fresh(perturbed12)
    with counting(*DERIVED, *K_DERIVED, *GATHERS) as calls, counting_cached("trace") as cached:
        DiagnosticsCollector().add(state)
    assert [len(calls[name]) for name in DERIVED] == [1, 1, 1, 1]
    # g^-1 K, tr K and nabla K once each; nabla K serves both B and div K
    assert [_of(calls[name], K) for name in K_DERIVED] == [1, 1]
    assert _of(cached["trace"], K) == 1
    assert len(calls["covariant_derivative_sym"]) == 1
    # K, Ric (for R), E, B and q_abtt once each: E and B each through one
    # SecondForm that serves |.|^2, the cross product and the wedge, q_abtt for the flux
    assert len(calls["raise_first_index"]) == 5
    # tr K, tr Ric, tr E and tr B, each the trace of its one g^-1 A
    assert len(cached["trace"]) == 4
    # a 3x3 form only as a matmul operand; symmetric results stay in 6 components
    assert [len(calls[name]) for name in GATHERS] == [15, 5]


def test_rk4_step_derives_once_per_stage(perturbed12):
    # one Metric per stage (inverse, guard, Gamma, Ric) and one for the
    # updated slice (inverse, guard), which the new SliceState does not guard again
    with counting(*DERIVED, *K_DERIVED, *GATHERS) as calls, \
            counting_cached("trace", "squared") as cached:
        time_step(perturbed12, 1e-3, trace_correction=True)
    assert [len(calls[name]) for name in DERIVED] == [5, 5, 4, 4]
    # one SecondForm per stage, whose g^-1 K the lapse solve and evolution_rhs
    # share, and two for the updated slice (g^-1 K for the drift's tr K, and
    # for the corrected K's lapse)
    assert [len(calls[name]) for name in K_DERIVED] == [6, 0]
    # tr K once per stage (for E) and once for the drift
    assert len(cached["trace"]) == 5
    # K g^-1 K once per stage, shared by E and the rest of dK/dt
    assert len(cached["squared"]) == 4
    # per stage K is gathered twice (g^-1 K, K g^-1 K), Gamma once and d Gamma once (for Ric),
    # and K g^-1 K and Ric go back to 6 components; then g^-1 K twice for the updated slice
    assert [len(calls[name]) for name in GATHERS] == [18, 8]


def test_curvature_ops_share_one_ricci(perturbed12):
    g, K, N = as_metric(perturbed12.g), perturbed12.K, perturbed12.N
    with counting("ricci") as calls:
        hamiltonian_constraint(g, K)
        electric_weyl(g, K)
        constraint_norms(g, K)
        weyl_parts(g, K)
        static_residual(g, N)
        scalar_curvature(g)
    assert len(calls["ricci"]) == 1


def test_k_readers_share_one_second_form(perturbed12):
    g, N = as_metric(perturbed12.g), perturbed12.N
    K = as_second_form(perturbed12.K, g)
    with counting(*K_DERIVED) as calls, counting_cached("trace", "squared") as cached:
        electric_weyl(g, K)
        magnetic_weyl(K, g)
        weyl_parts(g, K)
        hamiltonian_constraint(g, K)
        momentum_constraint(g, K)
        constraint_norms(g, K)
        divergence(K, g)
        solve_lapse(g, K)
        lapse_bound_margins(N, K, g)
        evolution_rhs(g, K, N)
    assert [_of(calls[name], K) for name in K_DERIVED] == [1, 1]
    assert _of(cached["trace"], K) == 1
    # K once, and Ric once for R, which the Metric caches for both
    # hamiltonian_constraint and constraint_norms
    assert len(calls["raise_first_index"]) == 2
    assert len(calls["covariant_derivative_sym"]) == 1
    assert len(cached["squared"]) == 1


def test_gradient_estimate_reads_one_metric(perturbed12):
    # r_c and sup |grad N|_g both read the one Metric the estimate builds
    state = _fresh(perturbed12)
    with counting(*DERIVED) as calls:
        gradient_lapse_estimate_check(state, 10.0)
    assert [len(calls[name]) for name in DERIVED] == [1, 1, 1, 1]


def test_br_readers_share_one_derivation(perturbed12):
    # the record lends its Metric, so constraint_norms' Ric is the one E used
    state = _fresh(perturbed12)
    with counting("ricci") as calls, counting("weyl_parts", module=geometry_module) as weyl:
        record = DiagnosticsCollector().add(state)
        scalars = (br_energy(state), br_flux(state), curvature_radius(state))
        lhs, _, _ = gradient_lapse_estimate_check(state, 10.0)
        assert spacetime_br_energy([state, state]) == 0.0
    assert len(calls["ricci"]) == 1 and len(weyl["weyl_parts"]) == 1
    assert scalars == (record.e_br, record.flux, record.r_c)
    assert lhs == record.r_c * record.grad_n_sup
    # each reader, first on a new state, derives the same bits as the record
    assert scalars == tuple(read(_fresh(state)) for read in (br_energy, br_flux, curvature_radius))


def test_step_and_br_readers_run_ricci_five_times(perturbed12):
    # Ric once per RK4 stage, then once for the new slice, shared by both readers
    with counting("ricci") as calls:
        stepped = time_step(perturbed12, 1e-3, trace_correction=True)
        br_energy(stepped)
        br_flux(stepped)
    assert len(calls["ricci"]) == 5


def test_br_memo_is_per_state_object(perturbed12):
    state = _fresh(perturbed12)
    with counting("weyl_parts", module=geometry_module) as calls:
        energy = br_energy(state)
        assert br_energy(state) == energy
        assert len(calls["weyl_parts"]) == 1
        assert br_energy(_fresh(state)) == energy
        br_energy(rescale(state, 2.0))
    assert len(calls["weyl_parts"]) == 3


def test_br_memo_holds_floats_that_die_with_the_state(perturbed12):
    state = _fresh(perturbed12)
    br_flux(state)
    memo = diagnostics_module._BR_SCALARS
    held = vars(memo[state])
    assert len(held) == 5 and all(type(value) is float for value in held.values())
    size = len(memo)
    del state
    gc.collect()
    assert len(memo) == size - 1


def _step_solves(state, **kwargs):
    """(the RK4 step from state, how many lapse solves it ran)."""
    with counting("solve_lapse", module=lapse_module) as calls:
        stepped = time_step(state, 1e-3, trace_correction=True, **kwargs)
    return stepped, len(calls["solve_lapse"])


def _bits(state):
    return (state.t, *(getattr(state, name).values.tobytes() for name in ("g", "K", "N")))


def test_stage_one_reuses_a_lapse_solved_on_the_slice(perturbed12):
    # perturb and time_step solved their states' N on exactly (g, K) at the default tol
    assert _step_solves(perturbed12)[1] == 4
    stepped = time_step(perturbed12, 1e-3, trace_correction=True)
    reused, solves = _step_solves(stepped)
    resolved, resolves = _step_solves(_fresh(stepped))
    assert (solves, resolves) == (4, 5)
    assert _bits(reused) == _bits(resolved)


def test_stage_one_solves_a_lapse_it_cannot_vouch_for(perturbed12, tmp_path):
    stepped = time_step(perturbed12, 1e-3, trace_correction=True)
    path = tmp_path / "stepped.npz"
    save_state(stepped, path)
    unvouched = (kasner_initial_data(AXIAL, -1.0, stepped.grid), rescale(stepped, 2.0),
                 load_state(path))
    assert [_step_solves(state)[1] for state in unvouched] == [5, 5, 5]
    assert _step_solves(stepped, solver_tol=1e-9)[1] == 5


def test_second_form_caches_read_only_quantities(grid8, rng):
    g = as_metric(random_metric(grid8, rng))
    K = SymTensorField(grid8, rng.standard_normal(grid8.shape + (6,)))
    k = as_second_form(K, g)
    assert isinstance(k, SecondForm) and k.metric is g
    assert as_second_form(k, g) is k
    assert as_second_form(k, SymTensorField(grid8, g.values)).metric is not g
    assert k.mixed is k.mixed and k.trace is k.trace
    assert k.norm_sq is k.norm_sq and k.nabla is k.nabla
    assert np.array_equal(k.mixed, raise_first_index(K, g.inv))
    assert np.array_equal(k.trace, trace(K, g).values)
    assert np.array_equal(k.norm_sq, norm_sq(K, g).values)
    assert np.array_equal(k.nabla, covariant_derivative_sym(K, g.gamma))
    assert k.squared is k.squared
    km = sym_to_matrix(K.values)
    assert np.array_equal(k.squared, matrix_to_sym(km @ g.inv @ km))
    for array in (k.mixed, k.trace, k.norm_sq, k.squared, k.nabla):
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_second_form_rejects_a_metric_on_another_grid(grid8):
    K = SymTensorField.identity(grid8)
    with pytest.raises(ValueError, match="grid"):
        as_second_form(K, Metric.identity(GridSpec.cubic(9)))
    with pytest.raises(ValueError, match="grid"):
        SecondForm(grid8, K.values, Metric.identity(GridSpec((8, 8, 9))))


_WIDE = ScalarField.constant(GridSpec.cubic(16, 2.0), 1.0)  # same shape, twice the period
_COARSE = ScalarField.constant(GridSpec.cubic(8), 1.0)
_CROSS_GRID = {
    "integrate": lambda s: integrate(_WIDE, s.g),
    "static_residual": lambda s: static_residual(s.g, _WIDE),
    "lapse_bound_margins": lambda s: lapse_bound_margins(_COARSE, s.K, s.g),
    "solve_lapse_rhs": lambda s: solve_lapse(s.g, s.K, rhs=_COARSE),
    "solve_lapse_initial_guess": lambda s: solve_lapse(s.g, s.K, initial_guess=_COARSE),
    "evolution_rhs": lambda s: evolution_rhs(s.g, s.K, _COARSE),
    "hessian": lambda s: hessian(_WIDE, as_metric(s.g).gamma),
}


@pytest.mark.parametrize("call", list(_CROSS_GRID.values()), ids=list(_CROSS_GRID))
def test_operations_reject_fields_on_another_grid(call):
    state = kasner_initial_data(AXIAL, -1.0, GridSpec.cubic(16))
    with pytest.raises(ValueError, match="share one grid"):
        call(state)


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
    g = Metric(stepped.grid, stepped.g.values)
    K = as_second_form(stepped.K, g)
    handed = SliceState(t=stepped.t, g=g, K=K, N=stepped.N)
    states = [perturbed12, stepped, *evolved, rescale(stepped, 2.0), loaded, handed]
    assert all(type(s.g) is SymTensorField for s in states)
    assert all(type(s.K) is SymTensorField for s in states)
    assert loaded.t == evolved[-1].t
    for name in ("g", "K", "N"):
        assert np.array_equal(getattr(loaded, name).values, getattr(evolved[-1], name).values)
    fields_path = tmp_path / "fields.npz"
    save_fields(fields_path, g.grid, {"g": g, "K": K})
    _, fields, _ = load_fields(fields_path)
    assert all(type(f) is SymTensorField for f in fields.values())
    assert np.array_equal(fields["K"].values, K.values)
