"""The checked per-slice Metric and SecondForm: each derived quantity once.

A state never holds them; only the one a reader derived for the state
time_step returned last waits in a registry for the next step.
"""

import dataclasses
import gc
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cmclab import (
    AXIAL,
    DiagnosticsCollector,
    EllipticSolveReport,
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
    k_ratio,
    kasner_initial_data,
    lapse_bound_margins,
    load_fields,
    load_state,
    magnetic_weyl,
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
    sup_norm,
    sym_to_matrix,
    time_step,
    trace,
    warped_kasner_state,
    weyl_parts,
)
from cmclab import evolution as evolution_module
from cmclab import geometry as geometry_module
from cmclab import grid as grid_module
from cmclab import state as state_module
from cmclab.checks import random_metric
from cmclab.grid import SYM_PAIRS
from cmclab.lapse import DEFAULT_TOL, _solve


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


DERIVED = ("_cofactors", "christoffels", "ricci")
K_DERIVED = ("_raise_planes", "_covariant_derivative_planes")
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
    assert [len(calls[name]) for name in DERIVED] == [1, 1, 1]
    # g^-1 K, tr K and nabla K once each; nabla K serves both B and div K
    assert [_of(calls[name], K) for name in K_DERIVED] == [1, 1]
    assert _of(cached["trace"], K) == 1
    assert len(calls["_covariant_derivative_planes"]) == 1
    # K, E, B and q_abtt once each: E and B each through one SecondForm that
    # serves |.|^2, the cross product and the wedge, q_abtt for the flux; R is
    # contracted from the stored components of Ric, which is never raised
    assert len(calls["_raise_planes"]) == 4
    # tr K, tr E and tr B, each the trace of its one g^-1 A
    assert len(cached["trace"]) == 3
    # no 3x3 form anywhere: every contraction is a sum of plane products, and
    # symmetric results stay in 6 components
    assert [len(calls[name]) for name in GATHERS] == [0, 0]


def test_rk4_step_derives_once_per_stage(perturbed12):
    # one Metric per stage (cofactors, Gamma, Ric) and one for the updated
    # slice (cofactors), which the new SliceState does not guard again
    with counting(*DERIVED, *K_DERIVED, *GATHERS) as calls, \
            counting_cached("trace", "squared") as cached:
        time_step(perturbed12, 1e-3, trace_correction=True)
    assert [len(calls[name]) for name in DERIVED] == [5, 4, 4]
    # one SecondForm per stage, whose g^-1 K the lapse solve and evolution_rhs
    # share, and one for the updated slice (the corrected K's lapse); the
    # drift's tr K is contracted from the stored components
    assert [len(calls[name]) for name in K_DERIVED] == [5, 0]
    # tr K once per stage (for E)
    assert len(cached["trace"]) == 4
    # K g^-1 K once per stage, shared by E and the rest of dK/dt
    assert len(cached["squared"]) == 4
    # g^-1 K, K g^-1 K, Gamma and Ric are all formed on planes
    assert [len(calls[name]) for name in GATHERS] == [0, 0]


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
    # K once; R, contracted anew by each hamiltonian_constraint (constraint_norms
    # calls it too), reads the stored components of Ric, which is never raised
    assert len(calls["_raise_planes"]) == 1
    assert len(calls["_covariant_derivative_planes"]) == 1
    assert len(cached["squared"]) == 1


def test_gradient_estimate_reads_one_metric(perturbed12):
    # r_c and sup |grad N|_g both read the one Metric the estimate builds
    state = _fresh(perturbed12)
    with counting(*DERIVED) as calls:
        gradient_lapse_estimate_check(state, 10.0)
    assert [len(calls[name]) for name in DERIVED] == [1, 1, 1]


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


def test_next_step_takes_what_a_reader_derived_for_the_head(perturbed12):
    # Ric once per RK4 stage and once for the new slice, as above; the
    # next step's stage 1 then takes the readers' Metric and SecondForm
    registry = state_module._HEAD
    with counting("ricci") as calls:
        stepped = time_step(perturbed12, 1e-3, trace_correction=True)
        br_energy(stepped)
        br_flux(stepped)
        assert isinstance(registry[stepped], SecondForm)
        lent = time_step(stepped, 1e-3, trace_correction=True)
    assert len(calls["ricci"]) == 8
    assert list(registry.items()) == [(lent, None)]
    assert _bits(lent) == _bits(time_step(_fresh(stepped), 1e-3, trace_correction=True))


def test_the_head_entry_holds_one_state_and_dies_with_it(perturbed12):
    registry = state_module._HEAD
    first = time_step(perturbed12, 1e-3, trace_correction=True)
    br_energy(first)
    second = time_step(_fresh(first), 1e-3, trace_correction=True)
    assert list(registry.items()) == [(second, None)]
    with counting("ricci") as calls:
        br_energy(second)
        record = DiagnosticsCollector().add(second)
    # the record reads the SecondForm and Metric the energy left for the step
    assert len(calls["ricci"]) == 1
    assert list(registry.keys()) == [second]
    held = weakref.ref(registry[second])
    assert held().values is second.K.values and held().metric.values is second.g.values
    assert record.e_br == br_energy(_fresh(second))
    del second
    gc.collect()
    assert len(registry) == 0 and held() is None


def test_k_ratio_reads_the_second_form_left_for_the_head(perturbed12):
    stepped = time_step(perturbed12, 1e-3, trace_correction=True)
    expected = sup_norm(stepped.K, stepped.g) / abs(stepped.t)
    br_energy(stepped)
    with counting("_cofactors") as calls:
        ratio = k_ratio(stepped)
    assert len(calls["_cofactors"]) == 0
    assert ratio == expected


def test_collector_record_on_the_head_fills_the_entry(perturbed12):
    stepped = time_step(perturbed12, 1e-3, trace_correction=True)
    assert state_module._HEAD[stepped] is None
    DiagnosticsCollector().add(stepped)
    K = state_module._HEAD[stepped]
    assert isinstance(K, SecondForm) and K.values is stepped.K.values
    with counting("ricci") as calls:
        time_step(stepped, 1e-3, trace_correction=True)
    assert len(calls["ricci"]) == 3


def test_only_the_head_lends(perturbed12, tmp_path):
    stepped = time_step(perturbed12, 1e-3, trace_correction=True)
    path = tmp_path / "stepped.npz"
    save_state(stepped, path)
    registry = state_module._HEAD
    registry.clear()
    grid = perturbed12.grid
    homogeneous = kasner_initial_data(AXIAL, -1.0, grid)
    states = (homogeneous, warped_kasner_state(AXIAL, -1.0, grid),
              perturb(homogeneous, 1e-3, seed=3)[0], rescale(stepped, 2.0), load_state(path),
              _fresh(stepped))
    for state in states:
        DiagnosticsCollector().add(state)
        br_flux(_fresh(state))
        assert len(registry) == 0


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
    held = vars(state._br_scalars)
    assert len(held) == 5 and all(type(value) is float for value in held.values())
    scalars = weakref.ref(state._br_scalars)
    del state
    gc.collect()
    assert scalars() is None


def test_a_new_state_carries_no_tol_and_no_br_memo(perturbed12, tmp_path):
    # _br_scalars is a state's one private field: no solver memo is kept
    assert [f.name for f in dataclasses.fields(SliceState)] == ["t", "g", "K", "N", "_br_scalars"]
    stepped = time_step(perturbed12, 1e-3, trace_correction=True)
    br_energy(stepped)
    assert stepped._br_scalars is not None
    path = tmp_path / "stepped.npz"
    save_state(stepped, path)
    states = (_fresh(stepped), dataclasses.replace(stepped), rescale(stepped, 2.0),
              load_state(path))
    for state in (stepped, *states):
        fields = f"t={state.t!r}, g={state.g!r}, K={state.K!r}, N={state.N!r}"
        assert repr(state) == f"SliceState({fields})"
    for state in states:
        assert state._br_scalars is None


def _bits(state):
    return (state.t, *(getattr(state, name).values.tobytes() for name in ("g", "K", "N")))


def _stage_one(state, monkeypatch, **kwargs):
    """(guess, lapse, report) of the first of the five lapse solves of the RK4 step from state."""
    solves = []

    def recorded(*args, **solve_kwargs):
        N, report = solve_lapse(*args, **solve_kwargs)
        solves.append((solve_kwargs["initial_guess"], N, report))
        return N, report

    with monkeypatch.context() as patched:
        patched.setattr(evolution_module, "solve_lapse", recorded)
        time_step(state, 1e-3, trace_correction=True, **kwargs)
    assert len(solves) == 5
    return solves[0]


def _assert_returned_at_once(state, monkeypatch, **kwargs):
    guess, N, report = _stage_one(state, monkeypatch, **kwargs)
    h0 = report.residual_history[0]
    assert guess is state.N
    assert report == EllipticSolveReport(0, h0, True, [h0])
    assert N.values.tobytes() == state.N.values.tobytes()


def test_stage_one_reuses_a_lapse_solved_on_the_slice(perturbed12, monkeypatch):
    # perturb and time_step solved their states' N on exactly (g, K) at the
    # default tol: stage 1 returns N after one apply, at this tol or a looser one
    stepped = time_step(perturbed12, 1e-3, trace_correction=True)
    for state, kwargs in ((perturbed12, {}), (stepped, {}), (stepped, {"solver_tol": 1e-9})):
        _assert_returned_at_once(state, monkeypatch, **kwargs)
    reused = time_step(stepped, 1e-3, trace_correction=True)
    resolved = time_step(_fresh(stepped), 1e-3, trace_correction=True)
    assert _bits(reused) == _bits(resolved)


def test_stage_one_solves_a_lapse_it_cannot_vouch_for(perturbed12, tmp_path, monkeypatch):
    stepped = time_step(perturbed12, 1e-3, trace_correction=True)
    path = tmp_path / "stepped.npz"
    save_state(stepped, path)
    # a loaded state holds the same bits and homogeneous Kasner's N solves its
    # slice exactly: the solve checks them and finds tol met at the first residual
    for state in (load_state(path), kasner_initial_data(AXIAL, -1.0, stepped.grid)):
        _assert_returned_at_once(state, monkeypatch)
    # rescaling by r keeps N, where the lapse is N / r^2: the Ritz start scales it
    _, N, report = _stage_one(rescale(stepped, 2.0), monkeypatch)
    assert report.iterations == 0 and report.residual_history[0] > 0.0
    assert np.allclose(N.values, stepped.N.values / 4.0, rtol=1e-9, atol=0.0)
    # a tighter tol than N was solved to takes CG iterations
    _, N, report = _stage_one(stepped, monkeypatch, solver_tol=1e-12)
    assert report.iterations > 0 and report.final_residual <= 1e-12


def test_second_form_caches_read_only_quantities(grid8, rng):
    g = as_metric(random_metric(grid8, rng))
    K = SymTensorField(grid8, rng.standard_normal(grid8.shape + (6,)))
    k = as_second_form(K, g)
    assert isinstance(k, SecondForm) and k.metric is g
    assert as_second_form(k, g) is k
    assert as_second_form(k, SymTensorField(grid8, g.values)).metric is not g
    assert k._mixed_planes is k._mixed_planes and k.trace is k.trace
    assert k.norm_sq is k.norm_sq and k._nabla_planes is k._nabla_planes
    assert np.array_equal(k.trace, trace(K, g).values)
    assert np.array_equal(k.norm_sq, norm_sq(K, g).values)
    assert k.squared is k.squared
    # (K g^-1 K)_ab = (g^-1 K)^c_a K_cb on the stored pairs, summed over c in order
    km, mixed = sym_to_matrix(K.values), raise_first_index(k, g)
    full = sum(mixed[..., c, :, None] * km[..., c, None, :] for c in range(3))
    assert np.array_equal(k.squared, np.stack([full[..., a, b] for a, b in SYM_PAIRS], axis=-1))
    for array in (mixed, k.trace, k.norm_sq, k.squared, covariant_derivative_sym(k, g),
                  k._mixed_planes, k._nabla_planes):
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_second_form_rejects_a_metric_on_another_grid(grid8):
    K = SymTensorField.identity(grid8)
    with pytest.raises(ValueError, match="grid"):
        as_second_form(K, Metric.identity(GridSpec.cubic(9)))
    with pytest.raises(ValueError, match="grid"):
        SecondForm(grid8, K.values, Metric.identity(GridSpec((8, 8, 9))))


def test_hessian_and_expansions_take_the_metric(grid8, rng):
    g = random_metric(grid8, rng)
    m = Metric(grid8, g.values)
    K = SymTensorField(grid8, rng.standard_normal(grid8.shape + (6,)))
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    # a plain g and a Metric over the same values give the same bits
    assert np.array_equal(hessian(f, g).values, hessian(f, m).values)
    assert np.array_equal(covariant_derivative_sym(K, g), covariant_derivative_sym(K, m))
    assert np.array_equal(raise_first_index(K, g), raise_first_index(K, m))
    # a SecondForm whose planes are derived is read, not raised or differentiated again
    k = as_second_form(K, m)
    k._mixed_planes, k._nabla_planes
    with counting(*K_DERIVED, "christoffels") as calls:
        read = (hessian(f, m).values, covariant_derivative_sym(k, m), raise_first_index(k, m))
    assert [len(calls[name]) for name in (*K_DERIVED, "christoffels")] == [0, 0, 0]
    assert all(np.array_equal(got, want) for got, want in zip(read, (
        hessian(f, g).values, covariant_derivative_sym(K, g), raise_first_index(K, g))))
    other = Metric.identity(GridSpec.cubic(8, 2.0))  # same shape, twice the period
    for call in (hessian, covariant_derivative_sym, raise_first_index):
        with pytest.raises(ValueError, match="share one grid"):
            call(f if call is hessian else K, other)


_WIDE = ScalarField.constant(GridSpec.cubic(16, 2.0), 1.0)  # same shape, twice the period
_COARSE = ScalarField.constant(GridSpec.cubic(8), 1.0)
_CROSS_GRID = {
    "integrate": lambda s: integrate(_WIDE, s.g),
    "static_residual": lambda s: static_residual(s.g, _WIDE),
    "lapse_bound_margins": lambda s: lapse_bound_margins(_COARSE, s.K, s.g),
    "solve_lapse_rhs": lambda s: _solve(s.g, norm_sq(s.K, s.g).values, DEFAULT_TOL, rhs=_COARSE),
    "solve_lapse_initial_guess": lambda s: solve_lapse(s.g, s.K, initial_guess=_COARSE),
    "evolution_rhs": lambda s: evolution_rhs(s.g, s.K, _COARSE),
    "hessian": lambda s: hessian(_WIDE, s.g),
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
    assert m._inv_planes is m._inv_planes
    assert np.array_equal(inverse_metric(m), inverse_metric(g))
    assert m.gamma is m.gamma
    assert np.array_equal(m.gamma, christoffels(g))
    assert m.ricci is m.ricci
    assert np.array_equal(m.ricci.values, ricci(g).values)
    for array in (m.det, m.sqrt_det, m._inv_planes, inverse_metric(m), m.gamma,
                  m.ricci.values):
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
