"""Tests of the benchmark's own machinery: python -m pytest perfbench"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import cmclab  # noqa: E402
from cmclab import kasner  # noqa: E402

import gates  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None, op=None, attrs=None):
    return tracing.Span(name, start, end, parent=parent, op=op, attrs=attrs)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span("op.step", 0.0, 10.0, op=0),
        _span("a", 1.0, 4.0, parent=0, op=0),
        _span("a1", 2.0, 3.0, parent=1, op=0),
        _span("b", 5.0, 9.0, parent=0, op=0),
        _span("b1", 6.0, 7.0, parent=3, op=0),
        _span("b2", 7.0, 8.5, parent=3, op=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 4.0), _span("c", 1.0, 3.0, parent=0), _span("d", 2.0, 5.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_are_per_operation_and_per_round():
    spans = [
        _span("op.step", 0.0, 4.0, op=0),
        _span("grid.diff_array", 0.0, 1.0, parent=0, op=0, attrs={"bytes": 100}),
        _span("lapse.solve_lapse", 1.0, 3.0, parent=0, op=0, attrs={"iters": 6, "r0": 1e-3}),
        _span("grid.diff_array", 1.5, 2.0, parent=2, op=0, attrs={"bytes": 100}),
        _span("op.step", 5.0, 7.0, op=4),
        _span("lapse.solve_lapse", 5.0, 6.0, parent=4, op=4, attrs={"iters": 2, "r0": 3e-3}),
        # outside any timed operation: only the per-round functions count
        _span("grid.diff_array", 8.0, 9.0, op=6, attrs={"bytes": 100}),
        _span("snapshot.save_state", 9.0, 9.5, op=7, attrs={"bytes": 64}),
    ]
    m = tracing.layer_metrics(spans, ops=[0, 4], rounds=1)
    assert m["grid.diff_array.calls"] == 1.0
    assert m["grid.diff_array.self_s"] == pytest.approx(0.75)
    assert m["grid.diff_array.bytes_computed"] == 100.0
    assert m["lapse.solve_lapse.calls"] == 1.0
    assert m["lapse.solve_lapse.self_s"] == pytest.approx(1.25)
    assert m["lapse.cg_iters_per_solve"] == 4.0
    assert m["lapse.initial_residual.p50"] == pytest.approx(2e-3)
    assert m["snapshot.save_state.self_s"] == pytest.approx(0.5)
    assert m["snapshot.bytes"] == 64.0
    # first op: only the diff_array call inside solve_lapse lies below an
    # entry function (0.5 of 4 s); second op: nothing does
    assert m["trace.coverage"] == pytest.approx((0.5 / 4.0 + 0.0) / 2)


# --- oracle gates: each fails on a deliberately wrong value ----------------

def test_energy_and_flux_gates_reject_a_wrong_value():
    p, t = kasner.GENERIC, -0.9
    exact_e = kasner.br_energy(p, t, 1.0)
    exact_f = kasner.br_energy_rate(p, t, 1.0)
    for tol in (workloads.KASNER_TOL, workloads.DIAGNOSTICS_E_TOL):
        assert gates.energy(exact_e, p, t, 1.0, tol).ok
        assert not gates.energy(exact_e * (1 + 1e-3), p, t, 1.0, tol).ok
    assert gates.flux(exact_f, p, t, 1.0, workloads.KASNER_TOL).ok
    assert not gates.flux(exact_f * (1 + 1e-3), p, t, 1.0, workloads.KASNER_TOL).ok


def test_perturbed_energy_gates_reject_a_wrong_value():
    p, t0, t1 = kasner.AXIAL, -1.0, -0.997
    e0 = kasner.br_energy(p, t0, 1.0) * (1 + 5e-4)  # what the perturbation adds
    e1 = kasner.br_energy(p, t1, 1.0) * (1 + 5e-4)
    assert gates.energy(e0, p, t0, 1.0, workloads.PERTURBED_E_TOL).ok
    assert not gates.energy(e0 * (1 + 1e-2), p, t0, 1.0, workloads.PERTURBED_E_TOL).ok
    assert gates.decay(e0, e1, p, t0, t1, workloads.PERTURBED_DECAY_TOL).ok
    assert not gates.decay(e0, e1 * (1 + 1e-3), p, t0, t1, workloads.PERTURBED_DECAY_TOL).ok


def test_lapse_bounds_gate_rejects_a_lapse_below_the_bound():
    # Kasner saturates the lower bound; the slack at 32^3 is 10 h^4 ~ 1e-5
    state = cmclab.kasner_initial_data(kasner.AXIAL, -1.0, cmclab.GridSpec.cubic(32))
    assert gates.lapse_bounds(state).ok
    low = cmclab.SliceState(state.t, state.g, state.K,
                            cmclab.ScalarField(state.grid, state.N.values * (1 - 1e-3)))
    assert not gates.lapse_bounds(low).ok


def test_bitwise_gates_reject_a_one_ulp_change():
    state = cmclab.kasner_initial_data(kasner.AXIAL, -1.0, cmclab.GridSpec.cubic(8))
    assert gates.same_state("s", state, state).ok
    n = state.N.values.copy()
    n[3, 1, 4] = np.nextafter(n[3, 1, 4], np.inf)
    nudged = cmclab.SliceState(state.t, state.g, state.K, cmclab.ScalarField(state.grid, n))
    assert not gates.same_state("s", state, nudged).ok

    record = cmclab.DiagnosticsCollector().add(state)
    assert gates.same_records("r", [record], [record]).ok
    fields = [getattr(record, name) for name in cmclab.diagnostics.RECORD_COLUMNS]
    fields[1] = float(np.nextafter(fields[1], np.inf))
    assert not gates.same_records("r", [record], [cmclab.DiagnosticsRecord(*fields)]).ok
    assert not gates.same_records("r", [record], []).ok


# --- tracing leaves nothing behind ------------------------------------------

def _bindings():
    return {(m.__name__, attr): value
            for m in tracing._cmclab_modules() for attr, value in vars(m).items()
            if callable(value)}


def test_traced_round_restores_every_binding(tmp_path):
    before = _bindings()
    add = cmclab.DiagnosticsCollector.add
    tracer = tracing.Tracer()
    runner = workloads.Runner(0.0, str(tmp_path), tracer)
    with tracer.installed():
        assert len(tracing.wrapped_bindings()) > len(tracing.TRACED)
        text = runner.run(workloads.kasner_round, workloads.kasner_inputs(3, 8))
    assert text is not None and runner.failed == 0, runner.failures
    assert tracing.wrapped_bindings() == []
    assert _bindings() == before
    assert cmclab.DiagnosticsCollector.add is add
    assert runner.traced_ops and runner.samples
    names = {s.name for s in tracer.spans}
    assert {"evolution.time_step", "lapse.solve_lapse", "diagnostics.br_flux"} <= names


def test_bindings_are_restored_when_the_run_raises():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            1 / 0
    assert tracing.wrapped_bindings() == []
    assert _bindings() == before


def test_rounds_repeat_bitwise():
    inputs = workloads.kasner_inputs(5, 8)
    runner = workloads.Runner(0.0, ".")
    first = workloads.kasner_round(runner, inputs)
    assert workloads.kasner_round(runner, inputs) == first
    assert runner.failed == 0, runner.failures


def test_tail_is_p90_below_100_samples_and_has_ten_beyond_above():
    import run
    assert run.tail(list(range(20)))[0] == pytest.approx(17.1)
    assert run.tail(list(range(99)))[0] == pytest.approx(88.2)
    assert run.tail(list(range(100)))[0] == 89
    value, label = run.tail(list(range(200)))
    assert value == 189 and label == "p95.0 of 200"


# --- the reference kernel ---------------------------------------------------

def test_reference_kernel_is_fixed_and_timed_once_per_repeat():
    import reference
    ref = reference.Reference(8, 3)
    times = ref.times()
    assert len(times) == 3 and all(t > 0.0 for t in times)
    assert reference.Reference(8, 1).value == ref.value  # the same for every run


def test_runner_times_the_reference_around_each_untraced_operation():
    import reference
    runner = workloads.Runner(0.0, ".", reference=reference.Reference(8, 2))
    assert workloads.kasner_round(runner, workloads.kasner_inputs(5, 8)) is not None
    assert runner.failed == 0, runner.failures
    assert len(runner.ref_samples) == len(runner.samples) == workloads.KASNER_SLICES
    assert all(ref > 0.0 for ref in runner.ref_samples)
