"""The benchmark's workloads and the runner that times them.

A workload builds its inputs from the seed, then repeats one round of
fixed work until the time is up.  Every round starts from the same
inputs, so every round must emit bitwise the same records; that is
checked, and the records' sha256 is comparable between runs of one seed.
Inside a round, the timed operations (RK4 steps, diagnosed slices,
collector records) give the per-operation samples; the rest of the round
(records outside the steps, snapshot and record round trips, oracle
gates) counts towards the round's wall time only.
"""

from __future__ import annotations

import io
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cmclab
from cmclab import kasner
from cmclab.errors import CmcLabError

import gates

WARM_N = 16  # grid of the warm-up operation: runs every code path at a modest cost


class OutOfTime(Exception):
    """The run's time ran out before the next timed operation."""


class Runner:
    """Times operations, counts operations and failed gates, switches tracing.

    With a tracer the run is traced, except that every other timed
    operation runs with the tracer uninstalled; the two sets of samples
    give the tracing overhead.  With a reference (reference.Reference),
    its kernel runs right before and right after each untraced operation,
    and the median of those runs' times is kept beside the operation's
    time; the median passes over a run that a scheduler hiccup slowed.
    """

    def __init__(self, seconds: float, workdir: str, tracer=None, reference=None):
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.reference = reference
        self.samples: list[float] = []  # untraced timed operations
        self.ref_samples: list[float] = []  # the reference kernel around each of them
        self.traced_samples: list[float] = []
        self.traced_ops: list[int] = []  # span indices of the traced operations
        self.parts = defaultdict(list)  # named sub-timings of untraced operations
        self.round_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.last_traced = False
        self._deadline = None
        self._first_round = True

    def timed(self, kind: str, fn: Callable):
        """One timed operation; fn looks up the cmclab functions it calls."""
        if not self._first_round and time.perf_counter() >= self._deadline:
            raise OutOfTime
        tracer = self.tracer
        traced = tracer is not None and (len(self.samples) + len(self.traced_samples)) % 2 == 0
        self.last_traced = traced
        self.attempted += 1
        reference = None if traced else self.reference
        if reference is not None:
            before = reference.times()
        if tracer is not None and not traced:
            tracer.uninstall()
        try:
            start = time.perf_counter()
            if traced:
                with tracer.span(f"op.{kind}") as index:
                    result = fn()
                self.traced_ops.append(index)
            else:
                result = fn()
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None and not traced:
                tracer.install()
        (self.traced_samples if traced else self.samples).append(elapsed)
        if reference is not None:
            self.ref_samples.append(statistics.median(before + reference.times()))
        return result

    def op(self, fn: Callable):
        """An operation outside the timed ones (a record, a round trip)."""
        self.attempted += 1
        return fn()

    def check(self, check: gates.Check) -> None:
        self.attempted += 1
        if not check.ok:
            self.failed += 1
            self.failures.append(f"{check.name}: {check.detail}")

    def run(self, round_fn: Callable, inputs) -> str | None:
        """Repeat rounds until the time is up; return the first round's records."""
        self._deadline = time.perf_counter() + self.seconds
        reference = None
        while True:
            start = time.perf_counter()
            try:
                text = round_fn(self, inputs)
            except OutOfTime:
                break
            except CmcLabError as exc:
                self.failed += 1
                self.failures.append(f"{type(exc).__name__}: {exc}")
                break
            self.round_times.append(time.perf_counter() - start)
            if reference is None:
                reference = text
            else:
                self.check(gates.Check("round_records", text == reference,
                                       "bitwise equal" if text == reference else "rounds differ"))
            self._first_round = False
            if time.perf_counter() >= self._deadline:
                break
        return reference


def _emit(records) -> str:
    buffer = io.StringIO()
    cmclab.emit_records(records, buffer)
    return buffer.getvalue()


# --- evolve_perturbed_32 -------------------------------------------------

PERTURBED_N = 32
PERTURBED_AMPLITUDE = 1e-4
PERTURBED_DT = 1e-3
# Per round; odd, so traced and untraced steps swap each round.  A round
# (two 32^3 records and the steps) takes ~14 s, so two whole rounds fit
# in a 30 s run and the second is checked bitwise against the first.
PERTURBED_STEPS = 3
# The perturbation adds 2e-4 to 1e-3 to e_br, seed by seed, so the closed
# form bounds it loosely; the decay law from the first to the last slice
# holds to ~5e-6 and is the tight gate.
PERTURBED_E_TOL = 5e-3
PERTURBED_DECAY_TOL = 1e-4


def perturbed_inputs(seed: int, n: int):
    state = cmclab.warped_kasner_state(kasner.AXIAL, -1.0, cmclab.GridSpec.cubic(n), 0.02)
    state, _ = cmclab.perturb(state, PERTURBED_AMPLITUDE, seed)
    return state


def _perturbed_states(state):
    # Perturbed data violates the constraints, so tr K drifts at about
    # 0.02 dt per step; the drift is projected out as `trace_correction`
    # does in `cmclab evolve`.
    return cmclab.evolve_states(state, -0.5, dt=PERTURBED_DT, trace_correction=True)


def perturbed_warm(state) -> None:
    next(_perturbed_states(state))


def perturbed_round(run: Runner, state) -> str:
    collector = cmclab.DiagnosticsCollector()
    first = run.op(lambda: collector.add(state))
    states = _perturbed_states(state)
    last = state
    for _ in range(PERTURBED_STEPS):
        last = run.timed("step", lambda: next(states))
    states.close()
    final = run.op(lambda: collector.add(last))
    path = os.path.join(run.workdir, f"snapshot-{os.getpid()}.npz")
    try:
        run.op(lambda: cmclab.save_state(last, path))
        loaded = run.op(lambda: cmclab.load_state(path))
    finally:
        if os.path.exists(path):
            os.remove(path)
    run.check(gates.same_state("snapshot_roundtrip", last, loaded))
    run.check(gates.lapse_bounds(last))
    run.check(gates.energy(first.e_br, kasner.AXIAL, first.t, 1.0, PERTURBED_E_TOL))
    run.check(gates.energy(final.e_br, kasner.AXIAL, final.t, 1.0, PERTURBED_E_TOL))
    run.check(gates.decay(first.e_br, final.e_br, kasner.AXIAL, first.t, final.t,
                          PERTURBED_DECAY_TOL))
    return _emit(collector.records)


# --- evolve_kasner_16 ----------------------------------------------------

KASNER_N = 16
KASNER_DT = 1e-3
KASNER_SOLVER_TOL = 1e-12
KASNER_SLICES = 7  # per round; odd, see PERTURBED_STEPS
KASNER_T0 = (-1.2, -0.8)
# Homogeneous data carries no spatial truncation error: both match to ~1e-15.
KASNER_TOL = 1e-12


def kasner_inputs(seed: int, n: int):
    t0 = float(np.random.default_rng(seed).uniform(*KASNER_T0))
    return cmclab.kasner_initial_data(kasner.GENERIC, t0, cmclab.GridSpec.cubic(n))


def _kasner_states(state):
    return cmclab.evolve_states(state, -0.1, dt=KASNER_DT, solver_tol=KASNER_SOLVER_TOL)


def _diagnosed_step(states, run: Runner | None = None):
    start = time.perf_counter()
    state = next(states)
    stepped = time.perf_counter()
    e_br = cmclab.br_energy(state)
    flux = cmclab.br_flux(state)
    if run is not None and not run.last_traced:
        run.parts["step_s"].append(stepped - start)
        run.parts["record_s"].append(time.perf_counter() - stepped)
    return state, e_br, flux


def kasner_warm(state) -> None:
    _diagnosed_step(_kasner_states(state))


def kasner_round(run: Runner, state) -> str:
    states = _kasner_states(state)
    rows = []
    for _ in range(KASNER_SLICES):
        s, e_br, flux = run.timed("slice", lambda: _diagnosed_step(states, run))
        run.check(gates.energy(e_br, kasner.GENERIC, s.t, 1.0, KASNER_TOL))
        run.check(gates.flux(flux, kasner.GENERIC, s.t, 1.0, KASNER_TOL))
        rows.append((s.t, e_br, flux))
    states.close()
    return gates.rows_text(rows)


# --- diagnostics_warped_32 -----------------------------------------------

DIAGNOSTICS_N = 32
DIAGNOSTICS_SLICES = 3  # per round; odd, see PERTURBED_STEPS
DIAGNOSTICS_T = (-1.1, -0.9)
# Warped slices are exact: e_br matches the closed form to ~3e-9 at 32^3.
DIAGNOSTICS_E_TOL = 1e-7


def diagnostics_inputs(seed: int, n: int):
    times = np.sort(np.random.default_rng(seed).uniform(*DIAGNOSTICS_T, DIAGNOSTICS_SLICES))
    grid = cmclab.GridSpec.cubic(n)
    return [cmclab.warped_kasner_state(kasner.GENERIC, float(t), grid, 0.02) for t in times]


def diagnostics_warm(slices) -> None:
    cmclab.DiagnosticsCollector().add(slices[0])


def diagnostics_round(run: Runner, slices) -> str:
    collector = cmclab.DiagnosticsCollector()
    for s in slices:
        record = run.timed("record", lambda: collector.add(s))
        run.check(gates.energy(record.e_br, kasner.GENERIC, s.t, 1.0, DIAGNOSTICS_E_TOL))
    text = run.op(lambda: _emit(collector.records))
    parsed = run.op(lambda: cmclab.parse_records(text))
    run.check(gates.same_records("records_roundtrip", collector.records, parsed))
    config = cmclab.MonitorConfig(10.0, DIAGNOSTICS_T[0], DIAGNOSTICS_T[1])
    verdict = run.op(lambda: cmclab.continuation_monitor(parsed, config))
    run.check(gates.Check("monitor_clean", verdict.clean, repr(verdict)))
    return text


@dataclass(frozen=True)
class Workload:
    inputs: Callable  # (seed, grid points per axis) -> inputs
    n: int
    warm: Callable  # one timed operation's work on inputs, untimed
    round: Callable  # (runner, inputs) -> emitted records text
    # reference kernel runs on each side of an operation, ~10% of its time
    ref_repeats: int


WORKLOADS = {
    "evolve_perturbed_32": Workload(perturbed_inputs, PERTURBED_N, perturbed_warm,
                                    perturbed_round, 2),
    "evolve_kasner_16": Workload(kasner_inputs, KASNER_N, kasner_warm, kasner_round, 4),
    "diagnostics_warped_32": Workload(diagnostics_inputs, DIAGNOSTICS_N, diagnostics_warm,
                                      diagnostics_round, 2),
}
