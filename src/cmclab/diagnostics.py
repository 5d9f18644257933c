"""Monitored quantities, the Gauss-law flux, time series and the monitor.

A run produces one DiagnosticsRecord per slice with a fixed column order.
Accumulated quantities follow the run: the spacetime energy integral uses
trapezoidal quadrature in |dt| so it grows along the run whichever way t
moves, and the curvature radius is emitted both instantaneously and as a
running infimum (r_c_run), since downstream estimates may want either.

The continuation monitor checks the two continuation-criterion bounds

    accumulated spacetime energy <= lambda,   (sup |K| / |H|)^2 <= lambda

per record inside a time window and reports which (if either) fails.  If
the slice energy grows by a large factor while both bounds hold, the
verdict carries a theorem_tension flag: that combination indicates a bug
or discretization artifact, not physics.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyHistory, ParseError, SinkError, ValidationError
from .geometry import BRComponents, br_components, constraint_norms, weyl_parts
from .grid import (Metric, ScalarField, SecondForm, VectorField, _vector_dot, as_metric,
                   as_second_form, integrate, sup_norm)
from .lapse import lapse_bound_margins
from .state import SliceState
from .tensor import gradient, inner

__all__ = [
    "DiagnosticsRecord",
    "MonitorConfig",
    "MonitorVerdict",
    "DiagnosticsCollector",
    "br_energy",
    "br_flux",
    "spacetime_br_energy",
    "curvature_radius",
    "k_ratio",
    "gradient_lapse_estimate_check",
    "continuation_monitor",
    "emit_records",
    "parse_records",
    "RECORD_COLUMNS",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of per-slice monitored quantities.

    lapse margins are (min N - lower bound, upper bound - max N), both
    nonnegative when the maximum-principle bounds hold; constraint norms
    are the L2 Hamiltonian and momentum residuals.
    """

    t: float
    e_br: float
    e_br_spacetime: float
    k_ratio: float
    r_c: float
    r_c_run: float
    lapse_margin_low: float
    lapse_margin_high: float
    grad_n_sup: float
    flux: float
    ham_norm: float
    mom_norm: float

    def as_row(self) -> str:
        return ",".join(repr(float(getattr(self, f.name))) for f in fields(self))


RECORD_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def _br_fields(state: SliceState) -> tuple[Metric, SecondForm, BRComponents]:
    """(g, K, q) of a slice: its Metric, its SecondForm over it and the BR components."""
    g = as_metric(state.g)
    K = as_second_form(state.K, g)
    weyl = weyl_parts(g, K)
    return g, K, br_components(weyl.E, weyl.B, g)


def _lapse_weighted_energy(g: Metric, q: BRComponents, N: ScalarField) -> float:
    return integrate(ScalarField(g.grid, N.values * q.q_tttt.values), g)


def _trapezoid(t0: float, d0: float, t1: float, d1: float) -> float:
    """One trapezoid of the spacetime energy, in |dt|."""
    return 0.5 * (d1 + d0) * abs(t1 - t0)


def _flux(g: Metric, K: SecondForm, q: BRComponents, N: ScalarField, dn: VectorField) -> float:
    pressure = -N.values * inner(q.q_abtt, K, g).values
    momentum = _vector_dot(g.inv, q.q_attt.values, dn.values)
    return -3.0 * integrate(ScalarField(g.grid, pressure + momentum), g)


def _radius(g: Metric, q: BRComponents) -> float:
    peak = float(np.sqrt(np.max(q.q_tttt.values)))
    cap = 0.5 * min(
        period * float(np.sqrt(np.min(g.values[..., idx])))
        for period, idx in zip(g.grid.periods, (0, 3, 5))
    )
    return cap if peak == 0.0 else min(cap, peak ** -0.5)


def br_energy(state: SliceState) -> float:
    """Slice Bel-Robinson energy, the volume integral of |E|^2 + |B|^2."""
    g, _, q = _br_fields(state)
    return integrate(q.q_tttt, g)


def spacetime_br_energy(states) -> float:
    """Trapezoidal time integral of the lapse-weighted slice energy.

    The quadrature uses |dt|, so histories running toward -infinity
    accumulate positively too.  A single slice integrates to zero.
    """
    states = list(states)
    if not states:
        raise EmptyHistory("spacetime energy needs at least one slice")
    densities = []
    for s in states:
        g, _, q = _br_fields(s)
        densities.append(_lapse_weighted_energy(g, q, s.N))
    total = 0.0
    for s0, s1, d0, d1 in zip(states, states[1:], densities, densities[1:]):
        total += _trapezoid(s0.t, d0, s1.t, d1)
    return total


def br_flux(state: SliceState) -> float:
    """Gauss-law value of d/dt of the slice energy.

    flux = -3 integral( -N <q_abtt, K> + <q_attt, grad N> ) d mu_g.
    """
    return _flux(*_br_fields(state), state.N, gradient(state.N))


def curvature_radius(state: SliceState) -> float:
    """Inverse square root of the curvature sup, capped at the torus scale.

    The cap is half the shortest metric period, min_i(L_i min_x
    sqrt(g_ii)) / 2, so it transforms as a length under rescaling just
    like the uncapped value; identically flat slices return the cap.
    """
    g, _, q = _br_fields(state)
    return _radius(g, q)


def k_ratio(state: SliceState) -> float:
    """sup |K|_g divided by |H|; >= 1/sqrt(3) since |K|^2 >= H^2/3."""
    return sup_norm(state.K, state.g) / abs(state.t)


def gradient_lapse_estimate_check(
    state: SliceState, lambda_threshold: float
) -> tuple[float, float, float]:
    """Empirical ratio for the curvature-radius lapse-gradient estimate.

    Returns (lhs, rhs_shape, c_fit) with lhs = r_c sup|grad N|, rhs_shape
    = r_c^2 lambda + 1/H^2 and c_fit their ratio.  Only boundedness of
    c_fit along a run is meaningful; no universal constant is asserted.
    ValueError unless lambda_threshold is finite and positive.
    """
    if not (np.isfinite(lambda_threshold) and lambda_threshold > 0.0):
        raise ValueError(f"lambda_threshold must be finite and > 0, got {lambda_threshold!r}")
    g, _, q = _br_fields(state)
    r_c = _radius(g, q)
    lhs = r_c * sup_norm(gradient(state.N), g)
    rhs_shape = r_c * r_c * lambda_threshold + 1.0 / (state.t * state.t)
    return lhs, rhs_shape, lhs / rhs_shape


class DiagnosticsCollector:
    """Accumulates records along a run (spacetime energy, running r_c)."""

    def __init__(self):
        self.records: list[DiagnosticsRecord] = []
        self._prev_t: float | None = None
        self._prev_density: float | None = None
        self._accumulated = 0.0
        self._r_c_run = np.inf

    def add(self, state: SliceState) -> DiagnosticsRecord:
        N = state.N
        g, K, q = _br_fields(state)
        density = _lapse_weighted_energy(g, q, N)
        if self._prev_t is not None:
            self._accumulated += _trapezoid(self._prev_t, self._prev_density, state.t, density)
        self._prev_t = state.t
        self._prev_density = density
        r_c = _radius(g, q)
        self._r_c_run = min(self._r_c_run, r_c)
        dn = gradient(N)
        low, high = lapse_bound_margins(N, K, g)
        ham, mom = constraint_norms(g, K)
        record = DiagnosticsRecord(
            t=state.t,
            e_br=integrate(q.q_tttt, g),
            e_br_spacetime=self._accumulated,
            k_ratio=sup_norm(K, g) / abs(state.t),
            r_c=r_c,
            r_c_run=self._r_c_run,
            lapse_margin_low=low,
            lapse_margin_high=high,
            grad_n_sup=sup_norm(dn, g),
            flux=_flux(g, K, q, N, dn),
            ham_norm=ham,
            mom_norm=mom,
        )
        self.records.append(record)
        return record


@dataclass(frozen=True)
class MonitorConfig:
    """Continuation-monitor thresholds over a CMC window [t0, t_star)."""

    lambda_threshold: float
    t0: float
    t_star: float
    growth_factor: float = 100.0
    # energies below the floor are scheme noise, not growth; discrete
    # runs of exactly-flat data land near 1e-14, so the floor sits above
    e_br_floor: float = 1e-12

    def __post_init__(self):
        if not self.lambda_threshold > 1.0:
            raise ValidationError(
                f"lambda_threshold must exceed 1, got {self.lambda_threshold!r}"
            )
        if not (self.t0 < self.t_star < 0.0):
            raise ValidationError(
                f"need t0 < t_star < 0, got t0 = {self.t0!r}, t_star = {self.t_star!r}"
            )
        if not self.growth_factor > 1.0:
            raise ValidationError(
                f"growth_factor must exceed 1, got {self.growth_factor!r}"
            )
        if not (np.isfinite(self.e_br_floor) and self.e_br_floor >= 0.0):
            raise ValidationError(f"e_br_floor must be finite and >= 0, got {self.e_br_floor!r}")


@dataclass(frozen=True)
class MonitorVerdict:
    """Per-record bound checks plus the aggregate continuation flags."""

    energy_bound_holds: tuple[bool, ...]
    ratio_bound_holds: tuple[bool, ...]
    criterion_energy_blowup: bool
    criterion_ratio_blowup: bool
    theorem_tension: bool

    @property
    def clean(self) -> bool:
        return not (
            self.criterion_energy_blowup
            or self.criterion_ratio_blowup
            or self.theorem_tension
        )


def continuation_monitor(records, config: MonitorConfig) -> MonitorVerdict:
    """Check the two continuation bounds on records inside the window."""
    window = [r for r in records if config.t0 <= r.t < config.t_star]
    if not window:
        raise EmptyHistory(
            f"no records with t in [{config.t0!r}, {config.t_star!r})"
        )
    lam = config.lambda_threshold
    energy_ok = tuple(r.e_br_spacetime <= lam for r in window)
    ratio_ok = tuple(r.k_ratio * r.k_ratio <= lam for r in window)
    both_hold = all(energy_ok) and all(ratio_ok)
    e_first = max(window[0].e_br, config.e_br_floor)
    e_max = max(r.e_br for r in window)
    tension = both_hold and e_max > config.growth_factor * e_first
    return MonitorVerdict(
        energy_bound_holds=energy_ok,
        ratio_bound_holds=ratio_ok,
        criterion_energy_blowup=not all(energy_ok),
        criterion_ratio_blowup=not all(ratio_ok),
        theorem_tension=tension,
    )


def emit_records(records, sink) -> None:
    """Write records as delimited text, one row per record.

    Floats are written with repr, which round-trips bitwise.  sink may be
    a path or an open text stream.
    """
    lines = [",".join(RECORD_COLUMNS)]
    lines.extend(r.as_row() for r in records)
    text = "\n".join(lines) + "\n"
    try:
        if isinstance(sink, (str, os.PathLike)):
            with open(sink, "w") as handle:
                handle.write(text)
        else:
            sink.write(text)
    except OSError as exc:
        raise SinkError(f"failed to write diagnostics: {exc}") from exc


def parse_records(source) -> list[DiagnosticsRecord]:
    """Inverse of emit_records (source: a path, stream or text); ParseError on a non-finite cell."""
    if isinstance(source, (str, os.PathLike)) and not (
        isinstance(source, str) and "\n" in source
    ):
        try:
            with open(source) as handle:
                text = handle.read()
        except OSError as exc:
            raise SinkError(f"failed to read diagnostics: {exc}") from exc
    elif isinstance(source, io.TextIOBase):
        text = source.read()
    else:
        text = str(source)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty diagnostics table")
    header = tuple(lines[0].split(","))
    if header != RECORD_COLUMNS:
        raise ParseError(f"unexpected header {header!r}", line=1)
    records = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(RECORD_COLUMNS):
            raise ParseError(
                f"expected {len(RECORD_COLUMNS)} columns, got {len(cells)}",
                line=number,
            )
        try:
            values = [float(cell) for cell in cells]
        except ValueError as exc:
            raise ParseError(str(exc), line=number) from exc
        if not np.all(np.isfinite(values)):
            raise ParseError(f"non-finite cell in {line!r}", line=number)
        records.append(DiagnosticsRecord(*values))
    return records
