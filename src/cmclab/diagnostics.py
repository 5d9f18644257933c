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

The Bel-Robinson scalars of a slice (e_br, the lapse-weighted density,
the flux, r_c and sup |grad N|_g) are derived together, once per
SliceState object, by whichever reader comes first: br_energy, br_flux,
curvature_radius, spacetime_br_energy, gradient_lapse_estimate_check or
DiagnosticsCollector.add, which lends the Metric and SecondForm it also
reads for the other columns.  The rest read them back.  A state's arrays
are read-only, so the object identifies its values, and the memo is
keyed weakly on it: it holds five floats per live state and dies with
the state.  No array derived from a slice is kept between calls.  A
one-entry cache that kept the last slice's Metric, SecondForm and q for
the next reader made the 16^3 Kasner benchmark 34% faster but raised its
peak RSS from 46.5 to 49.6 MB, and that of the 32^3 warped diagnostics
sweep from 90.5 to 107.7 MB.
"""

from __future__ import annotations

import io
import os
import weakref
from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyHistory, ParseError, SinkError, ValidationError
from .geometry import BRComponents, br_components, constraint_norms, weyl_parts
from .grid import (Metric, ScalarField, SecondForm, _vector_dot, as_second_form, integrate,
                   sup_norm)
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


@dataclass(frozen=True)
class _BRScalars:
    """The Bel-Robinson scalars of one slice, as Python floats."""

    e_br: float
    density: float  # integral of N q_tttt, the spacetime energy's integrand
    flux: float
    r_c: float
    grad_n_sup: float


_BR_SCALARS: weakref.WeakKeyDictionary[SliceState, _BRScalars] = weakref.WeakKeyDictionary()


def _trapezoid(t0: float, d0: float, t1: float, d1: float) -> float:
    """One trapezoid of the spacetime energy, in |dt|."""
    return 0.5 * (d1 + d0) * abs(t1 - t0)


def _radius(g: Metric, q: BRComponents) -> float:
    peak = float(np.sqrt(np.max(q.q_tttt.values)))
    cap = 0.5 * min(
        period * float(np.sqrt(np.min(g.values[..., idx])))
        for period, idx in zip(g.grid.periods, (0, 3, 5))
    )
    return cap if peak == 0.0 else min(cap, peak ** -0.5)


def _br_scalars(state: SliceState, K: SecondForm | None = None) -> _BRScalars:
    """The slice's BR scalars, derived on first call for this state object.

    K, when given, is a SecondForm over the state's K values and a Metric
    over its g values, lent by a caller that reads them for more.
    """
    scalars = _BR_SCALARS.get(state)
    if scalars is not None:
        return scalars
    if K is None:
        K = as_second_form(state.K, state.g)
    g, N = K.metric, state.N
    weyl = weyl_parts(g, K)
    q = br_components(weyl.E, weyl.B, g)
    del weyl  # free E and B before the flux integrand is built
    dn = gradient(N)
    pressure = -N.values * inner(q.q_abtt, K, g).values
    momentum = _vector_dot(g.inv, q.q_attt.values, dn.values)
    scalars = _BRScalars(
        e_br=integrate(q.q_tttt, g),
        density=integrate(ScalarField(g.grid, N.values * q.q_tttt.values), g),
        flux=-3.0 * integrate(ScalarField(g.grid, pressure + momentum), g),
        r_c=_radius(g, q),
        grad_n_sup=sup_norm(dn, g),
    )
    _BR_SCALARS[state] = scalars
    return scalars


def br_energy(state: SliceState) -> float:
    """Slice Bel-Robinson energy, the volume integral of |E|^2 + |B|^2."""
    return _br_scalars(state).e_br


def spacetime_br_energy(states) -> float:
    """Trapezoidal time integral of the lapse-weighted slice energy.

    The quadrature uses |dt|, so histories running toward -infinity
    accumulate positively too.  A single slice integrates to zero.
    """
    states = list(states)
    if not states:
        raise EmptyHistory("spacetime energy needs at least one slice")
    densities = [_br_scalars(s).density for s in states]
    total = 0.0
    for s0, s1, d0, d1 in zip(states, states[1:], densities, densities[1:]):
        total += _trapezoid(s0.t, d0, s1.t, d1)
    return total


def br_flux(state: SliceState) -> float:
    """Gauss-law value of d/dt of the slice energy.

    flux = -3 integral( -N <q_abtt, K> + <q_attt, grad N> ) d mu_g.
    """
    return _br_scalars(state).flux


def curvature_radius(state: SliceState) -> float:
    """Inverse square root of the curvature sup, capped at the torus scale.

    The cap is half the shortest metric period, min_i(L_i min_x
    sqrt(g_ii)) / 2, so it transforms as a length under rescaling just
    like the uncapped value; identically flat slices return the cap.
    """
    return _br_scalars(state).r_c


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
    scalars = _br_scalars(state)
    r_c = scalars.r_c
    lhs = r_c * scalars.grad_n_sup
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
        K = as_second_form(state.K, state.g)
        g = K.metric
        scalars = _br_scalars(state, K)
        if self._prev_t is not None:
            self._accumulated += _trapezoid(self._prev_t, self._prev_density, state.t,
                                            scalars.density)
        self._prev_t = state.t
        self._prev_density = scalars.density
        self._r_c_run = min(self._r_c_run, scalars.r_c)
        low, high = lapse_bound_margins(N, K, g)
        ham, mom = constraint_norms(g, K)
        record = DiagnosticsRecord(
            t=state.t,
            e_br=scalars.e_br,
            e_br_spacetime=self._accumulated,
            k_ratio=sup_norm(K, g) / abs(state.t),
            r_c=scalars.r_c,
            r_c_run=self._r_c_run,
            lapse_margin_low=low,
            lapse_margin_high=high,
            grad_n_sup=scalars.grad_n_sup,
            flux=scalars.flux,
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
