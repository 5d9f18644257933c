"""Oracle gates for the benchmark's outputs.

Each gate compares an output of the code under test with an expectation
that does not come from that code: the closed-form Kasner values of
``cmclab.kasner`` (plain arithmetic on the exponents), the maximum-
principle lapse bounds, or the bits of the value that went in.  A gate
returns a Check; the benchmark counts a failed check in ``failed``.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import NamedTuple

from cmclab import kasner
from cmclab.errors import BoundViolation
from cmclab.lapse import check_lapse_bounds


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def relative(name: str, value: float, expected: float, tol: float) -> Check:
    deviation = abs(value / expected - 1.0)
    return Check(name, bool(deviation <= tol), f"rel {deviation:.2e} (tol {tol:.0e})")


def energy(value: float, params, t: float, volume: float, tol: float) -> Check:
    return relative("e_br", value, kasner.br_energy(params, t, volume), tol)


def flux(value: float, params, t: float, volume: float, tol: float) -> Check:
    return relative("flux", value, kasner.br_energy_rate(params, t, volume), tol)


def decay(e0: float, e1: float, params, t0: float, t1: float, tol: float) -> Check:
    """Energy ratio between two slices against the closed-form |t|^3 law."""
    expected = kasner.br_energy(params, t1, 1.0) / kasner.br_energy(params, t0, 1.0)
    return relative("e_br_decay", e1 / e0, expected, tol)


def lapse_bounds(state) -> Check:
    try:
        low, high = check_lapse_bounds(state.N, state.K, state.g)
    except BoundViolation as exc:
        return Check("lapse_bounds", False, str(exc))
    return Check("lapse_bounds", True, f"margins {low:.2e}, {high:.2e}")


def _state_bytes(state) -> tuple:
    return (float(state.t).hex(), state.g.values.tobytes(), state.K.values.tobytes(),
            state.N.values.tobytes())


def same_state(name: str, a, b) -> Check:
    ok = _state_bytes(a) == _state_bytes(b)
    return Check(name, ok, "bitwise equal" if ok else "states differ")


def _record_bits(record) -> tuple:
    return tuple(float(getattr(record, f.name)).hex() for f in fields(record))


def same_records(name: str, a, b) -> Check:
    ok = len(a) == len(b) and all(_record_bits(x) == _record_bits(y) for x, y in zip(a, b))
    return Check(name, ok, "bitwise equal" if ok else "records differ")


def rows_text(rows) -> str:
    """Delimited text of float rows, written with repr so it round-trips."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
