"""Flat key = value run configuration with strict validation.

One key per line, each the name of a RunConfig field; `#` starts a
comment; unknown and duplicate keys are rejected with the offending line
number.  A key's type is its RunConfig annotation, the one declaration
of a run setting: the type picks the reader of the value text (ints,
floats, flags true/yes/on/1 or false/no/off/0, kasner as three
comma-separated exponents, times as comma-separated floats, an empty
path as unset) and the writer serialize_config uses.  Validation
failures name the violated invariant.  serialize_config emits a file
that parses back to an equal RunConfig (floats via repr, hence bitwise),
and raises ValidationError for a string value no config line can carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .errors import InvalidKasner, ParseError, ValidationError
from .evolution import DEFAULT_CFL
from .grid import MIN_POINTS_PER_AXIS
from .kasner import AXIAL, KasnerParams
from .lapse import DEFAULT_TOL

__all__ = ["RunConfig", "COMMANDS", "parse_config", "serialize_config"]

COMMANDS = ("verify", "evolve", "oracle", "rescale-test")


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI run; each config key is a field's name.

    A field's annotation is its key's type, which picks how a config line
    is read and written; it must be a type in config's reader table.

    dt fixes the step size directly; when dt is absent the step is chosen
    per slice from the cfl fraction.  times is the slice list for the
    oracle command (empty means t0 and t_end).  Every field is read by
    some command.  There is no continuation threshold lambda: evolve only
    writes the records, and continuation_monitor checks them against its
    MonitorConfig.lambda_threshold.
    """

    command: str
    grid_n: int = 16
    period: float = 1.0
    kasner: KasnerParams = AXIAL
    t0: float = -1.0
    t_end: float = -0.5
    dt: float | None = None
    cfl: float = DEFAULT_CFL
    perturb_amplitude: float = 0.0
    seed: int = 0
    output_path: str | None = None
    trace_correction: bool = False
    solver_tol: float = DEFAULT_TOL
    cadence: int = 1
    times: tuple[float, ...] = ()
    snapshot_path: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(
                f"command must be one of {', '.join(COMMANDS)}, got {self.command!r}"
            )
        # NaN fails every comparison below silently, so test finiteness first.
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ValidationError(f"{f.name} must be finite, got {value!r}")
        if self.grid_n < MIN_POINTS_PER_AXIS:
            raise ValidationError(
                f"grid_n must be at least {MIN_POINTS_PER_AXIS}, got {self.grid_n!r}"
            )
        if not self.period > 0.0:
            raise ValidationError(f"period must be positive, got {self.period!r}")
        if not (self.t0 < 0.0 and self.t_end < 0.0):
            raise ValidationError(
                f"t0 and t_end must be negative, got {self.t0!r}, {self.t_end!r}"
            )
        if self.t0 == self.t_end:
            raise ValidationError(f"t0 and t_end coincide at {self.t0!r}")
        if self.dt is not None and (self.dt == 0.0 or (self.dt > 0) != (self.t_end > self.t0)):
            raise ValidationError(
                f"dt = {self.dt!r} does not point from t0 = {self.t0!r} "
                f"to t_end = {self.t_end!r}"
            )
        if not self.cfl > 0.0:
            raise ValidationError(f"cfl must be positive, got {self.cfl!r}")
        if self.perturb_amplitude < 0.0:
            raise ValidationError(
                f"perturb_amplitude must be nonnegative, got {self.perturb_amplitude!r}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed!r}")
        if not self.solver_tol > 0.0:
            raise ValidationError(
                f"solver_tol must be positive, got {self.solver_tol!r}"
            )
        if self.cadence < 1:
            raise ValidationError(f"cadence must be at least 1, got {self.cadence!r}")
        if any(t >= 0.0 for t in self.times):
            raise ValidationError(f"times must all be negative, got {self.times!r}")


_TRUE, _FALSE = ("true", "yes", "on", "1"), ("false", "no", "off", "0")


def _flag(raw: str) -> bool:
    if raw.lower() not in _TRUE + _FALSE:
        raise ValueError(f"not a flag value: {raw!r}")
    return raw.lower() in _TRUE


def _exponents(raw: str) -> tuple[float, ...]:
    # parse_config builds the KasnerParams once every line has parsed
    parts = tuple(float(p) for p in raw.split(","))
    if len(parts) != 3:
        raise ValueError(f"kasner needs three exponents, got {len(parts)}")
    return parts


# A key's type is its RunConfig annotation.  Each type has one reader
# (text to value) and one writer (value to text; str when absent here).
_TYPES = get_type_hints(RunConfig)
_READERS = {
    int: int, float: float, float | None: float, str: str,
    str | None: lambda raw: raw or None, bool: _flag, KasnerParams: _exponents,
    tuple[float, ...]: lambda raw: tuple(float(p) for p in raw.split(",")) if raw else (),
}
_WRITERS = {
    float: repr, float | None: repr, bool: lambda value: "true" if value else "false",
    KasnerParams: lambda p: ", ".join(map(repr, p.exponents)),
    tuple[float, ...]: lambda values: ", ".join(map(repr, values)),
}


def parse_config(text: str) -> RunConfig:
    """Parse key = value text into a validated RunConfig."""
    assignments = {}
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {raw_line.strip()!r}", line=number)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _TYPES:
            raise ParseError(f"unknown key {key!r}", line=number)
        if key in assignments:
            raise ParseError(f"duplicate key {key!r}", line=number)
        try:
            assignments[key] = _READERS[_TYPES[key]](raw)
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", line=number) from exc
    if "command" not in assignments:
        raise ParseError("missing required key 'command'")
    if "kasner" in assignments:
        try:
            assignments["kasner"] = KasnerParams(*assignments["kasner"])
        except InvalidKasner as exc:
            raise ValidationError(str(exc)) from exc
    return RunConfig(**assignments)


def _fits_one_line(text: str) -> bool:
    """Whether parse_config reads `key = text` back as the nonempty value text."""
    return bool(text) and text == text.strip() and "#" not in text and len(text.splitlines()) == 1


def serialize_config(config: RunConfig) -> str:
    """Emit text that parse_config maps back to an equal RunConfig.

    Raises ValidationError, naming the key, for a string value that a
    key = value line cannot carry: empty, with surrounding whitespace, a
    `#` (comment start) or a line break.
    """
    lines = []
    for key, kind in _TYPES.items():
        value = getattr(config, key)
        if value is None or value == ():  # an unset optional: its default
            continue
        if isinstance(value, str) and not _fits_one_line(value):
            raise ValidationError(f"{key} = {value!r} cannot be written as a config line")
        lines.append(f"{key} = {_WRITERS.get(kind, str)(value)}")
    return "\n".join(lines) + "\n"
