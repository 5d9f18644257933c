"""Flat key = value run configuration with strict validation.

One key per line, `#` starts a comment, unknown and duplicate keys are
rejected with the offending line number.  Validation failures name the
violated invariant.  serialize_config emits a file that parses back to an
equal RunConfig (floats via repr, hence bitwise), and raises
ValidationError for a string value no config line can carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidKasner, ParseError, ValidationError
from .grid import MIN_POINTS_PER_AXIS
from .kasner import AXIAL, KasnerParams

__all__ = ["RunConfig", "COMMANDS", "parse_config", "serialize_config"]

COMMANDS = ("verify", "evolve", "oracle", "rescale-test")


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI run.

    dt fixes the step size directly; when dt is absent the step is chosen
    per slice from the cfl fraction.  times is the slice list for the
    oracle command (empty means t0 and t_end).
    """

    command: str
    grid_n: int = 16
    period: float = 1.0
    kasner: KasnerParams = AXIAL
    t0: float = -1.0
    t_end: float = -0.5
    dt: float | None = None
    cfl: float = 0.25
    perturb_amplitude: float = 0.0
    seed: int = 0
    lambda_threshold: float = 10.0
    output_path: str | None = None
    trace_correction: bool = False
    solver_tol: float = 1e-10
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
                raise ValidationError(
                    f"{_FIELD_TO_KEY[f.name]} must be finite, got {value!r}"
                )
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
        if not self.lambda_threshold > 1.0:
            raise ValidationError(
                f"lambda must exceed 1, got {self.lambda_threshold!r}"
            )
        if not self.solver_tol > 0.0:
            raise ValidationError(
                f"solver_tol must be positive, got {self.solver_tol!r}"
            )
        if self.cadence < 1:
            raise ValidationError(f"cadence must be at least 1, got {self.cadence!r}")
        if any(t >= 0.0 for t in self.times):
            raise ValidationError(f"times must all be negative, got {self.times!r}")


# config key -> RunConfig field (identical except for the keyword clash)
_KEY_TO_FIELD = {f.name: f.name for f in fields(RunConfig)}
_KEY_TO_FIELD["lambda"] = "lambda_threshold"
del _KEY_TO_FIELD["lambda_threshold"]
_FIELD_TO_KEY = {field: key for key, field in _KEY_TO_FIELD.items()}

_TRUE = ("true", "yes", "on", "1")
_FALSE = ("false", "no", "off", "0")


def _parse_value(key: str, raw: str, line: int):
    try:
        if key in ("grid_n", "seed", "cadence"):
            return int(raw)
        if key == "command":
            return raw
        if key in ("output_path", "snapshot_path"):
            return raw or None
        if key == "trace_correction":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a flag value: {raw!r}")
        if key == "kasner":
            parts = [float(p) for p in raw.split(",")]
            if len(parts) != 3:
                raise ValueError(f"kasner needs three exponents, got {len(parts)}")
            return tuple(parts)
        if key == "times":
            return tuple(float(p) for p in raw.split(",")) if raw else ()
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"bad value for {key}: {exc}", line=line) from exc


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
        if key not in _KEY_TO_FIELD:
            raise ParseError(f"unknown key {key!r}", line=number)
        if key in assignments:
            raise ParseError(f"duplicate key {key!r}", line=number)
        assignments[key] = _parse_value(key, raw, number)
    if "command" not in assignments:
        raise ParseError("missing required key 'command'")
    kwargs = {_KEY_TO_FIELD[k]: v for k, v in assignments.items()}
    if "kasner" in kwargs:
        try:
            kwargs["kasner"] = KasnerParams(*kwargs["kasner"])
        except InvalidKasner as exc:
            raise ValidationError(str(exc)) from exc
    return RunConfig(**kwargs)


def _format_value(field_name: str, value) -> str:
    if field_name == "kasner":
        return ", ".join(repr(p) for p in value.exponents)
    if field_name == "times":
        return ", ".join(repr(t) for t in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


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
    for f in fields(RunConfig):
        key, value = _FIELD_TO_KEY[f.name], getattr(config, f.name)
        if value is None and f.name in ("dt", "output_path", "snapshot_path"):
            continue
        if f.name == "times" and not value:
            continue
        if isinstance(value, str) and not _fits_one_line(value):
            raise ValidationError(f"{key} = {value!r} cannot be written as a config line")
        lines.append(f"{key} = {_format_value(f.name, value)}")
    return "\n".join(lines) + "\n"
