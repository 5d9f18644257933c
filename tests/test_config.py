"""Run configuration parsing, validation, and round-trip."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cmclab import (
    AXIAL,
    FLAT,
    GENERIC,
    ParseError,
    RunConfig,
    ValidationError,
    parse_config,
    serialize_config,
)
from cmclab.config import COMMANDS

BASIC = """\
command = evolve
grid_n = 8
t0 = -1.0
t_end = -0.5
"""


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert cfg.command == "evolve" and cfg.seed == 7


def test_parse_minimal_config():
    cfg = parse_config(BASIC)
    assert cfg.command == "evolve"
    assert cfg.grid_n == 8
    assert cfg.t0 == -1.0 and cfg.t_end == -0.5
    # defaults fill in everything else
    assert cfg.kasner == AXIAL
    assert cfg.dt is None
    assert cfg.cadence == 1
    assert cfg.trace_correction is False


def test_parse_full_config():
    text = """\
# full sweep, inline comment styles
command = evolve   # trailing comment
grid_n = 12
period = 2.0
kasner = -0.2857142857142857, 0.42857142857142855, 0.8571428571428571
t0 = -1.0
t_end = -0.25
dt = 0.001
cfl = 0.3
perturb_amplitude = 1e-4
seed = 7
output_path = out.csv
trace_correction = true
solver_tol = 1e-11
cadence = 4
snapshot_path = final.npz
"""
    cfg = parse_config(text)
    assert cfg.kasner.exponents == pytest.approx(GENERIC.exponents)
    assert cfg.dt == 0.001
    assert cfg.output_path == "out.csv"
    assert cfg.trace_correction is True
    assert cfg.cadence == 4
    assert cfg.snapshot_path == "final.npz"


def test_times_list_for_oracle():
    cfg = parse_config("command = oracle\ntimes = -1.0, -0.5, -0.25\n")
    assert cfg.times == (-1.0, -0.5, -0.25)


def test_parse_errors_with_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("command = evolve\nnot a line\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_config("command = evolve\nbogus_key = 3\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_config("command = evolve\ngrid_n = 8\ngrid_n = 16\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_config("command = evolve\ngrid_n = eight\n")
    assert err.value.line == 2
    for line, reason in (
        ("dt = none", "could not convert string to float: 'none'"),
        ("times = -1, x", "could not convert string to float: ' x'"),
        ("kasner = 1, 0", "kasner needs three exponents, got 2"),
        ("t0 = minus", "could not convert string to float: 'minus'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_config(f"command = evolve\n{line}\n")
        assert err.value.line == 2
        assert str(err.value) == f"line 2: bad value for {line.split(' = ')[0]}: {reason}"
    with pytest.raises(ParseError):
        parse_config("grid_n = 8\n")  # command missing


def test_lambda_is_an_unknown_key():
    # the continuation threshold belongs to MonitorConfig; no command reads it
    with pytest.raises(ParseError, match="unknown key 'lambda'") as err:
        parse_config("command = evolve\nlambda = 5\n")
    assert err.value.line == 2
    assert "lambda" not in serialize_config(RunConfig(command="evolve"))


def test_bad_flag_value():
    with pytest.raises(ParseError):
        parse_config("command = evolve\ntrace_correction = maybe\n")


def test_kasner_validation_becomes_validation_error():
    with pytest.raises(ValidationError):
        parse_config("command = evolve\nkasner = 0.5, 0.5, 0.5\n")
    with pytest.raises(ValidationError):
        parse_config("command = evolve\nkasner = nan, 0.0, 0.0\n")


@pytest.mark.parametrize("key,value,excerpt", [
    ("command", "fly", "command"),
    ("grid_n", "4", "grid_n"),
    ("period", "-1.0", "period"),
    ("t0", "1.0", "negative"),
    ("t_end", "-1.0", "coincide"),
    ("dt", "-0.01", "point"),
    ("cfl", "0.0", "cfl"),
    ("perturb_amplitude", "-1e-4", "nonnegative"),
    ("seed", "-1", "seed"),
    ("solver_tol", "0.0", "solver_tol"),
    ("cadence", "0", "cadence"),
    ("times", "-1.0, 0.5", "times"),
])
def test_validation_names_the_invariant(key, value, excerpt):
    settings = {"command": "evolve", "grid_n": "8", "t0": "-1.0",
                "t_end": "-0.5"}
    settings[key] = value
    text = "".join(f"{k} = {v}\n" for k, v in settings.items())
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert excerpt in str(err.value)


def test_dt_sign_matches_collapse_direction():
    cfg = parse_config("command = evolve\nt0 = -1.0\nt_end = -2.0\ndt = -0.01\n")
    assert cfg.dt == -0.01
    with pytest.raises(ValidationError):
        parse_config("command = evolve\nt0 = -1.0\nt_end = -2.0\ndt = 0.01\n")


@pytest.mark.parametrize("key,overrides", [
    ("dt", {"t_end": -2.0, "dt": float("nan")}),
    ("dt", {"t_end": -2.0, "dt": float("-inf")}),
    ("perturb_amplitude", {"perturb_amplitude": float("nan")}),
    ("perturb_amplitude", {"perturb_amplitude": float("inf")}),
    ("times", {"times": (-1.0, float("nan"))}),
], ids=["dt-nan", "dt-neg-inf", "amplitude-nan", "amplitude-inf", "times-nan"])
def test_non_finite_values_are_rejected(key, overrides):
    with pytest.raises(ValidationError) as err:
        RunConfig(command="evolve", t0=-1.0, **overrides)
    assert key in str(err.value)
    assert "finite" in str(err.value)


@pytest.mark.parametrize("key,value", [
    ("grid_n", 16.5), ("seed", True), ("cadence", 2.0), ("times", [-1.0]),
    ("period", np.float64(2.0)), ("grid_n", np.int64(16)),
], ids=["grid_n-float", "seed-bool", "cadence-float", "times-list", "period-numpy",
        "grid_n-numpy"])
def test_values_must_have_their_annotated_type(key, value):
    # each breaks the serialize_config / parse_config round trip: the text is
    # refused, the config read back differs, or numpy's ValueError escapes
    with pytest.raises(ValidationError) as err:
        RunConfig(command="evolve", **{key: value})
    assert str(err.value).startswith(f"{key} must be ")


def test_serialize_round_trips_bitwise():
    cfg = parse_config(BASIC + "dt = 0.0030000000000000001\nseed = 3\n"
                       + "kasner = 1.0, 0.0, 0.0\n")
    assert parse_config(serialize_config(cfg)) == cfg
    # also through a second generation
    text = serialize_config(cfg)
    assert serialize_config(parse_config(text)) == text


def test_serialize_skips_unset_optionals():
    cfg = RunConfig(command="verify")
    text = serialize_config(cfg)
    assert "output_path" not in text
    assert "snapshot_path" not in text
    assert "dt" not in text.replace("dt = ", "") or "dt" not in text
    assert parse_config(text) == cfg


@pytest.mark.parametrize("path", ["runs/a#1.csv", " lead.csv", "trail.csv ", "a\nb.csv", ""])
def test_serialize_refuses_strings_a_line_cannot_carry(path):
    for key in ("output_path", "snapshot_path"):
        cfg = RunConfig(command="evolve", **{key: path})
        with pytest.raises(ValidationError) as err:
            serialize_config(cfg)
        assert key in str(err.value)


_NEG = st.floats(min_value=-1e6, max_value=-1e-6)
_POS = st.floats(min_value=1e-12, max_value=1e6)
_PATHS = st.one_of(st.none(), st.text(max_size=12))


@st.composite
def _run_configs(draw):
    t0, t_end = draw(_NEG), draw(_NEG)
    if t_end == t0:
        t_end = t0 / 2.0
    dt = draw(st.one_of(st.none(), _POS))
    if dt is not None and t_end < t0:
        dt = -dt  # toward t_end
    assume(dt is None or t0 + dt != t0)  # RunConfig refuses a dt that cannot move t0
    return RunConfig(
        command=draw(st.sampled_from(COMMANDS)),
        grid_n=draw(st.integers(8, 256)),
        period=draw(_POS),
        kasner=draw(st.sampled_from((AXIAL, GENERIC, FLAT))),
        t0=t0,
        t_end=t_end,
        dt=dt,
        cfl=draw(_POS),
        perturb_amplitude=draw(st.floats(min_value=0.0, max_value=1.0)),
        seed=draw(st.integers(0, 2**63)),
        output_path=draw(_PATHS),
        trace_correction=draw(st.booleans()),
        solver_tol=draw(_POS),
        cadence=draw(st.integers(1, 1000)),
        times=tuple(draw(st.lists(_NEG, max_size=4))),
        snapshot_path=draw(_PATHS),
    )


@settings(database=None, derandomize=True, max_examples=300)
@given(_run_configs())
def test_serialize_round_trips_or_names_the_key(cfg):
    try:
        text = serialize_config(cfg)
    except ValidationError as err:
        assert "_path = " in str(err)  # only a path string can be refused
        return
    assert parse_config(text) == cfg
