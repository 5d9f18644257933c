"""Command-line behavior: output formats, overrides, error paths."""

import re

import numpy as np
import pytest

from cmclab import (AXIAL, DiagnosticsCollector, GridSpec, SliceState, emit_records,
                    kasner_initial_data, load_state, parse_records, perturb, time_step)
from cmclab import cli, evolution, kasner
from cmclab.cli import build_parser, load_config, main


def _main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["launch"])
    assert err.value.code == 2


def test_flag_overrides_win_over_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = verify\ngrid_n = 16\nseed = 1\nperiod = 2.0\noutput_path = a.csv\n")
    args = build_parser().parse_args(
        ["evolve", "--config", str(cfg), "--grid", "8", "--seed", "9", "--output", "b.csv"])
    config = load_config(args)
    assert config.command == "evolve"  # positional wins
    assert config.grid_n == 8
    assert config.seed == 9
    assert config.output_path == "b.csv"
    assert config.period == 2.0  # a key no flag names keeps the config's value


def test_verify_prints_pass_lines(capsys):
    code, out, err = _main(capsys, "verify", "--grid", "8")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) >= 10
    assert all(l.startswith("PASS ") for l in lines)


def test_oracle_reports_decay_law(capsys, tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text("command = oracle\ntimes = -1.0, -0.5\n")
    code, out, err = _main(capsys, "oracle", "--config", str(cfg))
    assert code == 0
    values = {}
    for line in out.splitlines():
        if line.startswith("e_br = "):
            values.setdefault("e_br", []).append(float(line.split("=")[1]))
    # axial default: E_BR(t) = (8/27) |t|^3, so the ratio across the two
    # times is (1.0/0.5)^3 = 8
    assert values["e_br"][0] / values["e_br"][1] == pytest.approx(8.0, rel=1e-12)
    assert f"energy_coefficient = {repr(AXIAL.energy_coefficient)}" in out


def test_evolve_writes_parsable_deterministic_records(capsys, tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text(
        "command = evolve\ngrid_n = 8\nt0 = -1.0\nt_end = -0.95\n"
        "dt = 0.01\ncadence = 2\nsolver_tol = 1e-11\n"
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, out, _ = _main(capsys, "evolve", "--config", str(cfg),
                         "--output", str(out_a))
    assert code == 0
    assert f"wrote {out_a}" in out
    code, _, _ = _main(capsys, "evolve", "--config", str(cfg),
                       "--output", str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    records = parse_records(out_a)
    assert records[0].t == -1.0
    assert records[-1].t == pytest.approx(-0.95, abs=1e-14)
    # cadence 2 on 5 steps: slices at -1.0, -0.98, -0.96, -0.95
    assert len(records) == 4
    want = kasner.br_energy(AXIAL, -1.0, 1.0)
    assert records[0].e_br == pytest.approx(want, rel=1e-12)


def test_evolve_records_equal_a_loop_that_lends_nothing(capsys, tmp_path, monkeypatch):
    # each record of the head leaves its SecondForm and Metric for the next
    # step; fresh state objects are never the head, so the loop below
    # derives every stage-1 quantity itself
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "command = evolve\ngrid_n = 12\nt0 = -1.0\nt_end = -0.99\ndt = 0.004\n"
        "cadence = 1\nperturb_amplitude = 1e-3\nseed = 5\ntrace_correction = true\n"
    )
    taken, take = [], evolution._take_second_form

    def counted_take(state):
        lent = take(state)
        taken.append(lent is not None)
        return lent

    monkeypatch.setattr(evolution, "_take_second_form", counted_take)
    code, _, _ = _main(capsys, "evolve", "--config", str(cfg),
                       "--output", str(tmp_path / "cli.csv"))
    assert code == 0
    assert taken == [False, True, True]  # -1.0 -> -0.996 -> -0.992 -> -0.99

    def fresh(state):
        return SliceState(t=state.t, g=state.g, K=state.K, N=state.N)

    tol = 1e-10  # the RunConfig default
    state, _ = perturb(kasner_initial_data(AXIAL, -1.0, GridSpec.cubic(12)), 1e-3, 5, tol)
    collector = DiagnosticsCollector()
    collector.add(fresh(state))
    while state.t < -0.99:
        state = time_step(fresh(state), min(0.004, -0.99 - state.t), solver_tol=tol,
                          trace_correction=True)
        collector.add(fresh(state))
    buffer = tmp_path / "loop.csv"
    emit_records(collector.records, buffer)
    assert (tmp_path / "cli.csv").read_bytes() == buffer.read_bytes()
    assert len(collector.records) == 4


@pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
def test_evolve_delivers_the_records_collected_before_a_failure(capsys, tmp_path, monkeypatch,
                                                                to_file):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(
        "command = evolve\ngrid_n = 8\nt0 = -1.0\nt_end = -0.95\ndt = 0.01\ncadence = 1\n"
        "perturb_amplitude = 1e-3\nseed = 5\ntrace_correction = true\nsolver_tol = 1e-12\n"
    )
    complete = tmp_path / "complete.csv"
    assert _main(capsys, "evolve", "--config", str(cfg), "--output", str(complete))[0] == 0

    # after the first step every lapse solve gets a budget of 0 CG iterations,
    # so the second step's first solve diverges
    budget = {}
    solve, step = evolution.solve_lapse, evolution.time_step

    def starved_solve(*args, **kwargs):
        return solve(*args, max_iterations=budget.get("max_iterations"), **kwargs)

    def counted_step(*args, **kwargs):
        stepped = step(*args, **kwargs)
        budget["max_iterations"] = 0
        return stepped

    monkeypatch.setattr(evolution, "solve_lapse", starved_solve)
    monkeypatch.setattr(evolution, "time_step", counted_step)
    partial = tmp_path / "partial.csv"
    argv = ["evolve", "--config", str(cfg)] + (["--output", str(partial)] if to_file else [])
    code, out, err = _main(capsys, *argv)
    assert code == 1
    assert err.startswith("ERROR SolverDiverged:")
    text = partial.read_text() if to_file else out
    # the slice at t0 and the one after the first step, bitwise as a complete run wrote them
    assert [r.t for r in parse_records(text)] == [-1.0, pytest.approx(-0.99, abs=1e-14)]
    assert text.splitlines() == complete.read_text().splitlines()[:3]


def test_evolve_delivers_the_records_collected_before_any_other_error(tmp_path, monkeypatch):
    # an error from outside the package, a bug say, still leaves the records
    # collected so far in the output, then propagates
    def failing_states(state, t_end, **options):
        yield evolution.time_step(state, 0.01)
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "evolve_states", failing_states)
    out_path = tmp_path / "partial.csv"
    with pytest.raises(RuntimeError, match="injected"):
        main(["evolve", "--grid", "8", "--output", str(out_path)])
    text = out_path.read_text()
    assert text.startswith("t,e_br,") and len(text.splitlines()) == 3
    assert [r.t for r in parse_records(text)] == [-1.0, pytest.approx(-0.99, abs=1e-14)]


def test_evolve_error_names_a_cfl_time_as_a_plain_float(capsys, tmp_path):
    # without trace correction the perturbed slice's tr K drifts past
    # cmc_drift_tol on the first CFL step
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("command = evolve\ngrid_n = 16\nt0 = -1.0\nt_end = -0.9\n"
                   "perturb_amplitude = 1e-3\nseed = 7\n")
    out_path = tmp_path / "drift.csv"
    code, _, err = _main(capsys, "evolve", "--config", str(cfg), "--output", str(out_path))
    assert code == 1
    assert err.startswith("ERROR CmcDriftExceeded: tr K drifted ")
    assert "from t = -0.98438" in err and "np.float64(" not in err
    assert [r.t for r in parse_records(out_path.read_text())] == [-1.0]


def test_evolve_fails_at_the_lapse_floor_without_burning_the_budget(capsys, tmp_path):
    # at tol 1e-13 the first step's lapse stalls at its rounding floor; the
    # solve raises after a few dozen iterations, not the 1176 of its budget
    cfg = tmp_path / "floor.cfg"
    cfg.write_text(
        "command = evolve\ngrid_n = 24\nperturb_amplitude = 1e-3\nseed = 7\nt0 = -1.0\n"
        "t_end = -0.95\ndt = 0.005\ntrace_correction = true\nsolver_tol = 1e-13\n"
    )
    out_path = tmp_path / "floor.csv"
    code, _, err = _main(capsys, "evolve", "--config", str(cfg), "--output", str(out_path))
    assert code == 1
    match = re.fullmatch(r"ERROR SolverDiverged: lapse solve at \S+ after (\d+) iterations "
                         r"\(tol 1\.0e-13\), floor (\S+)", err.strip())
    assert match is not None and int(match[1]) <= 100 and float(match[2]) > 1e-13
    text = out_path.read_text()
    assert text.startswith("t,e_br,") and len(text.splitlines()) == 2
    assert [r.t for r in parse_records(text)] == [-1.0]


def test_evolve_snapshot_round_trip(capsys, tmp_path):
    cfg = tmp_path / "s.cfg"
    snap = tmp_path / "final.npz"
    cfg.write_text(
        "command = evolve\ngrid_n = 8\nt0 = -1.0\nt_end = -0.98\ndt = 0.01\n"
        f"snapshot_path = {snap}\n"
    )
    code, out, _ = _main(capsys, "evolve", "--config", str(cfg),
                         "--output", str(tmp_path / "r.csv"))
    assert code == 0
    state = load_state(snap)
    assert state.t == pytest.approx(-0.98, abs=1e-14)


def test_stdout_when_no_output_path(capsys, tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("command = evolve\ngrid_n = 8\nt0 = -1.0\nt_end = -0.99\n"
                   "dt = 0.01\n")
    code, out, _ = _main(capsys, "evolve", "--config", str(cfg))
    assert code == 0
    records = parse_records(out)
    assert len(records) == 2


def test_missing_config_file_reports_error(capsys):
    code, out, err = _main(capsys, "evolve", "--config", "/nonexistent.cfg")
    assert code == 1
    assert err.startswith("ERROR FileNotFoundError")


def test_config_parse_failure_reports_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command = evolve\nwhat even is this\n")
    code, out, err = _main(capsys, "evolve", "--config", str(cfg))
    assert code == 1
    assert err.startswith("ERROR ParseError")
    assert "line 2" in err


def test_validation_failure_reports_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command = evolve\ngrid_n = 4\n")
    code, out, err = _main(capsys, "evolve", "--config", str(cfg))
    assert code == 1
    assert err.startswith("ERROR ValidationError")


def test_evolve_refuses_a_dt_that_cannot_move_t0(capsys, tmp_path):
    cfg, out = tmp_path / "tiny.cfg", tmp_path / "records.csv"
    cfg.write_text("command = evolve\ngrid_n = 8\nt0 = -1.0\nt_end = -0.5\ndt = 1e-17\n"
                   f"output_path = {out}\n")
    code, stdout, err = _main(capsys, "evolve", "--config", str(cfg))
    assert code == 1 and stdout == ""
    assert err.splitlines() == [
        "ERROR ValidationError: dt = 1e-17 must move t0 = -1.0 and point toward t_end = -0.5"]
    assert not out.exists()


def test_module_is_runnable(tmp_path):
    import subprocess, sys
    proc = subprocess.run(
        [sys.executable, "-m", "cmclab.cli", "oracle"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "decay_exponent = 3.0" in proc.stdout
