"""Command-line entry point: verify, evolve, oracle, rescale-test.

Usage: cmclab <command> [--config PATH] [--output PATH] [--grid N]
[--seed S].  Flags override the corresponding config keys.  Failures exit
nonzero after printing a machine-readable "ERROR <Type>: <message>" line
to stderr; check commands print one PASS/FAIL line per check and exit 0
only when everything passed.  An evolve run that fails part way writes
the records it collected before the error, then prints that line.
Identical config and seed give bitwise identical output files.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import replace

from . import kasner
from .checks import identity_checks, rescale_battery
from .config import COMMANDS, RunConfig, parse_config
from .diagnostics import DiagnosticsCollector, emit_records
from .errors import CmcLabError
from .evolution import evolve_states, kasner_initial_data, perturb
from .grid import GridSpec
from .snapshot import save_state

__all__ = ["main", "run", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the cmclab command: a command and the override flags."""
    parser = argparse.ArgumentParser(
        prog="cmclab",
        description="Vacuum CMC slice laboratory: Bel-Robinson energy "
        "diagnostics on periodic grids.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a key = value run configuration")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--grid", type=int, help="override points per axis")
    parser.add_argument("--seed", type=int, help="override the random seed")
    return parser


# (flag, key): each flag given on the command line overrides its config key.
_OVERRIDES = (("command", "command"), ("output", "output_path"), ("grid", "grid_n"), ("seed", "seed"))


def load_config(args: argparse.Namespace) -> RunConfig:
    """The --config file's RunConfig (defaults without one), with each given flag applied."""
    if args.config:
        with open(args.config) as handle:
            config = parse_config(handle.read())
    else:
        config = RunConfig(command=args.command)
    overrides = {key: value for flag, key in _OVERRIDES
                 if (value := getattr(args, flag)) is not None}
    return replace(config, **overrides)


def _deliver(text: str, config: RunConfig) -> None:
    if config.output_path:
        with open(config.output_path, "w") as handle:
            handle.write(text)
        print(f"wrote {config.output_path}")
    else:
        sys.stdout.write(text)


def _run_checks(config: RunConfig) -> int:
    if config.command == "verify":
        results = identity_checks(config.grid_n, config.seed, config.solver_tol)
    else:
        results = rescale_battery(config.grid_n, config.seed)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if config.output_path:
        with open(config.output_path, "w") as handle:
            handle.write(text)
    return 0 if all(r.passed for r in results) else 1


def _run_oracle(config: RunConfig) -> int:
    p = config.kasner
    volume = config.period**3
    times = config.times or (config.t0, config.t_end)
    lines = [
        "# analytic kasner values, exponents = "
        + ", ".join(repr(q) for q in p.exponents),
        f"decay_exponent = {kasner.DECAY_EXPONENT!r}",
        f"energy_coefficient = {p.energy_coefficient!r}",
    ]
    for t in times:
        tau = kasner.tau_of_t(t)
        lines.append(f"t = {t!r}")
        lines.append(f"tau = {tau!r}")
        lines.append(
            "g_diag = " + ", ".join(repr(float(v)) for v in kasner.metric_diagonal(p, tau))
        )
        lines.append(
            "K_diag = "
            + ", ".join(repr(float(v)) for v in kasner.second_form_diagonal(p, tau))
        )
        lines.append(f"N = {kasner.lapse(tau)!r}")
        lines.append(
            "E_diag = " + ", ".join(repr(float(v)) for v in kasner.electric_diagonal(p, tau))
        )
        lines.append(f"e_br_density = {kasner.electric_density(p, tau)!r}")
        lines.append(f"e_br = {kasner.br_energy(p, t, volume)!r}")
        lines.append(f"e_br_rate = {kasner.br_energy_rate(p, t, volume)!r}")
    _deliver("\n".join(lines) + "\n", config)
    return 0


def _run_evolve(config: RunConfig) -> int:
    """Evolve and deliver the records; on any error, deliver those collected, then re-raise."""
    grid = GridSpec.cubic(config.grid_n, config.period)
    state = kasner_initial_data(config.kasner, config.t0, grid)
    if config.perturb_amplitude > 0.0:
        state, _ = perturb(
            state, config.perturb_amplitude, config.seed, config.solver_tol
        )
    collector = DiagnosticsCollector()
    try:
        collector.add(state)
        last = state
        for index, last in enumerate(
            evolve_states(
                state,
                config.t_end,
                dt=config.dt,
                cfl=config.cfl,
                solver_tol=config.solver_tol,
                trace_correction=config.trace_correction,
            ),
            start=1,
        ):
            if index % config.cadence == 0:
                collector.add(last)
        if collector.records[-1].t != last.t:
            collector.add(last)
        if config.snapshot_path:
            save_state(last, config.snapshot_path)
    finally:
        buffer = io.StringIO()
        emit_records(collector.records, buffer)
        _deliver(buffer.getvalue(), config)
    return 0


def run(config: RunConfig) -> int:
    """Run the command config names and return its exit status."""
    if config.command in ("verify", "rescale-test"):
        return _run_checks(config)
    if config.command == "oracle":
        return _run_oracle(config)
    return _run_evolve(config)


def main(argv=None) -> int:
    """Parse argv, run the command and return the exit status; package errors exit 1."""
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        return run(config)
    except (CmcLabError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
