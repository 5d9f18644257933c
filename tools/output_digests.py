"""Digests of everything a same-behaviour check compares between two trees.

    python3 tools/output_digests.py [ROOT]

Prints one `<artifact> <sha256>` line per artifact of the cmclab tree at
ROOT (default: this checkout), so that two trees behave the same when
their outputs diff empty:

    python3 tools/output_digests.py OTHER > a.txt
    python3 tools/output_digests.py > b.txt
    diff a.txt b.txt

The artifacts are
- the records digest of each BENCHMARK.json workload at seeds 7 and 11,
  from `perfbench/run.py --seconds 0` run in ROOT (which writes only the
  gitignored .perfbench_out/ there);
- the standard output of each script in demos/, and of `cmclab verify`,
  `cmclab rescale-test` and `cmclab oracle`;
- each file written by `cmclab evolve` with the README's example config,
  and with an 8^3 CFL-step config (grid_n = 8, t_end = -0.9, dt omitted);
- the standard error of `cmclab verify --grid 4`, a refused grid.

Each command runs on ROOT/src with no bytecode and one BLAS thread; all
but perfbench run in a new temporary directory.  The tool exits 1, after
printing every line, if a command other than the refused grid exits
nonzero, or that one exits 0.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SEEDS = (7, 11)
CFL_CONFIG = "command = evolve\ngrid_n = 8\nt_end = -0.9\n"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env(root: pathlib.Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(args, cwd, env, expect_ok=True):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)
    if (proc.returncode == 0) != expect_ok:
        print(f"output_digests: {' '.join(map(str, args))} exited {proc.returncode}\n"
              f"{proc.stderr.decode(errors='replace')}", file=sys.stderr)
    return proc, (proc.returncode == 0) == expect_ok


def _cli(*args):
    return ["-m", "cmclab.cli", *args]


def digests(root: pathlib.Path):
    """Yield (artifact, sha256 or None) for the tree at root; None marks a failed command."""
    env = _env(root)
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    for name in workloads:
        for seed in SEEDS:
            proc, ok = _run([root / "perfbench" / "run.py", "--workload", name,
                             "--seed", str(seed), "--seconds", "0"], root, env)
            found = [line.split()[1].partition("=")[2] for line in proc.stdout.decode().splitlines()
                     if line.startswith("records sha256=")]
            yield f"perfbench/{name}/seed{seed}", found[0] if ok and found else None

    readme = (root / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    commands = [(f"demos/{demo.name}", [demo], "stdout", None, True)
                for demo in sorted((root / "demos").glob("*.py"))]
    commands += [(f"cmclab {c}", _cli(c), "stdout", None, True)
                 for c in ("verify", "rescale-test", "oracle")]
    commands += [("cmclab verify --grid 4", _cli("verify", "--grid", "4"), "stderr", None, False)]
    commands += [(f"cmclab evolve {label}", _cli("evolve", "--config", "run.cfg", "--output",
                                                 "run.csv"), "files", text, True)
                 for label, text in (("readme-example", example), ("cfl-8", CFL_CONFIG))]
    for artifact, args, kind, config, expect_ok in commands:
        with tempfile.TemporaryDirectory() as tmp:
            cwd = pathlib.Path(tmp)
            if config is not None:
                (cwd / "run.cfg").write_text(config)
            proc, ok = _run(args, cwd, env, expect_ok)
            if not ok:
                yield artifact, None
            elif kind != "files":
                yield artifact, _sha(getattr(proc, kind))
            else:
                for path in sorted(cwd.rglob("*")):
                    if path.is_file() and path.name != "run.cfg":
                        yield f"{artifact} {path.relative_to(cwd)}", _sha(path.read_bytes())


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(argv[0] if argv else pathlib.Path(__file__).resolve().parent.parent)
    failed = False
    for artifact, digest in digests(root.resolve()):
        print(f"{artifact} {digest or 'FAILED'}", flush=True)
        failed |= digest is None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
