"""cmclab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 30] [--trace 0|1]

Run from the repository root; cmclab is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (see tracer.layer_metrics), whose spans are also written to
.perfbench_out/.  The lines before it give the run's metadata, the records
digest, the sample counts and the oracle failures, if any.

End-to-end metrics:
    setup_s      import, plus the median of three input builds each with
                 one warm-up operation on a 16^3 grid
    op_rel.p50   median time of a timed operation, as a multiple of the
                 reference kernel's time around it (reference.py): an RK4
                 step (evolve_perturbed_32), a step plus br_energy and
                 br_flux (evolve_kasner_16), a collector record
                 (diagnostics_warped_32)
    op_rel.tail  the same ratio's highest percentile with ten samples
                 beyond it; p90 when there are fewer than 100 samples
    peak_rss_mb  peak resident memory of the process; the reference kernel
                 raised it by up to 2.3 MB over the operations' own peak

The operation times in seconds are printed too (detail lines), but are
not result metrics: on a small shared host the speed swings by up to
~1.7x over seconds to minutes, so a 30 s run's seconds land on whichever
speed held during it, while the ratio to the reference kernel, timed
just before and after each operation, moves mostly with the program.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# Pin the BLAS/OpenMP pools before numpy loads: the plain single-threaded
# baseline, and no oversubscription of a small machine by a 64-thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# Every run imports from source alike, and leaves no bytecode in the checkout.
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples):
    """(value, label) of the highest percentile with ten samples beyond it.

    With fewer than 100 samples that percentile would lie below p90, down
    to the median at 20 samples, and it would jump whenever a change of
    host speed changed the sample count; so p90 is reported instead,
    interpolated between samples, and the label says how many lie beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    position = 0.9 * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    value = ordered[low] + (position - low) * (ordered[high] - ordered[low])
    return value, f"p90 of {n}, {sum(x > value for x in ordered)} beyond"


def git_sha():
    """Commit of the checkout, or None when it is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_threads(numpy):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cache_bytes(level):
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=False).stdout.strip()
        return int(out) if out else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def metadata(numpy, workload):
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})

    def working_set(n):
        # float64 bytes of g and K (6 stored components), Gamma (27) and
        # the full Ricci matrix (9) on an n^3 grid
        points = 8 * n**3
        return {"g": 6 * points, "K": 6 * points, "gamma": 27 * points, "ricci": 9 * points}

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "nproc": os.cpu_count(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "grid_n": workload.n,
        "working_set_bytes": {f"{n}^3": working_set(n) for n in (16, 32)},
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import numpy
        import cmclab
    except ImportError as exc:
        print(f"perfbench: cannot import cmclab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cmclab.__file__).startswith(SRC + os.sep):
        print(f"perfbench: cmclab came from {cmclab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import gates
    import reference
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.inputs(args.seed, workload.n)
        workload.warm(workload.inputs(args.seed, workloads.WARM_N))
        setups.append(time.perf_counter() - start)

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    yardstick = None if tracer else reference.Reference(workload.n, workload.ref_repeats)
    runner = workloads.Runner(args.seconds, OUT_DIR, tracer, yardstick)
    if tracer is not None:
        with tracer.installed():
            records = runner.run(workload.round, inputs)
        left = tracing.wrapped_bindings()
        runner.check(gates.Check("tracer_removed", not left, ", ".join(left) or "clean"))
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(trace_path)
    else:
        records = runner.run(workload.round, inputs)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("meta " + json.dumps(metadata(numpy, workload)))
    print(f"records sha256={gates.digest(records) if records is not None else None} "
          f"rounds={len(runner.round_times)}")
    for failure in runner.failures:
        print(f"FAILED {failure}")

    samples = runner.samples
    if tracer is None:
        ratios = [op / ref for op, ref in zip(samples, runner.ref_samples)]
        value, label = tail(ratios) if ratios else (0.0, "no samples")
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "op_rel.p50": (statistics.median(ratios) if ratios else 0.0, "x_ref"),
            "op_rel.tail": (value, "x_ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        if samples:
            print(f"op_rel samples={len(ratios)} tail={label}")
            print(f"detail op_s.mean {statistics.fmean(samples):.6f} s "
                  f"ref_s.p50 {statistics.median(runner.ref_samples):.6f} s")
        details = dict(runner.parts, op_s=samples, round_s=runner.round_times)
        for name, parts in sorted(details.items()):
            if not parts:
                continue
            part_tail, part_label = tail(parts)
            print(f"detail {name}.p50 {statistics.median(parts):.6f} s "
                  f"tail {part_tail:.6f} s ({part_label})")
    else:
        units = {"self_s": "s", "calls": "count", "bytes_computed": "bytes",
                 "bytes": "bytes", "p50": "1", "cg_iters_per_solve": "count",
                 "diverged": "count", "coverage": "1"}
        layer = tracing.layer_metrics(tracer.spans, runner.traced_ops,
                                      len(runner.round_times))
        metrics = {name: (value, units[name.rpartition(".")[2]])
                   for name, value in layer.items()}
        overhead = 0.0
        if samples and runner.traced_samples:
            overhead = (statistics.median(runner.traced_samples)
                        / statistics.median(samples) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, "1")
        print(f"traced ops={len(runner.traced_samples)} untraced ops={len(samples)} "
              f"spans={len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0 and records is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
