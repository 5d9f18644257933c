"""Per-layer timings of the cmclab kernels, written to a BENCH_*.json file.

    python3 tools/bench_layers.py --label NAME [--src DIR] [--out BENCH_layers.json]

Imports cmclab from DIR (default: ./src beside this script), builds the
perturbed warped AXIAL Kasner slice
perturb(warped_kasner_state(AXIAL, -1, grid, 0.02), 1e-4, 7) at 16^3 and
32^3, and keeps the best of five timed calls (after one warm-up) of:

    christoffels(m)           m a Metric whose g^-1 is derived
    ricci(m)                  m a Metric whose g^-1 and Gamma are derived
    evolution_rhs(g, K, N)    g a fresh Metric, so Gamma and Ric are included,
                              as in one RK4 stage
    electric_weyl(m, K)       m a Metric whose Ric is derived, K a plain field,
                              so g^-1 K, tr K and K g^-1 K are included
    hessian(N, m.gamma)       m a Metric whose Gamma is derived
    solve_lapse(g, K)         g a fresh Metric, cold start; the CG iteration
                              count is kept beside the time
    weyl_parts(g, K)          g a fresh Metric, so Gamma and Ric are included
    br_components(E, B, m)    m a Metric whose g^-1 is derived
    DiagnosticsCollector.add  one record of a fresh collector

In a separate pass before the timings, it keeps the tracemalloc peak of
one call (after one untraced warm-up), in MiB over the traced allocation
at the start of the call, of:

    DiagnosticsCollector.add  one record of a fresh collector (record_peak_mib)
    time_step(state, 1e-3, trace_correction=True)           (time_step_peak_mib)
    perturb(warped_kasner_state(AXIAL, -1, grid, 0.02), 1e-4, 7)  (perturb_peak_mib)

BLAS and OpenMP pools are pinned to one thread.  The results go under
runs[NAME] of the output file, which keeps the runs of other labels; when
it holds both a "parent" and a "change" run, their ratios are written to
"change_over_parent".  Compare only runs made on one host, one after the
other.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (16, 32)
REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding cmclab")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    return parser.parse_args(argv)


def best_of(fn, repeats=REPEATS):
    """(best wall time in s, last result) of `repeats` calls after one warm-up."""
    result = fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def peak_mib(fn):
    """Traced peak of one call of fn (after one untraced warm-up), in MiB over its start."""
    fn()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20


def measure(cmclab, n):
    grid = cmclab.GridSpec.cubic(n)
    warped = cmclab.warped_kasner_state(cmclab.AXIAL, -1.0, grid, 0.02)
    state, _ = cmclab.perturb(warped, 1e-4, 7)
    g, K, N = state.g, state.K, state.N

    def fresh():
        return cmclab.Metric(grid, g.values)

    out = {}
    out["record_peak_mib"] = peak_mib(lambda: cmclab.DiagnosticsCollector().add(state))
    out["time_step_peak_mib"] = peak_mib(
        lambda: cmclab.time_step(state, 1e-3, trace_correction=True))
    out["perturb_peak_mib"] = peak_mib(lambda: cmclab.perturb(warped, 1e-4, 7))

    with_inv = fresh()
    with_inv.inv
    with_gamma = fresh()
    with_gamma.gamma
    with_ricci = fresh()
    with_ricci.ricci
    weyl = cmclab.weyl_parts(fresh(), K)

    out["christoffels_s"], _ = best_of(lambda: cmclab.christoffels(with_inv))
    out["ricci_s"], _ = best_of(lambda: cmclab.ricci(with_gamma))
    out["evolution_rhs_s"], _ = best_of(lambda: cmclab.evolution_rhs(fresh(), K, N))
    out["electric_weyl_s"], _ = best_of(lambda: cmclab.electric_weyl(with_ricci, K))
    out["hessian_s"], _ = best_of(lambda: cmclab.hessian(N, with_gamma.gamma))
    out["solve_lapse_s"], (_, report) = best_of(lambda: cmclab.solve_lapse(fresh(), K))
    out["solve_lapse_cg_iterations"] = report.iterations
    out["weyl_parts_s"], _ = best_of(lambda: cmclab.weyl_parts(fresh(), K))
    out["br_components_s"], _ = best_of(lambda: cmclab.br_components(weyl.E, weyl.B, with_inv))
    out["collector_add_s"], _ = best_of(lambda: cmclab.DiagnosticsCollector().add(state))
    return {k: (round(v, 6) if isinstance(v, float) else v) for k, v in out.items()}


def ratios(parent, change):
    return {
        size: {k: round(change[size][k] / parent[size][k], 3)
               for k in parent[size] if k.endswith(("_s", "_mib")) and k in change[size]}
        for size in parent if size in change
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.dont_write_bytecode = True
    import numpy as np

    import cmclab

    run = {str(n): measure(cmclab, n) for n in SIZES}
    try:
        with open(args.out) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc["about"] = (
        "Best of five timed calls (s) per layer, after one warm-up, on "
        "perturb(warped_kasner_state(AXIAL, -1, grid, 0.02), 1e-4, 7) at 16^3 and 32^3, "
        "one BLAS thread, and the tracemalloc peak (MiB over the start of the call) of one "
        "record, one time_step and one perturb; written by tools/bench_layers.py, whose "
        "docstring defines each call."
    )
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "sizes": run,
    }
    runs = doc["runs"]
    if "parent" in runs and "change" in runs:
        doc["change_over_parent"] = ratios(runs["parent"]["sizes"], runs["change"]["sizes"])
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(run, indent=1))


if __name__ == "__main__":
    main()
