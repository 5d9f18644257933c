"""Per-layer timings of the cmclab kernels, written to a BENCH_*.json file.

    python3 tools/bench_layers.py [--label NAME --src DIR]... [--out BENCH_layers.json]

Each --label names the run of the cmclab imported from the --src given
with it; with neither, ./src beside this script is run as "change".  Each
source must keep g^-1 as the Metric's 6 planes (Metric._inv_planes),
build lapse._Operator from them and hand a field's components-first
planes out through grid._planes, as cmclab has since the pointwise algebra
moved onto component planes.  The
sources are measured in ROUNDS rounds, each round in a new process per
source, in an order that alternates from round to round, so that a drift
of the host's speed falls on every source alike.  A round builds the
perturbed warped AXIAL Kasner slice
perturb(warped_kasner_state(AXIAL, -1, grid, 0.02), 1e-4, 7) at 16^3 and
32^3, and keeps the best of five timed calls (after one warm-up) of:

    Metric(grid, v), g^-1     v the values of the slice stepped by the
                              time_step below: the Sylvester check, det g
                              and g^-1 of a fresh Metric (metric_build_s)
    g^-1 of m                 m a fresh Metric (metric_inverse_s); a source
                              whose Metric forms the cofactors of g when
                              it is built times only their division by
                              det g here, and that work moves into
                              metric_build_s; one whose Metric also forms
                              g^-1 when it is built, as cmclab's now does,
                              times only an attribute read here, its
                              division timed in metric_build_s
    g^-1 K, tr K, |K|^2 and K g^-1 K
                              on a fresh SecondForm over a Metric whose
                              g^-1 is derived (second_form_s)
    christoffels(m)           m a Metric whose g^-1 is derived
    diff_array along each grid axis
                              of the 6 components-first planes of g, the
                              (6, n, n, n) block grid._planes(g.values)
                              that christoffels differentiates: the
                              field's own block where values is a view of
                              one, else a copy made untimed (diff_array_s);
                              also at 48^3 and 64^3, on the block of
                              warped_kasner_state(AXIAL, -1, grid, 0.02)'s
                              g, with nothing else timed at those sizes
    ricci(m)                  m a Metric whose g^-1 and Gamma are derived
    nabla K                   the (3, 6, n, n, n) block _nabla_planes of a
                              fresh SecondForm of K over a Metric whose
                              Gamma is derived (nabla_k_s)
    evolution_rhs(g, K, N)    g a fresh Metric, so Gamma and Ric are included,
                              as in one RK4 stage
    electric_weyl(m, K)       m a Metric whose Ric is derived, K a plain field,
                              so g^-1 K, tr K and K g^-1 K are included
    hessian(N, m)             m a Metric whose Gamma is derived
    solve_lapse(g, K)         g a fresh Metric, cold start; the CG iteration
                              count is kept beside the time
    solve_lapse(g1, K1, initial_guess=N)
                              (g1, K1) the slice stepped by the time_step
                              below, g1 a fresh Metric, warm-started from
                              the slice's N as RK4 stages 2-4 start from the
                              stage before (solve_lapse_warm_s); its CG
                              count is kept beside the time
    solve_lapse(m1, k1, initial_guess=N1)
                              (m1, k1, N1) that stepped slice, m1 a Metric
                              of it whose g^-1 is derived and k1 a
                              SecondForm over m1 whose |K|^2 is derived:
                              N1 already meets tol, so this is RK4 stage
                              1's solve on a state time_step returned
                              (solve_lapse_at_solution_s)
    one lapse operator apply  on N, with the operator's coefficients and
                              buffers built untimed (lapse_apply_s)
    solve_lapse(m, k, max_iterations=0)
                              the solve's set-up alone (lapse_setup_s): m a
                              Metric whose g^-1 is derived, k a SecondForm
                              over it whose |K|^2 is derived; with no
                              iteration allowed the solve builds its
                              coefficients and workspace, applies the
                              operator twice (the initial and the verified
                              residual) and raises SolverDiverged, which
                              is caught.  A cmclab that builds the FFT
                              preconditioner only when a CG iteration is
                              due builds none here, so its figure is lower
                              for that reason alone
    weyl_parts(g, K)          g a fresh Metric, so Gamma and Ric are included
    br_components(E, B, m)    m a Metric whose g^-1 is derived
    DiagnosticsCollector.add  one record of a fresh collector (collector_add_s)
    time_step(s, 1e-3, trace_correction=True)
                              s made by the same step from the slice, so its
                              lapse was solved on it (time_step_s); the
                              number of its lapse solves and their CG
                              iterations, summed, are kept beside the time
                              (time_step_solves, time_step_cg_iterations)
    br_energy(s), br_flux(s)  both on one state s (br_energy_flux_s)
    max_stable_dt(s)          on the slice's state (max_stable_dt_s): the CFL
                              step size cmclab evolve computes before every
                              step when dt is omitted
    time_step(s, 1e-3, trace_correction=True)
                              s made by the same step from the slice, right
                              after an untimed record of s
                              (step_after_record_s): the run loop's step

Each record and each br_energy/br_flux pair gets a new SliceState over
the slice's arrays, and each step a new state made by time_step from the
slice, built untimed before the call.  The Bel-Robinson readers derive a
state object at most once, so a call repeated on one object would time a
memo lookup.

In a separate pass before the timings, a round keeps the tracemalloc peak
of one call (after one untraced warm-up), in MiB over the traced
allocation at the start of the call, of:

    DiagnosticsCollector.add  one record of a fresh collector on a new
                              state (record_peak_mib)
    time_step(state, 1e-3, trace_correction=True)           (time_step_peak_mib)
    perturb(warped_kasner_state(AXIAL, -1, grid, 0.02), 1e-4, 7)  (perturb_peak_mib)
    a record of s, then time_step(s, 1e-3, trace_correction=True), with s
                              made by that step from the slice
                              (record_step_peak_mib)

and the traced memory still held after that record of s, before its step
(held_after_record_mib).

BLAS and OpenMP pools are pinned to one thread.  Every number goes under
runs[NAME] of the output file, which keeps the runs of other labels, as
its quartiles [p25, p50, p75] over the rounds.  When one invocation runs
both a "parent" and a "change", "change_over_parent" holds the quartiles
of the per-round ratios change / parent of each time and memory figure.
Alternating the rounds does not cancel the host's drift: rows whose code
path a change leaves untouched have read ratio quartiles all on one side
of 1, as far out as [1.24, 1.26, 1.31] (br_energy_flux_s at 16^3), and
two sources running bitwise the same arithmetic have read medians from
0.75 to 1.19.  So a ratio shows a change only beyond the spread of the
untouched rows of the same file and size.  Compare only runs made on one host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (16, 32)
DIFF_SIZES = (48, 64)  # sizes at which only diff_array_s is timed
REPEATS = 5
ROUNDS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", action="append", help="key of one run in the output file")
    parser.add_argument("--src", action="append", help="directory holding that run's cmclab")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    args = parser.parse_args(argv)
    args.label = args.label or ["change"]
    args.src = args.src or [os.path.join(ROOT, "src")]
    if len(args.label) != len(args.src) or len(set(args.label)) != len(args.label):
        parser.error("give one distinct --label per --src")
    return args


def _args(setup):
    """The arguments of one call: none, or a new setup() result."""
    return () if setup is None else (setup(),)


def best_of(fn, repeats=REPEATS, setup=None):
    """(best wall time in s, last result) of `repeats` calls after one warm-up.

    With setup, each call is fn(setup()), and setup runs untimed.
    """
    result = fn(*_args(setup))
    times = []
    for _ in range(repeats):
        args = _args(setup)
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return min(times), result


def traced_mib(fn, setup=None):
    """(peak, held) of one call of fn after one untraced warm-up, in MiB over its start.

    peak is the traced peak during the call, held the traced memory still
    allocated once it returned and its result was dropped.  With setup,
    each call is fn(setup()), and setup runs untraced.
    """
    fn(*_args(setup))
    args = _args(setup)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20, (held - start) / 2**20


def lapse_apply(cmclab, g, K, N):
    """A call applying the lapse operator of (g, K) to N once, its set-up done here."""
    import numpy as np

    m = cmclab.as_metric(g)
    weight = m.sqrt_det * cmclab.norm_sq(K, m).values
    op = sys.modules["cmclab.lapse"]._Operator(m.sqrt_det, m._inv_planes, weight,
                                               g.grid.spacings)
    out = np.empty_like(weight)
    return lambda: op.apply(N.values, out)


def step_solves(step, state):
    """(how many lapse solves one step(state) runs, their CG iterations summed)."""
    evolution = sys.modules["cmclab.evolution"]
    solve, counts = evolution.solve_lapse, []

    def counted(*args, **kwargs):
        N, report = solve(*args, **kwargs)
        counts.append(report.iterations)
        return N, report

    evolution.solve_lapse = counted
    try:
        step(state)
    finally:
        evolution.solve_lapse = solve
    return len(counts), sum(counts)


def lapse_setup(cmclab, m, k):
    """A call running solve_lapse(m, k) with a budget of 0 CG iterations."""
    def call():
        try:
            cmclab.solve_lapse(m, k, max_iterations=0)
        except cmclab.SolverDiverged:
            pass
    return call


def measure(cmclab, n):
    grid = cmclab.GridSpec.cubic(n)
    warped = cmclab.warped_kasner_state(cmclab.AXIAL, -1.0, grid, 0.02)
    state, _ = cmclab.perturb(warped, 1e-4, 7)
    g, K, N = state.g, state.K, state.N

    def fresh():
        return cmclab.Metric(grid, g.values)

    def new_state():
        return cmclab.SliceState(t=state.t, g=g, K=K, N=N)

    def step(s):
        return cmclab.time_step(s, 1e-3, trace_correction=True)

    def record(s):
        return cmclab.DiagnosticsCollector().add(s)

    def stepped():
        return step(state)

    def recorded():
        s = stepped()
        record(s)
        return s

    def record_then_step(s):
        record(s)
        return step(s)

    out = {}
    out["record_peak_mib"], _ = traced_mib(record, setup=new_state)
    out["time_step_peak_mib"], _ = traced_mib(stepped)
    out["perturb_peak_mib"], _ = traced_mib(lambda: cmclab.perturb(warped, 1e-4, 7))
    out["record_step_peak_mib"], _ = traced_mib(record_then_step, setup=stepped)
    _, out["held_after_record_mib"] = traced_mib(record, setup=stepped)

    with_inv = fresh()
    with_inv._inv_planes
    with_gamma = fresh()
    with_gamma.gamma
    with_ricci = fresh()
    with_ricci.ricci
    weyl = cmclab.weyl_parts(fresh(), K)

    out["metric_inverse_s"], _ = best_of(lambda m: m._inv_planes, setup=fresh)
    out["second_form_s"], _ = best_of(lambda k: (k.trace, k.norm_sq, k.squared),
                                      setup=lambda: cmclab.SecondForm(grid, K.values, with_inv))
    out["christoffels_s"], _ = best_of(lambda: cmclab.christoffels(with_inv))
    out["diff_array_s"] = diff_array_s(g)
    out["ricci_s"], _ = best_of(lambda: cmclab.ricci(with_gamma))
    out["nabla_k_s"], _ = best_of(lambda k: k._nabla_planes,
                                  setup=lambda: cmclab.SecondForm(grid, K.values, with_gamma))
    out["evolution_rhs_s"], _ = best_of(lambda: cmclab.evolution_rhs(fresh(), K, N))
    out["electric_weyl_s"], _ = best_of(lambda: cmclab.electric_weyl(with_ricci, K))
    out["hessian_s"], _ = best_of(lambda: cmclab.hessian(N, with_gamma))
    out["solve_lapse_s"], (_, report) = best_of(lambda: cmclab.solve_lapse(fresh(), K))
    out["solve_lapse_cg_iterations"] = report.iterations
    moved = stepped()
    out["metric_build_s"], _ = best_of(
        lambda: cmclab.Metric(grid, moved.g.values)._inv_planes)
    out["solve_lapse_warm_s"], (_, report) = best_of(lambda: cmclab.solve_lapse(
        cmclab.Metric(grid, moved.g.values), moved.K, initial_guess=N))
    out["solve_lapse_warm_cg_iterations"] = report.iterations
    moved_inv = cmclab.Metric(grid, moved.g.values)
    moved_inv._inv_planes
    moved_ksq = cmclab.SecondForm(grid, moved.K.values, moved_inv)
    moved_ksq.norm_sq
    out["solve_lapse_at_solution_s"], _ = best_of(
        lambda: cmclab.solve_lapse(moved_inv, moved_ksq, initial_guess=moved.N))
    out["lapse_apply_s"], _ = best_of(lapse_apply(cmclab, g, K, N))
    with_ksq = cmclab.SecondForm(grid, K.values, with_inv)
    with_ksq.norm_sq
    out["lapse_setup_s"], _ = best_of(lapse_setup(cmclab, with_inv, with_ksq))
    out["weyl_parts_s"], _ = best_of(lambda: cmclab.weyl_parts(fresh(), K))
    out["br_components_s"], _ = best_of(lambda: cmclab.br_components(weyl.E, weyl.B, with_inv))
    out["collector_add_s"], _ = best_of(record, setup=new_state)
    out["time_step_s"], _ = best_of(step, setup=stepped)
    out["time_step_solves"], out["time_step_cg_iterations"] = step_solves(step, stepped())
    out["step_after_record_s"], _ = best_of(step, setup=recorded)
    out["br_energy_flux_s"], _ = best_of(
        lambda s: (cmclab.br_energy(s), cmclab.br_flux(s)), setup=new_state)
    out["max_stable_dt_s"], _ = best_of(lambda: cmclab.max_stable_dt(state))
    return {k: (round(v, 6) if isinstance(v, float) else v) for k, v in out.items()}


def diff_array_s(g):
    """Best time of diff_array along each grid axis of the (6, n, n, n) block of g."""
    grid_module = sys.modules["cmclab.grid"]
    block, diff_array = grid_module._planes(g.values), grid_module.diff_array
    time_s, _ = best_of(lambda: [diff_array(block, t + 1, h)
                                 for t, h in enumerate(g.grid.spacings)])
    return round(time_s, 6)


def run_round(src):
    """One round of measure() at each size, for the cmclab under src, in this process."""
    sys.path.insert(0, os.path.abspath(src))
    sys.dont_write_bytecode = True
    import numpy as np

    import cmclab

    sizes = {str(n): measure(cmclab, n) for n in SIZES}
    for n in DIFF_SIZES:
        warped = cmclab.warped_kasner_state(cmclab.AXIAL, -1.0, cmclab.GridSpec.cubic(n), 0.02)
        sizes[str(n)] = {"diff_array_s": diff_array_s(warped.g)}
    return {"python": platform.python_version(), "numpy": np.__version__, "sizes": sizes}


def quartiles(values, digits=6):
    p25, p50, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(p25, digits), round(p50, digits), round(p75, digits)]


def summary(rounds):
    """Each number of the rounds as its quartiles over them."""
    return {size: {k: quartiles([r["sizes"][size][k] for r in rounds]) for k in numbers}
            for size, numbers in rounds[0]["sizes"].items()}


def ratios(parent, change):
    """Quartiles of the per-round ratios change / parent of each time and memory figure."""
    return {size: {k: quartiles([c["sizes"][size][k] / p["sizes"][size][k]
                                 for p, c in zip(parent, change)], 3)
                   for k in numbers if k.endswith(("_s", "_mib"))}
            for size, numbers in parent[0]["sizes"].items()}


def main(argv=None):
    args = parse_args(argv)
    runs = {label: [] for label in args.label}
    sources = list(zip(args.label, args.src))
    # a new process per round and source: each imports its own cmclab
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for i in range(ROUNDS):
            for label, src in (sources if i % 2 == 0 else sources[::-1]):
                runs[label].append(pool.apply(run_round, (src,)))
    try:
        with open(args.out) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc["about"] = (
        "Quartiles [p25, p50, p75] over five rounds, each the best of five timed calls (s) "
        "per layer after one warm-up, on "
        "perturb(warped_kasner_state(AXIAL, -1, grid, 0.02), 1e-4, 7) at 16^3 and 32^3, "
        "one BLAS thread, and of the tracemalloc peak (MiB over the start of the call) of one "
        "record, one time_step, one perturb and a record then a step of one stepped state, "
        "with the memory held between the two; records, br_energy_flux_s, time_step_s and "
        "step_after_record_s each run on a new state object; solve_lapse_warm_s solves the "
        "stepped slice from the slice's N and solve_lapse_at_solution_s from its own N (RK4 stage "
        "1's solve), lapse_apply_s is one operator apply with its "
        "set-up untimed, lapse_setup_s a solve_lapse with a budget of 0 iterations (with no FFT "
        "preconditioner where the source builds it only for a CG iteration), "
        "metric_build_s a fresh Metric of the stepped slice with its check, det g and g^-1, "
        "metric_inverse_s a fresh Metric's g^-1 and second_form_s g^-1 K, tr K, |K|^2 and "
        "K g^-1 K of a fresh SecondForm, diff_array_s the derivative of the (6, n, n, n) "
        "block of g (grid._planes) along each grid axis, the one row also kept at 48^3 and "
        "64^3 (on warped_kasner_state's g), and time_step_solves and "
        "time_step_cg_iterations the number of one time_step's lapse solves and their CG "
        "iterations, and max_stable_dt_s the CFL step size of the slice's state; the rounds "
        "alternate the sources of one "
        "invocation, each in a new process, and change_over_parent holds the quartiles of "
        "the per-round ratios; "
        "written by tools/bench_layers.py, whose docstring defines each call."
    )
    for label, rounds in runs.items():
        doc.setdefault("runs", {})[label] = {
            "python": rounds[0]["python"],
            "numpy": rounds[0]["numpy"],
            "nproc": os.cpu_count(),
            "rounds": len(rounds),
            "sizes": summary(rounds),
        }
    if "parent" in runs and "change" in runs:
        doc["change_over_parent"] = ratios(runs["parent"], runs["change"])
    else:  # ratios of runs from separate invocations would not be paired
        doc.pop("change_over_parent", None)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({label: doc["runs"][label]["sizes"] for label in runs}, indent=1))


if __name__ == "__main__":
    main()
