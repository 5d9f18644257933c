"""End-to-end acceptance battery.

One test per shipped guarantee; each prints a single PASS/FAIL line (run
with -s to see them) and then asserts.  Tolerances here are contractual:
loosening them weakens what the package promises.
"""

import subprocess
import sys

import numpy as np
import pytest

import oracles as orc
from cmclab import (
    AXIAL,
    FLAT,
    GENERIC,
    GridSpec,
    MonitorConfig,
    ScalarField,
    SymTensorField,
    br_components,
    br_energy,
    br_flux,
    check_lapse_bounds,
    constraint_norms,
    continuation_monitor,
    cross,
    curl,
    default_bound_tolerance,
    emit_records,
    inner,
    lapse_bound_margins,
    magnetic_weyl,
    norm_sq,
    parse_records,
    solve_lapse,
    sym_to_matrix,
    trace,
    wedge,
)
from cmclab import kasner
from cmclab.checks import random_metric, rescale_battery
from cmclab.diagnostics import DiagnosticsCollector
from cmclab.evolution import (
    evolve_states,
    kasner_initial_data,
    perturb,
    warped_kasner_state,
)

WARP_AMP = 0.02


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel(got, want):
    err = np.max(np.abs(got - want))
    scale = np.max(np.abs(want))
    return err / max(scale, 1e-300)


def test_criterion_1_identity_suite():
    # >= 100 random symmetric pairs over random metrics at 16^3: every
    # algebra operation matches the exhaustive-contraction oracle to
    # relative error <= 1e-12; wedge(A, A) = 0 and trace(curl A) stays at
    # rounding level (far below h^4) throughout.
    grid = GridSpec.cubic(16)
    rng = np.random.default_rng(101)
    h4 = max(grid.spacings) ** 4
    worst_alg = 0.0
    worst_wedge_self = 0.0
    worst_curl_trace = 0.0
    worst_curl = 0.0
    pairs = 0
    for _ in range(10):
        g = random_metric(grid, rng)
        gm = orc.sym_to_mat(g.values)
        frame = orc.brute_metric(gm)  # det g, g^-1 and eps once per metric
        inv = frame.inv
        for _ in range(10):
            a = SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))
            b = SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))
            am, bm = orc.sym_to_mat(a.values), orc.sym_to_mat(b.values)
            worst_alg = max(
                worst_alg,
                _rel(trace(a, g).values, orc.brute_trace(am, inv)),
                _rel(inner(a, b, g).values, orc.brute_inner(am, bm, inv)),
                _rel(wedge(a, b, g).values, orc.brute_wedge(am, bm, frame)),
                _rel(sym_to_matrix(cross(a, b, g).values),
                     orc.brute_cross(am, bm, frame)),
            )
            q = br_components(a, b, g)
            worst_alg = max(
                worst_alg,
                _rel(q.q_tttt.values, orc.brute_q_tttt(am, bm, frame)),
                _rel(q.q_attt.values, orc.brute_q_attt(am, bm, frame)),
                _rel(sym_to_matrix(q.q_abtt.values),
                     orc.brute_q_abtt(am, bm, frame)),
            )
            scale = float(np.max(np.abs(a.values))) ** 2
            worst_wedge_self = max(
                worst_wedge_self,
                float(np.max(np.abs(wedge(a, a, g).values))) / scale)
            pairs += 1
        # derivative definition, one field per metric (loops are slow)
        a = SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))
        c = curl(a, g)
        want = orc.brute_curl(orc.sym_to_mat(a.values), gm, grid.spacings)
        worst_curl = max(worst_curl, _rel(sym_to_matrix(c.values), want))
        worst_curl_trace = max(
            worst_curl_trace,
            float(np.max(np.abs(trace(c, g).values)))
            / max(float(np.max(np.abs(c.values))), 1.0))
    ok = (pairs >= 100 and worst_alg <= 1e-12 and worst_curl <= 1e-12
          and worst_wedge_self <= 1e-12 and worst_curl_trace <= h4)
    _verdict(
        "criterion-1 identity-suite",
        ok,
        f"{pairs} pairs, worst algebra rel {worst_alg:.2e}, "
        f"curl rel {worst_curl:.2e}, wedge-self {worst_wedge_self:.2e}, "
        f"curl-trace {worst_curl_trace:.2e} (h^4 = {h4:.2e})",
    )


def test_criterion_2_vacuum_oracle():
    # constraints vanish for >= 3 admissible triples; B = 0 for diagonal
    # data; warped (coordinate-transformed) data exposes the truncation
    # error, which must converge at order 4.0 +/- 0.3 over 16 -> 32 -> 64.
    t = -0.8
    triples = (FLAT, AXIAL, GENERIC)
    diag_resid = 0.0
    diag_b = 0.0
    grid_small = GridSpec.cubic(16)
    for p in triples:
        s = kasner_initial_data(p, t, grid_small)
        ham, mom = constraint_norms(s.g, s.K)
        diag_resid = max(diag_resid, ham, mom)
        diag_b = max(diag_b, float(np.max(np.abs(
            magnetic_weyl(s.K, s.g).values))))
    orders = []
    for p in triples:
        resid = []
        for n in (16, 32, 64):
            s = warped_kasner_state(p, t, GridSpec.cubic(n), amplitude=WARP_AMP)
            resid.append(constraint_norms(s.g, s.K))
        for i in range(2):  # ham and mom separately
            fit = np.polyfit(np.log2([16, 32, 64]),
                             np.log2([r[i] for r in resid]), 1)[0]
            orders.append(float(-fit))
    ok = (diag_resid <= 1e-11 and diag_b <= 1e-12
          and all(3.7 <= o <= 4.3 for o in orders))
    _verdict(
        "criterion-2 vacuum-oracle",
        ok,
        f"diagonal residual sup {diag_resid:.2e}, diagonal |B| {diag_b:.2e}, "
        f"warped orders {[round(o, 2) for o in orders]}",
    )


def test_criterion_3_lapse_bounds():
    # every converged solve respects 1/sup|K|^2 - tol <= N <= 3/H^2 + tol
    # with tol = max(1e-10, 10 h^4); constant-coefficient data saturates
    # the lower bound to solver tolerance.
    solver_tol = 1e-11
    solves = 0
    worst_margin = np.inf
    saturation = 0.0
    for p in (FLAT, AXIAL, GENERIC):
        for t in (-1.5, -0.8):
            grid = GridSpec.cubic(8)
            s = kasner_initial_data(p, t, grid)
            n, report = solve_lapse(s.g, s.K, tol=solver_tol)
            assert report.converged
            margins = check_lapse_bounds(n, s.K, s.g)
            worst_margin = min(worst_margin, *margins)
            solves += 1
            # |K|^2 is uniform here: N must sit on the lower bound
            ksq = norm_sq(SymTensorField(grid, s.K.values), s.g).values
            saturation = max(saturation, float(np.max(np.abs(
                n.values * ksq - 1.0))))
    for p in (AXIAL, GENERIC):
        for n_pts in (8, 16):
            s = warped_kasner_state(p, -0.8, GridSpec.cubic(n_pts),
                                    amplitude=WARP_AMP)
            n, report = solve_lapse(s.g, s.K, tol=solver_tol)
            assert report.converged
            margins = check_lapse_bounds(n, s.K, s.g)
            worst_margin = min(worst_margin, *margins)
            solves += 1
    for seed in range(3):
        base = kasner_initial_data(GENERIC, -0.8, GridSpec.cubic(8))
        s, _ = perturb(base, 1e-3, seed=seed, solver_tol=solver_tol)
        margins = check_lapse_bounds(s.N, s.K, s.g)  # solve done inside
        worst_margin = min(worst_margin, *margins)
        solves += 1
    tol_coarse = default_bound_tolerance(GridSpec.cubic(8))
    ok = worst_margin >= -tol_coarse and saturation <= 100.0 * solver_tol
    _verdict(
        "criterion-3 lapse-bounds",
        ok,
        f"{solves} solves, worst margin {worst_margin:.2e} "
        f"(slack {tol_coarse:.2e}), saturation defect {saturation:.2e}",
    )


def test_criterion_4_flux_law():
    # the Gauss-law flux matches the analytic dE_BR/dt to <= 1e-4 at
    # 32^3, dt = 1e-3, over >= 100 steps; the centered-difference
    # mismatch drops at order >= 2 under dt halving.  Homogeneous data
    # has no spatial truncation error, so the dt study runs at 8^3 and a
    # consistency check ties it back to the pinned grid.
    t0, t1 = -1.0, -0.9

    def flux_run(n_pts, dt):
        # sample the flux every 0.01 in t; energies only at the slices a
        # centered difference needs (they cost ~1 s each at 32^3)
        grid = GridSpec.cubic(n_pts)
        stride = int(round(0.01 / dt))
        total = int(round((t1 - t0) / dt))
        sample_at = set(range(stride, total, stride))
        keep = {j for i in sample_at for j in (i - 1, i, i + 1)}
        s = kasner_initial_data(AXIAL, t0, grid)
        energies, times, fluxes = {}, {}, {}
        step = 0
        for s in evolve_states(s, t1, dt=dt, solver_tol=1e-12):
            step += 1
            if step in keep:
                energies[step] = br_energy(s)
                times[step] = s.t
            if step in sample_at:
                fluxes[step] = br_flux(s)
        mismatch = max(
            abs((energies[i + 1] - energies[i - 1])
                / (times[i + 1] - times[i - 1]) - fluxes[i])
            for i in sample_at)
        rel = max(
            abs(fluxes[i] / kasner.br_energy_rate(AXIAL, times[i], 1.0) - 1.0)
            for i in sample_at)
        return step, mismatch, rel

    steps, mismatch_pinned, flux_rel = flux_run(32, 1e-3)
    _, m_coarse, _ = flux_run(8, 1e-3)
    _, m_half, _ = flux_run(8, 5e-4)
    order = np.log2(m_coarse / m_half)
    grids_agree = abs(mismatch_pinned - m_coarse) <= 1e-2 * m_coarse
    ok = steps >= 100 and flux_rel <= 1e-4 and order >= 1.8 and grids_agree
    _verdict(
        "criterion-4 flux-law",
        ok,
        f"{steps} steps at 32^3, flux vs analytic rel {flux_rel:.2e}, "
        f"centered-difference mismatch {m_coarse:.2e} -> {m_half:.2e}, "
        f"order {order:.2f}, grids agree: {grids_agree}",
    )


def test_criterion_5_evolution_convergence():
    # temporal order 4.0 +/- 0.3 over one decade of dt (homogeneous data:
    # no spatial truncation mixes in)
    grid = GridSpec.cubic(8)
    t0, t1 = -1.0, -0.6
    dts = (0.04, 0.02, 0.01, 0.004)
    errs = []
    for dt in dts:
        s = kasner_initial_data(AXIAL, t0, grid)
        for s in evolve_states(s, t1, dt=dt, solver_tol=1e-13,
                               cmc_drift_tol=1e-2):
            pass
        exact = kasner_initial_data(AXIAL, t1, grid)
        errs.append(float(np.max(np.abs(s.g.values - exact.g.values))))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    ok = 3.7 <= slope <= 4.3
    _verdict(
        "criterion-5 evolution-convergence",
        ok,
        f"errors {[f'{e:.2e}' for e in errs]} over dt {dts}, "
        f"measured order {slope:.2f}",
    )


def test_criterion_6_scaling_battery():
    # 10 states x 10 factors: N' = N exactly, H' = r H and |K'| = r |K|
    # to 1e-12, energy to 1e-10, involution to rounding
    results = rescale_battery(grid_n=16, seed=0)
    for r in results:
        print(f"  {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    ok = all(r.passed for r in results)
    _verdict(
        "criterion-6 scaling-battery",
        ok,
        f"{len(results)} checks over 10 states x 10 factors",
    )


def test_criterion_7_kasner_decay_law():
    # E_BR |t|^-3 constant to 1% across t in [-1, -0.1]; E_BR / H^2
    # decreases monotonically toward t -> 0^-
    grid = GridSpec.cubic(8)
    s = kasner_initial_data(AXIAL, -1.0, grid)
    coeff = AXIAL.energy_coefficient
    samples = [(s.t, br_energy(s))]
    for s in evolve_states(s, -0.1, solver_tol=1e-11, cfl=0.25):
        samples.append((s.t, br_energy(s)))
    compensated = [e / abs(t) ** 3 for t, e in samples]
    spread = (max(compensated) - min(compensated)) / coeff
    oracle_dev = max(abs(c / coeff - 1.0) for c in compensated)
    ratios = [e / (t * t) for t, e in samples]
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    ok = spread <= 0.01 and oracle_dev <= 0.01 and monotone
    _verdict(
        "criterion-7 kasner-decay-law",
        ok,
        f"{len(samples)} slices, compensated spread {spread:.2e}, "
        f"oracle deviation {oracle_dev:.2e}, E_BR/H^2 monotone: {monotone}",
    )


def test_criterion_8_monitor_correctness(tmp_path):
    # collapse run trips the spacetime-energy criterion; flat and
    # expanding runs come back clean; emit/parse is bitwise
    grid = GridSpec.cubic(8)

    def run_records(p, t0, t_end):
        s = kasner_initial_data(p, t0, grid)
        collector = DiagnosticsCollector()
        collector.add(s)
        for s in evolve_states(s, t_end, solver_tol=1e-11, cfl=0.25,
                               trace_correction=True):
            collector.add(s)
        return collector.records

    collapse = run_records(AXIAL, -1.0, -5.0)
    config = MonitorConfig(lambda_threshold=2.0, t0=-5.0, t_star=-0.5)
    verdict_collapse = continuation_monitor(collapse, config)
    flagged = (verdict_collapse.criterion_energy_blowup
               and not verdict_collapse.criterion_ratio_blowup
               and not verdict_collapse.theorem_tension)

    flat = run_records(FLAT, -1.0, -0.5)
    expanding = run_records(AXIAL, -1.0, -0.5)
    config_fwd = MonitorConfig(lambda_threshold=2.0, t0=-1.5, t_star=-0.4)
    clean_flat = continuation_monitor(flat, config_fwd).clean
    clean_expanding = continuation_monitor(expanding, config_fwd).clean

    path = tmp_path / "collapse.csv"
    emit_records(collapse, path)
    round_trip = parse_records(path) == collapse

    ok = flagged and clean_flat and clean_expanding and round_trip
    _verdict(
        "criterion-8 monitor-correctness",
        ok,
        f"collapse flags energy criterion: {flagged}, flat clean: "
        f"{clean_flat}, expanding clean: {clean_expanding}, "
        f"round-trip bitwise: {round_trip}",
    )


def test_criterion_9_determinism(tmp_path):
    # identical config and seed give bitwise-identical diagnostics files
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "command = evolve\ngrid_n = 8\nt0 = -1.0\nt_end = -0.9\n"
        "dt = 0.01\nperturb_amplitude = 1e-4\nseed = 7\ncadence = 2\n"
        "trace_correction = true\nsolver_tol = 1e-11\n"
    )
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "cmclab.cli", "evolve",
             "--config", str(cfg), "--output", str(out)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    rows = len(outputs[0].decode().splitlines()) - 1
    ok = identical and rows >= 3
    _verdict(
        "criterion-9 determinism",
        ok,
        f"two runs, {rows} records each, bitwise identical: {identical}",
    )
