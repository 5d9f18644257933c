"""Energy quantities, Gauss-law flux, records, and the continuation monitor."""

import io

import numpy as np
import pytest

from cmclab import (
    AXIAL,
    DiagnosticsCollector,
    DiagnosticsRecord,
    EmptyHistory,
    FLAT,
    GENERIC,
    GridSpec,
    MonitorConfig,
    MonitorVerdict,
    ParseError,
    SinkError,
    SliceState,
    ValidationError,
    br_energy,
    br_flux,
    constraint_norms,
    continuation_monitor,
    curvature_radius,
    emit_records,
    gradient_lapse_estimate_check,
    gradient,
    k_ratio,
    lapse_bound_margins,
    parse_records,
    solve_lapse,
    spacetime_br_energy,
    sup_norm,
)
from cmclab import kasner
from cmclab.checks import random_admissible_exponents, random_state
from cmclab.diagnostics import RECORD_COLUMNS
from cmclab.evolution import (
    conformal_vacuum_state,
    evolve_states,
    kasner_initial_data,
    perturb,
    rescale,
    time_step,
    warped_kasner_state,
)


def _record(t, e_br=0.0, e_sp=0.0, kr=1.0):
    return DiagnosticsRecord(
        t=t, e_br=e_br, e_br_spacetime=e_sp, k_ratio=kr, r_c=1.0, r_c_run=1.0,
        lapse_margin_low=0.0, lapse_margin_high=1.0, grad_n_sup=0.0,
        flux=0.0, ham_norm=0.0, mom_norm=0.0,
    )


@pytest.mark.parametrize("p,t", [(AXIAL, -1.0), (AXIAL, -2.0), (GENERIC, -0.6)])
def test_br_energy_matches_closed_form(grid8, p, t):
    s = kasner_initial_data(p, t, grid8)
    assert br_energy(s) == pytest.approx(kasner.br_energy(p, t, 1.0), rel=1e-12)


def test_br_energy_scales_with_torus_volume():
    grid = GridSpec((8, 8, 8), periods=(2.0, 1.0, 1.5))
    s = kasner_initial_data(AXIAL, -1.0, grid)
    assert br_energy(s) == pytest.approx(kasner.br_energy(AXIAL, -1.0, 3.0),
                                         rel=1e-12)


def test_flat_energy_is_zero(grid8):
    s = kasner_initial_data(FLAT, -1.0, grid8)
    assert br_energy(s) < 1e-25


def test_spacetime_energy_exact_on_kasner(grid8):
    # the lapse-weighted Kasner density is linear in t, where the
    # trapezoid rule is exact
    ts = np.linspace(-1.0, -0.5, 11)
    states = [kasner_initial_data(GENERIC, t, grid8) for t in ts]
    want = kasner.spacetime_br_energy(GENERIC, -1.0, -0.5, 1.0)
    assert spacetime_br_energy(states) == pytest.approx(want, rel=1e-12)
    # reversed run accumulates the same positive value
    assert spacetime_br_energy(states[::-1]) == pytest.approx(want, rel=1e-12)


def test_spacetime_energy_edge_cases(grid8):
    with pytest.raises(EmptyHistory):
        spacetime_br_energy([])
    s = kasner_initial_data(AXIAL, -1.0, grid8)
    assert spacetime_br_energy([s]) == 0.0


@pytest.mark.parametrize("p,t", [(AXIAL, -1.0), (AXIAL, -0.5), (GENERIC, -1.7)])
def test_flux_matches_analytic_energy_rate(grid8, p, t):
    s = kasner_initial_data(p, t, grid8)
    assert br_flux(s) == pytest.approx(kasner.br_energy_rate(p, t, 1.0),
                                       rel=1e-12)


@pytest.mark.parametrize("p", [AXIAL, GENERIC], ids=["axial", "generic"])
def test_br_chain_converges_to_kasner_on_warped_data(p):
    # Warped Kasner is exact Kasner in a chart where every component varies
    # in space, so e_br and the Gauss-law flux tend to the closed forms.
    # Kasner slices are flat and K is parallel, so every derivative term
    # (Ric, B, grad N) is pure truncation error, O(h^4) pointwise for the
    # 4th-order stencils.  B enters both only squared, grad N vanishes (the
    # solved lapse is tau^2 to rounding), and the O(h^4) and O(h^6) parts
    # of Ric integrate to zero against the parallel E: 2 int <E, Ric_h>
    # measures O(h^8) while sup |Ric_h| falls as h^4.  So both errors fall
    # as about h^8 (fitted 7.8).  That cancellation is measured, not proven
    # for every chart, so the fitted order asserted is the scheme's own, 4,
    # less a margin for fitting three grids.  r_c is left out: at this t the
    # torus-scale cap binds.
    t = -0.8
    tau = kasner.tau_of_t(t)
    k_mixed = kasner.second_form_diagonal(p, tau) / kasner.metric_diagonal(p, tau)
    spacings, errors = [], []
    for n in (16, 24, 32):
        grid = GridSpec.cubic(n)
        warped = warped_kasner_state(p, t, grid, 0.02)
        N, report = solve_lapse(warped.g, warped.K, tol=1e-12)
        assert report.converged
        assert np.max(np.abs(N.values / kasner.lapse(tau) - 1.0)) <= 1e-12
        state = SliceState(t=t, g=warped.g, K=warped.K, N=N)
        volume = float(np.prod(grid.periods))
        e_br, flux = br_energy(state), br_flux(state)
        spacings.append(grid.spacings[0])
        errors.append((abs(e_br / kasner.br_energy(p, t, volume) - 1.0),
                       abs(flux / kasner.br_energy_rate(p, t, volume) - 1.0)))
        # a record on a new state object derives the readers' bits afresh
        record = DiagnosticsCollector().add(SliceState(t=t, g=warped.g, K=warped.K, N=N))
        assert (record.e_br, record.flux) == (e_br, flux)
        assert record.k_ratio == pytest.approx(np.sqrt(np.sum(k_mixed**2)) / abs(t), rel=1e-15)
    assert max(errors[-1]) <= 5e-8
    for column in zip(*errors):
        assert np.polyfit(np.log(spacings), np.log(column), 1)[0] >= 3.7


def test_evolved_warped_flux_tracks_the_kasner_rate():
    # Warped GENERIC Kasner evolved by RK4 stays the exact solution in the
    # warped chart, so br_flux must follow kasner.br_energy_rate step by
    # step.  What separates them is the spatial truncation error of the
    # chart, as on a single warped slice (see the test above), measured at
    # 3.3e-7 (16^3) and 1.4e-8 (24^3) here and growing by under 2% over the
    # four steps.  The lapse solves (relative residual 1e-10) and RK4 at
    # dt 1e-3 (dt^4 = 1e-12) lie orders below it, so a bound of 1.5 times the
    # measured error at each grid leaves room only for rounding-order
    # changes: a lapse solved to the wrong multiple or tolerance, or a stage
    # that lost accuracy, reads far above it.
    errors = []
    for n, bound in ((16, 5e-7), (24, 2.1e-8)):
        state = warped_kasner_state(GENERIC, -1.0, GridSpec.cubic(n), 0.02)
        step_errors = [abs(br_flux(s) / kasner.br_energy_rate(GENERIC, s.t, 1.0) - 1.0)
                       for s in evolve_states(state, -0.996, dt=1e-3)]
        assert len(step_errors) == 4 and max(step_errors) <= bound
        errors.append(max(step_errors))
    # the error is the chart's truncation: it falls at least at the stencil order
    assert errors[1] <= errors[0] * (16 / 24) ** 3.7


@pytest.mark.parametrize("n, bound", [(16, 8.6e-7), (24, 9.4e-7)], ids=["16", "24"])
def test_gauss_law_holds_on_conformal_vacuum_data(n, bound):
    # On conformal vacuum data B != 0 and grad N != 0, so both terms of the
    # Gauss law dE/dt = br_flux count; on Kasner data only the N <q_abtt, K>
    # term does.  A centred difference of e_br over two RK4 steps is checked
    # against br_flux at the middle slice; it shares no code with the flux.
    # Measured mismatch 5.7e-7 (16^3) and 6.2e-7 (24^3), mostly the centred
    # difference's dt^2 error (2.5e-6 at dt 2e-3, 2.2e-7 at 5e-4); with the
    # sign of the grad N term flipped it reads 5.9e-3 on both grids.  The
    # bounds are 1.5 times the measured mismatch.
    dt = 1e-3
    s0 = conformal_vacuum_state(-1.0, GridSpec.cubic(n), 0.05)
    s1 = time_step(s0, dt, solver_tol=1e-12, trace_correction=True)
    s2 = time_step(s1, dt, solver_tol=1e-12, trace_correction=True)
    rate = (br_energy(s2) - br_energy(s0)) / (2.0 * dt)
    assert abs(rate - br_flux(s1)) <= bound * abs(br_flux(s1))


@pytest.mark.parametrize("p, t, bound", [(AXIAL, -40.0, 4.3e-5), (GENERIC, -200.0, 7.8e-3)],
                         ids=["axial", "generic"])
def test_curvature_radius_converges_to_kasner_on_warped_data(p, t, bound):
    # r_c is the inverse square root of sup sqrt(|E|^2 + |B|^2), which on
    # exact Kasner is kasner.curvature_sup, whatever the chart.  The torus
    # cap must not bind: at t = -0.8 (the test above) it does, and for
    # GENERIC even at t = -40 (cap 0.025 against r_c 0.037), since its cap
    # shrinks as tau^(6/7) against r_c's tau; it releases below t = -160.
    # So each family is taken at a t where its cap lies over 10% above both
    # r_c and the exact value, at every grid.  The bounds are 1.5 times the measured 32^3 errors
    # (2.9e-5 and 5.2e-3; deeper in the collapse the warped chart is more
    # anisotropic, so the truncation error of Ric is larger).  The fitted
    # orders measure 7.7 and 6.1; as for e_br above, that exceeds the
    # stencil order by a cancellation that is measured, not proven, so the
    # asserted order is the scheme's own, 4, less a margin for three grids.
    want = 1.0 / np.sqrt(kasner.curvature_sup(p, t))
    spacings, errors = [], []
    for n in (16, 24, 32):
        grid = GridSpec.cubic(n)
        state = warped_kasner_state(p, t, grid, 0.02)
        r_c = curvature_radius(state)
        g = state.g.values
        cap = 0.5 * min(period * float(np.sqrt(np.min(g[..., slot])))
                        for period, slot in zip(grid.periods, (0, 3, 5)))
        assert max(r_c, want) < cap / 1.1
        spacings.append(grid.spacings[0])
        errors.append(abs(r_c / want - 1.0))
    assert errors[-1] <= bound
    assert np.polyfit(np.log(spacings), np.log(errors), 1)[0] >= 3.7


def test_curvature_radius_flat_returns_torus_cap(grid8):
    s = kasner_initial_data(FLAT, -1.0, grid8)  # g = identity at tau = 1
    assert curvature_radius(s) == pytest.approx(0.5, rel=1e-12)


def test_curvature_radius_capped_then_uncapped(grid8):
    # near t = -1 the curvature is mild and the torus cap wins
    s1 = kasner_initial_data(AXIAL, -1.0, grid8)
    assert curvature_radius(s1) == pytest.approx(0.5, rel=1e-12)
    # deep in the collapse the curvature sup takes over
    t = -40.0
    tau = kasner.tau_of_t(t)
    want = tau / AXIAL.energy_coefficient**0.25
    s2 = kasner_initial_data(AXIAL, t, grid8)
    assert curvature_radius(s2) == pytest.approx(want, rel=1e-12)
    assert curvature_radius(s2) < 0.5 * tau ** (1.0 / 3.0)  # below the cap


@pytest.mark.parametrize("t", [-1.0, -40.0])
def test_curvature_radius_scales_as_a_length(grid8, t):
    # both branches (capped and uncapped) must follow r_c -> r_c / r
    s = kasner_initial_data(AXIAL, t, grid8)
    r = 3.0
    assert curvature_radius(rescale(s, r)) == pytest.approx(
        curvature_radius(s) / r, rel=1e-12)


def test_k_ratio_is_one_for_kasner(grid8, rng):
    for _ in range(5):
        p = random_admissible_exponents(rng)
        t = float(rng.uniform(-2.0, -0.3))
        s = kasner_initial_data(p, t, grid8)
        assert k_ratio(s) == pytest.approx(1.0, rel=1e-12)


def test_k_ratio_never_below_one_over_sqrt3(grid8, rng):
    for _ in range(5):
        s = random_state(grid8, rng)
        assert k_ratio(s) >= 1.0 / np.sqrt(3.0) - 1e-12


def test_gradient_estimate_on_homogeneous_data(grid8):
    s = kasner_initial_data(AXIAL, -1.0, grid8)
    lhs, rhs_shape, c_fit = gradient_lapse_estimate_check(s, 10.0)
    assert lhs == 0.0 and c_fit == 0.0
    r_c = curvature_radius(s)
    assert rhs_shape == pytest.approx(r_c * r_c * 10.0 + 1.0, rel=1e-12)


def test_gradient_estimate_rescaling_laws(grid8, rng):
    # lhs is scale invariant; rhs_shape picks up 1/r^2; c_fit picks up r^2
    s = random_state(grid8, rng)  # perturbed data: the lapse actually varies
    lam, r = 10.0, 2.0
    lhs, rhs_shape, c_fit = gradient_lapse_estimate_check(s, lam)
    assert lhs > 0.0
    lhs2, rhs2, c2 = gradient_lapse_estimate_check(rescale(s, r), lam)
    assert lhs2 == pytest.approx(lhs, rel=1e-12)
    assert rhs2 == pytest.approx(rhs_shape / r**2, rel=1e-12)
    assert c2 == pytest.approx(c_fit * r**2, rel=1e-12)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_gradient_estimate_rejects_a_bad_threshold(grid8, lam):
    s = kasner_initial_data(AXIAL, -1.0, grid8)
    with pytest.raises(ValueError, match="lambda_threshold"):
        gradient_lapse_estimate_check(s, lam)


def _evolved_axial(grid):
    s0 = kasner_initial_data(AXIAL, -1.0, grid)
    return [s0] + list(evolve_states(s0, -0.9, dt=0.02, solver_tol=1e-12))


def _perturbed_warped(grid):
    # Ric, B and grad N are nonzero here; on homogeneous Kasner all vanish
    return [perturb(warped_kasner_state(GENERIC, t, grid), 1e-3, seed=i)[0]
            for i, t in enumerate((-1.0, -0.95, -0.9))]


@pytest.mark.parametrize("history", [_evolved_axial, _perturbed_warped],
                         ids=["evolved_axial", "perturbed_warped"])
def test_collector_rows_match_standalone_quantities(grid8, history):
    states = history(grid8)
    collector = DiagnosticsCollector()
    for s in states:
        collector.add(s)
    records = collector.records
    assert len(records) == len(states)
    r_c_seen = np.inf
    for i, (rec, s) in enumerate(zip(records, states)):
        assert rec.t == s.t
        assert rec.e_br == pytest.approx(br_energy(s), rel=1e-13)
        assert rec.flux == pytest.approx(br_flux(s), rel=1e-13)
        assert rec.k_ratio == pytest.approx(k_ratio(s), rel=1e-13)
        assert rec.r_c == pytest.approx(curvature_radius(s), rel=1e-13)
        r_c_seen = min(r_c_seen, rec.r_c)
        assert rec.r_c_run == pytest.approx(r_c_seen, rel=1e-13)
        low, high = lapse_bound_margins(s.N, s.K, s.g)
        assert rec.lapse_margin_low == pytest.approx(low, abs=1e-14)
        assert rec.lapse_margin_high == pytest.approx(high, rel=1e-12)
        assert rec.grad_n_sup == pytest.approx(
            sup_norm(gradient(s.N), s.g), abs=1e-14)
        ham, mom = constraint_norms(s.g, s.K)
        assert rec.ham_norm == pytest.approx(ham, abs=1e-14)
        assert rec.mom_norm == pytest.approx(mom, abs=1e-14)
        assert rec.e_br_spacetime == pytest.approx(
            spacetime_br_energy(states[: i + 1]), rel=1e-12, abs=1e-15)


def test_monitor_window_selection_and_empty(grid8):
    records = [_record(t) for t in (-3.0, -2.0, -1.0, -0.5)]
    config = MonitorConfig(lambda_threshold=2.0, t0=-2.5, t_star=-0.75)
    verdict = continuation_monitor(records, config)
    assert len(verdict.energy_bound_holds) == 2  # -2.0 and -1.0 only
    with pytest.raises(EmptyHistory):
        continuation_monitor(records, MonitorConfig(2.0, t0=-0.4, t_star=-0.1))


def test_monitor_flags_energy_blowup():
    records = [_record(-2.0, e_sp=0.5), _record(-1.5, e_sp=3.0)]
    verdict = continuation_monitor(
        records, MonitorConfig(lambda_threshold=2.0, t0=-3.0, t_star=-1.0))
    assert verdict.criterion_energy_blowup
    assert verdict.energy_bound_holds == (True, False)
    assert not verdict.criterion_ratio_blowup
    assert not verdict.clean


def test_monitor_flags_ratio_blowup():
    records = [_record(-2.0, kr=1.0), _record(-1.5, kr=2.0)]
    verdict = continuation_monitor(
        records, MonitorConfig(lambda_threshold=2.0, t0=-3.0, t_star=-1.0))
    assert verdict.criterion_ratio_blowup  # 2^2 = 4 > 2
    assert verdict.ratio_bound_holds == (True, False)
    assert not verdict.criterion_energy_blowup


def test_monitor_reports_tension_when_energy_grows_under_bounds():
    records = [_record(-2.0, e_br=1.0, e_sp=0.1),
               _record(-1.5, e_br=500.0, e_sp=0.2)]
    verdict = continuation_monitor(
        records, MonitorConfig(lambda_threshold=2.0, t0=-3.0, t_star=-1.0))
    assert verdict.theorem_tension
    assert not verdict.clean
    # same growth with a violated bound is attributed to the bound instead
    records[1] = _record(-1.5, e_br=500.0, e_sp=5.0)
    verdict = continuation_monitor(
        records, MonitorConfig(lambda_threshold=2.0, t0=-3.0, t_star=-1.0))
    assert not verdict.theorem_tension
    assert verdict.criterion_energy_blowup


def test_monitor_clean_verdict():
    records = [_record(-2.0, e_br=1.0, e_sp=0.1),
               _record(-1.5, e_br=0.5, e_sp=0.2)]
    verdict = continuation_monitor(
        records, MonitorConfig(lambda_threshold=2.0, t0=-3.0, t_star=-1.0))
    assert verdict.clean
    assert isinstance(verdict, MonitorVerdict)


def test_monitor_config_validation():
    with pytest.raises(ValidationError):
        MonitorConfig(lambda_threshold=1.0, t0=-2.0, t_star=-1.0)
    with pytest.raises(ValidationError):
        MonitorConfig(lambda_threshold=2.0, t0=-1.0, t_star=-2.0)
    with pytest.raises(ValidationError):
        MonitorConfig(lambda_threshold=2.0, t0=-2.0, t_star=1.0)
    with pytest.raises(ValidationError):
        MonitorConfig(lambda_threshold=2.0, t0=-2.0, t_star=-1.0,
                      growth_factor=0.5)


@pytest.mark.parametrize("floor", [np.nan, np.inf, -np.inf, -1e-12])
def test_monitor_config_rejects_a_bad_energy_floor(floor):
    with pytest.raises(ValidationError, match="e_br_floor"):
        MonitorConfig(lambda_threshold=2.0, t0=-2.0, t_star=-1.0, e_br_floor=floor)


def test_emit_parse_round_trip_is_bitwise(grid8, tmp_path):
    s0 = kasner_initial_data(GENERIC, -1.0, grid8)
    collector = DiagnosticsCollector()
    collector.add(s0)
    for s in evolve_states(s0, -0.95, dt=0.01, solver_tol=1e-11):
        collector.add(s)
    path = tmp_path / "run.csv"
    emit_records(collector.records, path)
    back = parse_records(path)
    assert back == collector.records  # dataclass equality: every float exact

    stream = io.StringIO()
    emit_records(collector.records, stream)
    assert parse_records(io.StringIO(stream.getvalue())) == collector.records
    assert parse_records(stream.getvalue()) == collector.records


def test_parse_errors_carry_line_numbers():
    header = ",".join(RECORD_COLUMNS)
    with pytest.raises(ParseError):
        parse_records("\n\n")
    with pytest.raises(ParseError) as err:
        parse_records("a,b\n1,2\n")
    assert err.value.line == 1
    row = ",".join(["0.5"] * len(RECORD_COLUMNS))
    with pytest.raises(ParseError) as err:
        parse_records(header + "\n0.5,0.5\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_records(header + "\n" + row + "\n" +
                      row.replace("0.5", "spam", 1) + "\n")
    assert err.value.line == 3


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, len(RECORD_COLUMNS) - 1])
def test_parse_rejects_non_finite_cells(cell, column):
    # a row with t = nan would parse, then fall out of every monitor window
    good = ["-0.5"] * len(RECORD_COLUMNS)
    bad = good.copy()
    bad[column] = cell
    text = "\n".join([",".join(RECORD_COLUMNS), ",".join(good), ",".join(bad)]) + "\n"
    with pytest.raises(ParseError, match="non-finite") as err:
        parse_records(text)
    assert err.value.line == 3


def test_sink_errors_on_bad_paths(grid8, tmp_path):
    with pytest.raises(SinkError):
        emit_records([], tmp_path / "missing_dir" / "run.csv")
    with pytest.raises(SinkError):
        parse_records(tmp_path / "does_not_exist.csv")
