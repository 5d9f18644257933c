"""Initial data, RK4 stepping, CMC drift policy, blowup rescaling."""

import os
import subprocess
import sys

import numpy as np
import pytest

import oracles as orc
from cmclab import (
    AXIAL,
    CmcDriftExceeded,
    FLAT,
    GENERIC,
    DiagnosticsCollector,
    GridSpec,
    Metric,
    NonPositiveMetric,
    ScalarField,
    SecondForm,
    SymTensorField,
    check_lapse_bounds,
    constraint_norms,
    solve_lapse,
    trace,
)
from cmclab import kasner
from cmclab.grid import _stored_trace
from cmclab.evolution import (
    conformal_vacuum_state,
    evolution_rhs,
    evolve_states,
    kasner_initial_data,
    max_stable_dt,
    perturb,
    rescale,
    time_step,
    warped_kasner_state,
)

WARP_AMP = 0.02


def test_kasner_initial_data_values(grid8):
    t = -1.3
    tau = kasner.tau_of_t(t)
    s = kasner_initial_data(GENERIC, t, grid8)
    gd = kasner.metric_diagonal(GENERIC, tau)
    kd = kasner.second_form_diagonal(GENERIC, tau)
    for i in range(3):
        assert np.allclose(s.g.component(i, i), gd[i], rtol=1e-15)
        assert np.allclose(s.K.component(i, i), kd[i], rtol=1e-15)
    assert np.max(np.abs(s.g.component(0, 1))) == 0.0
    assert np.allclose(s.N.values, tau * tau, rtol=1e-12)
    assert np.max(np.abs(trace(s.K, s.g).values - t)) < 1e-13


def test_warped_state_is_vacuum_to_truncation_error():
    errs = {}
    for n in (16, 32):
        grid = GridSpec.cubic(n)
        s = warped_kasner_state(AXIAL, -1.0, grid, amplitude=WARP_AMP)
        errs[n] = constraint_norms(s.g, s.K)
        # the warp is a spatial diffeomorphism: tr K is similarity invariant
        assert np.max(np.abs(trace(s.K, s.g).values - s.t)) < 1e-12
    for i in range(2):
        order = np.log2(errs[16][i] / errs[32][i])
        assert 3.5 <= order <= 4.5


def test_conformal_vacuum_data_meet_both_constraints_at_the_stencil_order():
    # The conformal method solves both constraints in the continuum: tr K = t
    # holds by construction and the momentum constraint through the
    # transverse-traceless sigma; the Lichnerowicz equation is solved with
    # the discrete Laplacian itself.  What is left is the truncation of Ric,
    # div K and the waves, 4th order.  Measured ham_norm 4.21e-7, 8.79e-8,
    # 2.83e-8 and mom_norm 1.05e-8, 2.16e-9, 6.95e-10 at 16^3, 24^3, 32^3:
    # orders 3.87, 3.94 and 3.90, 3.95 between neighbouring grids.
    spacings, norms = [], []
    for n in (16, 24, 32):
        s = conformal_vacuum_state(-1.0, GridSpec.cubic(n), 0.05)
        assert np.max(np.abs(trace(s.K, s.g).values - s.t)) < 1e-14
        spacings.append(1.0 / n)
        norms.append(constraint_norms(s.g, s.K))
    for column in zip(*norms):
        assert min(np.diff(np.log(column)) / np.diff(np.log(spacings))) >= 3.7
    for t, amplitude in ((0.0, 0.05), (np.nan, 0.05), (-1.0, np.inf)):
        with pytest.raises(ValueError):
            conformal_vacuum_state(t, GridSpec.cubic(8), amplitude)


def test_warp_amplitude_zero_reduces_to_diagonal_data(grid8):
    w = warped_kasner_state(GENERIC, -1.0, grid8, amplitude=0.0)
    d = kasner_initial_data(GENERIC, -1.0, grid8)
    assert np.allclose(w.g.values, d.g.values, rtol=0, atol=1e-15)
    assert np.allclose(w.K.values, d.K.values, rtol=0, atol=1e-15)


def test_perturb_is_deterministic_and_trace_preserving(grid8):
    base = kasner_initial_data(AXIAL, -1.0, grid8)
    s1, norms1 = perturb(base, 1e-3, seed=42)
    s2, norms2 = perturb(base, 1e-3, seed=42)
    assert np.array_equal(s1.g.values, s2.g.values)
    assert np.array_equal(s1.K.values, s2.K.values)
    assert norms1 == norms2
    assert np.max(np.abs(trace(s1.K, s1.g).values - s1.t)) < 1e-13
    s3, _ = perturb(base, 1e-3, seed=43)
    assert not np.array_equal(s1.g.values, s3.g.values)


# One perturbed step and its record; prints the sha256 of the record text and of g, K and N.
_STEP_DIGEST = """
import hashlib, io
import numpy as np
from cmclab import (AXIAL, DiagnosticsCollector, GridSpec, emit_records, perturb, time_step,
                    warped_kasner_state)
state, _ = perturb(warped_kasner_state(AXIAL, -1.0, GridSpec.cubic(24), 0.02), 1e-4, 7)
state = time_step(state, 1e-3, trace_correction=True)
collector = DiagnosticsCollector()
collector.add(state)
text = io.StringIO()
emit_records(collector.records, text)
digest = hashlib.sha256(text.getvalue().encode())
for values in (state.g.values, state.K.values, state.N.values):
    digest.update(np.ascontiguousarray(values).tobytes())
print(digest.hexdigest())
"""


def test_step_and_record_are_bitwise_across_blas_thread_counts():
    # Every derivative is a BLAS product.  OpenBLAS splits a product among
    # its threads only above m n k = 262144, which the first- and last-axis
    # products of a 24^3 plane pass (24 * 576 * 24) and those of 16^3 do not.
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _STEP_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_perturb_amplitude_zero_is_identity(grid8):
    base = kasner_initial_data(AXIAL, -1.0, grid8)
    s, norms = perturb(base, 0.0, seed=1)
    assert s is base
    assert norms[0] < 1e-12 and norms[1] < 1e-12


def test_perturb_residuals_scale_linearly(grid8):
    base = kasner_initial_data(AXIAL, -1.0, grid8)
    _, small = perturb(base, 1e-4, seed=7)
    _, large = perturb(base, 1e-3, seed=7)
    for i in range(2):
        ratio = large[i] / small[i]
        assert 6.0 < ratio < 14.0


def test_perturbed_lapse_still_respects_bounds(grid8):
    base = kasner_initial_data(GENERIC, -0.8, grid8)
    s, _ = perturb(base, 1e-3, seed=3)
    check_lapse_bounds(s.N, s.K, s.g)


def test_perturb_rejects_negative_amplitude_and_sick_metrics(grid8):
    base = kasner_initial_data(AXIAL, -1.0, grid8)
    with pytest.raises(ValueError):
        perturb(base, -0.5, seed=0)
    for amplitude in (np.nan, np.inf):
        with pytest.raises(ValueError, match="amplitude"):
            perturb(base, amplitude, seed=0)
    with pytest.raises(NonPositiveMetric):
        perturb(base, 50.0, seed=0)


def test_evolution_rhs_matches_kasner_time_derivatives(grid8, rng):
    # d/dt g_ii = 2 p tau^{2p+1},  d/dt K_ii = p (1 - 2p) tau^{2p}
    from cmclab.checks import random_admissible_exponents
    for _ in range(5):
        p = random_admissible_exponents(rng)
        t = float(rng.uniform(-2.0, -0.4))
        tau = kasner.tau_of_t(t)
        s = kasner_initial_data(p, t, grid8)
        dg, dk = evolution_rhs(s.g, s.K, s.N)
        for i, pi in enumerate(p.exponents):
            idx = (0, 3, 5)[i]
            want_g = 2.0 * pi * tau ** (2.0 * pi + 1.0)
            want_k = pi * (1.0 - 2.0 * pi) * tau ** (2.0 * pi)
            assert np.allclose(dg[..., idx], want_g, rtol=1e-11, atol=1e-12)
            assert np.allclose(dk[..., idx], want_k, rtol=1e-11, atol=1e-12)
        for idx in (1, 2, 4):  # off-diagonal rates stay zero
            assert np.max(np.abs(dg[..., idx])) < 1e-13
            assert np.max(np.abs(dk[..., idx])) < 1e-13


def test_single_step_is_locally_fifth_order(grid8):
    t0 = -1.0
    s = kasner_initial_data(GENERIC, t0, grid8)
    errs = []
    for dt in (0.08, 0.04):
        stepped = time_step(s, dt, solver_tol=1e-13, cmc_drift_tol=1e-3)
        exact = kasner_initial_data(GENERIC, t0 + dt, grid8)
        errs.append(np.max(np.abs(stepped.g.values - exact.g.values)))
    order = np.log2(errs[0] / errs[1])
    assert 4.6 <= order <= 5.4


def _literal_rk4_step(state, dt, solver_tol):
    """(t, g, K, N) of classical RK4 written out stage by stage, then the tr K projection."""
    grid = state.grid

    def stage(g_vals, k_vals, guess):
        g = Metric(grid, g_vals)
        K = SecondForm(grid, k_vals, g)
        N, _ = solve_lapse(g, K, tol=solver_tol, initial_guess=guess)
        return (N, *evolution_rhs(g, K, N))

    g0, k0 = state.g.values, state.K.values
    n1, dg1, dk1 = stage(g0, k0, state.N)
    n2, dg2, dk2 = stage(g0 + 0.5 * dt * dg1, k0 + 0.5 * dt * dk1, n1)
    n3, dg3, dk3 = stage(g0 + 0.5 * dt * dg2, k0 + 0.5 * dt * dk2, n2)
    n4, dg4, dk4 = stage(g0 + dt * dg3, k0 + dt * dk3, n3)
    g = Metric(grid, g0 + (dt / 6.0) * (dg1 + 2.0 * dg2 + 2.0 * dg3 + dg4))
    k_vals = k0 + (dt / 6.0) * (dk1 + 2.0 * dk2 + 2.0 * dk3 + dk4)
    t = state.t + dt
    # tr K from the six stored components, the contraction time_step uses
    drift = _stored_trace(k_vals, g._inv_planes) - t
    K = SecondForm(grid, k_vals - (drift[..., None] / 3.0) * g.values, g)
    N, _ = solve_lapse(g, K, tol=solver_tol, initial_guess=n4)
    return t, g.values, K.values, N.values


@pytest.mark.parametrize("solver_tol", [1e-10, 1e-11])  # stage 1 runs 0 CG iterations, or some
def test_time_step_is_bitwise_literal_rk4(solver_tol):
    state, _ = perturb(warped_kasner_state(AXIAL, -1.0, GridSpec.cubic(12), WARP_AMP), 1e-3, 11)
    head = time_step(state, 1e-3, trace_correction=True)
    DiagnosticsCollector().add(head)  # the record leaves its SecondForm for the next step
    for start in (state, head):
        stepped = time_step(start, 1e-3, solver_tol=solver_tol, trace_correction=True)
        expected = _literal_rk4_step(start, 1e-3, solver_tol)
        assert stepped.t == expected[0]
        for got, want in zip((stepped.g, stepped.K, stepped.N), expected[1:]):
            assert got.values.tobytes() == want.tobytes()


def test_flat_slices_stay_flat_and_energy_free(grid8):
    from cmclab import br_energy
    s = kasner_initial_data(FLAT, -1.0, grid8)
    count = 0
    for s in evolve_states(s, -0.8, dt=0.002, solver_tol=1e-12):
        count += 1
    assert count == 100
    assert br_energy(s) < 1e-18
    exact = kasner_initial_data(FLAT, -0.8, grid8)
    assert np.max(np.abs(s.g.values - exact.g.values)) < 1e-9


def test_evolved_kasner_matches_analytic_metric(grid8):
    s = kasner_initial_data(AXIAL, -1.0, grid8)
    for s in evolve_states(s, -0.9, dt=0.005, solver_tol=1e-12):
        pass
    exact = kasner_initial_data(AXIAL, -0.9, grid8)
    assert np.max(np.abs(s.g.values - exact.g.values)) < 1e-8
    assert np.max(np.abs(s.K.values - exact.K.values)) < 1e-8
    assert np.max(np.abs(s.N.values - exact.N.values)) < 1e-8


def test_warped_evolution_tracks_the_diffeomorphed_solution(grid8):
    # same spacetime in warped coordinates: the time-independent spatial
    # diffeomorphism commutes with the zero-shift CMC flow
    s = warped_kasner_state(GENERIC, -1.0, grid8, amplitude=WARP_AMP)
    for s in evolve_states(s, -0.9, dt=0.005, solver_tol=1e-12,
                           trace_correction=True):
        pass
    exact = warped_kasner_state(GENERIC, -0.9, grid8, amplitude=WARP_AMP)
    assert np.max(np.abs(s.g.values - exact.g.values)) < 5e-4
    assert np.max(np.abs(s.K.values - exact.K.values)) < 5e-3
    assert np.max(np.abs(s.N.values - exact.N.values)) < 1e-4


def test_evolved_conformal_data_keep_the_constraints_at_the_stencil_order():
    # Vacuum evolution preserves the constraints, so on data with grad N != 0
    # (the other evolution tests have a constant lapse, hence no Hessian)
    # they stay truncation-level and converge at the stencil order.  Measured
    # ham_norm 4.55e-4 -> 9.43e-5 and mom_norm 3.56e-4 -> 7.39e-5 at 16^3 ->
    # 24^3, both order 3.88.  Without projection, as criterion 5 runs, so
    # the tr K drift is judged by cmc_drift_tol; a flipped Hessian sign or
    # N dropped from N (E - K g^-1 K) exceeds it before t = -0.9.
    spacings, norms = [], []
    for n in (16, 24):
        s = conformal_vacuum_state(-1.0, GridSpec.cubic(n), 0.1)
        for s in evolve_states(s, -0.9, dt=0.01, cmc_drift_tol=1e-2):
            pass
        assert s.t == -0.9
        spacings.append(1.0 / n)
        norms.append(constraint_norms(s.g, s.K))
    for column in zip(*norms):
        assert np.diff(np.log(column))[0] / np.diff(np.log(spacings))[0] >= 3.7


def test_evolve_states_lands_exactly_and_respects_direction(grid8):
    s0 = kasner_initial_data(AXIAL, -1.0, grid8)
    times = [s.t for s in evolve_states(s0, -0.9, dt=0.0151, solver_tol=1e-11)]
    assert times[-1] == pytest.approx(-0.9, abs=1e-14)
    assert all(b > a for a, b in zip(times, times[1:]))
    assert max(np.diff([-1.0] + times)) <= 0.0151 + 1e-12

    # collapse direction: negative dt, t decreasing
    times = [s.t for s in evolve_states(s0, -1.1, dt=-0.025, solver_tol=1e-11)]
    assert times[-1] == pytest.approx(-1.1, abs=1e-14)
    assert all(b < a for a, b in zip(times, times[1:]))


def test_cfl_steps_keep_the_time_label_a_python_float(grid8):
    # an np.float64 label prints as np.float64(...) in error messages
    s0, _ = perturb(kasner_initial_data(AXIAL, -1.0, grid8), 1e-3, seed=7)
    states = list(evolve_states(s0, -0.95, trace_correction=True))
    assert len(states) >= 2
    assert all(type(s.t) is float for s in states)


def test_evolve_states_argument_validation(grid8, monkeypatch):
    s0 = kasner_initial_data(AXIAL, -1.0, grid8)
    with pytest.raises(ValueError):
        list(evolve_states(s0, 0.5))
    with pytest.raises(ValueError):
        list(evolve_states(s0, -0.5, dt=-0.01))  # sign points away
    assert list(evolve_states(s0, -1.0)) == []  # already there
    for t_end in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="t_end"):
            next(evolve_states(s0, t_end))
    for cfl in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="cfl"):
            max_stable_dt(s0, cfl)
    # next(), not list(): an unchecked -inf or zero cfl would step forever
    with pytest.raises(ValueError, match="cfl"):
        next(evolve_states(s0, -0.5, cfl=0.0))
    # an infinite dt would otherwise be cut to one step over the whole interval
    for dt in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="dt must be finite"):
            next(evolve_states(s0, -0.5, dt=dt, trace_correction=True))
        with pytest.raises(ValueError, match="dt must be finite"):
            time_step(s0, dt)

    # a dt below half an ulp of t would repeat t = -1.0 until the step budget
    # ran out; time_step refuses it before a lapse solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_lapse ran before dt was checked")

    monkeypatch.setattr("cmclab.evolution.solve_lapse", no_solve)
    with pytest.raises(ValueError, match="does not move t"):
        time_step(s0, 1e-17)
    with pytest.raises(ValueError, match="does not move t"):
        next(evolve_states(s0, -0.5, dt=1e-17))


def test_adaptive_steps_follow_the_cfl_bound(grid8):
    s0 = kasner_initial_data(AXIAL, -1.0, grid8)
    prev_t = s0.t
    prev_state = s0
    for s in evolve_states(s0, -0.93, cfl=0.3, solver_tol=1e-11):
        dt = s.t - prev_t
        assert dt <= max_stable_dt(prev_state, cfl=0.3) + 1e-15
        prev_t, prev_state = s.t, s
    assert prev_t == pytest.approx(-0.93, abs=1e-14)


def test_max_stable_dt_formula(grid8):
    s = kasner_initial_data(AXIAL, -2.0, grid8)  # N = tau^2 = 1/4
    # diagonal metric: the fastest light runs along the smallest g_ii
    g_min = float(np.min(kasner.metric_diagonal(AXIAL, kasner.tau_of_t(-2.0))))
    want = 0.25 * min(grid8.spacings) / (float(np.max(s.N.values)) / np.sqrt(g_min))
    assert max_stable_dt(s) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("amplitude", [0.0, WARP_AMP])
def test_max_stable_dt_follows_the_coordinate_light_speed(grid8, amplitude):
    # AXIAL at t = -0.1: sup N = 100, but light moves at N sqrt(lambda_max(g^-1)) = 215.4
    s = warped_kasner_state(AXIAL, -0.1, grid8, amplitude=amplitude)
    inv = orc.brute_inverse(orc.sym_to_mat(s.g.values))
    speed = float(np.max(s.N.values * np.sqrt(np.linalg.eigvalsh(inv)[..., -1])))
    assert speed > 2.0 * float(np.max(s.N.values))
    want = 0.3 * min(grid8.spacings) / speed
    assert max_stable_dt(s, cfl=0.3) == pytest.approx(want, rel=1e-12)


def test_drift_policy_raises_or_projects(grid8):
    base = kasner_initial_data(GENERIC, -1.0, grid8)
    noisy, _ = perturb(base, 1e-3, seed=11)
    with pytest.raises(CmcDriftExceeded):
        time_step(noisy, 0.01, solver_tol=1e-11, cmc_drift_tol=1e-12)
    fixed = time_step(noisy, 0.01, solver_tol=1e-11, trace_correction=True)
    assert np.max(np.abs(trace(fixed.K, fixed.g).values - fixed.t)) < 1e-13


def test_drift_tolerance_is_checked_before_any_work(grid8, monkeypatch):
    # NaN and +inf would switch the drift check off, and -inf or -1 would
    # fail every step; each is rejected before a lapse solve
    noisy, _ = perturb(kasner_initial_data(GENERIC, -1.0, grid8), 1e-3, seed=11)

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_lapse ran before cmc_drift_tol was checked")

    monkeypatch.setattr("cmclab.evolution.solve_lapse", no_solve)
    for tol in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="cmc_drift_tol"):
            time_step(noisy, 0.01, cmc_drift_tol=tol)
        with pytest.raises(ValueError, match="cmc_drift_tol"):
            next(evolve_states(noisy, -0.9, dt=0.01, cmc_drift_tol=tol))


def test_rescale_transforms_fields_and_keeps_lapse(grid8):
    s = kasner_initial_data(GENERIC, -1.2, grid8)
    r = 2.5
    out = rescale(s, r)
    assert np.array_equal(out.g.values, s.g.values / (r * r))
    assert np.array_equal(out.K.values, s.K.values / r)
    assert out.t == r * s.t
    assert out.N is s.N  # the lapse is carried over, not recomputed
    assert np.max(np.abs(trace(out.K, out.g).values - r * s.t)) < 1e-12


def test_rescale_identity_and_involution(grid8):
    s = kasner_initial_data(AXIAL, -1.0, grid8)
    assert rescale(s, 1.0) is s
    back = rescale(rescale(s, 3.0), 1.0 / 3.0)
    assert np.allclose(back.g.values, s.g.values, rtol=1e-14)
    assert np.allclose(back.K.values, s.K.values, rtol=1e-14)
    assert back.t == pytest.approx(s.t, rel=1e-15)


def test_rescale_rejects_bad_factor(grid8):
    s = kasner_initial_data(AXIAL, -1.0, grid8)
    for bad in (0.0, -2.0, float("nan")):
        with pytest.raises(ValueError):
            rescale(s, bad)
