"""CMC lapse solves: manufactured solutions, CG behavior, bound checks."""

from functools import cached_property

import numpy as np
import pytest

import oracles as orc
from cmclab import (
    AXIAL,
    BoundViolation,
    DegenerateZeroOrderTerm,
    EllipticSolveReport,
    GridSpec,
    NonPositiveMetric,
    ScalarField,
    SolverDiverged,
    SymTensorField,
    as_metric,
    as_second_form,
    check_lapse_bounds,
    default_bound_tolerance,
    inverse_metric,
    lapse_bound_margins,
    metric_determinant,
    norm_sq,
    perturb,
    solve_lapse,
    time_step,
    warped_kasner_state,
)
from cmclab import evolution as evolution_module
from cmclab import kasner
from cmclab import lapse as lapse_module
from cmclab.checks import random_metric
from cmclab.grid import diff_array, sym_index
from cmclab.lapse import BOUND_TOL_COEFF, DEFAULT_TOL, _Operator, _solve, _zero_order


def _operator_pieces(g, K):
    """sqrt(g), the six coefficient planes sqrt(g) g^ab on the stored pairs, and sqrt(g)|K|^2."""
    sqrt_g = np.sqrt(metric_determinant(g))
    inv = inverse_metric(g)
    coeff = np.stack([sqrt_g * inv[..., a, b] for a, b in orc.SYM_PAIRS])
    weight = sqrt_g * norm_sq(K, g).values
    return sqrt_g, coeff, weight


def _applied(n_vals, coeff, weight_v, spacings):
    """One apply of the solver's operator workspace, built over the coefficient planes."""
    return _Operator(1.0, coeff, weight_v, spacings).apply(n_vals, np.empty_like(weight_v))


def test_constant_coefficient_solution_is_exact(grid8):
    # K = phi g with constant phi: N = 1/(3 phi^2) solves the equation
    g = SymTensorField.diagonal_constant(grid8, (1.0, 2.0, 0.5))
    phi = -0.7
    K = SymTensorField(grid8, phi * g.values)
    N, report = solve_lapse(g, K)
    assert report.converged
    assert report.iterations == 0  # default initial guess already solves it
    assert np.all(N.values == 1.0 / (3.0 * phi * phi))


@pytest.mark.parametrize("t", [-1.0, -0.4, -2.5])
def test_kasner_lapse_saturates_lower_bound(grid8, t):
    tau = kasner.tau_of_t(t)
    g = SymTensorField.diagonal_constant(grid8, kasner.metric_diagonal(AXIAL, tau))
    K = SymTensorField.diagonal_constant(
        grid8, kasner.second_form_diagonal(AXIAL, tau))
    N, report = solve_lapse(g, K)
    assert report.converged
    assert np.allclose(N.values, tau * tau, rtol=1e-12)
    low, high = lapse_bound_margins(N, K, g)
    assert abs(low) < 1e-12 * tau * tau  # N = 1/|K|^2 pointwise
    assert high > 0.0


def test_manufactured_problem_converges_at_order_four():
    errs = {}
    for n in (8, 16, 32):
        grid = GridSpec.cubic(n)
        g6, k6, f, n_exact = orc.manufactured_lapse_problem(grid)
        g = SymTensorField(grid, g6)
        K = SymTensorField(grid, k6)
        N, report = _solve(g, norm_sq(K, g).values, 1e-12, rhs=ScalarField(grid, f))
        assert report.converged
        errs[n] = np.max(np.abs(N.values - n_exact))
    assert np.log2(errs[8] / errs[16]) > 3.5
    assert np.log2(errs[16] / errs[32]) > 3.5
    assert errs[32] < 1e-4


@pytest.mark.parametrize("shear", [0.0, 0.3], ids=["pure-trace", "sheared"])
def test_solve_reads_k_only_through_its_norm(grid16, shear):
    # the pure-trace K' = sqrt(c/3) g, c = |K|^2_g, poses the same lapse equation as K
    g6, k6, _, _ = orc.manufactured_lapse_problem(grid16)
    k6 = k6.copy()
    k6[..., 1] += shear * np.sin(2 * np.pi * grid16.meshes()[2])
    g, K = as_metric(SymTensorField(grid16, g6)), SymTensorField(grid16, k6)
    c = _zero_order(as_second_form(K, g))
    pure = SymTensorField(grid16, np.sqrt(c / 3.0)[..., None] * g6)
    tol = 1e-10
    N, _ = solve_lapse(g, K, tol)
    N_pure, _ = solve_lapse(g, pure, tol)
    assert np.max(np.abs(N_pure.values - N.values)) <= tol * np.max(N.values)
    # the solve and the lower bound read the one coefficient
    assert np.array_equal(N.values, _solve(g, c, tol)[0].values)
    low, _ = lapse_bound_margins(N, K, g)
    assert low == np.min(N.values) - 1.0 / np.max(c)


def test_discrete_manufactured_solution_recovered_to_solver_tolerance(grid16, rng):
    # rhs built by applying the discrete operator itself: no truncation term
    g = random_metric(grid16, rng)
    phi = 1.0 + 0.3 * np.sin(2 * np.pi * grid16.meshes()[1])
    K = SymTensorField(grid16, phi[..., None] * g.values)
    sqrt_g, coeff, weight = _operator_pieces(g, K)
    x_star = 1.0 + 0.2 * np.cos(2 * np.pi * grid16.meshes()[0])
    rhs = _applied(x_star, coeff, weight, grid16.spacings) / sqrt_g
    N, report = _solve(g, norm_sq(K, g).values, 1e-13, rhs=ScalarField(grid16, rhs))
    assert report.converged
    assert np.max(np.abs(N.values - x_star)) < 1e-9


@pytest.mark.parametrize("shape", [(9, 12, 16), (16, 12, 9)])
def test_manufactured_solution_on_anisotropic_odd_grid(shape, rng):
    # unequal spacings per axis, and an odd axis length on a complex FFT
    # axis and on the halved real-FFT (last) axis
    grid = GridSpec(shape, (1.0, 2.0, 0.5))
    x, y, z = grid.meshes()
    g = random_metric(grid, rng)
    phi = 1.0 + 0.3 * np.sin(2 * np.pi * y / 2.0)
    K = SymTensorField(grid, phi[..., None] * g.values)
    sqrt_g, coeff, weight = _operator_pieces(g, K)
    x_star = 1.0 + 0.2 * np.cos(2 * np.pi * x) + 0.1 * np.sin(2 * np.pi * z / 0.5)
    rhs = _applied(x_star, coeff, weight, grid.spacings) / sqrt_g
    N, report = _solve(g, norm_sq(K, g).values, 1e-13, rhs=ScalarField(grid, rhs))
    assert report.converged
    assert np.max(np.abs(N.values - x_star)) < 1e-9


@pytest.mark.parametrize("n", [16, 32])
def test_cold_solve_iterations_do_not_grow_with_resolution(n):
    # The preconditioner's condition number against the operator depends
    # on the coefficient variation, not on h, so the count stays flat.
    base = warped_kasner_state(AXIAL, -1.0, GridSpec.cubic(n), 0.02)
    s, _ = perturb(base, 1e-2, 7)
    N, report = solve_lapse(s.g, s.K)
    assert report.converged
    assert report.iterations <= 20


def test_cg_energy_error_is_monotone(grid8, rng):
    g = random_metric(grid8, rng)
    phi = 1.0 + 0.25 * np.sin(2 * np.pi * grid8.meshes()[2])
    K = SymTensorField(grid8, phi[..., None] * g.values)
    sqrt_g, coeff, weight = _operator_pieces(g, K)
    x_star = 1.0 + 0.15 * np.sin(2 * np.pi * grid8.meshes()[0]) \
        + 0.1 * np.cos(2 * np.pi * grid8.meshes()[1])
    rhs = ScalarField(grid8, _applied(
        x_star, coeff, weight, grid8.spacings) / sqrt_g)
    iterates = []
    _solve(g, norm_sq(K, g).values, 1e-12, rhs=rhs,
           initial_guess=ScalarField.constant(grid8, 1.0),
           callback=lambda v: iterates.append(v))
    energies = []
    for x in iterates:
        e = x - x_star
        energies.append(float(np.sum(e * _applied(
            e, coeff, weight, grid8.spacings))))
    assert len(energies) > 3
    for prev, nxt in zip(energies, energies[1:]):
        assert nxt <= prev * (1.0 + 1e-12)  # PCG decreases the A-norm error
    assert energies[-1] < 1e-10 * energies[0]


def test_report_residual_history_and_tolerance(grid8, rng):
    g = random_metric(grid8, rng)
    phi = 1.0 + 0.2 * np.cos(2 * np.pi * grid8.meshes()[0])
    K = SymTensorField(grid8, phi[..., None] * g.values)
    N, report = solve_lapse(g, K, tol=1e-11)
    assert report.converged
    assert report.final_residual <= 1e-11
    assert report.residual_history[0] > report.residual_history[-1]
    assert len(report.residual_history) == report.iterations + 1


def test_solves_are_bitwise_deterministic(grid8, rng):
    g = random_metric(grid8, rng)
    phi = 1.0 + 0.2 * np.sin(2 * np.pi * grid8.meshes()[1])
    K = SymTensorField(grid8, phi[..., None] * g.values)
    n1, r1 = solve_lapse(g, K)
    n2, r2 = solve_lapse(g, K)
    assert np.array_equal(n1.values, n2.values)
    assert r1.iterations == r2.iterations
    assert r1.residual_history == r2.residual_history


def test_initial_guess_at_solution_converges_immediately(grid8, rng):
    g = random_metric(grid8, rng)
    phi = 1.0 + 0.2 * np.sin(2 * np.pi * grid8.meshes()[0])
    K = SymTensorField(grid8, phi[..., None] * g.values)
    N, _ = solve_lapse(g, K, tol=1e-12)
    again, report = solve_lapse(g, K, tol=1e-10, initial_guess=N)
    assert report.iterations == 0
    assert np.array_equal(again.values, N.values)


def test_preconditioner_is_built_only_when_cg_iterates(grid8, rng, monkeypatch):
    g = random_metric(grid8, rng)
    phi = 1.0 + 0.2 * np.sin(2 * np.pi * grid8.meshes()[0])
    K = SymTensorField(grid8, phi[..., None] * g.values)
    N, _ = solve_lapse(g, K, tol=1e-12)
    counts = {"apply": 0, "build": 0}
    apply, symbol = lapse_module._Operator.apply, lapse_module._Operator._inv_symbol.func

    def counted_apply(self, *args):
        counts["apply"] += 1
        return apply(self, *args)

    def counted_build(self):
        counts["build"] += 1
        return symbol(self)

    counted_symbol = cached_property(counted_build)
    counted_symbol.__set_name__(lapse_module._Operator, "_inv_symbol")
    monkeypatch.setattr(lapse_module._Operator, "apply", counted_apply)
    monkeypatch.setattr(lapse_module._Operator, "_inv_symbol", counted_symbol)

    def solve(**kwargs):
        counts.update(apply=0, build=0)
        return (*solve_lapse(g, K, tol=1e-10, **kwargs), dict(counts))

    # a guess that meets tol: its first residual is the report, and it is returned as it is
    again, report, seen = solve(initial_guess=N)
    h0 = report.residual_history[0]
    assert seen == {"apply": 1, "build": 0} and h0 <= 1e-10
    assert report == EllipticSolveReport(0, h0, True, [h0])
    assert again.values.tobytes() == N.values.tobytes()
    # a guess the Ritz start converges: its apply and the verified residual
    _, report, seen = solve(initial_guess=ScalarField(grid8, 2.0 * N.values))
    assert seen == {"apply": 2, "build": 0} and report.iterations == 0
    _, report, seen = solve()
    assert seen["build"] == 1 and report.iterations > 0


def test_preconditioner_runs_once_per_cg_iteration(grid16, monkeypatch):
    # one at the start of each iteration: none after the last one, nor after
    # the last one before each restart on the verified residual
    calls = []
    precondition = lapse_module._Operator.precondition

    def counted(self, res):
        calls.append(1)
        return precondition(self, res)

    monkeypatch.setattr(lapse_module._Operator, "precondition", counted)
    warped = warped_kasner_state(AXIAL, -1.0, grid16, 0.02)
    # a cold solve, and one the verified residual restarts many times
    for s, tol in ((_perturbed_slice(grid16), 1e-10), (warped, 1e-14)):
        calls.clear()
        _, report = solve_lapse(s.g, s.K, tol=tol)
        assert report.iterations > 0 and len(calls) == report.iterations


@pytest.mark.parametrize("grid", [GridSpec.cubic(16), GridSpec.cubic(8, period=0.01),
                                  GridSpec((12, 10, 9), (1.0, 2.5, 0.7))],
                         ids=["16", "8-small", "anisotropic"])
def test_preconditioner_symbol_is_the_closed_form(grid, rng):
    # bitwise the symbol (8 sin theta - sin 2 theta) / (6 h) written out, so
    # taking it from grid._diff_symbol leaves every CG iterate as it was
    g = random_metric(grid, rng)
    _, coeff, weight = _operator_pieces(g, g)
    thetas = [2.0 * np.pi * np.fft.fftfreq(grid.shape[0]),
              2.0 * np.pi * np.fft.fftfreq(grid.shape[1]),
              2.0 * np.pi * np.fft.rfftfreq(grid.shape[2])]
    s = np.meshgrid(*((8.0 * np.sin(th) - np.sin(2.0 * th)) / (6.0 * h)
                      for th, h in zip(thetas, grid.spacings)), indexing="ij", sparse=True)
    c_mean = [np.mean(plane) for plane in coeff]
    want = 1.0 / (np.mean(weight) + sum(c_mean[sym_index(a, b)] * s[a] * s[b]
                                        for a in range(3) for b in range(3)))
    assert np.array_equal(_Operator(1.0, coeff, weight, grid.spacings)._inv_symbol, want)


def test_guess_a_multiple_of_the_solution_converges_at_once(grid8, rng):
    # the Ritz start scales the guess to the A-norm nearest multiple, N itself
    g = random_metric(grid8, rng)
    phi = 1.0 + 0.2 * np.sin(2 * np.pi * grid8.meshes()[0])
    K = SymTensorField(grid8, phi[..., None] * g.values)
    N, _ = solve_lapse(g, K, tol=1e-12)
    again, report = solve_lapse(g, K, tol=1e-10, initial_guess=ScalarField(grid8, 2.0 * N.values))
    assert report.converged and report.iterations == 0
    assert report.residual_history[0] <= 1e-10
    assert np.max(np.abs(again.values / N.values - 1.0)) < 1e-9


def test_zero_guess_solves_like_a_cold_start(grid8, rng):
    # x0 . A x0 = 0 leaves the zero guess unscaled, with no division by zero
    g = random_metric(grid8, rng)
    K = SymTensorField(grid8, 1.1 * g.values)
    cold, _ = solve_lapse(g, K, tol=1e-12)
    with np.errstate(all="raise"):
        N, report = solve_lapse(g, K, tol=1e-12, initial_guess=ScalarField.constant(grid8, 0.0))
    assert report.converged and report.iterations > 0
    # the residual of x0 = 0 is the whole rhs
    assert report.residual_history[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(N.values / cold.values - 1.0)) < 1e-10


def _literal_operator(n_vals, coeff, weight_v, spacings):
    # the operator as a plain formula, with a new array for every term
    out = weight_v * n_vals
    dn = [diff_array(n_vals, b, spacings[b]) for b in range(3)]
    for a in range(3):
        flux = sum(coeff[sym_index(a, b)] * dn[b] for b in range(3))
        out -= diff_array(flux, a, spacings[a])
    return out


@pytest.mark.parametrize("shape", [(9, 12, 16), (16, 12, 9), (32, 32, 32)])
def test_operator_workspace_is_bitwise_the_plain_formula(shape, rng):
    grid = GridSpec(shape, (1.0, 2.0, 0.5))
    g = random_metric(grid, rng)
    K = SymTensorField(grid, (1.0 + 0.2 * rng.random(shape))[..., None] * g.values)
    _, coeff, weight = _operator_pieces(g, K)
    n_vals = 1.0 + 0.1 * rng.standard_normal(shape)
    expected = _literal_operator(n_vals, coeff, weight, grid.spacings)
    assert np.array_equal(_applied(n_vals, coeff, weight, grid.spacings), expected)


def _perturbed_slice(grid, seed=7, amplitude=1e-2):
    state, _ = perturb(warped_kasner_state(AXIAL, -1.0, grid, 0.02), amplitude, seed)
    return state


def test_rk4_step_solves_take_at_most_18_cg_iterations(monkeypatch):
    # Stage 1 starts from the lapse perturb solved on the slice and runs no
    # iteration.  Stages 2 and 4 start from the lapse of the previous stage
    # time, whose error is nearly a multiple of itself; the Ritz start
    # removes that part (0, 7, 4, 7, 6 = 24 iterations without it, 0, 5, 2,
    # 5, 6 with it)
    state = _perturbed_slice(GridSpec.cubic(16), amplitude=1e-4)
    reports = []

    def recorded(*args, **kwargs):
        N, report = solve_lapse(*args, **kwargs)
        reports.append(report)
        return N, report

    monkeypatch.setattr(evolution_module, "solve_lapse", recorded)
    time_step(state, 1e-3, trace_correction=True)
    assert len(reports) == 5 and all(report.converged for report in reports)
    assert reports[0].iterations == 0
    assert sum(report.iterations for report in reports) <= 18


def test_solve_leaves_its_inputs_unchanged(grid16):
    s = _perturbed_slice(grid16)
    guess = ScalarField(grid16, s.N.values + 1e-3 * np.cos(2 * np.pi * grid16.meshes()[0]))
    rhs = ScalarField(grid16, 1.0 + 0.1 * np.sin(2 * np.pi * grid16.meshes()[2]))
    guess_bits, rhs_bits = guess.values.tobytes(), rhs.values.tobytes()
    _, report = _solve(s.g, norm_sq(s.K, s.g).values, DEFAULT_TOL, initial_guess=guess, rhs=rhs)
    assert report.iterations > 0
    assert guess.values.tobytes() == guess_bits and rhs.values.tobytes() == rhs_bits


def test_returned_lapse_shares_no_memory_with_a_workspace(grid16, monkeypatch):
    built = []

    class Recorded(lapse_module._Operator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    s, other = _perturbed_slice(grid16), _perturbed_slice(grid16, seed=3)
    monkeypatch.setattr(lapse_module, "_Operator", Recorded)
    first, _ = solve_lapse(s.g, s.K)
    kept = first.values.copy()
    second, report = solve_lapse(other.g, other.K)
    assert report.iterations > 0 and len(built) == 2
    assert np.array_equal(first.values, kept)
    for op in built:
        block = op.cg
        while block.base is not None:
            block = block.base
        assert not np.shares_memory(first.values, block)
        assert not np.shares_memory(second.values, block)


def test_callback_iterates_are_distinct_arrays(grid16):
    s = _perturbed_slice(grid16)
    iterates = []
    _, report = _solve(s.g, norm_sq(s.K, s.g).values, 1e-12, initial_guess=s.N,
                       callback=lambda v: iterates.append((v, v.copy())))
    assert len(iterates) == report.iterations + 1 > 2
    for i, (v, seen) in enumerate(iterates):
        assert np.array_equal(v, seen)  # not written to after the callback
        assert not any(np.shares_memory(v, w) for w, _ in iterates[i + 1:])
    assert np.array_equal(iterates[0][0], s.N.values)


def test_zero_rhs_is_rejected_before_any_work(grid8):
    # a metric that is not positive definite would raise if the solve got that far
    vals = np.zeros(grid8.shape + (6,))
    vals[..., 0], vals[..., 3], vals[..., 5] = 1.0, -1.0, 1.0
    with pytest.raises(ValueError, match="rhs"):
        _solve(SymTensorField(grid8, vals), np.ones(grid8.shape), DEFAULT_TOL,
               rhs=ScalarField.constant(grid8, 0.0))


def test_degenerate_zero_order_term_raises(grid8):
    g = SymTensorField.identity(grid8)
    with pytest.raises(DegenerateZeroOrderTerm):
        solve_lapse(g, SymTensorField.zeros(grid8))


def test_non_spd_metric_raises(grid8):
    vals = np.zeros(grid8.shape + (6,))
    vals[..., 0] = 1.0
    vals[..., 3] = -1.0
    vals[..., 5] = 1.0
    g = SymTensorField(grid8, vals)
    with pytest.raises(NonPositiveMetric):
        solve_lapse(g, SymTensorField.identity(grid8))


def test_exhausted_budget_raises_with_report(grid16):
    g6, k6, f, _ = orc.manufactured_lapse_problem(grid16)
    g = SymTensorField(grid16, g6)
    K = SymTensorField(grid16, k6)
    with pytest.raises(SolverDiverged) as err:
        _solve(g, norm_sq(K, g).values, 1e-13, max_iterations=2,
               rhs=ScalarField(grid16, f),
               initial_guess=ScalarField.constant(grid16, 1.0))
    report = err.value.report
    assert report is not None
    assert not report.converged
    assert report.iterations == 2


def test_solve_stops_at_its_rounding_floor():
    # At 32^3 the verified residual of this slice stalls near 2.7e-14, above
    # tol; restarting on it until the budget (1811 iterations) ran out bought
    # nothing, so the solve stops once 8 verifications in a row set no new low
    s = warped_kasner_state(AXIAL, -1.0, GridSpec.cubic(32), 0.02)
    with pytest.raises(SolverDiverged, match=r"floor \d\.\d{3}e-\d\d") as err:
        solve_lapse(s.g, s.K, tol=1e-14)
    report = err.value.report
    assert not report.converged and report.iterations <= 100
    floor = float(str(err.value).rsplit("floor ", 1)[1])
    assert floor > 1e-14 and report.final_residual == pytest.approx(floor, rel=1e-3)


def test_restarts_that_lower_the_residual_still_converge():
    # the recurrence residual meets tol long before the verified one; the
    # restarts keep lowering the latter, and 21 of them reach tol
    s = warped_kasner_state(AXIAL, -1.0, GridSpec.cubic(16), 0.02)
    _, report = solve_lapse(s.g, s.K, tol=1e-14)
    assert report.converged and report.iterations == 23
    assert report.final_residual <= 1e-14


def test_default_bound_tolerance_formula():
    grid = GridSpec.cubic(8)
    assert default_bound_tolerance(grid) == pytest.approx(
        BOUND_TOL_COEFF * (1.0 / 8.0) ** 4)
    fine = GridSpec.cubic(8, period=0.01)  # h = 1.25e-3, 10 h^4 < 1e-10
    assert default_bound_tolerance(fine) == 1e-10  # floor takes over


def test_check_lapse_bounds_raises_on_violation(grid8):
    tau = 1.0
    g = SymTensorField.diagonal_constant(grid8, kasner.metric_diagonal(AXIAL, tau))
    K = SymTensorField.diagonal_constant(
        grid8, kasner.second_form_diagonal(AXIAL, tau))
    # dip below the lower bound by more than the default slack 10 h^4
    bad = ScalarField.constant(grid8, tau * tau * (1.0 - 1e-2))
    with pytest.raises(BoundViolation) as err:
        check_lapse_bounds(bad, K, g)
    low, high = err.value.margins
    assert low < 0.0 < high
    good = ScalarField.constant(grid8, tau * tau)
    margins = check_lapse_bounds(good, K, g)
    assert margins[0] == pytest.approx(0.0, abs=1e-14)


def _kasner_slice(grid, tau=1.0):
    g = SymTensorField.diagonal_constant(grid, kasner.metric_diagonal(AXIAL, tau))
    K = SymTensorField.diagonal_constant(grid, kasner.second_form_diagonal(AXIAL, tau))
    return g, K


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
def test_solve_lapse_rejects_bad_tol(grid8, tol):
    # a NaN tol is never met, so the restart loop would spin forever
    g, K = _kasner_slice(grid8)
    with pytest.raises(ValueError, match="tol"):
        solve_lapse(g, K, tol=tol)


def test_bound_margins_of_unit_lapse_on_kasner(grid8):
    # tau = 1: N = 1 meets 1/|K|^2 = 1 exactly and lies 2 below 3/H^2 = 3
    g, K = _kasner_slice(grid8)
    low, high = lapse_bound_margins(ScalarField.constant(grid8, 1.0), K, g)
    assert low == pytest.approx(0.0, abs=1e-14) and high == pytest.approx(2.0)


def test_bound_margins_need_nonzero_data(grid8):
    g = SymTensorField.identity(grid8)
    with pytest.raises(DegenerateZeroOrderTerm):
        lapse_bound_margins(ScalarField.constant(grid8, 1.0),
                            SymTensorField.zeros(grid8), g)
