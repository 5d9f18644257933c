"""CMC lapse solves: manufactured solutions, CG behavior, bound checks."""

import numpy as np
import pytest

import oracles as orc
from cmclab import (
    AXIAL,
    BoundViolation,
    DegenerateZeroOrderTerm,
    GridSpec,
    NonPositiveMetric,
    ScalarField,
    SolverDiverged,
    SymTensorField,
    check_lapse_bounds,
    default_bound_tolerance,
    inverse_metric,
    lapse_bound_margins,
    metric_determinant,
    norm_sq,
    perturb,
    solve_lapse,
    warped_kasner_state,
)
from cmclab import kasner
from cmclab.checks import random_metric
from cmclab.lapse import BOUND_TOL_COEFF, _apply_operator


def _operator_pieces(g, K):
    det = metric_determinant(g)
    sqrt_g = np.sqrt(det)
    flux = sqrt_g[..., None, None] * inverse_metric(g, det)
    weight = sqrt_g * norm_sq(K, g).values
    return sqrt_g, flux, weight


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
        N, report = solve_lapse(g, K, tol=1e-12, rhs=ScalarField(grid, f))
        assert report.converged
        errs[n] = np.max(np.abs(N.values - n_exact))
    assert np.log2(errs[8] / errs[16]) > 3.5
    assert np.log2(errs[16] / errs[32]) > 3.5
    assert errs[32] < 1e-4


def test_discrete_manufactured_solution_recovered_to_solver_tolerance(grid16, rng):
    # rhs built by applying the discrete operator itself: no truncation term
    g = random_metric(grid16, rng)
    phi = 1.0 + 0.3 * np.sin(2 * np.pi * grid16.meshes()[1])
    K = SymTensorField(grid16, phi[..., None] * g.values)
    sqrt_g, flux, weight = _operator_pieces(g, K)
    x_star = 1.0 + 0.2 * np.cos(2 * np.pi * grid16.meshes()[0])
    rhs = _apply_operator(x_star, flux, weight, grid16.spacings) / sqrt_g
    N, report = solve_lapse(g, K, tol=1e-13, rhs=ScalarField(grid16, rhs))
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
    sqrt_g, flux, weight = _operator_pieces(g, K)
    x_star = 1.0 + 0.2 * np.cos(2 * np.pi * x) + 0.1 * np.sin(2 * np.pi * z / 0.5)
    rhs = _apply_operator(x_star, flux, weight, grid.spacings) / sqrt_g
    N, report = solve_lapse(g, K, tol=1e-13, rhs=ScalarField(grid, rhs))
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
    sqrt_g, flux, weight = _operator_pieces(g, K)
    x_star = 1.0 + 0.15 * np.sin(2 * np.pi * grid8.meshes()[0]) \
        + 0.1 * np.cos(2 * np.pi * grid8.meshes()[1])
    rhs = ScalarField(grid8, _apply_operator(
        x_star, flux, weight, grid8.spacings) / sqrt_g)
    iterates = []
    solve_lapse(g, K, tol=1e-12, rhs=rhs,
                initial_guess=ScalarField.constant(grid8, 1.0),
                callback=lambda v: iterates.append(v))
    energies = []
    for x in iterates:
        e = x - x_star
        energies.append(float(np.sum(e * _apply_operator(
            e, flux, weight, grid8.spacings))))
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
        solve_lapse(g, K, tol=1e-13, max_iterations=2,
                    rhs=ScalarField(grid16, f),
                    initial_guess=ScalarField.constant(grid16, 1.0))
    report = err.value.report
    assert report is not None
    assert not report.converged
    assert report.iterations == 2


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


def test_bound_margins_need_nonzero_data(grid8):
    g = SymTensorField.identity(grid8)
    with pytest.raises(DegenerateZeroOrderTerm):
        lapse_bound_margins(ScalarField.constant(grid8, 1.0),
                            SymTensorField.zeros(grid8), g)
