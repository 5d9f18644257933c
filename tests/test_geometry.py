"""Curvature, Weyl parts, Bel-Robinson components, constraints."""

import numpy as np
import pytest
import sympy as sp

import oracles as orc
from cmclab import (
    AXIAL,
    FLAT,
    GENERIC,
    GridSpec,
    Metric,
    NonPositiveLapse,
    ScalarField,
    SymTensorField,
    br_components,
    constraint_norms,
    electric_weyl,
    gradient,
    hamiltonian_constraint,
    integrate,
    inner,
    magnetic_weyl,
    momentum_constraint,
    ricci,
    scalar_curvature,
    static_residual,
    sym_to_matrix,
    trace,
    traceless,
    weyl_parts,
    weyl_trace_residuals,
)
from cmclab import kasner
from cmclab.checks import random_metric


def _random_sym(grid, rng):
    return SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))


def _kasner_fields(p, t, grid):
    tau = kasner.tau_of_t(t)
    g = SymTensorField.diagonal_constant(grid, kasner.metric_diagonal(p, tau))
    k = SymTensorField.diagonal_constant(grid, kasner.second_form_diagonal(p, tau))
    return g, k, tau


def test_ricci_matches_brute(grid8, rng):
    for _ in range(3):
        g = random_metric(grid8, rng)
        got = sym_to_matrix(ricci(g).values)
        want = orc.brute_ricci(orc.sym_to_mat(g.values), grid8.spacings)
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) < 1e-11 * scale


def test_ricci_flat_metric_is_zero(grid8):
    g = SymTensorField.diagonal_constant(grid8, (2.0, 1.0, 0.25))
    assert np.all(ricci(g).values == 0.0)
    assert np.all(scalar_curvature(g).values == 0.0)


def test_ricci_and_scalar_converge_to_symbolic():
    g_, ric_, rsc_ = orc.manufactured_geometry()
    errs = []
    for n in (16, 32):
        grid = GridSpec.cubic(n)
        g = Metric(grid, orc.eval_matrix_on_grid(g_, grid))
        errs.append((
            np.max(np.abs(ricci(g).values
                          - orc.eval_matrix_on_grid(ric_, grid))),
            np.max(np.abs(scalar_curvature(g).values
                          - orc.eval_on_grid(rsc_, grid))),
        ))
    for i in range(2):
        order = np.log2(errs[0][i] / errs[1][i])
        assert 3.6 <= order <= 4.3


def test_scalar_curvature_is_trace_of_ricci(grid8, rng):
    g = random_metric(grid8, rng)
    want = trace(ricci(g), g).values
    got = scalar_curvature(g).values
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


# closed-form Kasner curvature, derived symbolically from the 4-metric


@pytest.mark.parametrize("triple", [
    (sp.Rational(2, 3), sp.Rational(2, 3), sp.Rational(-1, 3)),
    (sp.Rational(-2, 7), sp.Rational(3, 7), sp.Rational(6, 7)),
    (sp.Integer(1), sp.Integer(0), sp.Integer(0)),
])
def test_kasner_curvature_components_from_four_metric(triple):
    tau, electric, mixed = orc.kasner_curvature_components(*triple)
    for i, p in enumerate(triple):
        expected = p * (1 - p) * tau ** (2 * p - 2)
        assert sp.simplify(electric[i] - expected) == 0
    for m in mixed:
        assert sp.simplify(m) == 0


@pytest.mark.parametrize("p,t", [(AXIAL, -1.0), (GENERIC, -1.4), (FLAT, -0.7)])
def test_electric_weyl_matches_kasner_closed_form(grid8, p, t):
    g, k, tau = _kasner_fields(p, t, grid8)
    e = electric_weyl(g, k)
    want = kasner.electric_diagonal(p, tau)
    for i in range(3):
        assert np.allclose(e.component(i, i), want[i], rtol=1e-13, atol=1e-13)
    assert np.max(np.abs(e.component(0, 1))) < 1e-13
    assert np.max(np.abs(e.component(0, 2))) < 1e-13
    assert np.max(np.abs(e.component(1, 2))) < 1e-13


@pytest.mark.parametrize("p,t", [(AXIAL, -1.0), (GENERIC, -0.5)])
def test_magnetic_weyl_vanishes_for_diagonal_kasner(grid8, p, t):
    g, k, _ = _kasner_fields(p, t, grid8)
    b = magnetic_weyl(k, g)
    assert np.max(np.abs(b.values)) < 1e-13


def test_weyl_parts_bundles_both(grid8, rng):
    g = random_metric(grid8, rng)
    k = _random_sym(grid8, rng)
    parts = weyl_parts(g, k)
    assert np.array_equal(parts.E.values, electric_weyl(g, k).values)
    assert np.array_equal(parts.B.values, magnetic_weyl(k, g).values)


def test_electric_trace_equals_hamiltonian(grid8, rng):
    # tr E = R + H^2 - |K|^2, the scalar constraint, exactly at stencil level
    for _ in range(3):
        g = random_metric(grid8, rng)
        k = _random_sym(grid8, rng)
        tr_e = trace(electric_weyl(g, k), g).values
        ham = hamiltonian_constraint(g, k).values
        scale = max(np.max(np.abs(ham)), 1.0)
        assert np.max(np.abs(tr_e - ham)) < 1e-12 * scale


def test_br_components_match_brute(grid8, rng):
    for _ in range(3):
        g = random_metric(grid8, rng)
        e = _random_sym(grid8, rng)
        b = _random_sym(grid8, rng)
        gm = orc.sym_to_mat(g.values)
        em, bm = orc.sym_to_mat(e.values), orc.sym_to_mat(b.values)
        q = br_components(e, b, g)
        for got, want in (
            (q.q_tttt.values, orc.brute_q_tttt(em, bm, gm)),
            (q.q_attt.values, orc.brute_q_attt(em, bm, gm)),
            (sym_to_matrix(q.q_abtt.values), orc.brute_q_abtt(em, bm, gm)),
        ):
            scale = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_br_stress_and_flux_are_bounded_by_the_density(grid8, rng):
    # |q_abtt|_g <= q_tttt and |q_attt|_g <= q_tttt pointwise for traceless E
    # and B (Senovilla, CQG 17 (2000) 2799), on the pipeline and the brute
    # force alike; the first bound is attained, so the slack is rounding's
    for _ in range(10):
        g = random_metric(grid8, rng)
        e = traceless(_random_sym(grid8, rng), g)
        b = traceless(_random_sym(grid8, rng), g)
        b = SymTensorField(grid8, rng.uniform(0.0, 3.0) * b.values)
        q = br_components(e, b, g)
        m = orc.brute_metric(orc.sym_to_mat(g.values))
        em, bm = orc.sym_to_mat(e.values), orc.sym_to_mat(b.values)
        for density, flux, stress in (
            (q.q_tttt.values, q.q_attt.values, sym_to_matrix(q.q_abtt.values)),
            (orc.brute_q_tttt(em, bm, m), orc.brute_q_attt(em, bm, m),
             orc.brute_q_abtt(em, bm, m)),
        ):
            bound = density * (1.0 + 1e-12)
            assert np.all(np.sqrt(orc.brute_inner(stress, stress, m.inv)) <= bound)
            assert np.all(np.sqrt(orc.brute_vector_dot(flux, flux, m.inv)) <= bound)


def test_br_density_nonnegative_and_zero_only_for_flat(grid8, rng):
    g = random_metric(grid8, rng)
    e = _random_sym(grid8, rng)
    b = _random_sym(grid8, rng)
    q = br_components(e, b, g)
    assert np.all(q.q_tttt.values >= 0.0)
    zero = SymTensorField.zeros(grid8)
    qz = br_components(zero, zero, g)
    assert np.all(qz.q_tttt.values == 0.0)
    assert np.all(qz.q_attt.values == 0.0)
    assert np.all(qz.q_abtt.values == 0.0)


def test_br_pressure_trace_identity(grid8, rng):
    # four-dimensional tracelessness pins g^{ab} q_abtt = q_tttt
    g = random_metric(grid8, rng)
    e = _random_sym(grid8, rng)
    b = _random_sym(grid8, rng)
    q = br_components(e, b, g)
    tr = trace(q.q_abtt, g).values
    scale = max(np.max(np.abs(q.q_tttt.values)), 1.0)
    assert np.max(np.abs(tr - q.q_tttt.values)) < 1e-12 * scale


@pytest.mark.parametrize("p,t", [(AXIAL, -1.0), (GENERIC, -1.1), (FLAT, -2.0)])
def test_kasner_satisfies_both_constraints(grid8, p, t):
    g, k, _ = _kasner_fields(p, t, grid8)
    assert np.max(np.abs(hamiltonian_constraint(g, k).values)) < 1e-12
    assert np.max(np.abs(momentum_constraint(g, k).values)) < 1e-12


def test_momentum_constraint_matches_brute(grid8, rng):
    g = random_metric(grid8, rng)
    k = _random_sym(grid8, rng)
    got = momentum_constraint(g, k).values
    gm = orc.sym_to_mat(g.values)
    km = orc.sym_to_mat(k.values)
    div = orc.brute_divergence(km, gm, grid8.spacings)
    h = orc.brute_trace(km, orc.brute_inverse(gm))
    wanted = div.copy()
    for a in range(3):
        wanted[..., a] -= orc.diff4(h, a, grid8.spacings[a])
    scale = max(np.max(np.abs(wanted)), 1.0)
    assert np.max(np.abs(got - wanted)) < 1e-11 * scale


def test_constraint_norms_are_l2_integrals(grid8, rng):
    g = random_metric(grid8, rng)
    k = _random_sym(grid8, rng)
    ham, mom = constraint_norms(g, k)
    ham_field = hamiltonian_constraint(g, k)
    mom_field = momentum_constraint(g, k)
    want_ham = np.sqrt(integrate(
        ScalarField(grid8, ham_field.values**2), g))
    inv = orc.brute_inverse(orc.sym_to_mat(g.values))
    mv = mom_field.values
    mom_sq = np.einsum("...ab,...a,...b->...", inv, mv, mv)
    want_mom = np.sqrt(integrate(ScalarField(grid8, mom_sq), g))
    assert ham == pytest.approx(want_ham, rel=1e-12)
    assert mom == pytest.approx(want_mom, rel=1e-12)


def test_weyl_trace_residuals_report_sups(grid8, rng):
    g = random_metric(grid8, rng)
    k = _random_sym(grid8, rng)
    sup_e, sup_b = weyl_trace_residuals(g, k)
    parts = weyl_parts(g, k)
    assert sup_e == pytest.approx(np.max(np.abs(trace(parts.E, g).values)), rel=1e-12)
    assert sup_b == pytest.approx(np.max(np.abs(trace(parts.B, g).values)), rel=1e-12)
    # diagonal Kasner is exactly trace-free
    g2, k2, _ = _kasner_fields(AXIAL, -1.0, grid8)
    se, sb = weyl_trace_residuals(g2, k2)
    assert se < 1e-13 and sb < 1e-13


def test_static_residual_flat_solution_is_exact(grid8):
    g = SymTensorField.diagonal_constant(grid8, (1.0, 4.0, 9.0))
    n = ScalarField.constant(grid8, 2.0)
    lap, tensor = static_residual(g, n)
    assert np.all(lap.values == 0.0)
    assert np.all(tensor.values == 0.0)


def test_static_residual_converges_to_symbolic():
    g_, n_, hess_, lap_ = orc.manufactured_scalar_calculus()
    _, ric_, _ = orc.manufactured_geometry()
    errs = []
    for n in (16, 32):
        grid = GridSpec.cubic(n)
        g = SymTensorField(grid, orc.eval_matrix_on_grid(g_, grid))
        f = ScalarField(grid, orc.eval_on_grid(n_, grid))
        lap, tensor = static_residual(g, f)
        lap_exact = orc.eval_on_grid(lap_, grid)
        tensor_exact = (orc.eval_matrix_on_grid(hess_, grid)
                        - orc.eval_on_grid(n_, grid)[..., None]
                        * orc.eval_matrix_on_grid(ric_, grid))
        errs.append((np.max(np.abs(lap.values - lap_exact)),
                     np.max(np.abs(tensor.values - tensor_exact))))
    for i in range(2):
        order = np.log2(errs[0][i] / errs[1][i])
        assert 3.6 <= order <= 4.3


def test_static_residual_rejects_nonpositive_lapse(grid8):
    g = SymTensorField.identity(grid8)
    vals = np.ones(grid8.shape)
    vals[0, 0, 0] = 0.0
    with pytest.raises(NonPositiveLapse):
        static_residual(g, ScalarField(grid8, vals))
