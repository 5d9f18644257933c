"""Tensor algebra and covariant calculus against brute-force contractions."""

import numpy as np
import pytest

import oracles as orc
from cmclab import (
    GridSpec,
    Metric,
    ScalarField,
    SymTensorField,
    as_metric,
    christoffels,
    covariant_derivative_sym,
    cross,
    curl,
    divergence,
    gradient,
    hessian,
    inner,
    metric_determinant,
    norm_sq,
    raise_first_index,
    ricci,
    sym_to_matrix,
    trace,
    traceless,
    wedge,
)
from cmclab.checks import random_metric

ROUND = 1e-12  # relative, same-stencil comparisons


def _random_sym(grid, rng):
    return SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))


def _rel(err, scale):
    return err / max(scale, 1e-300)


def test_trace_inner_norm_match_brute(grid8, rng):
    for _ in range(5):
        g = random_metric(grid8, rng)
        a = _random_sym(grid8, rng)
        b = _random_sym(grid8, rng)
        gm = orc.sym_to_mat(g.values)
        am, bm = orc.sym_to_mat(a.values), orc.sym_to_mat(b.values)
        inv = orc.brute_inverse(gm)
        tr = orc.brute_trace(am, inv)
        ip = orc.brute_inner(am, bm, inv)
        assert np.allclose(trace(a, g).values, tr, rtol=ROUND, atol=1e-13)
        assert np.allclose(inner(a, b, g).values, ip, rtol=ROUND, atol=1e-13)
        assert np.allclose(norm_sq(a, g).values, orc.brute_inner(am, am, inv),
                           rtol=ROUND, atol=1e-13)


def test_traceless_kills_trace_and_is_idempotent(grid8, rng):
    g = random_metric(grid8, rng)
    a = _random_sym(grid8, rng)
    tl = traceless(a, g)
    assert np.max(np.abs(trace(tl, g).values)) < 1e-13
    again = traceless(tl, g)
    assert np.allclose(again.values, tl.values, rtol=0, atol=1e-13)


def test_raise_first_index_round_trip(grid8, rng):
    g = random_metric(grid8, rng)
    a = _random_sym(grid8, rng)
    up = raise_first_index(a, g)  # A^a_b
    gm = sym_to_matrix(g.values)
    back = np.einsum("...ac,...cb->...ab", gm, up)
    assert np.allclose(back, sym_to_matrix(a.values), rtol=1e-12, atol=1e-13)


def test_wedge_matches_brute(grid8, rng):
    for _ in range(5):
        g = random_metric(grid8, rng)
        a = _random_sym(grid8, rng)
        b = _random_sym(grid8, rng)
        got = wedge(a, b, g).values
        want = orc.brute_wedge(orc.sym_to_mat(a.values),
                               orc.sym_to_mat(b.values),
                               orc.sym_to_mat(g.values))
        scale = np.max(np.abs(want))
        assert _rel(np.max(np.abs(got - want)), scale) < ROUND


def test_wedge_is_antisymmetric(grid8, rng):
    g = random_metric(grid8, rng)
    a = _random_sym(grid8, rng)
    b = _random_sym(grid8, rng)
    ab = wedge(a, b, g).values
    ba = wedge(b, a, g).values
    scale = np.max(np.abs(ab))
    assert np.max(np.abs(ab + ba)) < 1e-13 * max(scale, 1.0)
    # A_b^d g_dc = A_bc is symmetric in (b, c), so eps_a^{bc} contracts it to zero
    ag = wedge(a, g, g).values
    assert np.max(np.abs(ag)) < 1e-13 * max(np.max(np.abs(a.values)), 1.0)


def test_wedge_of_field_with_itself_vanishes(grid8, rng):
    g = random_metric(grid8, rng)
    a = _random_sym(grid8, rng)
    aa = wedge(a, a, g).values
    scale = np.max(np.abs(a.values)) ** 2
    assert np.max(np.abs(aa)) < 1e-13 * max(scale, 1.0)


def test_cross_matches_brute(grid8, rng):
    for _ in range(5):
        g = random_metric(grid8, rng)
        a = _random_sym(grid8, rng)
        b = _random_sym(grid8, rng)
        got = sym_to_matrix(cross(a, b, g).values)
        want = orc.brute_cross(orc.sym_to_mat(a.values),
                               orc.sym_to_mat(b.values),
                               orc.sym_to_mat(g.values))
        scale = np.max(np.abs(want))
        assert _rel(np.max(np.abs(got - want)), scale) < ROUND


def test_cross_is_symmetric_in_arguments_and_traceless(grid8, rng):
    g = random_metric(grid8, rng)
    a = _random_sym(grid8, rng)
    b = _random_sym(grid8, rng)
    ab = cross(a, b, g)
    ba = cross(b, a, g)
    scale = max(np.max(np.abs(ab.values)), 1.0)
    assert np.max(np.abs(ab.values - ba.values)) < 1e-13 * scale
    assert np.max(np.abs(trace(ab, g).values)) < 1e-12 * scale
    # eps_a^{cd} eps_b^{ef} A_ce g_df = (tr A) g_ab - A_ab, hence A x g = -traceless(A)
    ag = cross(a, g, g).values
    tl = traceless(a, g).values
    assert np.max(np.abs(ag + tl)) < 1e-13 * max(np.max(np.abs(tl)), 1.0)


def test_christoffels_match_brute(grid8, rng):
    for _ in range(3):
        g = random_metric(grid8, rng)
        got = orc.gamma_to_full(christoffels(g))
        want = orc.brute_christoffels(orc.sym_to_mat(g.values), grid8.spacings)
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_christoffels_flat_metric_vanish(grid8):
    g = SymTensorField.diagonal_constant(grid8, (1.0, 2.0, 0.5))
    assert np.all(christoffels(g) == 0.0)


def test_christoffels_symmetric_in_lower_indices(grid8, rng):
    g = random_metric(grid8, rng)
    gam = orc.gamma_to_full(christoffels(g))
    assert np.allclose(gam, np.swapaxes(gam, -1, -2), rtol=0, atol=1e-13)


def test_covariant_derivative_matches_brute(grid8, rng):
    g = random_metric(grid8, rng)
    a = _random_sym(grid8, rng)
    got = covariant_derivative_sym(a, g)
    want = orc.brute_cov_deriv(orc.sym_to_mat(a.values),
                               orc.gamma_to_full(christoffels(g)), grid8.spacings)
    scale = max(np.max(np.abs(want)), 1.0)
    assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_covariant_derivative_of_metric_vanishes(grid16, rng):
    # compatibility holds to rounding because the same stencil builds Gamma
    g = random_metric(grid16, rng)
    nabla_g = covariant_derivative_sym(g, g)
    assert np.max(np.abs(nabla_g)) < 1e-10


def test_curl_matches_brute(grid8, rng):
    for _ in range(3):
        g = random_metric(grid8, rng)
        a = _random_sym(grid8, rng)
        got = sym_to_matrix(curl(a, g).values)
        want = orc.brute_curl(orc.sym_to_mat(a.values),
                              orc.sym_to_mat(g.values), grid8.spacings)
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_curl_is_trace_free(grid8, rng):
    g = random_metric(grid8, rng)
    a = _random_sym(grid8, rng)
    c = curl(a, g)
    scale = max(np.max(np.abs(c.values)), 1.0)
    h4 = max(grid8.spacings) ** 4
    resid = np.max(np.abs(trace(c, g).values))
    assert resid < 1e-12 * scale  # antisymmetric contraction, rounding only
    assert resid < h4 * scale


def test_curl_constant_field_flat_metric_is_zero(grid8):
    g = SymTensorField.identity(grid8)
    a = SymTensorField.diagonal_constant(grid8, (1.0, -2.0, 3.0))
    assert np.all(curl(a, g).values == 0.0)


def test_divergence_matches_brute(grid8, rng):
    for _ in range(3):
        g = random_metric(grid8, rng)
        a = _random_sym(grid8, rng)
        got = divergence(a, g).values
        want = orc.brute_divergence(orc.sym_to_mat(a.values),
                                    orc.sym_to_mat(g.values), grid8.spacings)
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_gradient_is_componentwise_stencil(grid8, rng):
    """Each component is the stencil along its axis within orc.diff4_rounding_bound."""
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    got = gradient(f).values
    for axis in range(3):
        h = grid8.spacings[axis]
        error = np.abs(got[..., axis] - orc.diff4(f.values, axis, h))
        assert np.all(error <= orc.diff4_rounding_bound(f.values, axis, h))


def test_hessian_flat_metric_is_second_stencil(grid8, rng):
    g = SymTensorField.identity(grid8)
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    got = hessian(f, g)
    for a in range(3):
        for b in range(3):
            want = orc.diff4(orc.diff4(f.values, a, grid8.spacings[a]),
                             b, grid8.spacings[b])
            assert np.allclose(got.component(a, b), want, rtol=0, atol=1e-11)


def test_curl_divergence_hessian_converge_to_symbolic():
    g_, a_, curl_, div_ = orc.manufactured_calculus()
    _, n_, hess_, _ = orc.manufactured_scalar_calculus()
    errs = []
    for n in (16, 32):
        grid = GridSpec.cubic(n)
        g = Metric(grid, orc.eval_matrix_on_grid(g_, grid))
        a = SymTensorField(grid, orc.eval_matrix_on_grid(a_, grid))
        f = ScalarField(grid, orc.eval_on_grid(n_, grid))
        errs.append((
            np.max(np.abs(curl(a, g).values
                          - orc.eval_matrix_on_grid(curl_, grid))),
            np.max(np.abs(divergence(a, g).values
                          - orc.eval_vector_on_grid(div_, grid))),
            np.max(np.abs(hessian(f, g).values
                          - orc.eval_matrix_on_grid(hess_, grid))),
        ))
    for i in range(3):
        order = np.log2(errs[0][i] / errs[1][i])
        assert 3.7 <= order <= 4.3


def test_a_non_finite_connection_is_caught_by_its_readers(grid8, rng):
    # Gamma is a plain block: what is built from it goes through a field constructor
    g = as_metric(random_metric(grid8, rng))
    gamma = np.array(g.gamma)
    gamma[1, 4, 2, 3, 5] = np.nan
    g.__dict__["gamma"] = gamma  # the Metric's cached connection
    a = _random_sym(grid8, rng)
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    for call in (lambda: ricci(g), lambda: hessian(f, g), lambda: curl(a, g),
                 lambda: divergence(a, g)):
        with pytest.raises(ValueError, match="finite"):
            call()
