"""Grid container and packed-storage plumbing."""

import dataclasses

import numpy as np
import pytest

import oracles as orc
from cmclab import (
    GridSpec,
    Metric,
    NonPositiveMetric,
    ScalarField,
    SecondForm,
    SliceState,
    SymTensorField,
    VectorField,
    integrate,
    inverse_metric,
    matrix_to_sym,
    metric_determinant,
    partial_derivative,
    solve_lapse,
    sup_norm,
    sym_index,
    sym_to_matrix,
)
from cmclab.checks import random_metric
from cmclab.grid import MIN_POINTS_PER_AXIS, SYM_PAIRS, _diff_matrix, _diff_symbol, diff_array


def test_sym_index_matches_pair_table():
    for idx, (a, b) in enumerate(orc.SYM_PAIRS):
        assert sym_index(a, b) == idx
        assert sym_index(b, a) == idx
    assert SYM_PAIRS == orc.SYM_PAIRS


def test_gridspec_basic_properties():
    grid = GridSpec.cubic(8, period=2.0)
    assert grid.shape == (8, 8, 8)
    assert grid.periods == (2.0, 2.0, 2.0)
    assert grid.spacings == (0.25, 0.25, 0.25)
    assert grid.num_points == 512
    assert grid.cell_volume == pytest.approx(0.25**3)


def test_gridspec_rejects_too_coarse_axes():
    with pytest.raises(ValueError):
        GridSpec((MIN_POINTS_PER_AXIS - 1, 8, 8))


def test_gridspec_rejects_nonpositive_period():
    with pytest.raises(ValueError):
        GridSpec((8, 8, 8), periods=(1.0, 0.0, 1.0))


@pytest.mark.parametrize("period", [float("nan"), float("inf"), -float("inf")])
def test_gridspec_rejects_non_finite_period(period):
    # NaN fails every comparison, so only an explicit finiteness check catches it
    with pytest.raises(ValueError, match="periods"):
        GridSpec((8, 8, 8), periods=(period, 1.0, 1.0))


@pytest.mark.parametrize("n", [8.9, 8.5, float("nan"), float("inf")])
def test_gridspec_rejects_fractional_shape(n):
    with pytest.raises(ValueError, match="shape"):
        GridSpec((n, 8, 8))


def test_gridspec_accepts_whole_valued_shape():
    grid = GridSpec((np.int64(8), 9.0, 10))
    assert grid.shape == (8, 9, 10)
    assert all(type(n) is int for n in grid.shape)


def test_axis_coordinates_cover_half_open_period():
    grid = GridSpec((8, 16, 12), periods=(1.0, 2.0, 3.0))
    for axis in range(3):
        xs = grid.axis_coordinates(axis)
        assert xs[0] == 0.0
        h = grid.spacings[axis]
        assert xs[-1] == pytest.approx(grid.periods[axis] - h)
        assert np.allclose(np.diff(xs), h)


def test_meshes_use_ij_indexing():
    grid = GridSpec((8, 10, 12))
    xs, ys, zs = grid.meshes()
    assert xs.shape == grid.shape
    # x varies along axis 0 only
    assert np.allclose(xs[:, 0, 0], grid.axis_coordinates(0))
    assert np.allclose(xs[0, :, 0], xs[0, 0, 0])
    assert np.allclose(ys[0, :, 0], grid.axis_coordinates(1))
    assert np.allclose(zs[0, 0, :], grid.axis_coordinates(2))


def test_field_shape_validation(grid8):
    with pytest.raises(ValueError):
        ScalarField(grid8, np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        VectorField(grid8, np.zeros(grid8.shape + (6,)))
    with pytest.raises(ValueError):
        SymTensorField(grid8, np.zeros(grid8.shape + (3,)))


def test_field_rejects_non_finite(grid8):
    vals = np.zeros(grid8.shape)
    vals[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid8, vals)
    tvals = np.zeros(grid8.shape + (6,))
    tvals[1, 2, 3, 4] = np.inf
    with pytest.raises(ValueError):
        SymTensorField(grid8, tvals)


def test_field_constructors(grid8):
    c = ScalarField.constant(grid8, 2.5)
    assert np.all(c.values == 2.5)
    assert np.all(VectorField.zeros(grid8).values == 0.0)
    ident = SymTensorField.identity(grid8)
    assert np.all(sym_to_matrix(ident.values) == np.eye(3))
    diag = SymTensorField.diagonal_constant(grid8, (1.0, 2.0, 3.0))
    assert np.all(diag.component(0, 0) == 1.0)
    assert np.all(diag.component(1, 1) == 2.0)
    assert np.all(diag.component(2, 2) == 3.0)
    assert np.all(diag.component(0, 1) == 0.0)
    assert np.all(diag.component(1, 0) == diag.component(0, 1))


@pytest.mark.parametrize("cls, comps", [(ScalarField, ()), (VectorField, (3,)),
                                         (SymTensorField, (6,)), (Metric, (6,))])
def test_every_field_kind_is_one_checked_constructor(cls, comps, grid8):
    # the kinds share one (grid, values) dataclass and its check; SecondForm adds its metric
    assert [f.name for f in dataclasses.fields(cls)] == ["grid", "values"]
    assert [f.name for f in dataclasses.fields(SecondForm)] == ["grid", "values", "metric"]
    bad = np.ones(grid8.shape + comps)
    bad[(1, 2, 3) + (0,) * len(comps)] = np.nan
    with pytest.raises(ValueError, match="finite"):
        cls(grid8, bad)
    with pytest.raises(ValueError, match="shaped"):
        cls(grid8, np.ones(grid8.shape + (2,)))


@pytest.mark.parametrize("cls, comps", [(ScalarField, ()), (VectorField, (3,)),
                                         (SymTensorField, (6,))])
def test_every_field_kind_has_zeros(cls, comps, grid8):
    zeros = cls.zeros(grid8)
    assert type(zeros) is cls and zeros.values.shape == grid8.shape + comps
    assert not np.any(zeros.values)


def test_sym_matrix_round_trip(grid8, rng):
    vals = rng.standard_normal(grid8.shape + (6,))
    mats = sym_to_matrix(vals)
    assert np.array_equal(mats, np.swapaxes(mats, -1, -2))
    assert np.array_equal(matrix_to_sym(mats), vals)


def test_matrix_to_sym_averages_asymmetric_part(rng):
    mats = rng.standard_normal((4, 3, 3))
    packed = matrix_to_sym(mats)
    symm = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    for a in range(3):
        for b in range(3):
            assert np.allclose(packed[..., sym_index(a, b)], symm[..., a, b])


def test_determinant_and_inverse_match_linalg(grid8, rng):
    for _ in range(5):
        g = random_metric(grid8, rng)
        gm = orc.sym_to_mat(g.values)
        det = metric_determinant(g)
        inv = inverse_metric(g)
        assert np.allclose(det, orc.brute_det(gm), rtol=1e-13, atol=1e-15)
        assert np.allclose(inv, orc.brute_inverse(gm), rtol=1e-12, atol=1e-14)
        # inverse contracted with the metric gives the identity
        prod = np.einsum("...ab,...bc->...ac", inv, gm)
        assert np.allclose(prod, np.eye(3), atol=1e-13)


def test_inverse_rejects_non_spd_metric(grid8):
    vals = np.zeros(grid8.shape + (6,))
    vals[..., 0] = 1.0
    vals[..., 3] = 1.0
    vals[..., 5] = -1.0  # negative zz direction
    with pytest.raises(NonPositiveMetric):
        inverse_metric(SymTensorField(grid8, vals))


@pytest.mark.parametrize("use", [
    lambda g: SliceState(t=-1.0, g=g, K=SymTensorField.identity(g.grid),
                         N=ScalarField.constant(g.grid, 1.0)),
    lambda g: inverse_metric(g),
    lambda g: integrate(ScalarField.constant(g.grid, 1.0), g),
    lambda g: solve_lapse(g, SymTensorField.identity(g.grid)),
], ids=["SliceState", "inverse_metric", "integrate", "solve_lapse"])
def test_indefinite_metric_with_positive_determinant_is_rejected(grid8, use):
    # diag(-1, -1, 1) has det = +1, so only the leading minors expose it
    g = SymTensorField.diagonal_constant(grid8, (-1.0, -1.0, 1.0))
    assert np.all(metric_determinant(g) > 0.0)
    with pytest.raises(NonPositiveMetric):
        use(g)


def test_diff_array_is_fourth_order():
    errs = {}
    for n in (16, 32):
        grid = GridSpec.cubic(n)
        xs = grid.meshes()[0]
        f = np.sin(2 * np.pi * xs)
        exact = 2 * np.pi * np.cos(2 * np.pi * xs)
        errs[n] = np.max(np.abs(diff_array(f, 0, grid.spacings[0]) - exact))
    order = np.log2(errs[16] / errs[32])
    assert 3.8 <= order <= 4.2


def test_diff_array_agrees_with_local_stencil(grid8, rng):
    """diff_array is the stencil up to rounding: D's product and the stencil's own formula
    round differently, so they agree within orc.diff4_rounding_bound, not bitwise."""
    f = rng.standard_normal(grid8.shape)
    for axis in range(3):
        h = grid8.spacings[axis]
        error = np.abs(diff_array(f, axis, h) - orc.diff4(f, axis, h))
        assert np.all(error <= orc.diff4_rounding_bound(f, axis, h))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_diff_array_is_the_stencil_on_short_axes(n, rng):
    """Below 5 points the stencil's offsets share cells (i + 2 = i - 2 at n = 4),
    whose weights D must sum; diff_array takes any array, not only a field's."""
    f, h = rng.standard_normal((n, 6, 7)), 1.0 / n
    error = np.abs(diff_array(f, 0, h) - orc.diff4(f, 0, h))
    assert np.all(error <= orc.diff4_rounding_bound(f, 0, h))


@pytest.mark.parametrize("n, spacing", [(8, 0.125), (12, 2.0 / 12), (33, 0.03)],
                         ids=["8", "12", "33"])
def test_difference_matrix_is_cached_read_only_and_skew(n, spacing):
    d = _diff_matrix(n, spacing)
    assert _diff_matrix(n, spacing) is d
    assert not d.flags.writeable
    assert np.array_equal(d + d.T, np.zeros((n, n)))
    rows, scale = np.arange(n), 12.0 * spacing
    want = np.zeros((n, n))
    for offset, weight in ((1, 8.0), (-1, -8.0), (2, -1.0), (-2, 1.0)):
        want[rows, (rows + offset) % n] = weight / scale
    assert np.array_equal(d, want)


@pytest.mark.parametrize("n", [8, 9, 16])
@pytest.mark.parametrize("spacing", [0.125, 0.03])
def test_difference_symbol_is_the_matrix_on_fourier_modes(n, spacing):
    # D v = i s(theta) v for v_j = e^{i theta j}, theta = 2 pi m / n: the
    # symbol the lapse preconditioner inverts is D's, from the same table
    d, j = _diff_matrix(n, spacing), np.arange(n)
    theta = 2.0 * np.pi * j / n
    # column m is mode m; its phases reduced mod 2 pi before rounding
    modes = np.exp(2j * np.pi * (np.outer(j, j) % n) / n)
    error = np.abs(d @ modes - 1j * _diff_symbol(theta, spacing) * modes)
    assert np.max(error) <= 8 * np.finfo(float).eps * np.max(np.sum(np.abs(d), axis=1))


def test_partial_derivative_constant_is_zero(grid8):
    f = ScalarField.constant(grid8, 3.7)
    for axis in range(3):
        assert np.all(partial_derivative(f, axis).values == 0.0)


def test_partial_derivative_rejects_bad_axis(grid8):
    f = ScalarField.constant(grid8, 1.0)
    with pytest.raises(ValueError):
        partial_derivative(f, 3)


def test_integrate_flat_constant(grid8):
    g = SymTensorField.diagonal_constant(grid8, (4.0, 1.0, 1.0))
    # sqrt(det) = 2 over the unit torus
    assert integrate(ScalarField.constant(grid8, 1.5), g) == pytest.approx(3.0)


def test_integrate_mean_zero_mode_vanishes(grid16):
    g = SymTensorField.identity(grid16)
    xs = grid16.meshes()[0]
    f = ScalarField(grid16, np.sin(2 * np.pi * xs))
    # uniform periodic sampling integrates single modes exactly
    assert abs(integrate(f, g)) < 1e-14


def test_sup_norm_scalar(grid8):
    vals = np.zeros(grid8.shape)
    vals[3, 4, 5] = -7.0
    g = SymTensorField.identity(grid8)
    assert sup_norm(ScalarField(grid8, vals), g) == 7.0


def test_sup_norm_vector_uses_inverse_metric(grid8):
    g = SymTensorField.diagonal_constant(grid8, (4.0, 4.0, 4.0))
    vals = np.zeros(grid8.shape + (3,))
    vals[..., 0] = 2.0
    # |v|^2 = g^{ab} v_a v_b = 4 / 4 = 1
    assert sup_norm(VectorField(grid8, vals), g) == pytest.approx(1.0)


def test_sup_norm_tensor_matches_brute_inner(grid8, rng):
    g = random_metric(grid8, rng)
    a = SymTensorField(grid8, rng.standard_normal(grid8.shape + (6,)))
    gm = orc.sym_to_mat(g.values)
    am = orc.sym_to_mat(a.values)
    expect = np.sqrt(np.max(orc.brute_inner(am, am, orc.brute_inverse(gm))))
    assert sup_norm(a, g) == pytest.approx(expect, rel=1e-12)
