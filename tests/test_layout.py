"""Kernel oracles on non-cubic grids with unequal periods.

On a cubic grid a reshape that mixes grid axes with component axes, or a
stencil applied along the wrong axis, can still agree with the oracle.
Here every axis has its own size and spacing, and the grid is checked in
both axis orders.
"""

import numpy as np
import pytest

import oracles as orc
from cmclab import (
    GridSpec,
    ScalarField,
    SymTensorField,
    christoffels,
    covariant_derivative_sym,
    hessian,
    ricci,
    sym_to_matrix,
)
from cmclab.checks import random_metric
from cmclab.grid import diff_array

GRIDS = (
    GridSpec((9, 12, 16), (1.0, 2.0, 0.5)),
    GridSpec((16, 12, 9), (0.5, 2.0, 1.0)),
)


@pytest.fixture(params=GRIDS, ids=lambda grid: "x".join(map(str, grid.shape)))
def grid(request):
    return request.param


# Relative bound for the kernels on Gamma's (3, 6, *grid) planes against the
# brute-force loops: both differ only in the order of their roundings.
PLANE_BOUND = 1e-12


def _scale(want):
    return max(np.max(np.abs(want)), 1.0)


def test_christoffels_match_brute_off_cube(grid, rng):
    g = random_metric(grid, rng)
    got = christoffels(g).coefficients
    want = orc.brute_christoffels(orc.sym_to_mat(g.values), grid.spacings)
    assert np.max(np.abs(got - want)) < 1e-12 * _scale(want)


def test_connection_coefficients_layout_off_cube(grid, rng):
    gam = christoffels(random_metric(grid, rng)).coefficients
    assert gam.shape == grid.shape + (3, 3, 3)
    assert not gam.flags.writeable
    assert np.array_equal(gam, np.swapaxes(gam, -1, -2))


def test_plane_kernels_match_brute_off_cube(grid, rng):
    g = random_metric(grid, rng)
    gamma = christoffels(g)
    brute_gamma = orc.brute_christoffels(orc.sym_to_mat(g.values), grid.spacings)
    # planes[a, slot(b, c)] is the contiguous plane Gamma^a_bc, in the oracle's pair order
    assert gamma.planes.shape == (3, 6) + grid.shape
    for a in range(3):
        for slot, (b, c) in enumerate(orc.SYM_PAIRS):
            want = brute_gamma[..., a, b, c]
            assert gamma.planes[a, slot].flags.c_contiguous
            assert np.max(np.abs(gamma.planes[a, slot] - want)) < PLANE_BOUND * _scale(brute_gamma)
    assert np.max(np.abs(gamma.coefficients - brute_gamma)) < PLANE_BOUND * _scale(brute_gamma)

    want = orc.brute_ricci(orc.sym_to_mat(g.values), grid.spacings)
    got = orc.sym_to_mat(ricci(g).values)
    assert np.max(np.abs(got - want)) < PLANE_BOUND * _scale(want)

    f = ScalarField(grid, rng.standard_normal(grid.shape))
    want = orc.brute_hessian(f.values, brute_gamma, grid.spacings)
    got = orc.sym_to_mat(hessian(f, gamma).values)
    assert np.max(np.abs(got - want)) < PLANE_BOUND * _scale(want)

    a = SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))
    want = orc.brute_cov_deriv(orc.sym_to_mat(a.values), brute_gamma, grid.spacings)
    got = covariant_derivative_sym(a, gamma)
    assert np.max(np.abs(got - want)) < PLANE_BOUND * _scale(want)


def test_ricci_matches_brute_off_cube(grid, rng):
    g = random_metric(grid, rng)
    got = sym_to_matrix(ricci(g).values)
    want = orc.brute_ricci(orc.sym_to_mat(g.values), grid.spacings)
    assert np.max(np.abs(got - want)) < 1e-11 * _scale(want)


def test_covariant_derivative_matches_brute_off_cube(grid, rng):
    g = random_metric(grid, rng)
    a = SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))
    gamma = christoffels(g)
    got = covariant_derivative_sym(a, gamma)
    want = orc.brute_cov_deriv(orc.sym_to_mat(a.values), gamma.coefficients, grid.spacings)
    assert np.max(np.abs(got - want)) < 1e-12 * _scale(want)


@pytest.mark.parametrize("comps", [(), (6,), (3, 3)], ids=["scalar", "sym6", "matrix"])
def test_diff_array_matches_local_stencil_off_cube(grid, rng, comps):
    values = rng.standard_normal(grid.shape + comps)
    for axis in range(3):
        h = grid.spacings[axis]
        assert np.array_equal(diff_array(values, axis, h), orc.diff4(values, axis, h))
