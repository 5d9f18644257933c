"""Kernel oracles on non-cubic grids with unequal periods, and the field storage.

On a cubic grid a reshape that mixes grid axes with component axes, or a
stencil applied along the wrong axis, can still agree with the oracle.
Here every axis has its own size and spacing, and the grid is checked in
both axis orders.  The kernels keep g^-1, g^-1 A, nabla A and Gamma as
contiguous components-first planes; each plane is checked against the
brute-force loops of oracles.py, and no kernel may read a (..., 3, 3)
expansion.

Every vector and symmetric field keeps its values as a (..., k) view of
one C-contiguous (k, n1, n2, n3) block.  The tests at the end pin that
layout on what a step and a record produce, pin that an array in another
layout is copied once, when its field is built, and nowhere on the step
or record path, and check that the results do not depend on the layout
the inputs came in.
"""

import io
import itertools
import sys

import numpy as np
import pytest

import oracles as orc
from cmclab import (
    AXIAL,
    DiagnosticsCollector,
    GridSpec,
    Metric,
    ScalarField,
    SecondForm,
    SliceState,
    SymTensorField,
    VectorField,
    as_metric,
    as_second_form,
    christoffels,
    covariant_derivative_sym,
    cross,
    curl,
    divergence,
    electric_weyl,
    emit_records,
    evolution_rhs,
    evolve_states,
    gradient,
    hessian,
    inner,
    inverse_metric,
    kasner_initial_data,
    load_state,
    perturb,
    raise_first_index,
    ricci,
    save_state,
    sym_to_matrix,
    time_step,
    warped_kasner_state,
    wedge,
)
from cmclab.checks import random_metric
from cmclab.grid import _grid_last, _planes, _vector_dot, diff_array
from cmclab.state import _second_form

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
    got = orc.gamma_to_full(christoffels(g))
    want = orc.brute_christoffels(orc.sym_to_mat(g.values), grid.spacings)
    assert np.max(np.abs(got - want)) < 1e-12 * _scale(want)


def test_connection_coefficients_layout_off_cube(grid, rng):
    # Gamma is one read-only C-contiguous block of planes, the Metric's own
    g = as_metric(random_metric(grid, rng))
    gam = christoffels(g)
    assert gam.shape == (3, 6) + grid.shape
    assert gam.flags.c_contiguous and not gam.flags.writeable
    assert g.gamma is g.gamma and np.array_equal(g.gamma, gam)


def test_plane_kernels_match_brute_off_cube(grid, rng):
    g = random_metric(grid, rng)
    gamma = christoffels(g)
    brute_gamma = orc.brute_christoffels(orc.sym_to_mat(g.values), grid.spacings)
    # gamma[a, slot(b, c)] is the contiguous plane Gamma^a_bc, in the oracle's pair order
    assert gamma.shape == (3, 6) + grid.shape
    for a in range(3):
        for slot, (b, c) in enumerate(orc.SYM_PAIRS):
            want = brute_gamma[..., a, b, c]
            assert gamma[a, slot].flags.c_contiguous
            assert np.max(np.abs(gamma[a, slot] - want)) < PLANE_BOUND * _scale(brute_gamma)
    assert (np.max(np.abs(orc.gamma_to_full(gamma) - brute_gamma))
            < PLANE_BOUND * _scale(brute_gamma))

    want = orc.brute_ricci(orc.sym_to_mat(g.values), grid.spacings)
    got = orc.sym_to_mat(ricci(g).values)
    assert np.max(np.abs(got - want)) < PLANE_BOUND * _scale(want)

    f = ScalarField(grid, rng.standard_normal(grid.shape))
    want = orc.brute_hessian(f.values, brute_gamma, grid.spacings)
    got = orc.sym_to_mat(hessian(f, g).values)
    assert np.max(np.abs(got - want)) < PLANE_BOUND * _scale(want)

    a = SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))
    want = orc.brute_cov_deriv(orc.sym_to_mat(a.values), brute_gamma, grid.spacings)
    got = covariant_derivative_sym(a, g)
    assert np.max(np.abs(got - want)) < PLANE_BOUND * _scale(want)


def test_ricci_matches_brute_off_cube(grid, rng):
    g = random_metric(grid, rng)
    got = sym_to_matrix(ricci(g).values)
    want = orc.brute_ricci(orc.sym_to_mat(g.values), grid.spacings)
    assert np.max(np.abs(got - want)) < 1e-11 * _scale(want)


def test_covariant_derivative_matches_brute_off_cube(grid, rng):
    g = random_metric(grid, rng)
    a = SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))
    got = covariant_derivative_sym(a, g)
    want = orc.brute_cov_deriv(orc.sym_to_mat(a.values), orc.gamma_to_full(christoffels(g)),
                               grid.spacings)
    assert np.max(np.abs(got - want)) < 1e-12 * _scale(want)


@pytest.mark.parametrize("comps", [(), (6,), (3, 3)], ids=["scalar", "sym6", "matrix"])
def test_diff_array_matches_local_stencil_off_cube(grid, rng, comps):
    """Along each axis, with trailing components, within orc.diff4_rounding_bound of diff4."""
    values = rng.standard_normal(grid.shape + comps)
    for axis in range(3):
        h = grid.spacings[axis]
        error = np.abs(diff_array(values, axis, h) - orc.diff4(values, axis, h))
        assert np.all(error <= orc.diff4_rounding_bound(values, axis, h))


@pytest.mark.parametrize("lead, shape", [((6,), (32, 32, 32)), ((3, 6), (32, 32, 32)),
                                         ((3,), (24, 24, 24)), ((6,), (40, 32, 24))],
                         ids=["6x32", "3x6x32", "3x24", "6x40x32x24"])
def test_block_derivative_is_bitwise_each_plane_alone(lead, shape, rng):
    # every plane of a block runs the same kernel on the same sizes
    grid = GridSpec(shape)
    values = rng.standard_normal(lead + shape)
    for t, h in enumerate(grid.spacings):
        got = diff_array(values, len(lead) + t, h)
        for index in np.ndindex(*lead):
            assert np.array_equal(got[index], diff_array(values[index], t, h))


def _close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < PLANE_BOUND * _scale(want)


def _random_sym(grid, rng):
    return SymTensorField(grid, rng.standard_normal(grid.shape + (6,)))


def test_metric_and_second_form_planes_match_brute_off_cube(grid, rng):
    g = as_metric(random_metric(grid, rng))
    a = as_second_form(_random_sym(grid, rng), g)
    am = orc.sym_to_mat(a.values)
    inv = orc.brute_inverse(orc.sym_to_mat(g.values))
    # g^-1 as 6 contiguous planes in the oracle's pair order
    assert g._inv_planes.shape == (6,) + grid.shape
    for slot, (i, j) in enumerate(orc.SYM_PAIRS):
        assert g._inv_planes[slot].flags.c_contiguous
        assert np.max(np.abs(g._inv_planes[slot] - inv[..., i, j])) < PLANE_BOUND * _scale(inv)
    _close(inverse_metric(g), inv)
    # g^-1 A as 9 contiguous planes indexed [a, b]
    mixed = orc.brute_mixed(am, inv)
    assert a._mixed_planes.shape == (3, 3) + grid.shape
    for i in range(3):
        for j in range(3):
            assert a._mixed_planes[i, j].flags.c_contiguous
            assert (np.max(np.abs(a._mixed_planes[i, j] - mixed[..., i, j]))
                    < PLANE_BOUND * _scale(mixed))
    _close(raise_first_index(a, g), mixed)
    _close(a.trace, orc.brute_trace(am, inv))
    _close(a.norm_sq, orc.brute_inner(am, am, inv))
    _close(orc.sym_to_mat(a.squared), orc.brute_squared(am, inv))


def test_pointwise_products_match_brute_off_cube(grid, rng):
    g = random_metric(grid, rng)
    a, b = _random_sym(grid, rng), _random_sym(grid, rng)
    gm, am, bm = (orc.sym_to_mat(f.values) for f in (g, a, b))
    inv = orc.brute_inverse(gm)
    _close(inner(a, b, g).values, orc.brute_inner(am, bm, inv))
    _close(orc.sym_to_mat(cross(a, b, g).values), orc.brute_cross(am, bm, gm))
    _close(wedge(a, b, g).values, orc.brute_wedge(am, bm, gm))
    v, w = rng.standard_normal(grid.shape + (3,)), rng.standard_normal(grid.shape + (3,))
    inv_planes = as_metric(g)._inv_planes
    _close(_vector_dot(inv_planes, v, v), orc.brute_vector_dot(v, v, inv))  # the covector norm
    _close(_vector_dot(inv_planes, v, w), orc.brute_vector_dot(v, w, inv))


def test_nabla_planes_curl_and_divergence_match_brute_off_cube(grid, rng):
    g = random_metric(grid, rng)
    a = as_second_form(_random_sym(grid, rng), g)
    gm, am = orc.sym_to_mat(g.values), orc.sym_to_mat(a.values)
    brute_gamma = orc.brute_christoffels(gm, grid.spacings)
    cov = orc.brute_cov_deriv(am, brute_gamma, grid.spacings)
    # nabla_t A_sb as the contiguous plane [t, slot(s, b)]
    assert a._nabla_planes.shape == (3, 6) + grid.shape
    for t in range(3):
        for slot, (s, b) in enumerate(orc.SYM_PAIRS):
            assert a._nabla_planes[t, slot].flags.c_contiguous
            assert (np.max(np.abs(a._nabla_planes[t, slot] - cov[..., t, s, b]))
                    < PLANE_BOUND * _scale(cov))
    _close(covariant_derivative_sym(a, g), cov)
    _close(orc.sym_to_mat(curl(a, g).values), orc.brute_curl(am, gm, grid.spacings))
    _close(divergence(a, g).values, orc.brute_divergence(am, gm, grid.spacings))


def test_no_kernel_reads_a_3x3_expansion(monkeypatch):
    for name in ("inverse_metric", "raise_first_index", "covariant_derivative_sym"):
        def refuse(*args, _name=name):
            raise AssertionError(f"a kernel called {_name}, a (..., 3, 3) expansion")

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("cmclab") and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    state, _ = perturb(warped_kasner_state(AXIAL, -1.0, GridSpec.cubic(12)), 1e-3, seed=11)
    stepped = time_step(state, 1e-3, trace_correction=True)
    DiagnosticsCollector().add(stepped)


def _assert_component_major(values, name):
    """values (*grid, k) is the view of one C-contiguous (k, *grid) block."""
    block = _planes(values)
    assert block.flags.c_contiguous, name
    assert np.shares_memory(block, values), name
    for slot in range(values.shape[-1]):
        assert values[..., slot].flags.c_contiguous, (name, slot)


@pytest.fixture(scope="module")
def perturbed16():
    state, _ = perturb(warped_kasner_state(AXIAL, -1.0, GridSpec.cubic(16)), 1e-4, seed=7)
    return state


def test_step_and_record_results_are_component_major(perturbed16):
    stepped = time_step(perturbed16, 1e-3, trace_correction=True)
    DiagnosticsCollector().add(stepped)
    K = _second_form(stepped)  # the SecondForm, over its Metric, the record derived
    g = K.metric
    E = electric_weyl(g, K)
    dg, dk = evolution_rhs(g, K, stepped.N)
    results = {
        "state.g": stepped.g.values, "state.K": stepped.K.values, "Ric": g.ricci.values,
        "K.squared": K.squared, "hessian": hessian(stepped.N, g).values,
        "electric_weyl": E.values, "curl": curl(K, g).values, "cross": cross(E, K, g).values,
        "wedge": wedge(E, K, g).values, "divergence": divergence(K, g).values,
        "gradient": gradient(stepped.N).values, "d/dt g": dg, "d/dt K": dk,
    }
    for name, values in results.items():
        _assert_component_major(values, name)


class _CountCopies:
    """Counts np.ascontiguousarray calls that copy a non-contiguous array of 4 or more axes."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = np.ascontiguousarray

        def counted(a, *args, **kwargs):
            if np.ndim(a) >= 4 and not np.asarray(a).flags.c_contiguous:
                self.count += 1
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", counted)


def test_no_layout_copy_on_the_step_and_record_path(perturbed16, monkeypatch):
    stepped = time_step(perturbed16, 1e-3, trace_correction=True)
    copies = _CountCopies(monkeypatch)
    DiagnosticsCollector().add(stepped)
    time_step(stepped, 1e-3, trace_correction=True)
    assert copies.count == 0


def test_a_grid_last_array_is_copied_once_at_construction(perturbed16, monkeypatch, tmp_path):
    grid = perturbed16.grid
    user = np.ascontiguousarray(perturbed16.g.values)  # grid-last C order
    assert user.flags.c_contiguous and not _planes(user).flags.c_contiguous
    path = tmp_path / "state.npz"
    save_state(perturbed16, path)
    copies = _CountCopies(monkeypatch)

    g = SymTensorField(grid, user)
    assert copies.count == 1 and not np.shares_memory(g.values, user)
    _assert_component_major(g.values, "user array")
    assert np.array_equal(g.values, user)
    # a field's values, and fields built over them, share its block
    for other in (SymTensorField(grid, g.values), Metric(grid, g.values),
                  SecondForm(grid, g.values, g)):
        assert other.values is g.values
    state = SliceState(t=perturbed16.t, g=g, K=perturbed16.K, N=perturbed16.N)
    assert state.g.values is g.values and copies.count == 1

    loaded = load_state(path)  # g and K each read back grid-last, each copied once
    assert copies.count == 3
    for name in ("g", "K"):
        _assert_component_major(getattr(loaded, name).values, f"loaded {name}")

    # initial data and zero fields are born component-major: no copy at all
    kasner_initial_data(AXIAL, -1.0, grid)
    warped_kasner_state(AXIAL, -1.0, grid)
    SymTensorField.zeros(grid)
    VectorField.zeros(grid)
    assert copies.count == 3


def _record_text(state):
    buffer = io.StringIO()
    emit_records([DiagnosticsCollector().add(state)], buffer)
    return buffer.getvalue()


def test_results_do_not_depend_on_the_input_layout(perturbed16):
    grid = perturbed16.grid
    layouts = {
        "grid-last": np.ascontiguousarray,
        "component-major": lambda v: _grid_last(np.ascontiguousarray(_planes(v))),
    }
    runs = {}
    for name, layout in layouts.items():
        g, K = layout(perturbed16.g.values), layout(perturbed16.K.values)
        assert (name == "grid-last") == g.flags.c_contiguous
        state = SliceState(t=perturbed16.t, g=SymTensorField(grid, g),
                           K=SymTensorField(grid, K), N=perturbed16.N)
        states = list(itertools.islice(evolve_states(state, -0.5, dt=1e-3,
                                                     trace_correction=True), 3))
        runs[name] = ([(s.t, s.g.values.tobytes(), s.K.values.tobytes(), s.N.values.tobytes())
                       for s in states], _record_text(states[-1]))
    assert runs["grid-last"] == runs["component-major"]
