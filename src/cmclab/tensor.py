"""Symmetric-3-tensor calculus relative to a metric and its connection.

Implements the operations the energy identities are built from:

    (A ^ B)_a  = eps_a^{bc} A_b^d B_{dc}                      (wedge)
    (A x B)_ab = eps_a^{cd} eps_b^{ef} A_ce B_df
                 + (1/3)(A.B) g_ab - (1/3)(tr A)(tr B) g_ab   (cross)
    curl A_ab  = (1/2)(eps_a^{st} D_t A_sb + eps_b^{st} D_t A_sa)
    div A_b    = g^{ac} D_a A_cb

with D the Levi-Civita covariant derivative of g and eps the
metric-weighted alternating tensor eps_abc = sqrt(det g) [abc].

No eps array is built: with dual(M)_p = [pbc] M_bc and
eps_a^{bc} = g_ap [pbc] / sqrt(det g), the wedge is
g dual(A g^-1 B) / sqrt(det g) and the curl takes the same dual of D A;
expanding eps_a^{cd} eps_b^{ef} as a determinant of metrics gives

    A x B = A g^-1 B + B g^-1 A - (tr A) B - (tr B) A
            + (2/3)((tr A)(tr B) - A.B) g.

Gamma (christoffels, the Metric's gamma block) and Ric live in grid.py,
so that a grid.Metric can derive each once; so do trace,
raise_first_index and covariant_derivative_sym, so that a grid.SecondForm
can derive tr A, g^-1 A and nabla A once.  All are re-exported here.
Every operation takes the metric g, never a quantity derived from it: it
reads g^-1, sqrt(det g) and Gamma from as_metric(g), and each symmetric
operand A through as_second_form(A, g): g^-1 A for inner, norm_sq, cross,
raise_first_index and the B of wedge, tr A for trace and cross, nabla A
for curl, divergence and covariant_derivative_sym.  An operand handed in
as a SecondForm is raised once however many of them read it (B = -curl K
and div K share nabla K), and a Metric derives Gamma once for ricci,
nabla A and hessian(f, g).  divergence contracts g^-1 with nabla A, not
with A, so it raises nothing.

Every operation works on contiguous components-first planes and forms
each component as a short fixed sum of plane products (grid._plane_sum):
the 6 planes of g^-1, the 9 of g^-1 A (indexed [a, b] for A^a_b), the
(3, 6, ...) blocks of Gamma and nabla A (indexed [t, slot(s, b)]), and
the planes of A and g themselves: a field's values is a (..., k) view of
its component-major (k, n1, n2, n3) block (grid.py), so grid._planes
hands an operation that block, with no copy.
cross sums (A g^-1 B)_ij + (A g^-1 B)_ji on the stored pairs, each three
products of A's planes with g^-1 B's; wedge forms the three antisymmetric
differences of A g^-1 B that its dual reads, then lowers with g's planes;
curl takes the same differences of nabla A's planes, contracts them with
g and averages each stored pair with its transpose; divergence is the
9-product sum g^{ac} nabla_a A_cb.  hessian fills the 6 stored slots
directly, each d_a d_b f less the plane sum over c of d_c f Gamma^c_ab.
Every result is allocated as its own block, 6 planes for a symmetric
tensor and 3 for a covector, and returned as the (..., k) view of it;
apart from the expansions raise_first_index and covariant_derivative_sym,
no operation builds a (..., 3, 3) array, and none runs a batched 3x3
matmul or transposes a field between layouts.

Orientation convention: the alternating symbol is right-handed in the
coordinate frame ([123] = +1).  Reversing orientation flips the sign of
wedge and curl (and hence of the magnetic Weyl part built from curl),
leaving every quadratic scalar unchanged.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    SYM_PAIRS,
    ScalarField,
    SymTensorField,
    VectorField,
    _grid_last,
    _plane_sum,
    _planes,
    _shared_grid,
    _sym_dot,
    as_metric,
    as_second_form,
    christoffels,
    covariant_derivative_sym,
    diff_array,
    raise_first_index,
    sym_index,
    trace,
)

__all__ = [
    "christoffels",
    "wedge",
    "cross",
    "curl",
    "divergence",
    "trace",
    "traceless",
    "norm_sq",
    "inner",
    "gradient",
    "hessian",
    "covariant_derivative_sym",
    "raise_first_index",
]

# the (b, c) pair behind each component p of dual(M)_p = [pbc] M_bc = M_bc - M_cb
_DUAL_PAIRS = ((1, 2), (2, 0), (0, 1))


def traceless(A: SymTensorField, g: SymTensorField) -> SymTensorField:
    """Traceless part A - (tr A / 3) g."""
    tr = trace(A, g)
    return SymTensorField(A.grid, A.values - (tr.values[..., None] / 3.0) * g.values)


def inner(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> ScalarField:
    """Full contraction A . B = g^{ac} g^{bd} A_ab B_cd."""
    g = as_metric(g)
    a, b = as_second_form(A, g)._mixed_planes, as_second_form(B, g)._mixed_planes
    return ScalarField(A.grid, _sym_dot(a, b))


def norm_sq(A: SymTensorField, g: SymTensorField) -> ScalarField:
    """Pointwise squared g-norm |A|^2 = A . A."""
    return ScalarField(A.grid, as_second_form(A, g).norm_sq)


def _times_mixed(a: np.ndarray, b_up: np.ndarray, b: int, c: int, out: np.ndarray,
                 tmp: np.ndarray) -> np.ndarray:
    """(A g^-1 B)_bc = A_bd (g^-1 B)^d_c into out, from A's 6 planes and g^-1 B's 9."""
    return _plane_sum([(a[sym_index(b, d)], b_up[d, c]) for d in range(3)], out, tmp)


def wedge(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> VectorField:
    """(A ^ B)_a = eps_a^{bc} A_b^d B_{dc} = g_ap dual(A g^-1 B)_p / sqrt(det g)."""
    g = as_metric(g)
    a, b_up, g_planes = _planes(A.values), as_second_form(B, g)._mixed_planes, _planes(g.values)
    d = np.empty((3,) + A.grid.shape)  # dual(A g^-1 B) / sqrt(det g)
    term, tmp = np.empty(A.grid.shape), np.empty(A.grid.shape)
    for p, (i, j) in enumerate(_DUAL_PAIRS):
        np.subtract(_times_mixed(a, b_up, i, j, d[p], tmp), _times_mixed(a, b_up, j, i, term, tmp),
                    out=d[p])
        d[p] /= g.sqrt_det
    out = np.empty((3,) + A.grid.shape)
    for i in range(3):
        _plane_sum([(g_planes[sym_index(i, p)], d[p]) for p in range(3)], out[i], tmp)
    return VectorField(A.grid, _grid_last(out))


def cross(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> SymTensorField:
    """(A x B)_ab, symmetric and commutative for symmetric inputs."""
    g = as_metric(g)
    a, b = as_second_form(A, g), as_second_form(B, g)
    a_planes, b_up = _planes(A.values), b._mixed_planes
    # A g^-1 B + B g^-1 A on the stored pairs: (A g^-1 B)_ij + (A g^-1 B)_ji
    both = np.empty((6,) + A.grid.shape)
    term, tmp = np.empty(A.grid.shape), np.empty(A.grid.shape)
    for slot, (i, j) in enumerate(SYM_PAIRS):
        _times_mixed(a_planes, b_up, i, j, both[slot], tmp)
        if i == j:
            both[slot] *= 2.0
        else:
            both[slot] += _times_mixed(a_planes, b_up, j, i, term, tmp)
    values = _grid_last(both)
    dot = a.norm_sq if b is a else _sym_dot(a._mixed_planes, b_up)  # A . B; A x A reads |A|^2
    values -= a.trace[..., None] * B.values
    values -= b.trace[..., None] * A.values
    values += (2.0 / 3.0) * (a.trace * b.trace - dot)[..., None] * g.values
    return SymTensorField(A.grid, values)


def curl(A: SymTensorField, g: SymTensorField) -> SymTensorField:
    """Symmetrized metric-weighted curl of a symmetric tensor."""
    g = as_metric(g)
    nabla, g_planes = as_second_form(A, g)._nabla_planes, _planes(g.values)
    shape = A.grid.shape
    # d[b, p] = [pst] nabla_t A_sb = nabla_t A_sb - nabla_s A_tb, (s, t) the dual pair of p
    d = np.empty((3, 3) + shape)
    for b in range(3):
        for p, (s, t) in enumerate(_DUAL_PAIRS):
            np.subtract(nabla[t, sym_index(s, b)], nabla[s, sym_index(t, b)], out=d[b, p])
    # (d g)_ba = eps_a^{st} nabla_t A_sb sqrt(det g), symmetrized on the stored pairs
    out = np.empty((6,) + shape)
    term, tmp = np.empty(shape), np.empty(shape)
    for slot, (a, b) in enumerate(SYM_PAIRS):
        _plane_sum([(d[b, p], g_planes[sym_index(p, a)]) for p in range(3)], out[slot], tmp)
        if a != b:
            out[slot] += _plane_sum([(d[a, p], g_planes[sym_index(p, b)]) for p in range(3)],
                                    term, tmp)
            out[slot] *= 0.5
        out[slot] /= g.sqrt_det
    return SymTensorField(A.grid, _grid_last(out))


def divergence(A: SymTensorField, g: SymTensorField) -> VectorField:
    """(div A)_b = g^{ac} nabla_a A_cb."""
    g = as_metric(g)
    inv, nabla = g._inv_planes, as_second_form(A, g)._nabla_planes
    out, tmp = np.empty((3,) + A.grid.shape), np.empty(A.grid.shape)
    for b in range(3):
        _plane_sum([(inv[sym_index(a, c)], nabla[a, sym_index(c, b)])
                    for a in range(3) for c in range(3)], out[b], tmp)
    return VectorField(A.grid, _grid_last(out))


def gradient(f: ScalarField) -> VectorField:
    """Covector gradient (nabla f)_a = d_a f."""
    partials = [diff_array(f.values, t, h) for t, h in enumerate(f.grid.spacings)]
    return VectorField(f.grid, _grid_last(np.stack(partials)))


def hessian(f: ScalarField, g: SymTensorField) -> SymTensorField:
    """Covariant Hessian nabla_a nabla_b f = d_a d_b f - Gamma^c_{ab} d_c f."""
    _shared_grid(f, g)
    spacings, gam = f.grid.spacings, as_metric(g).gamma
    df = [diff_array(f.values, t, h) for t, h in enumerate(spacings)]  # df[t] = d_t f
    hess = np.empty((6,) + f.grid.shape)
    term, tmp = np.empty(f.grid.shape), np.empty(f.grid.shape)
    for slot, (a, b) in enumerate(SYM_PAIRS):
        _plane_sum([(df[c], gam[c, slot]) for c in range(3)], term, tmp)
        np.subtract(diff_array(df[b], a, spacings[a]), term, out=hess[slot])
    return SymTensorField(f.grid, _grid_last(hess))
