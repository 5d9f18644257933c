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

Gamma (Connection, christoffels) and Ric live in grid.py, so that a
grid.Metric can derive each once; so do trace, raise_first_index and
covariant_derivative_sym, so that a grid.SecondForm can derive tr A,
g^-1 A and nabla A once.  All are re-exported here.  Every operation reads
g^-1, sqrt(det g) and Gamma from as_metric(g), and each symmetric operand
A through as_second_form(A, g): g^-1 A for inner, norm_sq, cross and the
B of wedge (A g^-1 B is A @ g^-1 B), tr A for trace and cross, nabla A
for curl and divergence.  An operand handed in as a SecondForm is raised
once however many of them read it (B = -curl K and div K share nabla K).
divergence contracts g^-1 with nabla A, not with A, so it raises nothing.

Symmetric results are stored in 6 components: a (3, 3) form is built only
as a matmul operand.  hessian and covariant_derivative_sym read Gamma from
its Connection's planes, one contiguous plane per Gamma^c_ab on a stored
pair.  hessian fills the 6 stored slots directly, each d_a d_b f less the
plane sum over c of d_c f Gamma^c_ab.  covariant_derivative_sym
differentiates a components-first copy of A's 6 planes and, per t and
stored pair (s, b), subtracts the plane sums Gamma^m_ts A_mb and
Gamma^m_tb A_sm; each result is written to both (s, b) and (b, s) of its
(..., 3, 3, 3) output, which curl and divergence read.

Orientation convention: the alternating symbol is right-handed in the
coordinate frame ([123] = +1).  Reversing orientation flips the sign of
wedge and curl (and hence of the magnetic Weyl part built from curl),
leaving every quadratic scalar unchanged.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    SYM_PAIRS,
    Connection,
    ScalarField,
    SymTensorField,
    VectorField,
    _plane_sum,
    _shared_grid,
    _sym_dot,
    as_metric,
    as_second_form,
    christoffels,
    covariant_derivative_sym,
    diff_array,
    matrix_to_sym,
    raise_first_index,
    sym_to_matrix,
    trace,
)

__all__ = [
    "Connection",
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

def _dual(m: np.ndarray) -> np.ndarray:
    """dual(M)_p = [pbc] M_bc = (M_12 - M_21, M_20 - M_02, M_01 - M_10) over the last two axes."""
    return np.stack([m[..., b, c] - m[..., c, b] for b, c in ((1, 2), (2, 0), (0, 1))], axis=-1)


def traceless(A: SymTensorField, g: SymTensorField) -> SymTensorField:
    """Traceless part A - (tr A / 3) g."""
    tr = trace(A, g)
    return SymTensorField(A.grid, A.values - (tr.values[..., None] / 3.0) * g.values)


def inner(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> ScalarField:
    """Full contraction A . B = g^{ac} g^{bd} A_ab B_cd."""
    g = as_metric(g)
    return ScalarField(A.grid, _sym_dot(as_second_form(A, g).mixed, as_second_form(B, g).mixed))


def norm_sq(A: SymTensorField, g: SymTensorField) -> ScalarField:
    """Pointwise squared g-norm |A|^2 = A . A."""
    return ScalarField(A.grid, as_second_form(A, g).norm_sq)


def wedge(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> VectorField:
    """(A ^ B)_a = eps_a^{bc} A_b^d B_{dc} = g_ap dual(A g^-1 B)_p / sqrt(det g)."""
    g = as_metric(g)
    m = sym_to_matrix(A.values) @ as_second_form(B, g).mixed
    d = _dual(m) / g.sqrt_det[..., None]
    return VectorField(A.grid, np.einsum("...ap,...p->...a", sym_to_matrix(g.values), d))


def cross(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> SymTensorField:
    """(A x B)_ab, symmetric and commutative for symmetric inputs."""
    g = as_metric(g)
    a, b = as_second_form(A, g), as_second_form(B, g)
    tr_a, tr_b = a.trace[..., None], b.trace[..., None]
    dot = _sym_dot(a.mixed, b.mixed)[..., None]
    # twice the averaged off-diagonal pair of A g^-1 B is A g^-1 B + B g^-1 A
    values = 2.0 * matrix_to_sym(sym_to_matrix(A.values) @ b.mixed)
    values -= tr_a * B.values
    values -= tr_b * A.values
    values += (2.0 / 3.0) * (tr_a * tr_b - dot) * g.values
    return SymTensorField(A.grid, values)


def curl(A: SymTensorField, g: SymTensorField) -> SymTensorField:
    """Symmetrized metric-weighted curl of a symmetric tensor."""
    g = as_metric(g)
    # nabla A as [..., b, s, t], whose dual is D_pb = [pst] nabla_t A_sb as [..., b, p];
    # (D^T g)_ba = eps_a^{st} nabla_t A_sb sqrt(det g), and matrix_to_sym symmetrizes it
    d = _dual(np.swapaxes(as_second_form(A, g).nabla, -1, -3))
    values = matrix_to_sym(d @ sym_to_matrix(g.values)) / g.sqrt_det[..., None]
    return SymTensorField(A.grid, values)


def divergence(A: SymTensorField, g: SymTensorField) -> VectorField:
    """(div A)_b = g^{ac} nabla_a A_cb."""
    g = as_metric(g)
    values = np.einsum("...ac,...acb->...b", g.inv, as_second_form(A, g).nabla)
    return VectorField(A.grid, values)


def gradient(f: ScalarField) -> VectorField:
    """Covector gradient (nabla f)_a = d_a f."""
    partials = [diff_array(f.values, t, h) for t, h in enumerate(f.grid.spacings)]
    return VectorField(f.grid, np.stack(partials, axis=-1))


def hessian(f: ScalarField, gamma: Connection) -> SymTensorField:
    """Covariant Hessian nabla_a nabla_b f = d_a d_b f - Gamma^c_{ab} d_c f."""
    _shared_grid(f, gamma)
    spacings, gam = f.grid.spacings, gamma.planes
    df = [diff_array(f.values, t, h) for t, h in enumerate(spacings)]  # df[t] = d_t f
    hess = np.empty(f.grid.shape + (6,))
    term, tmp = np.empty(f.grid.shape), np.empty(f.grid.shape)
    for slot, (a, b) in enumerate(SYM_PAIRS):
        _plane_sum([(df[c], gam[c, slot]) for c in range(3)], term, tmp)
        np.subtract(diff_array(df[b], a, spacings[a]), term, out=hess[..., slot])
    return SymTensorField(f.grid, hess)
