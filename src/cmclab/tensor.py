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
grid.Metric can derive each once; Gamma is re-exported here.  Every
operation reads g^-1, sqrt(det g) and Gamma from as_metric(g).

covariant_derivative_sym (shared by curl and divergence) differentiates
the 6 stored components of A and forms Gamma^m_ts A_mb as one batched
(9 x 3) @ (3 x 3) matmul; since A and the lower pair of Gamma are both
symmetric, the other connection term Gamma^m_tb A_sm is the same array
with its last two axes swapped.

Orientation convention: the alternating symbol is right-handed in the
coordinate frame ([123] = +1).  Reversing orientation flips the sign of
wedge and curl (and hence of the magnetic Weyl part built from curl),
leaving every quadratic scalar unchanged.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    Connection,
    ScalarField,
    SymTensorField,
    VectorField,
    _partials,
    _sym_dot,
    as_metric,
    christoffels,
    diff_array,
    matrix_to_sym,
    sym_to_matrix,
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


def raise_first_index(A: SymTensorField, inv: np.ndarray) -> np.ndarray:
    """Mixed components A^a_b = g^{ac} A_cb as a full (..., 3, 3) array."""
    return inv @ sym_to_matrix(A.values)


def trace(A: SymTensorField, g: SymTensorField) -> ScalarField:
    """g-trace g^{ab} A_ab."""
    values = np.einsum("...ab,...ab->...", as_metric(g).inv, sym_to_matrix(A.values))
    return ScalarField(A.grid, values)


def traceless(A: SymTensorField, g: SymTensorField) -> SymTensorField:
    """Traceless part A - (tr A / 3) g."""
    tr = trace(A, g)
    return SymTensorField(A.grid, A.values - (tr.values[..., None] / 3.0) * g.values)


def inner(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> ScalarField:
    """Full contraction A . B = g^{ac} g^{bd} A_ab B_cd."""
    inv = as_metric(g).inv
    values = _sym_dot(raise_first_index(A, inv), raise_first_index(B, inv))
    return ScalarField(A.grid, values)


def norm_sq(A: SymTensorField, g: SymTensorField) -> ScalarField:
    """Pointwise squared g-norm |A|^2 = A . A."""
    return inner(A, A, g)


def wedge(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> VectorField:
    """(A ^ B)_a = eps_a^{bc} A_b^d B_{dc} = g_ap dual(A g^-1 B)_p / sqrt(det g)."""
    g = as_metric(g)
    m = sym_to_matrix(A.values) @ g.inv @ sym_to_matrix(B.values)
    d = _dual(m) / g.sqrt_det[..., None]
    return VectorField(A.grid, np.einsum("...ap,...p->...a", sym_to_matrix(g.values), d))


def cross(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> SymTensorField:
    """(A x B)_ab, symmetric and commutative for symmetric inputs."""
    inv = as_metric(g).inv
    a_up, b_up = raise_first_index(A, inv), raise_first_index(B, inv)
    tr_a, tr_b = np.einsum("...aa->...", a_up)[..., None], np.einsum("...aa->...", b_up)[..., None]
    dot = _sym_dot(a_up, b_up)[..., None]
    # twice the averaged off-diagonal pair of A g^-1 B is A g^-1 B + B g^-1 A
    pair = 2.0 * matrix_to_sym(sym_to_matrix(A.values) @ b_up)
    values = pair - tr_a * B.values - tr_b * A.values + (2.0 / 3.0) * (tr_a * tr_b - dot) * g.values
    return SymTensorField(A.grid, values)


def covariant_derivative_sym(A: SymTensorField, gamma: Connection) -> np.ndarray:
    """nabla_t A_sb as a full (..., 3, 3, 3) array indexed [t, s, b].

    nabla_t A_sb = d_t A_sb - Gamma^m_{ts} A_mb - Gamma^m_{tb} A_sm
    """
    dA = sym_to_matrix(_partials(A.values, A.grid))
    rows = gamma.coefficients.reshape(A.grid.shape + (3, 9))  # rows[..., m, 3t + s] = Gamma^m_ts
    # x[t, s, b] = Gamma^m_ts A_mb; as A and Gamma's lower pair are symmetric,
    # the second term Gamma^m_tb A_sm is x[t, b, s]
    x = (np.swapaxes(rows, -1, -2) @ sym_to_matrix(A.values)).reshape(dA.shape)
    dA -= x
    dA -= np.swapaxes(x, -1, -2)
    return dA


def curl(A: SymTensorField, g: SymTensorField) -> SymTensorField:
    """Symmetrized metric-weighted curl of a symmetric tensor."""
    g = as_metric(g)
    # nabla A as [..., b, s, t], whose dual is D_pb = [pst] nabla_t A_sb as [..., b, p];
    # (D^T g)_ba = eps_a^{st} nabla_t A_sb sqrt(det g), and matrix_to_sym symmetrizes it
    d = _dual(np.swapaxes(covariant_derivative_sym(A, g.gamma), -1, -3))
    values = matrix_to_sym(d @ sym_to_matrix(g.values)) / g.sqrt_det[..., None]
    return SymTensorField(A.grid, values)


def divergence(A: SymTensorField, g: SymTensorField) -> VectorField:
    """(div A)_b = g^{ac} nabla_a A_cb."""
    g = as_metric(g)
    grad_a = covariant_derivative_sym(A, g.gamma)
    values = np.einsum("...ac,...acb->...b", g.inv, grad_a)
    return VectorField(A.grid, values)


def gradient(f: ScalarField) -> VectorField:
    """Covector gradient (nabla f)_a = d_a f."""
    return VectorField(f.grid, _partials(f.values, f.grid))


def hessian(f: ScalarField, gamma: Connection) -> SymTensorField:
    """Covariant Hessian nabla_a nabla_b f = d_a d_b f - Gamma^c_{ab} d_c f."""
    spacings = f.grid.spacings
    df = _partials(f.values, f.grid)
    hess = np.empty(f.grid.shape + (3, 3))
    for a in range(3):
        for b in range(a, 3):
            hess[..., a, b] = diff_array(df[..., b], a, spacings[a])
            if b != a:
                hess[..., b, a] = hess[..., a, b]
    rows = gamma.coefficients.reshape(f.grid.shape + (3, 9))  # rows[..., c, 3a + b] = Gamma^c_ab
    hess -= (df[..., None, :] @ rows).reshape(hess.shape)
    return SymTensorField(f.grid, matrix_to_sym(hess))
