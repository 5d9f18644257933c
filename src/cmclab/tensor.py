"""Symmetric-3-tensor calculus relative to a metric and its connection.

Implements the operations the energy identities are built from:

    (A ^ B)_a  = eps_a^{bc} A_b^d B_{dc}                      (wedge)
    (A x B)_ab = eps_a^{cd} eps_b^{ef} A_ce B_df
                 + (1/3)(A.B) g_ab - (1/3)(tr A)(tr B) g_ab   (cross)
    curl A_ab  = (1/2)(eps_a^{st} D_t A_sb + eps_b^{st} D_t A_sa)
    div A_b    = g^{ac} D_a A_cb

with D the Levi-Civita covariant derivative of g and eps the
metric-weighted alternating tensor eps_abc = sqrt(det g) [abc].

Orientation convention: the alternating symbol is right-handed in the
coordinate frame ([123] = +1).  Reversing orientation flips the sign of
wedge and curl (and hence of the magnetic Weyl part built from curl),
leaving every quadratic scalar unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSpec,
    ScalarField,
    SymTensorField,
    VectorField,
    _checked_determinant,
    diff_array,
    inverse_metric,
    matrix_to_sym,
    sym_to_matrix,
)

__all__ = [
    "Connection",
    "christoffels",
    "levi_civita_lower",
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

# Alternating symbol [abc], right-handed: [0,1,2] = +1.
_ALT = np.zeros((3, 3, 3))
_ALT[0, 1, 2] = _ALT[1, 2, 0] = _ALT[2, 0, 1] = 1.0
_ALT[0, 2, 1] = _ALT[2, 1, 0] = _ALT[1, 0, 2] = -1.0


@dataclass(frozen=True, eq=False)
class Connection:
    """Christoffel symbols Gamma^a_{bc} of a metric, shape (*grid, 3, 3, 3).

    Symmetric in the lower index pair by construction.
    """

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != self.grid.shape + (3, 3, 3):
            raise ValueError(f"connection coefficients shaped {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("connection coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)


def _partials(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coordinate partials d[:, :, :, t, ...] = partial_t values, for grid-shaped values."""
    spacings = grid.spacings
    d = np.empty(grid.shape + (3,) + values.shape[3:])
    for t in range(3):
        d[:, :, :, t] = diff_array(values, t, spacings[t])
    return d


def christoffels(g: SymTensorField) -> Connection:
    """Levi-Civita connection of g via 4th-order finite differences.

    Gamma^a_{bc} = (1/2) g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc)
    """
    inv = inverse_metric(g)
    dg = _partials(sym_to_matrix(g.values), g.grid)  # dg[..., d, a, b] = d_d g_ab
    # lower[..., d, b, c] = d_b g_dc + d_c g_bd - d_d g_bc
    lower = (
        np.transpose(dg, (0, 1, 2, 4, 3, 5))
        + np.transpose(dg, (0, 1, 2, 5, 4, 3))
        - dg
    )
    coeffs = 0.5 * np.einsum("...ad,...dbc->...abc", inv, lower)
    return Connection(g.grid, coeffs)


def levi_civita_lower(g: SymTensorField) -> np.ndarray:
    """Metric-weighted alternating tensor eps_abc = sqrt(det g) [abc]."""
    return np.sqrt(_checked_determinant(g))[..., None, None, None] * _ALT


def _eps_last_two_up(g: SymTensorField, inv: np.ndarray) -> np.ndarray:
    """eps_a^{st} = eps_amn g^{ms} g^{nt}; equals [ast] / sqrt(det g) * g_a-row lowered."""
    eps = levi_civita_lower(g)
    return np.einsum("...amn,...ms,...nt->...ast", eps, inv, inv)


def raise_first_index(A: SymTensorField, inv: np.ndarray) -> np.ndarray:
    """Mixed components A^a_b = g^{ac} A_cb as a full (..., 3, 3) array."""
    return np.einsum("...ac,...cb->...ab", inv, sym_to_matrix(A.values))


def trace(A: SymTensorField, g: SymTensorField) -> ScalarField:
    """g-trace g^{ab} A_ab."""
    inv = inverse_metric(g)
    values = np.einsum("...ab,...ab->...", inv, sym_to_matrix(A.values))
    return ScalarField(A.grid, values)


def traceless(A: SymTensorField, g: SymTensorField) -> SymTensorField:
    """Traceless part A - (tr A / 3) g."""
    tr = trace(A, g)
    return SymTensorField(A.grid, A.values - (tr.values[..., None] / 3.0) * g.values)


def inner(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> ScalarField:
    """Full contraction A . B = g^{ac} g^{bd} A_ab B_cd."""
    inv = inverse_metric(g)
    ma, mb = sym_to_matrix(A.values), sym_to_matrix(B.values)
    values = np.einsum("...ac,...bd,...ab,...cd->...", inv, inv, ma, mb)
    return ScalarField(A.grid, values)


def norm_sq(A: SymTensorField, g: SymTensorField) -> ScalarField:
    """Pointwise squared g-norm |A|^2 = A . A."""
    return inner(A, A, g)


def wedge(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> VectorField:
    """(A ^ B)_a = eps_a^{bc} A_b^d B_{dc}."""
    inv = inverse_metric(g)
    eps_up = _eps_last_two_up(g, inv)
    a_mixed = np.einsum("...bd,...dc->...bc", sym_to_matrix(A.values), inv)  # A_b^c
    m = np.einsum("...bd,...dc->...bc", a_mixed, sym_to_matrix(B.values))  # A_b^d B_dc
    values = np.einsum("...abc,...bc->...a", eps_up, m)
    return VectorField(A.grid, values)


def cross(A: SymTensorField, B: SymTensorField, g: SymTensorField) -> SymTensorField:
    """(A x B)_ab, symmetric and commutative for symmetric inputs."""
    inv = inverse_metric(g)
    eps_up = _eps_last_two_up(g, inv)
    ma, mb = sym_to_matrix(A.values), sym_to_matrix(B.values)
    main = np.einsum("...acd,...bef,...ce,...df->...ab", eps_up, eps_up, ma, mb)
    dot = np.einsum("...ac,...bd,...ab,...cd->...", inv, inv, ma, mb)
    tr_a = np.einsum("...ab,...ab->...", inv, ma)
    tr_b = np.einsum("...ab,...ab->...", inv, mb)
    gm = sym_to_matrix(g.values)
    full = main + ((dot - tr_a * tr_b) / 3.0)[..., None, None] * gm
    return SymTensorField(A.grid, matrix_to_sym(full))


def covariant_derivative_sym(A: SymTensorField, gamma: Connection) -> np.ndarray:
    """nabla_t A_sb as a full (..., 3, 3, 3) array indexed [t, s, b].

    nabla_t A_sb = d_t A_sb - Gamma^m_{ts} A_mb - Gamma^m_{tb} A_sm
    """
    mat = sym_to_matrix(A.values)
    dA = _partials(mat, A.grid)
    gam = gamma.coefficients
    dA -= np.einsum("...mts,...mb->...tsb", gam, mat)
    dA -= np.einsum("...mtb,...sm->...tsb", gam, mat)
    return dA


def curl(A: SymTensorField, g: SymTensorField, gamma: Connection | None = None) -> SymTensorField:
    """Symmetrized metric-weighted curl of a symmetric tensor."""
    if gamma is None:
        gamma = christoffels(g)
    inv = inverse_metric(g)
    eps_up = _eps_last_two_up(g, inv)
    grad_a = covariant_derivative_sym(A, gamma)
    half = np.einsum("...ast,...tsb->...ab", eps_up, grad_a)
    full = 0.5 * (half + np.swapaxes(half, -1, -2))
    return SymTensorField(A.grid, matrix_to_sym(full))


def divergence(A: SymTensorField, g: SymTensorField, gamma: Connection | None = None) -> VectorField:
    """(div A)_b = g^{ac} nabla_a A_cb."""
    if gamma is None:
        gamma = christoffels(g)
    inv = inverse_metric(g)
    grad_a = covariant_derivative_sym(A, gamma)
    values = np.einsum("...ac,...acb->...b", inv, grad_a)
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
    hess -= np.einsum("...cab,...c->...ab", gamma.coefficients, df)
    return SymTensorField(f.grid, matrix_to_sym(hess))
