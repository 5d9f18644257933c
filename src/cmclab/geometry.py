"""Slice curvature, electric/magnetic Weyl parts and energy-density fields.

On a vacuum Cauchy slice with data (g, K) the Weyl tensor of the ambient
spacetime is encoded by two symmetric slice-tangent tensors,

    E_ab = Ric_ab + H K_ab - K_ac K^c_b        (electric part)
    B_ab = -curl K_ab                          (magnetic part)

with H = tr K.  Both are traceless exactly when the vacuum constraints

    ham = R + H^2 - |K|^2        (scalar)
    mom_a = (div K)_a - d_a H    (covector)

hold; the g-trace of E reproduces the Hamiltonian residual identically, so
that identity doubles as an internal consistency check.

The quadratic energy fields assembled from E and B are

    q_tttt = |E|^2 + |B|^2                    (nonnegative density)
    q_attt = 2 (E ^ B)_a
    q_abtt = -(E x E)_ab - (B x B)_ab + (1/3)(|E|^2 + |B|^2) g_ab

Every reader of K here reads H = tr K, g^-1 K, |K|^2, K g^-1 K and nabla K
from grid.as_second_form(K, g), and Ric from as_metric(g), so one Metric and
one SecondForm handed to several of them derive each once; br_components
raises E, then B, once each through a SecondForm for |.|^2 and the cross,
and the wedge reads B's.  E is formed from Ric, H K and K g^-1 K in their
6-component storage.  Every trace reads tr A from the SecondForm; R is
cached on the Metric, which raises Ric once for it.  R is not taken from
tr E, so the tr E = ham identity stays a check of two separate
computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveLapse
from .grid import (
    ScalarField,
    SymTensorField,
    VectorField,
    _pointwise_norm_sq,
    _shared_grid,
    as_metric,
    as_second_form,
    integrate,
    ricci,
)
from .tensor import (
    cross,
    curl,
    divergence,
    gradient,
    hessian,
    trace,
    wedge,
)

__all__ = [
    "WeylParts",
    "BRComponents",
    "ricci",
    "scalar_curvature",
    "electric_weyl",
    "magnetic_weyl",
    "weyl_parts",
    "br_components",
    "hamiltonian_constraint",
    "momentum_constraint",
    "static_residual",
    "constraint_norms",
    "weyl_trace_residuals",
]


@dataclass(frozen=True, eq=False)
class WeylParts:
    """Electric and magnetic Weyl tensors of a slice."""

    E: SymTensorField
    B: SymTensorField


@dataclass(frozen=True, eq=False)
class BRComponents:
    """Normal-frame components of the quadratic curvature energy tensor."""

    q_tttt: ScalarField
    q_attt: VectorField
    q_abtt: SymTensorField


def scalar_curvature(g: SymTensorField) -> ScalarField:
    """Scalar curvature R = g^{ab} Ric_ab, as cached on as_metric(g)."""
    return as_metric(g).scalar_curvature


def electric_weyl(g: SymTensorField, K: SymTensorField) -> SymTensorField:
    """E_ab = Ric_ab + H K_ab - K_ac K^c_b with H = tr K."""
    g = as_metric(g)
    K = as_second_form(K, g)
    # Ric first: derived beside K's arrays, it raises peak memory
    e = g.ricci.values + K.trace[..., None] * K.values
    e -= K.squared
    return SymTensorField(g.grid, e)


def magnetic_weyl(K: SymTensorField, g: SymTensorField) -> SymTensorField:
    """B_ab = -curl K_ab."""
    return SymTensorField(K.grid, -curl(K, g).values)


def weyl_parts(g: SymTensorField, K: SymTensorField) -> WeylParts:
    """Electric and magnetic Weyl parts of the slice (g, K), sharing one Metric and SecondForm."""
    g = as_metric(g)
    K = as_second_form(K, g)
    return WeylParts(E=electric_weyl(g, K), B=magnetic_weyl(K, g))


def br_components(E: SymTensorField, B: SymTensorField, g: SymTensorField) -> BRComponents:
    """Assemble (q_tttt, q_attt, q_abtt) from the Weyl parts."""
    g = as_metric(g)
    density = stress = 0.0
    for part in (E, B):  # one SecondForm at a time: g^-1 E is dropped before B is raised
        part = as_second_form(part, g)
        density = density + part.norm_sq
        stress = stress - cross(part, part, g).values
    stress += (density[..., None] / 3.0) * g.values
    flux_vec = VectorField(E.grid, 2.0 * wedge(E, part, g).values)  # part: B's SecondForm
    return BRComponents(ScalarField(E.grid, density), flux_vec, SymTensorField(E.grid, stress))


def hamiltonian_constraint(g: SymTensorField, K: SymTensorField) -> ScalarField:
    """Vacuum scalar constraint residual R + H^2 - |K|^2."""
    g = as_metric(g)
    K = as_second_form(K, g)
    r = scalar_curvature(g)
    return ScalarField(g.grid, r.values + K.trace**2 - K.norm_sq)


def momentum_constraint(g: SymTensorField, K: SymTensorField) -> VectorField:
    """Vacuum vector constraint residual (div K)_a - d_a H."""
    g = as_metric(g)
    K = as_second_form(K, g)
    div_k = divergence(K, g)
    dh = gradient(ScalarField(g.grid, K.trace))
    return VectorField(g.grid, div_k.values - dh.values)


def static_residual(g: SymTensorField, N: ScalarField) -> tuple[ScalarField, SymTensorField]:
    """Residuals of the static vacuum system (Delta N, Hess N - N Ric).

    Both vanish iff (g, N) solves  Delta N = 0,  nabla^2 N = N Ric.
    Note the system sees only the pair (g, N): any slice with flat metric
    and spatially constant lapse satisfies it regardless of K.
    """
    _shared_grid(g, N)
    if np.any(N.values <= 0.0):
        raise NonPositiveLapse(f"lapse has min {N.values.min():.3e} <= 0")
    g = as_metric(g)
    hess = hessian(N, g.gamma)
    lap = trace(hess, g)
    tensor_res = SymTensorField(g.grid, hess.values - N.values[..., None] * g.ricci.values)
    return lap, tensor_res


def constraint_norms(g: SymTensorField, K: SymTensorField) -> tuple[float, float]:
    """L2(mu_g) norms of the Hamiltonian and momentum constraint residuals."""
    g = as_metric(g)
    K = as_second_form(K, g)
    # momentum first: building nabla K sets the peak, so R is not yet cached beside it
    mom_sq = _pointwise_norm_sq(momentum_constraint(g, K), g)
    ham = hamiltonian_constraint(g, K)
    ham_norm = np.sqrt(integrate(ScalarField(g.grid, ham.values**2), g))
    mom_norm = np.sqrt(integrate(ScalarField(g.grid, mom_sq), g))
    return float(ham_norm), float(mom_norm)


def weyl_trace_residuals(g: SymTensorField, K: SymTensorField) -> tuple[float, float]:
    """Sup of |tr E| and |tr B|; near zero for constraint-clean data."""
    g = as_metric(g)
    parts = weyl_parts(g, K)
    tr_e = trace(parts.E, g).values
    tr_b = trace(parts.B, g).values
    return float(np.max(np.abs(tr_e))), float(np.max(np.abs(tr_b)))
