"""CMC lapse equation: elliptic solve and maximum-principle bound checks.

The lapse of a constant-mean-curvature time function satisfies

    -Delta N + |K|^2 N = 1,

an equation with a strictly positive zero-order coefficient whenever
H != 0, since |K|^2 >= H^2/3 pointwise.  The maximum principle then pins

    1 / sup|K|^2  <=  N  <=  3 / H^2.

The discretization keeps the Laplacian in divergence form,

    Delta N = (1/sqrt(g)) d_a ( sqrt(g) g^{ab} d_b N ),

and multiplies the equation through by sqrt(g).  Because the centered
periodic difference operators are exactly skew-symmetric, the resulting
system matrix is symmetric positive definite in the plain grid inner
product, so preconditioned conjugate gradients apply with the usual
monotone energy-error guarantee.

The preconditioner is the exact inverse of the same discrete operator
with constant coefficients: the grid means c^ab of sqrt(g) g^ab and w of
sqrt(g) |K|^2.  On the periodic grid it is diagonal in Fourier space.
The 4th-order first-derivative stencil has symbol i s_a with

    s_a = (8 sin theta_a - sin 2 theta_a) / (6 h_a),

so the constant-coefficient operator has the real, even symbol
M(k) = w + c^ab s_a s_b, inverted mode by mode with numpy.fft.  A mean of
positive definite matrices is positive definite and w > 0 (the solve
refuses min |K|^2 <= 0), so M >= w > 0 and the preconditioner is
symmetric positive definite.  Its condition number against the full
operator depends on how far the coefficients vary, not on the grid
spacing, so iteration counts stay flat under refinement.  The iteration
schedule is fixed by the inputs alone, so repeated solves are bitwise
identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundViolation, DegenerateZeroOrderTerm, SolverDiverged
from .grid import (ScalarField, SymTensorField, _shared_grid, as_metric, as_second_form,
                   diff_array, sup_norm)

__all__ = [
    "EllipticSolveReport",
    "solve_lapse",
    "lapse_bound_margins",
    "check_lapse_bounds",
    "default_bound_tolerance",
    "DEFAULT_TOL",
    "BOUND_TOL_COEFF",
]

DEFAULT_TOL = 1e-10

# Discrete maximum-principle slack: tol = max(1e-10, BOUND_TOL_COEFF * h^4).
BOUND_TOL_COEFF = 10.0


@dataclass
class EllipticSolveReport:
    """Outcome of one lapse solve."""

    iterations: int
    final_residual: float  # relative discrete L2 residual of -Delta N + |K|^2 N - 1
    converged: bool
    residual_history: list[float] = field(default_factory=list)


def _apply_operator(n_vals: np.ndarray, flux_coeff: np.ndarray, weight_v: np.ndarray,
                    spacings) -> np.ndarray:
    """sqrt(g)-weighted operator: -d_a(sqrt(g) g^{ab} d_b N) + sqrt(g)|K|^2 N."""
    out = weight_v * n_vals
    dn = [diff_array(n_vals, b, spacings[b]) for b in range(3)]
    for a in range(3):
        flux = sum(flux_coeff[..., a, b] * dn[b] for b in range(3))
        out -= diff_array(flux, a, spacings[a])
    return out


def _constant_coefficient_inverse(flux_coeff: np.ndarray, weight_v: np.ndarray,
                                  spacings):
    """r -> M^-1 r for _apply_operator with its coefficients frozen at their grid means."""
    shape, axes = weight_v.shape, (0, 1, 2)
    thetas = [2.0 * np.pi * np.fft.fftfreq(shape[0]),
              2.0 * np.pi * np.fft.fftfreq(shape[1]),
              2.0 * np.pi * np.fft.rfftfreq(shape[2])]
    s = np.meshgrid(*((8.0 * np.sin(th) - np.sin(2.0 * th)) / (6.0 * h)
                      for th, h in zip(thetas, spacings)), indexing="ij", sparse=True)
    c_mean = np.mean(flux_coeff, axis=axes)
    symbol = np.mean(weight_v) + sum(c_mean[a, b] * s[a] * s[b]
                                     for a in range(3) for b in range(3))
    inv_symbol = 1.0 / symbol

    def apply(res: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(np.fft.rfftn(res, axes=axes) * inv_symbol, s=shape, axes=axes)

    return apply


def solve_lapse(
    g: SymTensorField,
    K: SymTensorField,
    tol: float = DEFAULT_TOL,
    max_iterations: int | None = None,
    initial_guess: ScalarField | None = None,
    rhs: ScalarField | None = None,
    callback=None,
) -> tuple[ScalarField, EllipticSolveReport]:
    """Solve -Delta N + |K|^2 N = rhs (default rhs = 1) to relative residual tol.

    Returns the lapse and a solve report.  Raises ValueError unless tol is
    finite and positive, DegenerateZeroOrderTerm when min |K|^2 <= 0 (an
    H = 0 slice) and SolverDiverged when the budget 10 * sqrt(num_points)
    runs out above tolerance.  `callback(values)` is invoked with each CG
    iterate, for convergence instrumentation.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    g = as_metric(g)
    grid = _shared_grid(g, initial_guess, rhs)
    ksq = as_second_form(K, g).norm_sq
    if np.min(ksq) <= 0.0:
        raise DegenerateZeroOrderTerm(
            f"min |K|^2 = {ksq.min():.3e}; the lapse operator needs |K|^2 > 0"
        )

    sqrt_g = g.sqrt_det
    flux_coeff = sqrt_g[..., None, None] * g.inv
    weight_v = sqrt_g * ksq
    spacings = grid.spacings

    rhs_vals = np.ones(grid.shape) if rhs is None else rhs.values
    b = sqrt_g * rhs_vals
    rhs_scale = float(np.linalg.norm(rhs_vals))

    precondition = _constant_coefficient_inverse(flux_coeff, weight_v, spacings)

    if max_iterations is None:
        max_iterations = int(10 * np.sqrt(grid.num_points)) + 1

    x = (1.0 / ksq).copy() if initial_guess is None else initial_guess.values.copy()
    r = b - _apply_operator(x, flux_coeff, weight_v, spacings)
    z = precondition(r)
    p = z.copy()
    rz = float(np.sum(r * z))

    def rel_residual(res: np.ndarray) -> float:
        # Residual of the original equation: r = sqrt(g) (rhs - L_orig N).
        return float(np.linalg.norm(res / sqrt_g)) / rhs_scale

    history = [rel_residual(r)]
    iterations = 0
    if callback is not None:
        callback(x.copy())
    while True:
        while history[-1] > tol and iterations < max_iterations:
            ap = _apply_operator(p, flux_coeff, weight_v, spacings)
            alpha = rz / float(np.sum(p * ap))
            x = x + alpha * p
            r = r - alpha * ap
            z = precondition(r)
            rz_next = float(np.sum(r * z))
            beta = rz_next / rz
            p = z + beta * p
            rz = rz_next
            iterations += 1
            history.append(rel_residual(r))
            if callback is not None:
                callback(x.copy())

        # The CG recurrence can drift from the true residual near tol;
        # verify, and restart on the recomputed residual while budget lasts.
        r = b - _apply_operator(x, flux_coeff, weight_v, spacings)
        final = rel_residual(r)
        converged = final <= tol
        if converged or iterations >= max_iterations:
            break
        z = precondition(r)
        p = z.copy()
        rz = float(np.sum(r * z))
        history[-1] = final
    report = EllipticSolveReport(iterations, final, converged, history)
    if not converged:
        raise SolverDiverged(
            f"lapse solve at {final:.3e} after {iterations} iterations (tol {tol:.1e})",
            report=report,
        )
    return ScalarField(grid, x), report


def lapse_bound_margins(
    N: ScalarField, K: SymTensorField, g: SymTensorField
) -> tuple[float, float]:
    """Maximum-principle margins (min N - 1/sup|K|^2, 3/H^2 - max N).

    H^2 is taken as the grid supremum of (tr K)^2; for CMC data the trace
    is uniform so the choice is immaterial.
    """
    K = as_second_form(K, g)
    _shared_grid(K, N)
    ksq_sup = sup_norm(K, K.metric) ** 2  # (sup |K|_g)^2, as k_ratio reads it
    h_sup = float(np.max(np.abs(K.trace)))
    if ksq_sup <= 0.0 or h_sup <= 0.0:
        raise DegenerateZeroOrderTerm("bounds need |K| > 0 and H != 0")
    low = float(np.min(N.values)) - 1.0 / ksq_sup
    high = 3.0 / h_sup**2 - float(np.max(N.values))
    return low, high


def default_bound_tolerance(grid) -> float:
    """Bound-check slack max(1e-10, BOUND_TOL_COEFF h^4), h the widest grid spacing."""
    h = max(grid.spacings)
    return max(1e-10, BOUND_TOL_COEFF * h**4)


def check_lapse_bounds(
    N: ScalarField,
    K: SymTensorField,
    g: SymTensorField,
    tolerance: float | None = None,
) -> tuple[float, float]:
    """Margins of the maximum-principle bounds; raises BoundViolation if negative.

    Tolerance defaults to max(1e-10, 10 h^4), the discretization slack of
    the 4th-order stencils; one given must be finite and >= 0 (ValueError).
    """
    if tolerance is None:
        tolerance = default_bound_tolerance(N.grid)
    elif not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    margins = lapse_bound_margins(N, K, g)
    if margins[0] < -tolerance or margins[1] < -tolerance:
        raise BoundViolation(
            f"lapse bounds violated: margins {margins} with tolerance {tolerance:.2e}",
            margins=margins,
        )
    return margins
