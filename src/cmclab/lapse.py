"""CMC lapse equation: elliptic solve and maximum-principle bound checks.

The lapse of a constant-mean-curvature time function satisfies

    -Delta N + c N = 1,   c = |K|^2,

an equation with a strictly positive zero-order coefficient whenever
H != 0, since |K|^2 >= H^2/3 pointwise.  The maximum principle then pins

    1 / sup c  <=  N  <=  1 / inf c  <=  3 / H^2.

The private _zero_order(K) is the one place that chooses c: solve_lapse
solves with it, and lapse_bound_margins takes its lower bound 1/sup c
from it, so the solve and that bound cannot part.  The upper bound
checked is the paper's CMC bound 3/H^2, not 1/inf c: it reads the time
function alone, and it holds because c = |K|^2 >= H^2/3.  A coefficient
without that inequality must move it to 1/inf c.

solve_lapse poses this equation and nothing else.  It hands the plane
c to the private _solve, which solves -Delta_g u + c u = f for a
given plane c > 0 and right-hand side f (default 1); the Newton steps of
evolution.conformal_vacuum_state pose their own c and f through it.

The discretization keeps the Laplacian in divergence form,

    Delta N = (1/sqrt(g)) d_a ( sqrt(g) g^{ab} d_b N ),

and multiplies the equation through by sqrt(g).  Each first derivative
d_a is the product with grid's periodic difference matrix D_a
(grid._diff_matrix), whose entry at i + k is the exact negative of the
one at i - k, so D_a = -D_a^T holds exactly in the entries the products
read.  The system matrix w + sum_ab D_a^T c^ab D_b is therefore
symmetric, and positive definite in the plain grid inner product, since
c^ab is positive definite at every point and w > 0.  The shift by a
plane's first value before each product leaves the operator as it is,
since D's rows sum to 0.  So preconditioned conjugate gradients apply
with the usual monotone energy-error guarantee.

The preconditioner is the exact inverse of the same discrete operator
with constant coefficients: the grid means c^ab of sqrt(g) g^ab and w of
sqrt(g) c.  On the periodic grid it is diagonal in Fourier space.
The 4th-order first-derivative stencil has symbol i s_a with

    s_a = (8 sin theta_a - sin 2 theta_a) / (6 h_a),

which grid._diff_symbol builds from the table D is built from, so the
constant-coefficient operator has the real, even symbol
M(k) = w + c^ab s_a s_b, inverted mode by mode with numpy.fft.  A mean of
positive definite matrices is positive definite and w > 0 (the solve
refuses min c <= 0), so M >= w > 0 and the preconditioner is
symmetric positive definite.  Its condition number against the full
operator depends on how far the coefficients vary, not on the grid
spacing, so iteration counts stay flat under refinement.  The iteration
schedule is fixed by the inputs alone, so repeated solves are bitwise
identical.

Each solve builds one operator workspace and allocates nothing per
iteration but the preconditioner's FFT output.  One block holds six
contiguous planes of sqrt(g) g^ab, each sqrt(g) times the Metric's plane
of g^-1 on that stored pair (g^-1 is symmetric, so the other three are
not kept), the partials dN, the flux, a work plane, and the CG vectors
b, r, p, Ap and a scratch plane.  Each derivative is diff_array's own
kernel (grid._diff) on one scalar plane, through the work plane: dN goes
into its planes, and the flux's derivative over the flux itself, whose
copy the work plane holds.  Each flux is accumulated term by term in
place, and the CG updates (x += alpha p, r -= alpha Ap, p = beta p + z)
and the products fed to np.sum and np.linalg.norm go through the scratch
plane, so every iterate is bitwise that of the plain formulas; the
reductions stay np.sum and norm, since a BLAS dot sums in another order.
Only the returned lapse lies outside the block.  The preconditioner's
c^ab is the mean of each contiguous coefficient plane.  A mean over a
(..., 3, 3) array would sum in another order and differ by a few 1e-15;
that moves every CG iterate at the same level, far below the solve
tolerance, and leaves the iteration counts unchanged, since the
preconditioner only has to be symmetric positive definite and close to
the operator.

CG starts from a Ritz-scaled guess.  The initial A x0 gives, for two dot
products, s = (x0 . b) / (x0 . A x0), which minimises the A-norm error
over the multiples of x0; CG then starts from s x0 with r = b - s A x0, so
the monotone energy-error guarantee holds from the caller's guess on.  A
warm start from the lapse of a nearby slice (the RK4 stages) has an error
that is mostly a multiple of the guess, which this removes before the
first iteration: a perturbed 32^3 step's five solves take 18 iterations,
not 24, and on homogeneous Kasner the warm solves take none (Fischer,
Projection techniques for iterative solution of Ax = b with successive
right-hand sides, CMAME 163 (1998) 193, with the one-dimensional space of
the guess).  A guess that already meets tol is returned bitwise after
that one apply, no preconditioner, with 0 iterations: RK4 stage 1 on a
state time_step or perturb returned starts from the lapse they solved on
that slice, and pays only that.  The operator builds the
preconditioner's Fourier symbol on its first precondition call, which
comes with the first CG iteration, so a solve the Ritz start converges
(the warm solves of homogeneous Kasner) builds none.  A guess with
x0 . A x0 <= 0 (a zero guess) is not scaled.  The callback still sees the
caller's guess as iterate 0, and residual_history[0] is the residual CG
starts from.

CG runs in one loop.  Each iteration first forms z = M^-1 r and r . z;
the first iteration after the start or a restart sets p = z, and each
later one p = beta p + z with beta the ratio of the new r . z to the
last.  So no preconditioner runs after a solve's last iteration: a solve
applies it exactly as many times as it iterates.

When the recurrence residual meets tol, the solve verifies it against
the recomputed residual b - A x and restarts CG from there if that still
misses tol.  Near the solve's rounding floor a restart may lower the
verified residual (a 16^3 warped slice at tol 1e-14 converges after 21
of them) or not; the two residuals part ways there (Greenbaum, Estimating
the attainable accuracy of recursively computed residual methods, SIAM
J. Matrix Anal. Appl. 18 (1997) 535).  So the restarts stop once
_STALLED_VERIFICATIONS verified residuals in a row set no new minimum,
and the solve raises SolverDiverged naming that floor, the least
verified residual: a 32^3 warped slice at tol 1e-14, whose floor is
2.7e-14, raises after 19 iterations instead of its whole budget of 1811.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundViolation, DegenerateZeroOrderTerm, SolverDiverged
from .grid import (ScalarField, SecondForm, SymTensorField, _diff, _diff_symbol, _plane_sum,
                   _shared_grid, as_metric, as_second_form, sym_index)

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

# Restarts stop once this many verified residuals in a row set no new minimum.
_STALLED_VERIFICATIONS = 8

# Discrete maximum-principle slack: tol = max(1e-10, BOUND_TOL_COEFF * h^4).
BOUND_TOL_COEFF = 10.0


@dataclass
class EllipticSolveReport:
    """Outcome of one elliptic solve."""

    iterations: int
    final_residual: float  # relative discrete L2 residual of -Delta u + c u - rhs
    converged: bool
    residual_history: list[float]


class _Operator:
    """sqrt(g)-weighted operator -d_a(c^ab d_b N) + w N, with every buffer allocated once.

    c^ab = scale g^ab, scale = sqrt(g), is kept as six contiguous planes,
    each the product of scale with the plane of g^-1 on that stored pair
    (SYM_PAIRS order), and w = sqrt(g) c by reference.  The planes, the
    partials dN, the flux, a work plane and the five CG planes cg (b, r, p,
    A p and a scratch plane) share one workspace block.  Each derivative is
    diff_array's kernel (grid._diff) through the work plane and each term
    is formed in the order of the plain formula, so results are bitwise
    those of diff_array and a freshly allocated sum.  precondition(r) is
    M^-1 r for the operator with c^ab and w frozen at their grid means; its
    Fourier symbol is built on first use.
    """

    def __init__(self, scale, inv_planes, weight_v: np.ndarray, spacings):
        planes = np.empty((16,) + weight_v.shape)
        self.coeff = planes[:6]
        for slot in range(6):
            np.multiply(scale, inv_planes[slot], out=self.coeff[slot])
        self.dn, self.flux, self.tmp = tuple(planes[6:9]), planes[9], planes[10]
        self.cg = planes[11:]
        self.weight = weight_v
        self.spacings = spacings
        # the planes c^a0, c^a1, c^a2 of each flux row a
        self.rows = [[self.coeff[sym_index(a, b)] for b in range(3)] for a in range(3)]

    def apply(self, n_vals: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(self.weight, n_vals, out=out)
        flux, tmp = self.flux, self.tmp
        for b, h in enumerate(self.spacings):
            _diff(n_vals, b, h, self.dn[b], tmp)
        for a, (row, h) in enumerate(zip(self.rows, self.spacings)):
            _plane_sum(zip(row, self.dn), flux, tmp)
            # the work plane holds flux, so its derivative may overwrite it
            out -= _diff(flux, a, h, flux, tmp)
        return out

    @cached_property
    def _inv_symbol(self) -> np.ndarray:
        shape = self.weight.shape
        thetas = [2.0 * np.pi * np.fft.fftfreq(shape[0]),
                  2.0 * np.pi * np.fft.fftfreq(shape[1]),
                  2.0 * np.pi * np.fft.rfftfreq(shape[2])]
        s = np.meshgrid(*(_diff_symbol(th, h) for th, h in zip(thetas, self.spacings)),
                        indexing="ij", sparse=True)
        c_mean = [np.mean(plane) for plane in self.coeff]
        symbol = np.mean(self.weight) + sum(c_mean[sym_index(a, b)] * s[a] * s[b]
                                            for a in range(3) for b in range(3))
        return 1.0 / symbol

    def precondition(self, res: np.ndarray) -> np.ndarray:
        modes = np.fft.rfftn(res, axes=(0, 1, 2))
        modes *= self._inv_symbol
        return np.fft.irfftn(modes, s=self.weight.shape, axes=(0, 1, 2))


def solve_lapse(
    g: SymTensorField, K: SymTensorField, tol: float = DEFAULT_TOL,
    max_iterations: int | None = None, initial_guess: ScalarField | None = None,
) -> tuple[ScalarField, EllipticSolveReport]:
    """Solve the lapse equation -Delta N + c N = 1, c = _zero_order(K), to relative residual tol.

    Returns the lapse and a solve report.  Raises ValueError, before any
    other work, unless tol is finite and positive (the one check of tol:
    _solve takes it as given); DegenerateZeroOrderTerm when min c <= 0
    (an H = 0 slice); and SolverDiverged, its report's
    final_residual the last verified residual and its message the least
    one (the floor), when the budget (default 10 * sqrt(num_points)) runs
    out above tolerance or when 8 verified residuals in a row set no new
    minimum above it.  No preconditioner runs after a solve's last CG
    iteration, so a solve applies it exactly report.iterations times.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    g = as_metric(g)
    return _solve(g, _zero_order(as_second_form(K, g)), tol, max_iterations, initial_guess)


def _zero_order(K: SecondForm) -> np.ndarray:
    """The lapse equation's zero-order coefficient c = |K|^2_g, a read-only plane."""
    return K.norm_sq


def _solve(
    g: SymTensorField, c: np.ndarray, tol: float, max_iterations: int | None = None,
    initial_guess: ScalarField | None = None, rhs: ScalarField | None = None, callback=None,
) -> tuple[ScalarField, EllipticSolveReport]:
    """Solve -Delta_g u + c u = rhs (default rhs = 1) to relative residual tol, c a plane.

    Raises DegenerateZeroOrderTerm and SolverDiverged as solve_lapse
    does, and ValueError, before any other work, when rhs is identically
    zero (its solution is u = 0, and the relative residual has no scale).
    tol is taken as given: its callers pass solve_lapse's checked tol or
    the constant evolution._LICHNEROWICZ_TOL.  The default guess is 1/c.
    `callback(values)` is invoked with the caller's guess and then with
    each CG iterate, for convergence instrumentation.  Each CG iteration
    starts with the preconditioner (z = M^-1 r, then p = z after the start
    or a restart, else p = beta p + z), so none runs after the last one.
    """
    if rhs is not None and not np.any(rhs.values):
        raise ValueError("rhs must not be identically zero")
    g = as_metric(g)
    grid = _shared_grid(g, initial_guess, rhs)
    if np.min(c) <= 0.0:
        raise DegenerateZeroOrderTerm(f"min c = {c.min():.3e}; the zero-order term must be > 0")

    # x is the returned solution, so it is the one array outside the block;
    # made first, it does not outlive the block from above the space the block frees
    x = 1.0 / c if initial_guess is None else initial_guess.values.copy()
    sqrt_g = g.sqrt_det
    op = _Operator(sqrt_g, g._inv_planes, sqrt_g * c, grid.spacings)
    b, r, p, ap, tmp = op.cg

    if rhs is None:
        b[...] = sqrt_g
        rhs_scale = float(np.sqrt(grid.num_points))  # the norm of a plane of ones, exactly
    else:
        np.multiply(sqrt_g, rhs.values, out=b)
        rhs_scale = float(np.linalg.norm(rhs.values))

    if max_iterations is None:
        max_iterations = int(10 * np.sqrt(grid.num_points)) + 1

    def rel_residual(res: np.ndarray) -> float:
        # Residual of the original equation: r = sqrt(g) (rhs - L_orig u).
        return float(np.linalg.norm(np.divide(res, sqrt_g, out=tmp))) / rhs_scale

    np.subtract(b, op.apply(x, ap), out=r)
    history = [rel_residual(r)]
    if callback is not None:
        callback(x.copy())
    if history[0] <= tol:
        return ScalarField(grid, x), EllipticSolveReport(0, history[0], True, history)
    # Ritz start: s x0, s = (x0 . b) / (x0 . A x0), is the multiple of the
    # guess nearest the solution in the A-norm
    x_ax = float(np.sum(np.multiply(x, ap, out=tmp)))
    if x_ax > 0.0:
        s = float(np.sum(np.multiply(x, b, out=tmp))) / x_ax
        x *= s
        np.subtract(b, np.multiply(ap, s, out=tmp), out=r)
        history[0] = rel_residual(r)

    iterations, floor, stale, rz = 0, np.inf, 0, None  # rz is None: p restarts from z
    while True:
        while history[-1] > tol and iterations < max_iterations:
            z = op.precondition(r)
            rz_next = float(np.sum(np.multiply(r, z, out=tmp)))
            if rz is None:
                p[...] = z
            else:
                p *= rz_next / rz
                p += z
            rz = rz_next
            op.apply(p, ap)
            alpha = rz / float(np.sum(np.multiply(p, ap, out=tmp)))
            x += np.multiply(p, alpha, out=tmp)
            r -= np.multiply(ap, alpha, out=tmp)
            iterations += 1
            history.append(rel_residual(r))
            if callback is not None:
                callback(x.copy())

        # The CG recurrence can drift from the true residual near tol;
        # verify, and restart on the recomputed residual while budget lasts
        # and the verified residual still sets new minima.
        np.subtract(b, op.apply(x, ap), out=r)
        final = rel_residual(r)
        floor, stale = (final, 0) if final < floor else (floor, stale + 1)
        converged = final <= tol
        if converged or iterations >= max_iterations or stale >= _STALLED_VERIFICATIONS:
            break
        history[-1], rz = final, None
    report = EllipticSolveReport(iterations, final, converged, history)
    if not converged:
        raise SolverDiverged(
            f"lapse solve at {final:.3e} after {iterations} iterations (tol {tol:.1e}), "
            f"floor {floor:.3e}",
            report=report,
        )
    return ScalarField(grid, x), report


def lapse_bound_margins(
    N: ScalarField, K: SymTensorField, g: SymTensorField
) -> tuple[float, float]:
    """Maximum-principle margins (min N - 1/sup c, 3/H^2 - max N), c = _zero_order(K).

    The lower bound is the solve's own c; the upper is the paper's 3/H^2
    (see the module docstring).  H^2 is taken as the grid supremum of
    (tr K)^2; for CMC data the trace is uniform so the choice is
    immaterial.  Raises DegenerateZeroOrderTerm when sup c <= 0 or H = 0.
    """
    K = as_second_form(K, g)
    _shared_grid(K, N)
    c_sup = float(np.max(_zero_order(K)))
    h_sup = float(np.max(np.abs(K.trace)))
    if c_sup <= 0.0 or h_sup <= 0.0:
        raise DegenerateZeroOrderTerm("bounds need sup c > 0 and H != 0")
    low = float(np.min(N.values)) - 1.0 / c_sup
    high = 3.0 / h_sup**2 - float(np.max(N.values))
    return low, high


def default_bound_tolerance(grid) -> float:
    """Bound-check slack max(1e-10, BOUND_TOL_COEFF h^4), h the widest grid spacing."""
    h = max(grid.spacings)
    return max(1e-10, BOUND_TOL_COEFF * h**4)


def check_lapse_bounds(
    N: ScalarField, K: SymTensorField, g: SymTensorField
) -> tuple[float, float]:
    """lapse_bound_margins; BoundViolation if either is below -default_bound_tolerance(N.grid).

    That slack, max(1e-10, 10 h^4), is the discretization error of the
    4th-order stencils.
    """
    tolerance = default_bound_tolerance(N.grid)
    margins = lapse_bound_margins(N, K, g)
    if margins[0] < -tolerance or margins[1] < -tolerance:
        raise BoundViolation(
            f"lapse bounds violated: margins {margins} with tolerance {tolerance:.2e}",
            margins=margins,
        )
    return margins
