"""CMC-gauge vacuum evolution, Kasner data, perturbations and rescaling.

The evolution pair, with the lapse re-solved elliptically at every stage,
is

    d/dt g_ab = -2 N K_ab
    d/dt K_ab = -nabla_a nabla_b N + N (Ric_ab + H K_ab - 2 K_ac K^c_b),

integrated by classical 4-stage Runge-Kutta.  Since tr K is the slice's
mean curvature and the time label, d/dt (tr K) = 1 holds on constraint
data, so the label advances with the integrator and any trace drift is a
discretization diagnostic (optionally projected away).

Kasner data comes in two flavours: the homogeneous diagonal slices, and a
"warped" variant pushed through a fixed periodic diffeomorphism of the
torus.  The warped slices sample the same exact spacetime but have fully
generic spatially varying components, which is what makes 4th-order
convergence of constraint residuals measurable (homogeneous data is exact
to rounding at every resolution).

Blowup rescaling acts on a state as

    g -> g / r^2,   K -> K / r,   t -> r t,   N -> N,

so pointwise |K| and the mean curvature pick up a factor r while the
slice energy integral scales by r.
"""

from __future__ import annotations

import numpy as np

from . import kasner
from .errors import CmcDriftExceeded, SolverDiverged
from .grid import (GridSpec, Metric, ScalarField, SecondForm, SymTensorField, _grid_last,
                   _shared_grid, _stored_trace, as_second_form, matrix_to_sym, sym_to_matrix)
from .geometry import constraint_norms, electric_weyl
from .kasner import KasnerParams
from .lapse import DEFAULT_TOL, _solve, solve_lapse
from .state import SliceState, _mark_head, _take_second_form
from .tensor import hessian, trace

__all__ = [
    "kasner_initial_data",
    "warped_kasner_state",
    "conformal_vacuum_state",
    "perturb",
    "evolution_rhs",
    "time_step",
    "max_stable_dt",
    "evolve_states",
    "rescale",
    "DEFAULT_CFL",
    "DEFAULT_CMC_DRIFT_TOL",
]

DEFAULT_CFL = 0.25
DEFAULT_CMC_DRIFT_TOL = 1e-6
_MAX_STEPS = 1_000_000  # evolve_states' guard against a step size that never reaches t_end
_NEWTON_STEPS = 20  # conformal_vacuum_state's Newton budget
_LICHNEROWICZ_TOL = 1e-10  # its relative stop, and its linear steps' solve tol


def kasner_initial_data(p: KasnerParams, t0: float, grid: GridSpec) -> SliceState:
    """Homogeneous Kasner slice with mean curvature t0 < 0."""
    tau = kasner.tau_of_t(t0)
    g = SymTensorField.diagonal_constant(grid, tuple(kasner.metric_diagonal(p, tau)))
    K = SymTensorField.diagonal_constant(grid, tuple(kasner.second_form_diagonal(p, tau)))
    N = ScalarField.constant(grid, kasner.lapse(tau))
    return SliceState(t=t0, g=g, K=K, N=N)


def _warp_jacobian(grid: GridSpec, amplitude: float) -> np.ndarray:
    """Jacobian d y / d x of the fixed periodic torus diffeomorphism.

    y_i = x_i + u_i with a cyclic pair of modes per component; entries are
    evaluated analytically so warped data samples the exact solution.
    Invertibility needs amplitude well below 1/(3 pi).
    """
    x, y, z = grid.meshes()
    lx, ly, lz = grid.periods
    two_pi = 2.0 * np.pi
    jac = np.zeros(grid.shape + (3, 3))
    jac[..., 0, 0] = 1.0
    jac[..., 1, 1] = 1.0
    jac[..., 2, 2] = 1.0
    # u1 = a lx (sin(2 pi y/ly) + cos(2 pi z/lz)/2), cyclically for u2, u3
    jac[..., 0, 1] = amplitude * lx * two_pi / ly * np.cos(two_pi * y / ly)
    jac[..., 0, 2] = -amplitude * lx * np.pi / lz * np.sin(two_pi * z / lz)
    jac[..., 1, 2] = amplitude * ly * two_pi / lz * np.cos(two_pi * z / lz)
    jac[..., 1, 0] = -amplitude * ly * np.pi / lx * np.sin(two_pi * x / lx)
    jac[..., 2, 0] = amplitude * lz * two_pi / lx * np.cos(two_pi * x / lx)
    jac[..., 2, 1] = -amplitude * lz * np.pi / ly * np.sin(two_pi * y / ly)
    return jac


def warped_kasner_state(
    p: KasnerParams, t: float, grid: GridSpec, amplitude: float = 0.02
) -> SliceState:
    """Kasner slice at CMC time t in warped spatial coordinates.

    Pulls the homogeneous data back through the fixed torus diffeomorphism:
    g_ab(x) = J^c_a J^d_b ghat_cd, likewise for K; the lapse is a scalar
    and stays tau^2.  For one fixed amplitude, states at different t
    sample one exact vacuum spacetime in one chart, so this doubles as the
    analytic solution for evolution tests on inhomogeneous data.
    """
    tau = kasner.tau_of_t(t)
    jac = _warp_jacobian(grid, amplitude)
    g_hat = np.diag(kasner.metric_diagonal(p, tau))
    k_hat = np.diag(kasner.second_form_diagonal(p, tau))
    jac_t = np.swapaxes(jac, -1, -2)
    g_full = jac_t @ g_hat @ jac
    k_full = jac_t @ k_hat @ jac
    g = SymTensorField(grid, matrix_to_sym(g_full))
    K = SymTensorField(grid, matrix_to_sym(k_full))
    N = ScalarField.constant(grid, kasner.lapse(tau))
    return SliceState(t=t, g=g, K=K, N=N)


def conformal_vacuum_state(t: float, grid: GridSpec, amplitude: float) -> SliceState:
    """Inhomogeneous vacuum slice at CMC time t from the conformal method.

    York's conformal method (J. Math. Phys. 14 (1973) 456; on closed
    manifolds Isenberg, Class. Quantum Grav. 12 (1995) 2249) with the flat
    conformal metric delta and tau = t.  sigma is the constant traceless
    diag(-0.4, 0.1, 0.3) plus transverse-traceless waves of size a =
    amplitude,

        sigma_xx = -sigma_yy = a cos(2 pi z / L_z),  sigma_xy = a sin(2 pi z / L_z),
        sigma_yz = a sin(2 pi x / L_x),              sigma_xz = a cos(2 pi y / L_y);

    each wave depends only on a coordinate that is not one of its indices,
    so sigma is divergence-free for any periods.  The conformal factor
    solves the Lichnerowicz equation

        F(phi) = -8 Delta phi + (2/3) tau^2 phi^5 - |sigma|^2 phi^-7 = 0

    by Newton, from the constant root for the grid mean of |sigma|^2 (for
    tau != 0 and sigma not 0 the positive solution is unique).  Each step
    solves -Delta dphi + (w/8) dphi = -F/8, w = (10/3) tau^2 phi^4 +
    7 |sigma|^2 phi^-8, with the lapse's elliptic solver (lapse._solve)
    given the zero-order term w/8 on delta.  -Delta phi is
    -trace(hessian(phi, delta), delta), on a flat metric bitwise the lapse
    operator's, so each step is the exact Newton step of the discrete
    equation; Newton stops once sup |F| <= 1e-10 sup |sigma|^2 phi^-7,
    and raises SolverDiverged after 20 steps.  Then g = phi^4 delta,
    K = phi^-2 sigma + (t/3) g (so tr K = t, and both constraints hold to
    the order of the stencil), and N = solve_lapse(g, K).  Raises
    ValueError unless t is finite and negative and amplitude finite.
    """
    if not (np.isfinite(t) and t < 0.0 and np.isfinite(amplitude)):
        raise ValueError(f"need a finite t < 0 and a finite amplitude, got {t!r}, {amplitude!r}")
    x, y, z = grid.meshes()
    lx, ly, lz = grid.periods
    wave = amplitude * np.cos(2.0 * np.pi * z / lz)
    sigma = np.empty(grid.shape + (6,))
    sigma[..., 0] = -0.4 + wave
    sigma[..., 1] = amplitude * np.sin(2.0 * np.pi * z / lz)
    sigma[..., 2] = amplitude * np.cos(2.0 * np.pi * y / ly)
    sigma[..., 3] = 0.1 - wave
    sigma[..., 4] = amplitude * np.sin(2.0 * np.pi * x / lx)
    sigma[..., 5] = 0.3
    delta = Metric(grid, SymTensorField.identity(grid).values)
    sigma_sq = as_second_form(SymTensorField(grid, sigma), delta).norm_sq
    phi = ScalarField.constant(grid, (1.5 * float(np.mean(sigma_sq)) / t**2) ** (1.0 / 12.0))
    for _ in range(_NEWTON_STEPS):
        p = phi.values
        source = sigma_sq * p**-7
        f = (2.0 / 3.0) * t**2 * p**5 - source
        f -= 8.0 * trace(hessian(phi, delta), delta).values
        if np.max(np.abs(f)) <= _LICHNEROWICZ_TOL * np.max(source):
            break
        w = (10.0 / 3.0) * t**2 * p**4 + 7.0 * sigma_sq * p**-8
        step, _ = _solve(delta, w / 8.0, _LICHNEROWICZ_TOL, rhs=ScalarField(grid, -f / 8.0))
        phi = ScalarField(grid, p + step.values)
    else:
        raise SolverDiverged(f"Lichnerowicz Newton at sup |F| = {np.max(np.abs(f)):.3e} "
                             f"after {_NEWTON_STEPS} steps")
    g = Metric(grid, (p**4)[..., None] * delta.values)
    K = SecondForm(grid, (p**-2)[..., None] * sigma + (t / 3.0) * g.values, g)
    N, _ = solve_lapse(g, K)
    return SliceState(t=t, g=g, K=K, N=N)


def _random_smooth_sym(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean smooth periodic symmetric field, sup Frobenius norm 1.

    Each component sums three random Fourier modes with wave numbers in
    -2..2 per axis.
    """
    x, y, z = grid.meshes()
    lx, ly, lz = grid.periods
    planes = np.zeros((6,) + grid.shape)
    for f in planes:
        picked = 0
        while picked < 3:
            kx, ky, kz = (int(k) for k in rng.integers(-2, 3, size=3))
            if kx == 0 and ky == 0 and kz == 0:
                continue
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.standard_normal()
            f += amp * np.sin(2.0 * np.pi * (kx * x / lx + ky * y / ly + kz * z / lz) + phase)
            picked += 1
    values = _grid_last(planes)
    return values / _frobenius_sup(values)


def _frobenius_sup(values: np.ndarray) -> float:
    """sup over the grid of the Frobenius norm of a 6-component symmetric field."""
    m = sym_to_matrix(values)
    return float(np.sqrt(np.max(np.einsum("...ab,...ab->...", m, m))))


def perturb(
    state: SliceState,
    amplitude: float,
    seed: int,
    solver_tol: float = DEFAULT_TOL,
) -> tuple[SliceState, tuple[float, float]]:
    """Add a smooth zero-mean symmetric perturbation of relative size amplitude.

    Both g and K receive independent random fields scaled by their own sup
    Frobenius norms, with the pure-trace part of the K perturbation
    projected out afterwards so trace(K, g) = t still holds (the state
    stays on the CMC slice; only the constraints are violated).  The
    lapse is re-solved on the perturbed slice.  The returned pair of
    numbers is the resulting (Hamiltonian, momentum) residual L2 norms.
    Deterministic in the seed; amplitude 0 returns the state unchanged.
    """
    if not (np.isfinite(amplitude) and amplitude >= 0.0):
        raise ValueError(f"amplitude must be finite and nonnegative, got {amplitude!r}")
    if amplitude == 0.0:
        return state, constraint_norms(state.g, state.K)
    rng = np.random.default_rng(seed)
    w_g = _random_smooth_sym(state.grid, rng)
    w_k = _random_smooth_sym(state.grid, rng)
    g_vals = state.g.values + amplitude * _frobenius_sup(state.g.values) * w_g
    g = Metric(state.grid, g_vals)
    k_vals = state.K.values + amplitude * _frobenius_sup(state.K.values) * w_k
    defect = state.t - trace(SymTensorField(state.grid, k_vals), g).values
    K = SecondForm(state.grid, k_vals + (defect[..., None] / 3.0) * g_vals, g)
    N, _ = solve_lapse(g, K, tol=solver_tol, initial_guess=state.N)
    return SliceState(t=state.t, g=g, K=K, N=N), constraint_norms(g, K)


def evolution_rhs(
    g: SymTensorField, K: SymTensorField, N: ScalarField
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (d/dt g, d/dt K) as 6-component value arrays.

    d/dt K = N (E - K g^-1 K) - nabla^2 N, with E = electric_weyl(g, K), so a
    stage that hands down the SecondForm its lapse solve read raises K once
    and forms K g^-1 K once, for E and here.
    """
    K = as_second_form(K, g)
    _shared_grid(K, N)
    # E before the Hessian: deriving Ric beside its arrays raises peak memory
    dk = electric_weyl(K.metric, K).values - K.squared
    dk *= N.values[..., None]
    dk -= hessian(N, K.metric).values
    dg = -2.0 * N.values[..., None] * K.values
    return dg, dk


def time_step(
    state: SliceState,
    dt: float,
    solver_tol: float = DEFAULT_TOL,
    trace_correction: bool = False,
    cmc_drift_tol: float = DEFAULT_CMC_DRIFT_TOL,
) -> SliceState:
    """One classical RK4 step of size dt (either sign).

    The lapse equation is solved at every stage, warm-started from the
    previous stage's lapse (stage 1 from state.N); the stage's one Metric
    and one SecondForm serve both the solve and evolution_rhs.  On a state
    whose N time_step or perturb solved at this solver_tol or a tighter
    one, stage 1's solve meets tol at its first residual and returns N
    bitwise after one operator apply and 0 CG iterations.  When state is
    the one the previous time_step returned, stage 1 takes the SecondForm
    and Metric that its first reader (a record or a Bel-Robinson scalar)
    derived, with their g^-1, Gamma, Ric, g^-1 K, tr K, |K|^2 and
    K g^-1 K, instead of deriving the same arrays again.  A step from any
    other state drops what was left and derives its own.  The state
    returned here takes that role for the next call; state.py sets out
    what a state carries and for how long.  After the update the sup-norm
    drift of tr K from the new time label is either projected into the
    pure-trace part of K (trace_correction) or required to stay below
    cmc_drift_tol.  Before any lapse solve, time_step raises ValueError
    unless dt is finite, state.t + dt differs from state.t (a step that
    cannot move t would repeat until evolve_states ran out of steps) and
    cmc_drift_tol is finite and nonnegative (NaN and +inf would switch the
    drift check off, a negative tolerance would fail every step);
    solve_lapse checks solver_tol.
    """
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    if state.t + dt == state.t:
        raise ValueError(f"dt = {dt!r} does not move t = {state.t!r}")
    if not (np.isfinite(cmc_drift_tol) and cmc_drift_tol >= 0.0):
        raise ValueError(f"cmc_drift_tol must be finite and >= 0, got {cmc_drift_tol!r}")
    grid = state.grid
    g0, k0 = state.g.values, state.K.values
    n_prev = state.N

    def stage(K: SecondForm):
        nonlocal n_prev
        n_prev, _ = solve_lapse(K.metric, K, tol=solver_tol, initial_guess=n_prev)
        return evolution_rhs(K.metric, K, n_prev)

    # the weighted sums dg1 + 2 dg2 + 2 dg3 + dg4 (and likewise for K) are
    # accumulated in place, stage by stage, in that order; stage 1's
    # derivatives become the sums, and each later stage's stay bound while
    # the next stage runs and die when its result replaces them
    dg, dk = stage(_take_second_form(state) or SecondForm(grid, k0, Metric(grid, g0)))
    sum_g, sum_k = dg, dk
    for fraction, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        stage_dt = fraction * dt
        dg, dk = stage(SecondForm(grid, k0 + stage_dt * dk, Metric(grid, g0 + stage_dt * dg)))
        sum_g += weight * dg
        sum_k += weight * dk
    del dg, dk

    g_new = Metric(grid, g0 + (dt / 6.0) * sum_g)
    k_vals = k0 + (dt / 6.0) * sum_k
    del sum_g, sum_k
    t_new = state.t + dt

    # tr K from the stored components: only the K the lapse is solved on is raised
    drift = _stored_trace(k_vals, g_new._inv_planes)
    drift -= t_new
    if trace_correction:
        k_vals = k_vals - (drift[..., None] / 3.0) * g_new.values
    elif np.max(np.abs(drift)) > cmc_drift_tol:
        raise CmcDriftExceeded(
            f"tr K drifted {np.max(np.abs(drift)):.3e} from t = {t_new!r} "
            f"(tol {cmc_drift_tol:.1e})"
        )
    k_new = SecondForm(grid, k_vals, g_new)
    n_new, _ = solve_lapse(g_new, k_new, tol=solver_tol, initial_guess=n_prev)
    new_state = SliceState(t=t_new, g=g_new, K=k_new, N=n_new)
    _mark_head(new_state)
    return new_state


def max_stable_dt(state: SliceState, cfl: float = DEFAULT_CFL) -> float:
    """Step-size bound cfl * min(h) / sup(N sqrt(lambda_max(g^-1))).

    N sqrt(lambda_max(g^-1)) = N / sqrt(lambda_min(g)) is the largest
    coordinate light speed at a point.
    """
    if not (np.isfinite(cfl) and cfl > 0.0):
        raise ValueError(f"cfl must be finite and positive, got {cfl!r}")
    lambda_min = np.linalg.eigvalsh(sym_to_matrix(state.g.values))[..., 0]
    speed = state.N.values / np.sqrt(lambda_min)
    return cfl * min(state.grid.spacings) / float(np.max(speed))


def evolve_states(
    state: SliceState,
    t_end: float,
    dt: float | None = None,
    cfl: float = DEFAULT_CFL,
    solver_tol: float = DEFAULT_TOL,
    trace_correction: bool = False,
    cmc_drift_tol: float = DEFAULT_CMC_DRIFT_TOL,
):
    """Yield successive states from state.t to exactly t_end.

    A fixed dt is used as given (it must be finite and its sign must point
    at t_end); with dt=None each step takes the CFL-limited size.  The
    final step is shortened to land on t_end exactly.  Each argument is
    checked where it enters, each raising ValueError: here t_end, and dt's
    finiteness (an infinite dt would be cut to the whole interval before
    time_step saw it) and sign; cfl in max_stable_dt; and the rest in the
    first time_step, within the first next(): a dt too small to move t and
    cmc_drift_tol before its first lapse solve, solver_tol in that
    solve_lapse.  So a call with state.t == t_end takes no step and checks
    only t_end and dt's finiteness.  Raises RuntimeError if a million
    steps do not reach t_end.
    """
    if not (np.isfinite(t_end) and t_end < 0.0):
        raise ValueError(f"t_end must be a finite negative real, got {t_end!r}")
    if dt is not None and not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    # a Python float, so every step, and every t, stays one too
    direction = float(np.sign(t_end - state.t))
    if direction == 0.0:
        return
    if dt is not None and np.sign(dt) != direction:
        raise ValueError(f"dt = {dt!r} does not point from {state.t!r} to {t_end!r}")
    current = state
    for _ in range(_MAX_STEPS):
        remaining = t_end - current.t
        if direction * remaining <= 0.0:
            return
        step = direction * max_stable_dt(current, cfl) if dt is None else dt
        if abs(step) >= abs(remaining):
            # a remaining too small to move t needs t within a factor 2 of
            # t_end, where t_end - t is exact (Sterbenz) and t + remaining is
            # t_end: the last step always moves t
            step = remaining
        current = time_step(
            current,
            step,
            solver_tol=solver_tol,
            trace_correction=trace_correction,
            cmc_drift_tol=cmc_drift_tol,
        )
        yield current
    raise RuntimeError(f"evolution exceeded {_MAX_STEPS} steps before reaching t_end")


def rescale(state: SliceState, r: float) -> SliceState:
    """Blowup rescaling g/r^2, K/r, t -> r t with the lapse untouched."""
    if not np.isfinite(r) or r <= 0.0:
        raise ValueError(f"rescale factor must be positive, got {r!r}")
    if r == 1.0:
        return state
    g = SymTensorField(state.grid, state.g.values / (r * r))
    K = SymTensorField(state.grid, state.K.values / r)
    return SliceState(t=r * state.t, g=g, K=K, N=state.N)
