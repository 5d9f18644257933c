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

import weakref

import numpy as np

from . import kasner
from .errors import CmcDriftExceeded
from .grid import (GridSpec, Metric, ScalarField, SecondForm, SymTensorField, _shared_grid,
                   as_second_form, matrix_to_sym, sym_to_matrix)
from .geometry import constraint_norms, electric_weyl
from .kasner import KasnerParams
from .lapse import DEFAULT_TOL, solve_lapse
from .state import SliceState
from .tensor import hessian, trace

__all__ = [
    "kasner_initial_data",
    "warped_kasner_state",
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

# The solver_tol at which solve_lapse produced a state's N on exactly that
# state's (g, K), for the states time_step and perturb return.
_LAPSE_SOLVED_AT: weakref.WeakKeyDictionary[SliceState, float] = weakref.WeakKeyDictionary()


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


def _random_smooth_sym(grid: GridSpec, rng: np.random.Generator, modes: int = 3) -> np.ndarray:
    """Zero-mean smooth periodic symmetric field, sup Frobenius norm 1."""
    x, y, z = grid.meshes()
    lx, ly, lz = grid.periods
    values = np.zeros(grid.shape + (6,))
    for comp in range(6):
        f = np.zeros(grid.shape)
        picked = 0
        while picked < modes:
            kx, ky, kz = (int(k) for k in rng.integers(-2, 3, size=3))
            if kx == 0 and ky == 0 and kz == 0:
                continue
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.standard_normal()
            f += amp * np.sin(2.0 * np.pi * (kx * x / lx + ky * y / ly + kz * z / lz) + phase)
            picked += 1
        values[..., comp] = f
    frob = np.sqrt(np.einsum("...ab,...ab->...", sym_to_matrix(values), sym_to_matrix(values)))
    return values / np.max(frob)


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

    def frob_sup(values: np.ndarray) -> float:
        m = sym_to_matrix(values)
        return float(np.sqrt(np.max(np.einsum("...ab,...ab->...", m, m))))

    g_vals = state.g.values + amplitude * frob_sup(state.g.values) * w_g
    g = Metric(state.grid, g_vals)
    k_vals = state.K.values + amplitude * frob_sup(state.K.values) * w_k
    defect = state.t - trace(SymTensorField(state.grid, k_vals), g).values
    K = SecondForm(state.grid, k_vals + (defect[..., None] / 3.0) * g_vals, g)
    N, _ = solve_lapse(g, K, tol=solver_tol, initial_guess=state.N)
    new_state = SliceState(t=state.t, g=g, K=K, N=N)
    _LAPSE_SOLVED_AT[new_state] = solver_tol
    return new_state, constraint_norms(g, K)


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
    dk -= hessian(N, K.metric.gamma).values
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

    The lapse equation is re-solved at every stage, warm-started from the
    previous stage; the stage's one Metric and one SecondForm serve both
    the solve and evolution_rhs.  Stage 1 takes state.N as it is when
    time_step or perturb solved that N on this very state's (g, K) at
    this solver_tol: re-solving it would start at the solution and return
    it bitwise after 0 CG iterations.  Any other state (built directly,
    loaded, rescaled) or another solver_tol gets the stage-1 solve.
    After the update the sup-norm drift of tr K from the new time label
    is either projected into the pure-trace part of K (trace_correction)
    or required to stay below cmc_drift_tol.  Raises ValueError unless dt
    is finite.
    """
    if not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    grid = state.grid
    g0, k0 = state.g.values, state.K.values
    n_prev = state.N

    def stage(g_vals: np.ndarray, k_vals: np.ndarray, solved: bool = False):
        nonlocal n_prev
        g = Metric(grid, g_vals)
        K = SecondForm(grid, k_vals, g)
        if not solved:
            n_prev, _ = solve_lapse(g, K, tol=solver_tol, initial_guess=n_prev)
        return evolution_rhs(g, K, n_prev)

    dg1, dk1 = stage(g0, k0, solved=_LAPSE_SOLVED_AT.get(state) == solver_tol)
    dg2, dk2 = stage(g0 + 0.5 * dt * dg1, k0 + 0.5 * dt * dk1)
    dg3, dk3 = stage(g0 + 0.5 * dt * dg2, k0 + 0.5 * dt * dk2)
    dg4, dk4 = stage(g0 + dt * dg3, k0 + dt * dk3)

    g_new = Metric(grid, g0 + (dt / 6.0) * (dg1 + 2.0 * dg2 + 2.0 * dg3 + dg4))
    k_vals = k0 + (dt / 6.0) * (dk1 + 2.0 * dk2 + 2.0 * dk3 + dk4)
    t_new = state.t + dt

    k_new = SecondForm(grid, k_vals, g_new)
    drift = k_new.trace - t_new
    if trace_correction:
        k_new = SecondForm(grid, k_vals - (drift[..., None] / 3.0) * g_new.values, g_new)
    elif np.max(np.abs(drift)) > cmc_drift_tol:
        raise CmcDriftExceeded(
            f"tr K drifted {np.max(np.abs(drift)):.3e} from t = {t_new!r} "
            f"(tol {cmc_drift_tol:.1e})"
        )
    n_new, _ = solve_lapse(g_new, k_new, tol=solver_tol, initial_guess=n_prev)
    new_state = SliceState(t=t_new, g=g_new, K=k_new, N=n_new)
    _LAPSE_SOLVED_AT[new_state] = solver_tol
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
    max_steps: int = 1_000_000,
):
    """Yield successive states from state.t to exactly t_end.

    A fixed dt is used as given (it must be finite and its sign must point
    at t_end); with dt=None each step takes the CFL-limited size.  The
    final step is shortened to land on t_end exactly.
    """
    if not (np.isfinite(t_end) and t_end < 0.0):
        raise ValueError(f"t_end must be a finite negative real, got {t_end!r}")
    if dt is not None and not np.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    direction = np.sign(t_end - state.t)
    if direction == 0.0:
        return
    if dt is not None and np.sign(dt) != direction:
        raise ValueError(f"dt = {dt!r} does not point from {state.t!r} to {t_end!r}")
    current = state
    for _ in range(max_steps):
        remaining = t_end - current.t
        if direction * remaining <= 0.0:
            return
        step = direction * max_stable_dt(current, cfl) if dt is None else dt
        if abs(step) >= abs(remaining):
            step = remaining
        current = time_step(
            current,
            step,
            solver_tol=solver_tol,
            trace_correction=trace_correction,
            cmc_drift_tol=cmc_drift_tol,
        )
        yield current
    raise RuntimeError(f"evolution exceeded {max_steps} steps before reaching t_end")


def rescale(state: SliceState, r: float) -> SliceState:
    """Blowup rescaling g/r^2, K/r, t -> r t with the lapse untouched."""
    if not np.isfinite(r) or r <= 0.0:
        raise ValueError(f"rescale factor must be positive, got {r!r}")
    if r == 1.0:
        return state
    g = SymTensorField(state.grid, state.g.values / (r * r))
    K = SymTensorField(state.grid, state.K.values / r)
    return SliceState(t=r * state.t, g=g, K=K, N=state.N)
