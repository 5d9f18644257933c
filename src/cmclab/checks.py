"""Self-contained identity and scaling checks behind the CLI commands.

Each check returns a named pass/fail with the measured deviation, so runs
print one line per check and the exit status reflects the conjunction.
Checks only use closed-form oracles (Kasner analytics, exact identities),
never the numerical pipeline under test as its own reference.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import kasner
from .diagnostics import (
    DiagnosticsCollector,
    br_energy,
    br_flux,
    emit_records,
    parse_records,
)
from .errors import CmcLabError
from .evolution import (
    _random_smooth_sym,
    kasner_initial_data,
    perturb,
    rescale,
    warped_kasner_state,
)
from .geometry import (
    electric_weyl,
    hamiltonian_constraint,
    magnetic_weyl,
    static_residual,
)
from .grid import (
    GridSpec,
    ScalarField,
    SymTensorField,
    as_metric,
    inverse_metric,
    sup_norm,
    sym_to_matrix,
)
from .kasner import AXIAL, KasnerParams
from .lapse import check_lapse_bounds, solve_lapse
from .state import SliceState
from .tensor import curl, trace, wedge

__all__ = [
    "CheckResult",
    "random_admissible_exponents",
    "random_metric",
    "random_state",
    "identity_checks",
    "rescale_battery",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, deviation: float, tolerance: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(deviation <= tolerance),
        detail=f"deviation {deviation:.3e} (tolerance {tolerance:.1e})",
    )


def random_admissible_exponents(rng: np.random.Generator) -> KasnerParams:
    """Uniform point on the circle p1 + p2 + p3 = 1 = p1^2 + p2^2 + p3^2."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    p1 = (1.0 + 2.0 * np.cos(theta)) / 3.0
    p2 = (1.0 + 2.0 * np.cos(theta + 2.0 * np.pi / 3.0)) / 3.0
    return KasnerParams(p1, p2, 1.0 - p1 - p2)


def random_metric(grid: GridSpec, rng: np.random.Generator) -> SymTensorField:
    """Smooth periodic positive-definite metric within 0.15 (Frobenius) of the identity."""
    values = 0.15 * _random_smooth_sym(grid, rng)
    values[..., (0, 3, 5)] += 1.0
    return SymTensorField(grid, values)


def random_state(grid: GridSpec, rng: np.random.Generator) -> SliceState:
    """Generic valid slice: warped Kasner data at a random time, perturbed by 1e-3."""
    p = random_admissible_exponents(rng)
    t0 = -float(rng.uniform(0.5, 2.0))
    state = warped_kasner_state(p, t0, grid, amplitude=0.015)
    state, _ = perturb(state, 1e-3, seed=int(rng.integers(2**31)))
    return state


def identity_checks(grid_n: int, seed: int, solver_tol: float):
    """Named identity and oracle checks on one grid; returns CheckResults.

    The settings are a RunConfig's grid_n, seed and solver_tol, which the
    CLI's verify command supplies.
    """
    grid = GridSpec.cubic(grid_n)
    rng = np.random.default_rng(seed)
    results = []

    g = as_metric(random_metric(grid, rng))
    a = SymTensorField(grid, _random_smooth_sym(grid, rng))

    defect = sym_to_matrix(g.values) @ inverse_metric(g) - np.eye(3)
    results.append(_result("metric-inverse-identity", float(np.max(np.abs(defect))), 1e-12))

    results.append(
        _result("wedge-self-vanishes", float(np.max(np.abs(wedge(a, a, g).values))), 1e-12)
    )

    curl_a = curl(a, g)
    scale = float(np.max(np.abs(curl_a.values))) + 1.0
    dev = float(np.max(np.abs(trace(curl_a, g).values))) / scale
    results.append(_result("curl-is-trace-free", dev, 1e-12))

    state = random_state(grid, rng)
    sg = as_metric(state.g)
    ham = hamiltonian_constraint(sg, state.K)
    tr_e = trace(electric_weyl(sg, state.K), sg)
    scale = float(np.max(np.abs(ham.values))) + float(np.max(np.abs(tr_e.values))) + 1.0
    dev = float(np.max(np.abs(tr_e.values - ham.values))) / scale
    results.append(_result("electric-trace-is-hamiltonian", dev, 1e-12))

    slab = kasner_initial_data(AXIAL, -1.0, grid)
    sg, tau = as_metric(slab.g), kasner.tau_of_t(-1.0)
    dev = float(np.max(np.abs(hamiltonian_constraint(sg, slab.K).values)))
    results.append(_result("kasner-hamiltonian", dev, 1e-11))
    results.append(_result("kasner-magnetic-zero", sup_norm(magnetic_weyl(slab.K, sg), sg), 1e-11))

    expected = kasner.electric_diagonal(AXIAL, tau)
    want = np.array([expected[0], 0.0, 0.0, expected[1], 0.0, expected[2]])
    dev = float(np.max(np.abs(electric_weyl(sg, slab.K).values - want)))
    results.append(_result("kasner-electric-oracle", dev / (abs(expected[0]) + 1.0), 1e-11))

    n_solved, _ = solve_lapse(sg, slab.K, tol=solver_tol)
    dev = float(np.max(np.abs(n_solved.values - kasner.lapse(tau)))) / kasner.lapse(tau)
    results.append(_result("kasner-lapse-solve", dev, max(100.0 * solver_tol, 1e-9)))
    try:
        check_lapse_bounds(n_solved, slab.K, sg)
        results.append(CheckResult("lapse-bounds", True, "maximum-principle margins hold"))
    except CmcLabError as exc:
        results.append(CheckResult("lapse-bounds", False, str(exc)))

    volume = float(np.prod(grid.periods))
    for t_check in (-1.0, -2.0):
        s = kasner_initial_data(AXIAL, t_check, grid)
        oracle = kasner.br_energy(AXIAL, t_check, volume)
        dev = abs(br_energy(s) - oracle) / oracle
        results.append(_result(f"kasner-energy-decay-t{t_check:g}", dev, 1e-10))
        oracle_rate = kasner.br_energy_rate(AXIAL, t_check, volume)
        dev = abs(br_flux(s) - oracle_rate) / abs(oracle_rate)
        results.append(_result(f"kasner-flux-identity-t{t_check:g}", dev, 1e-10))

    flat = kasner_initial_data(kasner.FLAT, -1.0, grid)
    lap, tensor = static_residual(flat.g, ScalarField.constant(grid, 1.0))
    dev = max(float(np.max(np.abs(lap.values))), float(np.max(np.abs(tensor.values))))
    results.append(_result("static-residual-flat", dev, 1e-12))

    collector = DiagnosticsCollector()
    for t_rec in (-1.0, -0.9, -0.8):
        collector.add(kasner_initial_data(AXIAL, t_rec, grid))
    buffer = io.StringIO()
    emit_records(collector.records, buffer)
    parsed = parse_records(buffer.getvalue())
    same = parsed == collector.records
    detail = f"{len(parsed)} records, bitwise {'equal' if same else 'UNEQUAL'}"
    results.append(CheckResult("records-round-trip", same, detail))
    return results


def rescale_battery(grid_n: int, seed: int):
    """Scaling-law battery over 10 random states and 10 random factors.

    The settings are a RunConfig's grid_n and seed, which the CLI's
    rescale-test command supplies.

    Checks, over every (state, r) pair: the lapse is carried over exactly;
    mean curvature and sup |K| scale by r to 1e-12 relative; slice energy
    scales by r to 1e-10 relative; rescaling by r then 1/r returns the
    original to rounding.
    """
    grid = GridSpec.cubic(grid_n)
    rng = np.random.default_rng(seed)
    states = [random_state(grid, rng) for _ in range(10)]
    factors = [float(f) for f in 10.0 ** rng.uniform(-1.0, 1.0, size=10)]

    dev_h = dev_k = dev_e = dev_inv = 0.0
    lapse_exact = True
    for state in states:
        h_ref = trace(state.K, state.g).values
        h_scale = float(np.max(np.abs(h_ref)))
        k_ref = sup_norm(state.K, state.g)
        e_ref = br_energy(state)
        for r in factors:
            scaled = rescale(state, r)
            lapse_exact = lapse_exact and scaled.N.values is state.N.values
            h_vals = trace(scaled.K, scaled.g).values
            dev_h = max(dev_h, float(np.max(np.abs(h_vals - r * h_ref))) / (r * h_scale))
            dev_k = max(dev_k, abs(sup_norm(scaled.K, scaled.g) - r * k_ref) / (r * k_ref))
            dev_e = max(dev_e, abs(br_energy(scaled) - r * e_ref) / (r * e_ref))
            back = rescale(scaled, 1.0 / r)
            dev_inv = max(
                dev_inv,
                float(np.max(np.abs(back.g.values - state.g.values)))
                / float(np.max(np.abs(state.g.values))),
                float(np.max(np.abs(back.K.values - state.K.values)))
                / float(np.max(np.abs(state.K.values))),
                abs(back.t - state.t) / abs(state.t),
            )

    return [
        CheckResult(
            "rescale-lapse-exact",
            lapse_exact,
            "lapse array carried over unchanged" if lapse_exact else "lapse array replaced",
        ),
        _result("rescale-mean-curvature", dev_h, 1e-12),
        _result("rescale-k-sup", dev_k, 1e-12),
        _result("rescale-energy", dev_e, 1e-10),
        _result("rescale-involution", dev_inv, 1e-13),
    ]
