"""Numerical laboratory for vacuum CMC slice data on the periodic 3-torus.

Fields live on a uniform grid with 4th-order periodic stencils; the
geometry layer provides electric/magnetic Weyl parts, Bel-Robinson
components and the constraint residuals; the lapse solver handles the CMC
elliptic equation; evolution advances slices by RK4 with a per-stage
lapse solve; diagnostics computes and monitors the energy quantities of
the continuation criteria.  The Kasner module supplies the closed-form
reference solutions that every numeric path is tested against.
"""

from .config import RunConfig, parse_config, serialize_config
from .diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    MonitorConfig,
    MonitorVerdict,
    br_energy,
    br_flux,
    continuation_monitor,
    curvature_radius,
    emit_records,
    gradient_lapse_estimate_check,
    k_ratio,
    parse_records,
    spacetime_br_energy,
)
from .errors import (
    BoundViolation,
    CmcDriftExceeded,
    CmcLabError,
    DegenerateZeroOrderTerm,
    EmptyHistory,
    InvalidKasner,
    NonPositiveLapse,
    NonPositiveMetric,
    ParseError,
    SinkError,
    SolverDiverged,
    ValidationError,
)
from .evolution import (
    conformal_vacuum_state,
    evolution_rhs,
    evolve_states,
    kasner_initial_data,
    max_stable_dt,
    perturb,
    rescale,
    time_step,
    warped_kasner_state,
)
from .geometry import (
    BRComponents,
    WeylParts,
    br_components,
    constraint_norms,
    electric_weyl,
    hamiltonian_constraint,
    magnetic_weyl,
    momentum_constraint,
    ricci,
    scalar_curvature,
    static_residual,
    weyl_parts,
    weyl_trace_residuals,
)
from .grid import (
    GridSpec,
    Metric,
    ScalarField,
    SecondForm,
    SymTensorField,
    VectorField,
    as_metric,
    as_second_form,
    integrate,
    inverse_metric,
    matrix_to_sym,
    metric_determinant,
    partial_derivative,
    sup_norm,
    sym_index,
    sym_to_matrix,
)
from .kasner import AXIAL, FLAT, GENERIC, KasnerParams
from .lapse import (
    EllipticSolveReport,
    check_lapse_bounds,
    default_bound_tolerance,
    lapse_bound_margins,
    solve_lapse,
)
from .snapshot import load_fields, load_state, save_fields, save_state
from .state import SliceState
from .tensor import (
    christoffels,
    covariant_derivative_sym,
    cross,
    curl,
    divergence,
    gradient,
    hessian,
    inner,
    norm_sq,
    raise_first_index,
    trace,
    traceless,
    wedge,
)

__version__ = "0.1.0"
