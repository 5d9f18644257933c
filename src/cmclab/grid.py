"""Periodic 3-torus grids, field containers, derivatives and integration.

All geometric objects live on a uniform periodic grid covering the flat
3-torus [0, L1) x [0, L2) x [0, L3).  Scalars are stored as (n1, n2, n3)
arrays, covectors as (n1, n2, n3, 3), and symmetric 2-tensors as
(n1, n2, n3, 6) with the lower-index component order

    (xx, xy, xz, yy, yz, zz).

Spatial derivatives use 4th-order centered stencils with periodic wrap,
read as four slices of one copy padded by two points at each end;
integration against a metric volume element is a plain Riemann sum, which
is spectrally accurate for smooth periodic integrands.

Every symmetric result is stored in those 6 components.  A full (..., 3, 3)
form (sym_to_matrix) exists only as a matmul operand, built once for it;
matrix_to_sym brings a product back to 6 components.

A Metric is a SymTensorField checked positive definite by construction;
it derives sqrt(det g), g^-1, the connection Gamma, Ric and R once each,
on first use, and every operation reads them through as_metric(g).  A
SecondForm is a symmetric A over one Metric that derives g^-1 A, tr A
(the trace of that g^-1 A), |A|^2_g, A g^-1 A and nabla A once each, on
first use; as_second_form(A, g) is the only path by which a symmetric
tensor is raised by g, and trace(A, g) reads its tr A.  Build one of each
per computation (a record, an RK stage; E and B get one each too); a
SliceState never stores either.  Fields handed to one operation must
share one grid (ValueError otherwise).  Gamma is
assembled from the partials of the 6 stored components of g with one
batched g^-1 matmul, and Ric contracts Gamma by batched 3x3 matmuls on
views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonPositiveMetric

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "SYM_PAIRS",
    "sym_index",
    "partial_derivative",
    "diff_array",
    "integrate",
    "sup_norm",
    "Metric",
    "as_metric",
    "SecondForm",
    "as_second_form",
    "metric_determinant",
    "inverse_metric",
    "sym_to_matrix",
    "matrix_to_sym",
]

# Lower-index pairs backing the 6-component symmetric storage.
SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

_PAIR_TO_SLOT = {}
for _slot, (_a, _b) in enumerate(SYM_PAIRS):
    _PAIR_TO_SLOT[(_a, _b)] = _slot
    _PAIR_TO_SLOT[(_b, _a)] = _slot


def sym_index(a: int, b: int) -> int:
    """Slot of component (a, b) in the 6-component symmetric storage."""
    return _PAIR_TO_SLOT[(a, b)]


MIN_POINTS_PER_AXIS = 8  # 4th-order stencil needs a 5-point halo clearance


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the 3-torus.

    shape : points per axis (each >= 8, the stencil-width floor)
    periods : coordinate period per axis, strictly positive
    """

    shape: tuple[int, int, int]
    periods: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not all(float(n).is_integer() for n in self.shape):
            raise ValueError(f"grid shape must be whole numbers, got {self.shape}")
        shape = tuple(int(n) for n in self.shape)
        periods = tuple(float(p) for p in self.periods)
        if len(shape) != 3 or len(periods) != 3:
            raise ValueError("GridSpec needs exactly three axes")
        if any(n < MIN_POINTS_PER_AXIS for n in shape):
            raise ValueError(f"grid needs >= {MIN_POINTS_PER_AXIS} points per axis, got {shape}")
        if not all(np.isfinite(p) and p > 0.0 for p in periods):
            raise ValueError(f"periods must be finite and strictly positive, got {periods}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "periods", periods)

    @classmethod
    def cubic(cls, n: int, period: float = 1.0) -> "GridSpec":
        return cls((n, n, n), (period, period, period))

    @property
    def spacings(self) -> tuple[float, float, float]:
        return tuple(p / n for p, n in zip(self.periods, self.shape))

    @property
    def cell_volume(self) -> float:
        hx, hy, hz = self.spacings
        return hx * hy * hz

    @property
    def num_points(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Grid coordinates along one axis (no duplicated endpoint)."""
        n = self.shape[axis]
        return np.arange(n) * (self.periods[axis] / n)

    def meshes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full coordinate meshes (x, y, z), each of shape `shape`."""
        return np.meshgrid(*(self.axis_coordinates(a) for a in range(3)), indexing="ij")


def _check_values(grid: GridSpec, values: np.ndarray, comps: tuple[int, ...]) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    expected = grid.shape + comps
    if values.shape != expected:
        raise ValueError(f"field values shaped {values.shape}, expected {expected}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    return values


def _shared_grid(*fields) -> GridSpec:
    """The one grid of the given fields, skipping None; ValueError unless they share it."""
    grids = [f.grid for f in fields if f is not None]
    if any(grid != grids[0] for grid in grids[1:]):
        raise ValueError(f"fields must share one grid, got {list(dict.fromkeys(grids))}")
    return grids[0]


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, ()))

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass(frozen=True, eq=False)
class VectorField:
    grid: GridSpec
    values: np.ndarray  # lower-index components, shape (*grid.shape, 3)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, (3,)))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VectorField":
        return cls(grid, np.zeros(grid.shape + (3,)))


@dataclass(frozen=True, eq=False)
class SymTensorField:
    grid: GridSpec
    values: np.ndarray  # lower-index components in SYM_PAIRS order, shape (*grid.shape, 6)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, (6,)))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SymTensorField":
        return cls(grid, np.zeros(grid.shape + (6,)))

    @classmethod
    def identity(cls, grid: GridSpec) -> "SymTensorField":
        return cls.diagonal_constant(grid, (1.0, 1.0, 1.0))

    @classmethod
    def diagonal_constant(cls, grid: GridSpec, diag: tuple[float, float, float]) -> "SymTensorField":
        values = np.zeros(grid.shape + (6,))
        values[..., sym_index(0, 0)] = diag[0]
        values[..., sym_index(1, 1)] = diag[1]
        values[..., sym_index(2, 2)] = diag[2]
        return cls(grid, values)

    def component(self, a: int, b: int) -> np.ndarray:
        return self.values[..., sym_index(a, b)]


# slot of each entry of a full (3, 3) matrix
_MATRIX_SLOTS = np.array([[sym_index(a, b) for b in range(3)] for a in range(3)])


def sym_to_matrix(values: np.ndarray) -> np.ndarray:
    """Expand 6-component symmetric storage (..., 6) to full (..., 3, 3)."""
    return np.take(values, _MATRIX_SLOTS, axis=-1)


def matrix_to_sym(mat: np.ndarray) -> np.ndarray:
    """Collapse a symmetric (..., 3, 3) array to 6-component storage.

    Off-diagonal slots are averaged, so feeding a slightly asymmetric
    matrix symmetrizes it.
    """
    out = np.empty(mat.shape[:-2] + (6,), dtype=mat.dtype)
    for slot, (a, b) in enumerate(SYM_PAIRS):
        if a == b:
            out[..., slot] = mat[..., a, a]
        else:
            out[..., slot] = 0.5 * (mat[..., a, b] + mat[..., b, a])
    return out


def metric_determinant(g: SymTensorField) -> np.ndarray:
    """Pointwise det(g) from the 6 stored components (closed form)."""
    v = g.values
    xx, xy, xz = v[..., 0], v[..., 1], v[..., 2]
    yy, yz, zz = v[..., 3], v[..., 4], v[..., 5]
    return (
        xx * (yy * zz - yz * yz)
        - xy * (xy * zz - yz * xz)
        + xz * (xy * yz - yy * xz)
    )


def _checked_determinant(g: SymTensorField) -> np.ndarray:
    """det(g), after checking that g is positive definite at every point.

    Sylvester's criterion: the leading principal minors xx, xx yy - xy^2
    and det must all be positive.  Raises NonPositiveMetric otherwise.
    """
    det = metric_determinant(g)
    v = g.values
    minor2 = v[..., 0] * v[..., 3] - v[..., 1] * v[..., 1]
    worst = min(float(v[..., 0].min()), float(minor2.min()), float(det.min()))
    if worst <= 0.0:
        raise NonPositiveMetric(f"metric leading principal minor has min {worst:.3e} <= 0")
    return det


def _inverse(v: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Closed-form inverse (..., 3, 3) of 6-component storage v with determinant det."""
    xx, xy, xz = v[..., 0], v[..., 1], v[..., 2]
    yy, yz, zz = v[..., 3], v[..., 4], v[..., 5]
    inv = np.empty(v.shape[:-1] + (3, 3), dtype=v.dtype)
    inv[..., 0, 0] = yy * zz - yz * yz
    inv[..., 0, 1] = xz * yz - xy * zz
    inv[..., 0, 2] = xy * yz - xz * yy
    inv[..., 1, 1] = xx * zz - xz * xz
    inv[..., 1, 2] = xy * xz - xx * yz
    inv[..., 2, 2] = xx * yy - xy * xy
    inv[..., 1, 0] = inv[..., 0, 1]
    inv[..., 2, 0] = inv[..., 0, 2]
    inv[..., 2, 1] = inv[..., 1, 2]
    inv /= det[..., None, None]
    return inv


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Metric(SymTensorField):
    """A metric checked positive definite (else NonPositiveMetric), keeping det.

    sqrt_det, inv (g^-1 as (..., 3, 3)), gamma (the Levi-Civita Connection),
    ricci (Ric) and scalar_curvature (R = tr Ric) are computed once, on
    first use; all are read-only.  R keeps only its scalar array: the
    SecondForm that raises Ric for it is dropped, since one kept here
    would refer back to this Metric.
    """

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "det", _frozen(_checked_determinant(self)))

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return _frozen(np.sqrt(self.det))

    @cached_property
    def inv(self) -> np.ndarray:
        return _frozen(_inverse(self.values, self.det))

    @cached_property
    def gamma(self) -> Connection:
        return christoffels(self)

    @cached_property
    def ricci(self) -> SymTensorField:
        return ricci(self)

    @cached_property
    def scalar_curvature(self) -> ScalarField:
        return ScalarField(self.grid, as_second_form(self.ricci, self).trace)


def as_metric(g: SymTensorField) -> Metric:
    """g itself if it is a Metric, else a checked Metric over the same values."""
    return g if isinstance(g, Metric) else Metric(g.grid, g.values)


def inverse_metric(g: SymTensorField) -> np.ndarray:
    """Pointwise read-only inverse (..., 3, 3) of g; NonPositiveMetric unless g is definite."""
    return as_metric(g).inv


@dataclass(frozen=True, eq=False)
class SecondForm(SymTensorField):
    """A symmetric tensor K over one Metric, as_metric(metric); ValueError on another grid.

    mixed (g^-1 K as (..., 3, 3)), trace (tr K, the trace of mixed), norm_sq
    (|K|^2_g = K . K), squared (K g^-1 K in 6-component storage) and nabla
    (nabla_t K_sb as (..., 3, 3, 3), indexed [t, s, b]) are computed once,
    on first use; all are read-only.
    """

    metric: Metric

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "metric", as_metric(self.metric))
        _shared_grid(self, self.metric)

    @cached_property
    def mixed(self) -> np.ndarray:
        return _frozen(raise_first_index(self, self.metric.inv))

    @cached_property
    def trace(self) -> np.ndarray:
        return _frozen(np.einsum("...aa->...", self.mixed))

    @cached_property
    def norm_sq(self) -> np.ndarray:
        return _frozen(_sym_dot(self.mixed, self.mixed))

    @cached_property
    def nabla(self) -> np.ndarray:
        return _frozen(covariant_derivative_sym(self, self.metric.gamma))

    @cached_property
    def squared(self) -> np.ndarray:
        # K and g^-1 are stored exactly symmetric, so the transpose of g^-1 K
        # holds K g^-1: the same products, summed in the same order
        return _frozen(matrix_to_sym(np.swapaxes(self.mixed, -1, -2) @ sym_to_matrix(self.values)))


def as_second_form(K: SymTensorField, g: SymTensorField) -> SecondForm:
    """K itself if it is a SecondForm over as_metric(g), else one over the same values."""
    g = as_metric(g)
    if isinstance(K, SecondForm) and K.metric is g:
        return K
    return SecondForm(K.grid, K.values, g)


def _along(axis: int, ndim: int, start, stop) -> tuple:
    """Index selecting [start:stop] along one axis of an ndim array."""
    index = [slice(None)] * ndim
    index[axis] = slice(start, stop)
    return tuple(index)


# 4th-order centered first-derivative stencil: (8(f+1 - f-1) - (f+2 - f-2)) / 12h
def diff_array(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """4th-order periodic centered difference of an array along a grid axis.

    The array is wrapped once, two points each side, and the four shifted
    neighbours are slices of that padded copy.
    """
    n, nd = values.shape[axis], values.ndim
    padded = np.concatenate(
        (values[_along(axis, nd, n - 2, None)], values, values[_along(axis, nd, None, 2)]),
        axis=axis,
    )
    out = padded[_along(axis, nd, 3, n + 3)] - padded[_along(axis, nd, 1, n + 1)]
    out *= 8.0
    out -= padded[_along(axis, nd, 4, n + 4)] - padded[_along(axis, nd, 0, n)]
    out /= 12.0 * spacing
    return out


def partial_derivative(f: ScalarField, axis: int) -> ScalarField:
    """Coordinate partial derivative of a scalar field along axis 0, 1 or 2."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    h = f.grid.spacings[axis]
    return ScalarField(f.grid, diff_array(f.values, axis, h))


def integrate(f: ScalarField, g: SymTensorField) -> float:
    """Integral of f against the metric volume element sqrt(det g) d^3x."""
    _shared_grid(f, g)
    return float(np.sum(f.values * as_metric(g).sqrt_det) * f.grid.cell_volume)


def _sym_dot(a_up: np.ndarray, b_up: np.ndarray) -> np.ndarray:
    """A . B = g^{ac} g^{bd} A_ab B_cd = tr(g^-1 A g^-1 B), from the mixed g^-1 A and g^-1 B."""
    return np.einsum("...ab,...ba->...", a_up, b_up)


def _vector_dot(inv: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g^{ab} v_a w_b, from g^-1 and two (..., 3) covector arrays."""
    return np.sum((inv @ v[..., None])[..., 0] * w, axis=-1)


def raise_first_index(A: SymTensorField, inv: np.ndarray) -> np.ndarray:
    """Mixed components A^a_b = g^{ac} A_cb as a full (..., 3, 3) array."""
    return inv @ sym_to_matrix(A.values)


def trace(A: SymTensorField, g: SymTensorField) -> ScalarField:
    """g-trace g^{ab} A_ab."""
    return ScalarField(A.grid, as_second_form(A, g).trace)


def _pointwise_norm_sq(field, g: Metric) -> np.ndarray:
    if isinstance(field, ScalarField):
        return field.values**2
    if isinstance(field, VectorField):
        return _vector_dot(g.inv, field.values, field.values)
    if isinstance(field, SymTensorField):
        return as_second_form(field, g).norm_sq
    raise TypeError(f"unsupported field type {type(field).__name__}")


def sup_norm(field, g: SymTensorField) -> float:
    """Max over the grid of the pointwise g-norm of a field.

    Scalars use |f|; vectors and symmetric tensors contract all indices
    with the inverse metric.
    """
    return float(np.sqrt(np.max(_pointwise_norm_sq(field, as_metric(g)))))


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


# lower[..., d, slot(b, c)] = d_b g_dc + d_c g_bd - d_d g_bc takes its first two
# terms from the flattened partials dg[..., t * 6 + slot] = d_t g_slot at these indices
_LOWER_FIRST = np.array([[6 * b + sym_index(d, c) for b, c in SYM_PAIRS] for d in range(3)])
_LOWER_SECOND = np.array([[6 * c + sym_index(b, d) for b, c in SYM_PAIRS] for d in range(3)])
# flat index a * 3 + b of each SYM_PAIRS entry in a (3, 3) block
_SYM_FLAT = np.array([3 * a + b for a, b in SYM_PAIRS])


def christoffels(g: SymTensorField) -> Connection:
    """Levi-Civita connection of g via 4th-order finite differences.

    Gamma^a_{bc} = (1/2) g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc), assembled
    on the 6 stored (b, c) pairs and expanded to the full lower pair.
    """
    inv = as_metric(g).inv
    dg = _partials(g.values, g.grid)  # dg[..., t, slot] = d_t g_slot
    flat = dg.reshape(g.grid.shape + (18,))
    lower = np.take(flat, _LOWER_FIRST, axis=-1)
    lower += np.take(flat, _LOWER_SECOND, axis=-1)
    lower -= dg
    half = inv @ lower
    half *= 0.5
    return Connection(g.grid, _frozen(sym_to_matrix(half)))


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


def ricci(g: SymTensorField) -> SymTensorField:
    """Ricci tensor of the slice metric.

    Ric_ab = d_c Gamma^c_ab - d_a Gamma^c_cb
             + Gamma^c_cd Gamma^d_ab - Gamma^c_ad Gamma^d_cb

    The divergence term is differentiated on the 6 stored (a, b) pairs, and
    both products are batched 3x3 matmuls on views of Gamma.
    """
    gam = as_metric(g).gamma.coefficients
    grid = g.grid
    spacings = grid.spacings
    rows = gam.reshape(grid.shape + (3, 9))  # rows[..., d, 3a + b] = Gamma^d_ab

    div = 0.0  # d_c Gamma^c_ab on the stored (a, b) pairs, each Gamma^c taken contiguous
    for c in range(3):
        div = div + diff_array(np.take(rows[..., c, :], _SYM_FLAT, axis=-1), c, spacings[c])
    term = sym_to_matrix(div)

    gtrace = gam[..., 0, 0, :] + gam[..., 1, 1, :] + gam[..., 2, 2, :]  # Gamma^c_{cb}
    term -= _partials(gtrace, grid)  # [a, b] = d_a Gamma^c_cb

    term += (gtrace[..., None, :] @ rows).reshape(term.shape)
    for c in range(3):
        term -= gam[..., c, :, :] @ gam[..., :, c, :]
    return SymTensorField(grid, _frozen(matrix_to_sym(term)))
