"""Periodic 3-torus grids, field containers, derivatives and integration.

All geometric objects live on a uniform periodic grid covering the flat
3-torus [0, L1) x [0, L2) x [0, L3).  Scalars are stored as (n1, n2, n3)
arrays.  Covectors and symmetric 2-tensors keep their k = 3 or 6
components component-major, in one C-contiguous (k, n1, n2, n3) block,
symmetric ones in the lower-index component order

    (xx, xy, xz, yy, yz, zz).

A field's values, shaped (n1, n2, n3, k), is the transpose view of its
block, so values[..., c] is a contiguous plane, _planes(values) is the
block itself, and np.ascontiguousarray(values) gives the grid-last C
layout for a caller that wants it.  Every field kind (ScalarField,
VectorField, SymTensorField, and through the last Metric and SecondForm)
is the one frozen base _Field(grid, values) with two class attributes:
_comps, its component shape ((), (3,) or (6,)), and _kind, its name in a
snapshot.  The base's one constructor, _check_values, is the one
boundary: values in any other layout, such as a grid-last C array, are
copied once into a block there.  Every kernel
allocates its results as blocks, so none transposes, copies or strides
across components, and numpy's elementwise arithmetic keeps the layout
(its default order 'K' follows the operands), so sums of values such as
the RK4 combinations are blocks too.  ndarray.copy() does not keep it
(its default is order 'C'); np.copy does.

Spatial derivatives use the 4th-order centered periodic stencil, kept
as one table of (offset, weight) pairs over 12h (_STENCIL).  Its n x n
circulant difference matrix D (_diff_matrix; Trefethen, Spectral
Methods in MATLAB, SIAM 2000, ch. 1) makes a derivative along one axis
one BLAS product (_diff): D @ plane over the plane's lines along a
leading or middle axis, plane @ D^T along the last.  diff_array runs it
on each plane of a block, the lapse operator on its scalar planes.  The
same table gives D's Fourier symbol (_diff_symbol), which the lapse
preconditioner inverts.
Before the product the plane's first value is subtracted, into one
reused plane of work.  Every row of D sums to exactly 0, so this changes
nothing in exact arithmetic, and a constant plane still differentiates
to exact zeros: flat metrics, constant fields and homogeneous Kasner
keep exact-zero Gamma, Ric, nabla N and curl.  Other derivatives differ
from the stencil's own formula at rounding level.  The product costs
O(n) per point where the stencil costs O(1), yet on one BLAS thread of
a 2-core x86-64 host a 6-plane block differentiated 1.5-2.1x faster than
with a six-pass numpy stencil from 16^3 to 64^3 (BENCH_layers.json) and
about 8% faster at 96^3; the stencil would win back somewhere beyond.
Integration against a metric volume element is a plain Riemann sum,
which is spectrally accurate for smooth periodic integrands.

Every symmetric result is stored in those 6 components, and every
kernel works on contiguous component planes: g^-1 is kept as 6
planes (one per stored pair), g^-1 A as 9 (one per A^a_b) and the
connection, Metric.gamma, as one read-only (3, 6, n1, n2, n3) block of
planes, Gamma^a on each stored lower pair (b, c); nabla A has the same
(3, 6, ...) layout, indexed [t, slot(s, b)].  Each derivative is diff_array
along axis t + 1 of a contiguous block, and each contraction a short
fixed sum of plane products written in place (_plane_sum), with no
gather and no batched 3x3 matmul.  inverse_metric, raise_first_index,
covariant_derivative_sym and sym_to_matrix expand g^-1, g^-1 A, nabla A
and a symmetric field to (..., 3, 3) or (..., 3, 3, 3) arrays on each
call, for tests, oracles and set-up code; no kernel reads them.

A Metric is a SymTensorField checked positive definite by construction,
by the rule: pointwise algebra when it is built, derivatives on first
use.  Building it checks g with _checked_cofactors, which a SliceState
also runs on a plain g, and forms det g, sqrt(det g) and g^-1 (the
cofactors of g over det g); the connection Gamma and Ric are derived
once each, on first use (R is not cached: no reader reads it twice).  Every operation takes the metric g, never a quantity
derived from it, and reads them through as_metric(g).  A SecondForm is
a symmetric A over one Metric that derives g^-1 A, tr A (the sum of its
diagonal planes), |A|^2_g, A g^-1 A and nabla A once each, on first
use; as_second_form(A, g) is the only path by which a symmetric tensor
is raised by g, and trace, raise_first_index and
covariant_derivative_sym read its tr A, g^-1 A and nabla A.  A's own
planes are the block its values view.  Build one of each per
computation (a record, an RK stage; E and B get one each too); a
SliceState never stores either, though the next RK step may take the
pair a reader built for the state the last step returned (state.py sets
out what a state carries and for how long).
Fields handed to one operation must share one grid (ValueError
otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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


# A resolution floor, not the stencil's: D is the stencil on an axis of any
# length (_diff_matrix).  8 points keep the highest modes the package's data
# carry, perturb's wave number 2 per axis (evolution._random_smooth_sym), at
# 4 points per wavelength.
MIN_POINTS_PER_AXIS = 8


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the 3-torus.

    shape : points per axis (each >= MIN_POINTS_PER_AXIS, 8)
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
    """values as a float array shaped grid.shape + comps, component-major when comps is (k,).

    values already a (*grid, k) view of a C-contiguous (k, *grid) block
    is returned as it is; any other layout is copied once into a block.
    """
    values = np.asarray(values, dtype=float)
    expected = grid.shape + comps
    if values.shape != expected:
        raise ValueError(f"field values shaped {values.shape}, expected {expected}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    if comps and not _planes(values).flags.c_contiguous:
        values = _grid_last(np.ascontiguousarray(_planes(values)))
    return values


def _shared_grid(*fields) -> GridSpec:
    """The one grid of the given fields, skipping None; ValueError unless they share it."""
    grids = [f.grid for f in fields if f is not None]
    if any(grid != grids[0] for grid in grids[1:]):
        raise ValueError(f"fields must share one grid, got {list(dict.fromkeys(grids))}")
    return grids[0]


@dataclass(frozen=True, eq=False)
class _Field:
    """The one constructor of every field kind: values checked by _check_values.

    A kind sets _comps, the trailing component shape, and _kind, its
    name in a snapshot; Metric and SecondForm inherit both from
    SymTensorField.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, self._comps))

    @classmethod
    def zeros(cls, grid: GridSpec):
        return cls(grid, _grid_last(np.zeros(cls._comps + grid.shape), len(cls._comps)))


class ScalarField(_Field):
    """A scalar field: values, shaped grid.shape, is one C-contiguous plane."""

    _comps, _kind = (), "scalar"

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


class VectorField(_Field):
    """A covector field: values[..., a] is the lower-index component a.

    values, shaped (*grid.shape, 3), is a view of one C-contiguous
    (3, *grid.shape) block, so each component is a contiguous plane;
    values in another layout are copied once into a block on construction,
    and np.ascontiguousarray(values) gives the grid-last C layout.
    """

    _comps, _kind = (3,), "vector"


class SymTensorField(_Field):
    """A symmetric 2-tensor field: values[..., slot] is the lower-index pair SYM_PAIRS[slot].

    values, shaped (*grid.shape, 6), is a view of one C-contiguous
    (6, *grid.shape) block, so each stored component is a contiguous
    plane; values in another layout are copied once into a block on
    construction, and np.ascontiguousarray(values) gives the grid-last C
    layout.
    """

    _comps, _kind = (6,), "symtensor"

    @classmethod
    def identity(cls, grid: GridSpec) -> "SymTensorField":
        return cls.diagonal_constant(grid, (1.0, 1.0, 1.0))

    @classmethod
    def diagonal_constant(cls, grid: GridSpec, diag: tuple[float, float, float]) -> "SymTensorField":
        planes = np.zeros((6,) + grid.shape)
        planes[sym_index(0, 0)] = diag[0]
        planes[sym_index(1, 1)] = diag[1]
        planes[sym_index(2, 2)] = diag[2]
        return cls(grid, _grid_last(planes))

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
    out = np.empty((6,) + mat.shape[:-2], dtype=mat.dtype)
    for slot, (a, b) in enumerate(SYM_PAIRS):
        if a == b:
            out[slot] = mat[..., a, a]
        else:
            out[slot] = 0.5 * (mat[..., a, b] + mat[..., b, a])
    return _grid_last(out)


def metric_determinant(g: SymTensorField) -> np.ndarray:
    """Pointwise det(g) from the 6 stored components (closed form)."""
    return _cofactors(g.values)[1]


def _cofactors(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the 6 cofactor planes of g in SYM_PAIRS order, det g) for g's values v.

    det g is the first-row expansion xx C_xx + xy C_xy + xz C_xz, bitwise
    the closed form xx (yy zz - yz yz) - xy (xy zz - yz xz) + xz (xy yz -
    yy xz), whose bracketed differences are C_xx, -C_xy and C_xz exactly.
    g^-1 is the cofactor planes over det g.
    """
    xx, xy, xz, yy, yz, zz = (v[..., slot] for slot in range(6))
    cof, tmp = np.empty((6,) + v.shape[:-1]), np.empty(v.shape[:-1])
    for plane, (p, q, r, s) in zip(cof, ((yy, zz, yz, yz), (xz, yz, xy, zz), (xy, yz, xz, yy),
                                         (xx, zz, xz, xz), (xy, xz, xx, yz), (xx, yy, xy, xy))):
        np.multiply(p, q, out=plane)  # p q - r s
        plane -= np.multiply(r, s, out=tmp)
    det = np.multiply(xx, cof[0])
    det += np.multiply(xy, cof[1], out=tmp)
    det += np.multiply(xz, cof[2], out=tmp)
    return cof, det


def _checked_cofactors(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_cofactors(v), raising NonPositiveMetric unless g's values v are positive definite.

    Sylvester's criterion: the leading principal minors xx, xx yy - xy^2
    (the zz cofactor) and det g must all be positive.  The one guard of
    g, run by Metric and by SliceState on a plain g.
    """
    cof, det = _cofactors(v)
    worst = min(float(v[..., 0].min()), float(cof[5].min()), float(det.min()))
    if worst <= 0.0:
        raise NonPositiveMetric(f"metric leading principal minor has min {worst:.3e} <= 0")
    return cof, det


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Both layout views are plain transposes: np.moveaxis gives the same views
# but normalises its axes in Python, a cost paid on every field built.
def _grid_last(block: np.ndarray, lead: int = 1) -> np.ndarray:
    """The view of block with its first `lead` axes moved after the grid's: (k, *grid) -> (*grid, k)."""
    return block.transpose(tuple(range(lead, block.ndim)) + tuple(range(lead)))


def _planes(values: np.ndarray) -> np.ndarray:
    """The view (k, *grid) of values (*grid, k): for a field's values, its C-contiguous block."""
    last = values.ndim - 1
    return values.transpose((last,) + tuple(range(last)))


class Metric(SymTensorField):
    """A metric checked positive definite (else NonPositiveMetric), with its pointwise algebra.

    Building it checks g and forms its 6 cofactor planes and det g
    (_checked_cofactors), then g^-1 (as 6 planes in SYM_PAIRS order, the
    cofactor block divided by det g in place) and sqrt_det; all three are
    attributes from then on.  gamma (the Levi-Civita connection as
    christoffels' (3, 6, *grid) block) and ricci (Ric), which take
    derivatives, are computed once, on first use.  All are read-only.  R
    is not kept: each reader reads it once (geometry.scalar_curvature).
    """

    def __post_init__(self):
        super().__post_init__()
        inv, det = _checked_cofactors(self.values)
        inv /= det  # g^-1 takes the cofactors' block
        object.__setattr__(self, "det", _frozen(det))
        object.__setattr__(self, "sqrt_det", _frozen(np.sqrt(det)))
        object.__setattr__(self, "_inv_planes", _frozen(inv))

    @cached_property
    def gamma(self) -> np.ndarray:
        return christoffels(self)

    @cached_property
    def ricci(self) -> SymTensorField:
        return ricci(self)


def as_metric(g: SymTensorField) -> Metric:
    """g itself if it is a Metric, else a checked Metric over the same values."""
    return g if isinstance(g, Metric) else Metric(g.grid, g.values)


def inverse_metric(g: SymTensorField) -> np.ndarray:
    """Pointwise read-only inverse (..., 3, 3) of g; NonPositiveMetric unless g is definite."""
    return _frozen(_grid_last(as_metric(g)._inv_planes[_MATRIX_SLOTS], 2))


@dataclass(frozen=True, eq=False)
class SecondForm(SymTensorField):
    """A symmetric tensor K over one Metric, as_metric(metric); ValueError on another grid.

    g^-1 K (9 planes indexed [a, b] for K^a_b), trace (tr K, the sum of
    its 3 diagonal planes), norm_sq (|K|^2_g = K . K), squared (K g^-1 K
    in 6-component storage) and nabla K (a (3, 6, *grid) block indexed
    [t, slot(s, b)]) are computed once, on first use; all are read-only.
    """

    metric: Metric

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "metric", as_metric(self.metric))
        _shared_grid(self, self.metric)

    @cached_property
    def _mixed_planes(self) -> np.ndarray:
        return _frozen(_raise_planes(self, self.metric._inv_planes))

    @cached_property
    def trace(self) -> np.ndarray:
        m = self._mixed_planes
        return _frozen(m[0, 0] + m[1, 1] + m[2, 2])

    @cached_property
    def norm_sq(self) -> np.ndarray:
        return _frozen(_sym_dot(self._mixed_planes, self._mixed_planes))

    @cached_property
    def _nabla_planes(self) -> np.ndarray:
        return _frozen(_covariant_derivative_planes(self, self.metric.gamma))

    @cached_property
    def squared(self) -> np.ndarray:
        # (K g^-1 K)_ab = K_bc (g^-1 K)^c_a on the stored pairs (a, b)
        m, k = self._mixed_planes, _planes(self.values)
        out, tmp = np.empty(k.shape), np.empty(k.shape[1:])
        for slot, (a, b) in enumerate(SYM_PAIRS):
            _times_mixed(k, m, b, a, out[slot], tmp)
        return _frozen(_grid_last(out))


def as_second_form(K: SymTensorField, g: SymTensorField) -> SecondForm:
    """K itself if it is a SecondForm over as_metric(g), else one over the same values."""
    g = as_metric(g)
    if isinstance(K, SecondForm) and K.metric is g:
        return K
    return SecondForm(K.grid, K.values, g)


# The 4th-order centered first derivative, (offset k, weight w_k) over 12h:
# f'_i ~ sum_k w_k (f_{i+k} - f_{i-k}) / (12 h).
_STENCIL = ((1, 8.0), (2, -1.0))


@lru_cache(maxsize=64)  # the axes of a few grids; a miss rebuilds one n x n matrix
def _diff_matrix(n: int, spacing: float) -> np.ndarray:
    """The read-only n x n circulant matrix D of the periodic 4th-order centered difference.

    Row i holds +-w_k/(12h) at columns i +- k (mod n) for each (k, w_k)
    of _STENCIL, so D f is the stencil (8(f+1 - f-1) - (f+2 - f-2)) / 12h
    of the samples f.  The weights are summed into their cells, so on an
    axis of n <= 4 points, where offsets share a cell (i + 2 = i - 2 at
    n = 4), D is still the stencil.  The entries at i + k and i - k are
    exact negatives of each other, so D + D^T == 0 and every row sums to
    0 exactly.
    """
    rows, scale = np.arange(n), 12.0 * spacing
    d = np.zeros((n, n))
    for offset, weight in _STENCIL:
        d[rows, (rows + offset) % n] += weight / scale
        d[rows, (rows - offset) % n] -= weight / scale
    return _frozen(d)


def _diff_symbol(theta: np.ndarray, spacing: float) -> np.ndarray:
    """The real symbol s of D (_diff_matrix): D v = i s(theta) v for v_j = e^{i theta j}.

    Each (k, w_k) of _STENCIL adds w_k (e^{i k theta} - e^{-i k theta}) / 12h
    = i w_k sin(k theta) / 6h, so s = (8 sin theta - sin 2 theta) / 6h.
    """
    return sum(weight * np.sin(offset * theta) for offset, weight in _STENCIL) / (6.0 * spacing)


def _diff(values: np.ndarray, axis: int, spacing: float, out: np.ndarray,
          work: np.ndarray) -> np.ndarray:
    """D (_diff_matrix) applied along axis of values into out, as one np.matmul.

    work, C-contiguous and shaped like values, takes values less their
    first value, so a constant array gives exact zeros and out, also
    C-contiguous, may be values itself.  The last axis is work @ D^T, any
    other D @ work over work's lines along the axis.
    """
    n = values.shape[axis]
    np.subtract(values, values[(0,) * values.ndim], out=work)
    d = _diff_matrix(n, spacing)
    if axis == values.ndim - 1:
        np.matmul(work.reshape(-1, n), d.T, out=out.reshape(-1, n))
    else:
        lines = (-1, n, math.prod(values.shape[axis + 1:]))
        np.matmul(d, work.reshape(lines), out=out.reshape(lines))
    return out


def diff_array(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """4th-order periodic centered difference of an array along a grid axis.

    Each sub-array spanning the axes from min(axis, ndim - 3) on (each of
    the 6 planes of a (6, n1, n2, n3) block, the 18 of a (3, 6, n1, n2,
    n3) one; a 3-D plane, or a grid-first (n1, n2, n3, k) array along
    axis 0, whole) is differentiated by _diff through one work array
    shaped like it, allocated once per call, so a block's derivative is
    bitwise that of each of its planes alone.
    """
    lead = max(0, min(axis, values.ndim - 3))
    out, work = np.empty(values.shape), np.empty(values.shape[lead:])
    for index in np.ndindex(values.shape[:lead]):
        _diff(values[index], axis - lead, spacing, out[index], work)
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
    """A . B = g^{ac} g^{bd} A_ab B_cd = tr(g^-1 A g^-1 B), from the planes of g^-1 A and g^-1 B."""
    out, tmp = np.empty(a_up.shape[2:]), np.empty(a_up.shape[2:])
    return _plane_sum([(a_up[a, b], b_up[b, a]) for a in range(3) for b in range(3)], out, tmp)


def _vector_dot(inv: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g^{ab} v_a w_b, from the planes of g^-1 and two (..., 3) covector arrays."""
    v_planes = _planes(v)
    w_planes = v_planes if w is v else _planes(w)
    up, out, tmp = np.empty(v_planes.shape), np.empty(inv.shape[1:]), np.empty(inv.shape[1:])
    for a in range(3):  # up[a] = g^{ab} v_b
        _plane_sum([(inv[sym_index(a, b)], v_planes[b]) for b in range(3)], up[a], tmp)
    return _plane_sum([(up[a], w_planes[a]) for a in range(3)], out, tmp)


def _raise_planes(A: SymTensorField, inv: np.ndarray) -> np.ndarray:
    """The 9 planes (3, 3, *grid) of A^a_b = g^{ac} A_cb, from the 6 planes of g^-1."""
    out, tmp = np.empty((3, 3) + A.grid.shape), np.empty(A.grid.shape)
    values = _planes(A.values)
    for a in range(3):
        for b in range(3):
            _plane_sum([(inv[sym_index(a, c)], values[sym_index(c, b)]) for c in range(3)],
                       out[a, b], tmp)
    return out


def _stored_trace(values: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """g^ab A_ab from A's 6 stored components (..., 6) and the 6 planes of g^-1.

    Six products, each off-diagonal one counted twice: a third of the
    work of raising A to its 9 planes, for a caller that needs only the trace.
    """
    out, off, tmp = np.empty(inv.shape[1:]), np.empty(inv.shape[1:]), np.empty(inv.shape[1:])
    _plane_sum([(inv[slot], values[..., slot]) for slot in (1, 2, 4)], off, tmp)
    off *= 2.0
    _plane_sum([(inv[slot], values[..., slot]) for slot in (0, 3, 5)], out, tmp)
    out += off
    return out


def raise_first_index(A: SymTensorField, g: SymTensorField) -> np.ndarray:
    """Mixed components A^a_b = g^{ac} A_cb as a read-only (..., 3, 3) array."""
    return _grid_last(as_second_form(A, g)._mixed_planes, 2)


def trace(A: SymTensorField, g: SymTensorField) -> ScalarField:
    """g-trace g^{ab} A_ab."""
    return ScalarField(A.grid, as_second_form(A, g).trace)


def _pointwise_norm_sq(field, g: Metric) -> np.ndarray:
    if isinstance(field, ScalarField):
        return field.values**2
    if isinstance(field, VectorField):
        return _vector_dot(g._inv_planes, field.values, field.values)
    if isinstance(field, SymTensorField):
        return as_second_form(field, g).norm_sq
    raise TypeError(f"unsupported field type {type(field).__name__}")


def sup_norm(field, g: SymTensorField) -> float:
    """Max over the grid of the pointwise g-norm of a field.

    Scalars use |f|; vectors and symmetric tensors contract all indices
    with the inverse metric.
    """
    return float(np.sqrt(np.max(_pointwise_norm_sq(field, as_metric(g)))))


def _plane_sum(pairs, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The sum of x * y over the pairs (x, y) of planes, in their order, into out."""
    (x, y), *rest = pairs
    np.multiply(x, y, out=out)
    for x, y in rest:
        out += np.multiply(x, y, out=tmp)
    return out


def _times_mixed(a: np.ndarray, b_up: np.ndarray, b: int, c: int, out: np.ndarray,
                 tmp: np.ndarray) -> np.ndarray:
    """(A g^-1 B)_bc = A_bd (g^-1 B)^d_c into out, from A's 6 planes and g^-1 B's 9."""
    return _plane_sum([(a[sym_index(b, d)], b_up[d, c]) for d in range(3)], out, tmp)


def christoffels(g: SymTensorField) -> np.ndarray:
    """Levi-Civita connection of g via 4th-order finite differences.

    Gamma^a_{bc} = (1/2) g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc), formed
    plane by plane on the 6 stored (b, c) pairs from the planes of g^-1
    and of the partials of g, and returned as one read-only (3, 6, *grid)
    block indexed [a, slot(b, c)]: every Gamma^a on a stored pair is a
    contiguous plane.  A non-finite Gamma is caught by the field
    constructor of whatever is built from it (Ric, a Hessian, curl, div).
    """
    shape, spacings = g.grid.shape, g.grid.spacings
    # (1/2) g^ad on its stored pairs; halving is exact, so it may come first
    half_inv = np.multiply(as_metric(g)._inv_planes, 0.5)
    values = _planes(g.values)
    dg = [diff_array(values, t + 1, spacings[t]) for t in range(3)]  # dg[t][slot] = d_t g_slot
    planes = np.empty((3, 6) + shape)
    lower, tmp = np.empty((3,) + shape), np.empty(shape)
    for slot, (b, c) in enumerate(SYM_PAIRS):
        for d in range(3):
            np.add(dg[b][sym_index(d, c)], dg[c][sym_index(b, d)], out=lower[d])
            lower[d] -= dg[d][slot]
        for a in range(3):
            _plane_sum([(half_inv[sym_index(a, d)], lower[d]) for d in range(3)],
                       planes[a, slot], tmp)
    return _frozen(planes)


def _covariant_derivative_planes(A: SymTensorField, gam: np.ndarray) -> np.ndarray:
    """nabla_t A_sb as a (3, 6, *grid) block indexed [t, slot(s, b)].

    nabla_t A_sb = d_t A_sb - Gamma^m_{ts} A_mb - Gamma^m_{tb} A_sm,
    formed plane by plane on the 6 stored (s, b) pairs of each t.
    """
    shape, spacings = A.grid.shape, A.grid.spacings
    out = np.empty((3, 6) + shape)
    values = _planes(A.values)
    term, tmp = np.empty(shape), np.empty(shape)
    for t in range(3):
        dA = diff_array(values, t + 1, spacings[t])  # dA[slot] = d_t A_slot
        for slot, (s, b) in enumerate(SYM_PAIRS):
            # Gamma^m_ts A_mb, then Gamma^m_tb A_sm, the same sum when s == b
            dA[slot] -= _plane_sum([(gam[m, sym_index(t, s)], values[sym_index(m, b)])
                                    for m in range(3)], term, tmp)
            if s != b:
                _plane_sum([(gam[m, sym_index(t, b)], values[sym_index(m, s)])
                            for m in range(3)], term, tmp)
            np.subtract(dA[slot], term, out=out[t, slot])
    return out


def covariant_derivative_sym(A: SymTensorField, g: SymTensorField) -> np.ndarray:
    """nabla_t A_sb as a read-only (..., 3, 3, 3) array indexed [t, s, b], for tests and oracles."""
    return _frozen(_grid_last(as_second_form(A, g)._nabla_planes[:, _MATRIX_SLOTS], 3))


def ricci(g: SymTensorField) -> SymTensorField:
    """Ricci tensor of the slice metric.

    Ric_ab = d_c Gamma^c_ab - d_a Gamma^c_cb
             + Gamma^c_cd Gamma^d_ab - Gamma^c_ad Gamma^d_cb

    Every term is formed on the 6 stored (a, b) pairs from the planes of
    Gamma: the divergence term differentiates the block Gamma^c along
    axis c, d_a Gamma^c_cb is symmetrized by averaging (a, b) with (b, a),
    and both products are sums of plane products.
    """
    gam = as_metric(g).gamma
    shape, spacings = g.grid.shape, g.grid.spacings
    ric = diff_array(gam[0], 1, spacings[0])
    for c in (1, 2):
        ric += diff_array(gam[c], c + 1, spacings[c])
    gtrace = np.empty((3,) + shape)  # gtrace[b] = Gamma^c_cb
    for b in range(3):
        np.add(gam[0, sym_index(0, b)], gam[1, sym_index(1, b)], out=gtrace[b])
        gtrace[b] += gam[2, sym_index(2, b)]
    dtrace = [diff_array(gtrace, a + 1, spacings[a]) for a in range(3)]  # [a][b] = d_a Gamma^c_cb
    block = np.empty(gam.shape[1:])
    for d in range(3):  # Gamma^c_cd Gamma^d_ab on all 6 pairs at once
        ric += np.multiply(gtrace[d], gam[d], out=block)
    term, tmp = block[0], block[1]
    for slot, (a, b) in enumerate(SYM_PAIRS):
        out = ric[slot]
        if a == b:
            out -= dtrace[a][a]
        else:
            out -= np.multiply(np.add(dtrace[a][b], dtrace[b][a], out=tmp), 0.5, out=tmp)
        out -= _plane_sum([(gam[c, sym_index(a, d)], gam[d, sym_index(c, b)])
                           for c in range(3) for d in range(3)], term, tmp)
    return SymTensorField(g.grid, _frozen(_grid_last(ric)))
