"""One CMC Cauchy-slice snapshot."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveLapse
from .grid import GridSpec, ScalarField, SymTensorField, _shared_grid, as_metric

__all__ = ["SliceState"]


@dataclass(frozen=True, eq=False)
class SliceState:
    """Slice data (t, g, K, N) in CMC gauge with zero shift.

    The time label t is the (spatially constant) mean curvature of the
    slice, so t < 0 throughout the expanding regime this package works
    in.  How far tr K may drift from t before a step is rejected is owned
    by the evolution loop, not by this container.  States are immutable
    snapshots: operations return new instances and never mutate fields,
    and the g, K and N value arrays are made read-only on construction
    (the caller's arrays themselves, not copies), so one state object
    always means one set of values and a reader may key what it derives
    from a slice on the object.  A Metric g and a SecondForm K are stored
    as plain SymTensorFields, so no state keeps g^-1, Gamma or nabla K
    alive.
    """

    t: float
    g: SymTensorField
    K: SymTensorField
    N: ScalarField

    def __post_init__(self):
        if not np.isfinite(self.t) or self.t >= 0.0:
            raise ValueError(f"CMC time must be a negative real, got {self.t!r}")
        grid = _shared_grid(self.g, self.K, self.N)
        as_metric(self.g)  # the positive-definiteness guard, unless g is already a Metric
        for name in ("g", "K"):
            field = getattr(self, name)
            if type(field) is not SymTensorField:
                object.__setattr__(self, name, SymTensorField(grid, field.values))
        if np.any(self.N.values <= 0.0):
            raise NonPositiveLapse(f"lapse has min {self.N.values.min():.3e} <= 0")
        for field in (self.g, self.K, self.N):
            field.values.flags.writeable = False

    @property
    def grid(self) -> GridSpec:
        return self.g.grid
