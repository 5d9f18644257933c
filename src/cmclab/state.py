"""One CMC Cauchy-slice snapshot, and what a reader derives from it.

A SliceState is immutable: operations return new instances, and the g,
K and N value arrays are made read-only on construction (the fields' own
arrays, not copies), so one state object always means one set of values
and what is derived from a slice may be kept with the object.  g.values
and K.values are (..., 6) views of component-major (6, n1, n2, n3)
blocks (grid.py): a field copies an array in another layout into its
block once, when it is built, and a state shares its fields' blocks.  A
state carries, beside (t, g, K, N), one private field, _br_scalars: the
five Bel-Robinson floats (e_br, the lapse-weighted density, the flux,
r_c and sup |grad N|_g) that the first diagnostics reader derived
(diagnostics.py).  It starts empty on every state built by
SliceState(...), dataclasses.replace, rescale or load_state, never shows
in its repr, and dies with the state.  No solver memo is kept: the next
time_step's stage 1 solves the lapse from N, and a solve whose guess
already meets tol returns it after one operator apply (lapse.py).

A state never holds g^-1, Gamma, Ric or nabla K.  One state at a time
lends them to the next step: the head, the state time_step returned
last, whose first reader leaves its SecondForm, over its Metric, for that
time_step's stage 1 (_second_form, _take_second_form).  That is a rule
across states (a new head drops the old entry), so it lives in the one
module-level registry _HEAD, keyed weakly on the head.  Every other state
(built directly, loaded, rescaled, perturbed, Kasner data) keeps no array
alive.  Two wider variants were measured and rejected: letting every
state's first reader lend (a one-entry slot, replaced by the next derived
state) raised the 32^3 warped diagnostics sweep's peak RSS from 90.6 to
104.1 MB, since the slot lived on between records; and having time_step
also lend its own final Metric and SecondForm, measured again on
component-major fields with the difference matrix, raised the 32^3
perturbed evolution's (evolve_perturbed_32, two 20 s runs per side) from
81.5 and 81.6 to 83.0 and 83.0 MB and the traced memory held after a
32^3 step from 3.27 to 7.77 MiB, with bitwise the same records and no
resolved speed-up (in-process step time ratios, median 0.988 and 0.996
over two runs of 60 alternations).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveLapse
from .grid import (GridSpec, ScalarField, SecondForm, SymTensorField, _shared_grid, as_metric,
                   as_second_form)

__all__ = ["SliceState"]


@dataclass(frozen=True, eq=False)
class SliceState:
    """Slice data (t, g, K, N) in CMC gauge with zero shift.

    The time label t is the (spatially constant) mean curvature of the
    slice, so t < 0 throughout the expanding regime this package works
    in.  How far tr K may drift from t before a step is rejected is owned
    by the evolution loop, not by this container.  The value arrays are
    read-only, g.values and K.values each a (..., 6) view of one
    C-contiguous (6, *grid.shape) block (np.ascontiguousarray gives the
    grid-last C layout), and a Metric g or a SecondForm K is stored as a
    plain SymTensorField over the same block; what a state carries beyond
    them, and for how long, is set out in the state module's docstring.
    """

    t: float
    g: SymTensorField
    K: SymTensorField
    N: ScalarField
    _br_scalars: object = field(default=None, init=False, repr=False)

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


# The head, the state time_step returned last, mapped to the SecondForm over
# its Metric that its first reader derived (None until then).  Keyed weakly,
# so the entry dies with the head; marking a new head drops the old entry.
_HEAD: weakref.WeakKeyDictionary[SliceState, SecondForm | None] = weakref.WeakKeyDictionary()


def _mark_head(state: SliceState) -> None:
    _HEAD.clear()
    _HEAD[state] = None


def _second_form(state: SliceState) -> SecondForm:
    """state.K as a SecondForm over a Metric of state.g, for a reader of the slice.

    The head's first reader leaves it in the registry and later readers of
    the head get the same one; for any other state it is built anew and
    nothing keeps it.
    """
    K = _HEAD.get(state)
    if K is None:
        K = as_second_form(state.K, state.g)
        if state in _HEAD:
            _HEAD[state] = K
    return K


def _take_second_form(state: SliceState) -> SecondForm | None:
    """The SecondForm a reader left for state if it is the head, else None; empties the registry."""
    K = _HEAD.pop(state, None)
    _HEAD.clear()
    return K
