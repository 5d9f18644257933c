"""Versioned on-disk container for grids, named fields and slice states.

The layout is a NumPy .npz archive carrying a format tag, the grid shape
and periods, and per-field data arrays with their kinds (scalar, vector,
symtensor).  A field's kind is the _kind its class declares, so a Metric
or a SecondForm, which inherit SymTensorField's, is saved as a symtensor
and loaded back as a plain SymTensorField.  Each data array is the
C-order (n1, n2, n3[, k]) array a field's values shows (np.savez writes
the component-major view in that order), and a loaded field copies it
once into its block.  Values round-trip bitwise.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError, SinkError
from .grid import GridSpec, ScalarField, SymTensorField, VectorField
from .state import SliceState

__all__ = ["FORMAT_TAG", "save_fields", "load_fields", "save_state", "load_state"]

FORMAT_TAG = "cmclab-snapshot-1"

_TYPE_OF_KIND = {cls._kind: cls for cls in (ScalarField, VectorField, SymTensorField)}


def save_fields(path, grid: GridSpec, fields: dict, scalars: dict | None = None) -> None:
    """Write named fields (and optional named reals) over one grid."""
    names = list(fields)
    payload = {
        "format_tag": np.array(FORMAT_TAG),
        "shape": np.array(grid.shape, dtype=np.int64),
        "periods": np.array(grid.periods, dtype=float),
        "names": np.array(names),
        "kinds": np.array([fields[n]._kind for n in names]),
    }
    for i, name in enumerate(names):
        field = fields[name]
        if field.grid != grid:
            raise ValueError(f"field {name!r} lives on a different grid")
        payload[f"data_{i}"] = field.values
    extras = dict(scalars or {})
    payload["extra_names"] = np.array(list(extras))
    for i, key in enumerate(extras):
        payload[f"extra_{i}"] = np.array(float(extras[key]))
    try:
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
    except OSError as exc:
        raise SinkError(f"failed to write snapshot: {exc}") from exc


def load_fields(path) -> tuple[GridSpec, dict, dict]:
    """Read back (grid, fields, scalars) written by save_fields; ParseError if path holds none."""
    try:
        with np.load(path) as archive:
            data = {key: archive[key] for key in archive.files}
    except OSError as exc:
        raise SinkError(f"failed to read snapshot: {exc}") from exc
    except (ValueError, KeyError) as exc:
        raise ParseError(f"not a snapshot archive: {exc}") from exc
    tag = str(data.get("format_tag", ""))
    if tag != FORMAT_TAG:
        raise ParseError(f"unsupported snapshot format {tag!r}")
    try:
        grid = GridSpec(
            shape=tuple(int(n) for n in data["shape"]),
            periods=tuple(float(p) for p in data["periods"]),
        )
        fields = {}
        for i, (name, kind) in enumerate(zip(data["names"], data["kinds"])):
            cls = _TYPE_OF_KIND[str(kind)]
            fields[str(name)] = cls(grid, data[f"data_{i}"])
        scalars = {
            str(key): float(data[f"extra_{i}"])
            for i, key in enumerate(data["extra_names"])
        }
    except KeyError as exc:
        raise ParseError(f"snapshot missing entry {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return grid, fields, scalars


def save_state(state: SliceState, path) -> None:
    """Write a slice state (g, K, N and t) to path with save_fields."""
    save_fields(
        path,
        state.grid,
        {"g": state.g, "K": state.K, "N": state.N},
        scalars={"t": state.t},
    )


def load_state(path) -> SliceState:
    """Read back a slice state written by save_state; ParseError if path holds none."""
    _, fields, scalars = load_fields(path)
    try:
        return SliceState(t=scalars["t"], g=fields["g"], K=fields["K"], N=fields["N"])
    except KeyError as exc:
        raise ParseError(f"snapshot is not a slice state (missing {exc})") from exc
    except ValueError as exc:
        raise ParseError(f"snapshot is not a slice state ({exc})") from exc
