"""Field bundle and state snapshot persistence."""

import zipfile

import numpy as np
import pytest

from cmclab import (
    GENERIC,
    GridSpec,
    Metric,
    ParseError,
    ScalarField,
    SecondForm,
    SinkError,
    SymTensorField,
    VectorField,
    load_fields,
    load_state,
    save_fields,
    save_state,
)
from cmclab.evolution import perturb, warped_kasner_state
from cmclab.snapshot import FORMAT_TAG


def test_fields_round_trip_bitwise(tmp_path, rng):
    grid = GridSpec((8, 10, 8), periods=(1.0, 2.0, 1.0))
    fields = {
        "metric": SymTensorField(grid, rng.standard_normal(grid.shape + (6,))),
        "shift": VectorField(grid, rng.standard_normal(grid.shape + (3,))),
        "phi": ScalarField(grid, rng.standard_normal(grid.shape)),
    }
    path = tmp_path / "bundle.npz"
    save_fields(path, grid, fields, scalars={"t": -1.5, "step": 12.0})
    grid2, fields2, scalars = load_fields(path)
    assert grid2 == grid
    assert set(fields2) == set(fields)
    for name in fields:
        assert type(fields2[name]) is type(fields[name])
        assert np.array_equal(fields2[name].values, fields[name].values)
    assert scalars == {"t": -1.5, "step": 12.0}


def test_state_round_trip(tmp_path, grid8):
    state, _ = perturb(warped_kasner_state(GENERIC, -0.9, grid8, 0.02),
                       1e-4, seed=5)
    path = tmp_path / "state.npz"
    save_state(state, path)
    back = load_state(path)
    assert back.t == state.t
    assert back.grid == state.grid
    assert np.array_equal(back.g.values, state.g.values)
    assert np.array_equal(back.K.values, state.K.values)
    assert np.array_equal(back.N.values, state.N.values)


def test_snapshot_arrays_keep_the_grid_last_c_layout(tmp_path):
    # Fields hold component-major blocks, but a snapshot stores what values
    # shows: C-order (n1, n2, n3, k) arrays, as the format always has
    grid = GridSpec((8, 10, 9), periods=(1.0, 2.0, 1.0))
    state, _ = perturb(warped_kasner_state(GENERIC, -0.9, grid, 0.02), 1e-4, seed=5)
    path = tmp_path / "state.npz"
    save_state(state, path)
    headers = {(1, 0): np.lib.format.read_array_header_1_0,
               (2, 0): np.lib.format.read_array_header_2_0}
    with zipfile.ZipFile(path) as archive, np.load(path) as saved:
        for i, name in enumerate(saved["names"]):
            with archive.open(f"data_{i}.npy") as member:
                shape, fortran_order, dtype = headers[np.lib.format.read_magic(member)](member)
            values = getattr(state, str(name)).values
            assert (shape, fortran_order, dtype) == (values.shape, False, np.dtype(float))
            assert saved[f"data_{i}"].tobytes() == np.ascontiguousarray(values).tobytes()
    back = load_state(path)
    for name in ("g", "K", "N"):
        assert getattr(back, name).values.tobytes() == getattr(state, name).values.tobytes()


def test_load_rejects_foreign_archives(tmp_path, grid8):
    path = tmp_path / "foreign.npz"
    np.savez(path, format_tag=np.array("something-else"))
    with pytest.raises(ParseError):
        load_fields(path)
    np.savez(tmp_path / "untagged.npz", data=np.ones(3))
    with pytest.raises(ParseError):
        load_fields(tmp_path / "untagged.npz")


def test_metric_field_saves_as_symtensor(tmp_path, grid8):
    path = tmp_path / "metric.npz"
    g = Metric.diagonal_constant(grid8, (1.0, 2.0, 3.0))
    save_fields(path, grid8, {"g": g})
    _, fields, _ = load_fields(path)
    assert type(fields["g"]) is SymTensorField
    assert np.array_equal(fields["g"].values, g.values)


def test_second_form_saves_as_symtensor(tmp_path, grid8, rng):
    # a field's snapshot kind is its class's: a SecondForm inherits SymTensorField's
    path = tmp_path / "second_form.npz"
    g = Metric(grid8, SymTensorField.identity(grid8).values + 0.1 * rng.random(grid8.shape + (6,)))
    fields = {"K": SecondForm(grid8, rng.standard_normal(grid8.shape + (6,)), g), "g": g,
              "N": ScalarField.zeros(grid8)}
    save_fields(path, grid8, fields)
    with np.load(path) as saved:
        assert list(saved["kinds"]) == ["symtensor", "symtensor", "scalar"]
    _, back, _ = load_fields(path)
    assert [type(f) for f in back.values()] == [SymTensorField, SymTensorField, ScalarField]
    for name, field in fields.items():
        assert back[name].values.tobytes() == field.values.tobytes()


@pytest.mark.parametrize("shape, periods, data, match", [
    ((8, 8, 8), (np.nan, 1.0, 1.0), None, "periods"),
    ((4, 8, 8), (1.0, 1.0, 1.0), None, ">= 8 points"),
    ((8, 8, 8), (1.0, 1.0, 1.0), np.zeros((8, 8, 8, 5)), "field values shaped"),
], ids=["nan-periods", "short-axis", "wrong-shape"])
def test_load_rejects_malformed_archives(tmp_path, shape, periods, data, match):
    path = tmp_path / "malformed.npz"
    entries = {"names": np.array([], dtype=str), "kinds": np.array([], dtype=str)}
    if data is not None:
        entries = {"names": np.array(["g"]), "kinds": np.array(["symtensor"]), "data_0": data}
    np.savez(path, format_tag=np.array(FORMAT_TAG),
             shape=np.array(shape, dtype=np.int64), periods=np.array(periods),
             extra_names=np.array([], dtype=str), **entries)
    with pytest.raises(ParseError, match=match):
        load_fields(path)
    with pytest.raises(ParseError, match=match):
        load_state(path)


def test_load_state_requires_state_fields(tmp_path, grid8):
    path = tmp_path / "partial.npz"
    save_fields(path, grid8, {"g": SymTensorField.identity(grid8)},
                scalars={"t": -1.0})
    with pytest.raises(ParseError):
        load_state(path)
    fields = {"g": SymTensorField.identity(grid8), "K": SymTensorField.identity(grid8),
              "N": ScalarField.constant(grid8, 1.0)}
    save_fields(path, grid8, fields, scalars={"t": 1.0})
    with pytest.raises(ParseError, match="CMC time"):
        load_state(path)


def test_missing_file_is_sink_error(tmp_path):
    with pytest.raises(SinkError):
        load_fields(tmp_path / "nope.npz")
    with pytest.raises(SinkError):
        save_fields(tmp_path / "no_dir" / "x.npz",
                    GridSpec.cubic(8), {})


def test_format_tag_is_stable():
    # persisted archives should stay readable: the tag is part of the contract
    assert FORMAT_TAG == "cmclab-snapshot-1"
