import json

import numpy as np
import pytest

from anisofield.errors import FileFormatError
from anisofield.fileio import (format_float, read_csv, read_field_afld,
                               read_json, write_csv, write_field_afld,
                               write_field_csv, write_json,
                               write_prediction_csv, write_variogram_csv)
from anisofield.models import fbm
from anisofield.simulate import Grid, sample_field
from anisofield.variogram import variogram_table


def test_format_float_ten_digits():
    assert format_float(1.0) == "1"
    assert format_float(1.0 / 3.0) == "0.3333333333"
    assert format_float(12345678901234.0) == "1.23456789e+13"


def test_json_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"b": [1, 2.5], "a": {"nested": True}}
    write_json(path, doc)
    assert read_json(path) == doc
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # sorted keys


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"{broken")
    with pytest.raises(FileFormatError):
        read_json(path)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    rows = [[0.1, 2.0], [1.0 / 3.0, -4.5]]
    write_csv(path, ["x", "y"], rows, provenance={"tool": "anisofield"})
    text = path.read_text()
    assert text.startswith('# provenance: {"tool":"anisofield"}\n')
    back = read_csv(path, min_columns=2)
    assert back.shape == (2, 2)
    assert np.allclose(back, rows, rtol=1e-9)


def test_csv_rejects_misshapen_rows(tmp_path):
    path = tmp_path / "data.csv"
    with pytest.raises(FileFormatError):
        write_csv(path, ["x", "y"], [[1.0], [2.0, 3.0]])


def test_read_csv_rejects_bad_content(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n")
    with pytest.raises(FileFormatError):
        read_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x,y\n1,2\n3\n")
    with pytest.raises(FileFormatError):
        read_csv(ragged)

    late_text = tmp_path / "late.csv"
    late_text.write_text("x\n1\noops\n")
    with pytest.raises(FileFormatError):
        read_csv(late_text)

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("x\n1\n")
    with pytest.raises(FileFormatError):
        read_csv(narrow, min_columns=3)

    for cell in ("nan", "inf", "-inf"):
        non_finite = tmp_path / f"{cell}.csv"
        non_finite.write_text(f"x,y\n1,2\n{cell},0.5\n")
        with pytest.raises(FileFormatError, match=non_finite.name):
            read_csv(non_finite)


def test_read_csv_skips_header_and_comments(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("# comment\nx,y\n# another\n1,2\n3,4\n")
    back = read_csv(path)
    assert back.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_variogram_csv_layout(tmp_path):
    model = fbm(0.5, 1)
    table = variogram_table(model, [[0.5], [1.0]])
    path = tmp_path / "vario.csv"
    write_variogram_csv(path, table, provenance={"seed": 0})
    header = [line for line in path.read_text().splitlines()
              if not line.startswith("#")][0]
    assert header == "h_1,value,err"
    back = read_csv(path, min_columns=3)
    assert back.shape == (2, 3)
    assert np.allclose(back[:, 0], [0.5, 1.0])


def test_field_and_prediction_csv(tmp_path):
    grid = Grid(origin=(0.0,), spacing=(0.5,), shape=(3,))
    fs = sample_field(fbm(0.5, 1), grid, lattice=64, seed=1)
    fpath = tmp_path / "field.csv"
    write_field_csv(fpath, fs)
    back = read_csv(fpath, min_columns=3)
    assert back.shape == (3, 3)
    assert back[0].tolist() == [0.0, 0.0, 0.0]  # pinned origin row

    ppath = tmp_path / "pred.csv"
    write_prediction_csv(ppath, [[1.0], [2.0]], [0.5, 0.25], [0.1, 0.2])
    pred = read_csv(ppath, min_columns=3)
    assert pred[1].tolist() == [2.0, 0.25, 0.2]


def test_afld_round_trip_is_exact(tmp_path):
    grid = Grid(origin=(0.0, -1.0), spacing=(0.25, 0.5), shape=(5, 3))
    fs = sample_field(fbm(0.7, 2), grid, lattice=64, seed=9)
    path = tmp_path / "field.afld"
    write_field_afld(path, fs, provenance={"tool": "anisofield"})
    back = read_field_afld(path)
    assert back.grid == grid
    assert back.seed == fs.seed
    assert np.array_equal(back.values, fs.values)  # bit-exact payload
    assert back.metadata["provenance"] == {"tool": "anisofield"}
    assert back.metadata["lattice"] == 64


def test_afld_rejects_corruption(tmp_path):
    grid = Grid(origin=(0.0,), spacing=(1.0,), shape=(4,))
    fs = sample_field(fbm(0.5, 1), grid, lattice=64, seed=0)
    path = tmp_path / "field.afld"
    write_field_afld(path, fs)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.afld"
    bad_magic.write_bytes(b"NOPE!" + raw[5:])
    with pytest.raises(FileFormatError):
        read_field_afld(bad_magic)

    truncated = tmp_path / "trunc.afld"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(FileFormatError):
        read_field_afld(truncated)

    short_header = tmp_path / "short.afld"
    short_header.write_bytes(raw[:7])
    with pytest.raises(FileFormatError):
        read_field_afld(short_header)


def test_writes_are_atomic_overwrites(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"v": 1})
    write_json(path, {"v": 2})
    assert read_json(path) == {"v": 2}
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".aniso-")]
    assert leftovers == []
