import itertools
import json
import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from anisofield import fileio
from anisofield.errors import FileFormatError
from anisofield.fileio import (format_float, read_csv, read_field_afld,
                               read_json, write_csv, write_field_afld,
                               write_field_csv, write_json,
                               write_prediction_csv, write_variogram_csv)
from anisofield.models import fbm
from anisofield.simulate import FieldSample, Grid, multi_copy_field, sample_field
from anisofield.variogram import variogram_table

_AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1.0 / 3.0, 12345678901234.0,
            9999999999.5, 1.8e308, -1e300, 1e-300, 1.0, 64.0]


def test_format_float_ten_digits():
    assert format_float(1.0) == "1"
    assert format_float(1.0 / 3.0) == "0.3333333333"
    assert format_float(12345678901234.0) == "1.23456789e+13"


def test_format_float_matches_format_spec():
    # the %-template and the ".10g" format spec share CPython's routine
    rng = np.random.default_rng(0)
    values = 10.0 ** rng.uniform(-300, 300, 100_000)
    values[::2] *= -1.0
    values = np.concatenate([values, _AWKWARD]).tolist()
    assert [format_float(v) for v in values] == [f"{v:.10g}" for v in values]
    assert format_float(9999999999.5) == "1e+10"
    assert format_float(-0.0) == "-0"
    assert format_float(5e-324) == "4.940656458e-324"


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


def _reference_csv(header, rows):
    """CSV body formatted one value at a time."""
    lines = [",".join(header)]
    lines += [",".join(format_float(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_csv_bytes_match_per_value_formatting(tmp_path, width):
    rng = np.random.default_rng(width)
    n = 400
    mags = 10.0 ** rng.uniform(-300, 300, size=(n, width))
    table = np.where(rng.random((n, width)) < 0.5, -mags, mags)
    table.ravel()[:len(_AWKWARD)] = _AWKWARD[:table.size]
    header = [f"c{j}" for j in range(width)]
    path = tmp_path / "bulk.csv"
    write_csv(path, header, table, provenance={"seed": width})
    expected = '# provenance: {"seed":%d}\n' % width
    expected += _reference_csv(header, table.tolist())
    assert path.read_bytes() == expected.encode()


def test_field_csv_bytes_match_per_value_formatting(tmp_path, monkeypatch):
    grid_3d = Grid(origin=(0.5, -1.0, 2.0), spacing=(0.25, 0.5, 1.0 / 3.0),
                   shape=(4, 3, 2))
    grid_1d = Grid(origin=(0.0,), spacing=(0.25,), shape=(5,))
    awkward = Grid(origin=(1e-300, -7.0), spacing=(1.0 / 3.0, 1.0 / 3.0),
                   shape=(4, 5))
    whole = fileio._CHUNK_ROWS
    for model, grid, channels, chunk in [
            (fbm(0.6, 3), grid_3d, 3, whole),
            (fbm(0.5, 1), grid_1d, 12, whole),  # two-digit channel indices
            (fbm(0.6, 2), awkward, 2, whole),
            # chunks that split a run of the last axis, and whole runs
            (fbm(0.6, 3), grid_3d, 3, 5),
            (fbm(0.6, 2), awkward, 2, 20),
            (fbm(0.5, 1), grid_1d, 12, 7)]:
        monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk)
        fs = multi_copy_field(model, grid, lattice=64, channels=channels,
                              seed=3)
        path = tmp_path / "field.csv"
        write_field_csv(path, fs, provenance={"seed": 3})
        points = grid.points()
        values = fs.values.reshape(grid.npoints, channels)
        rows = [list(points[i]) + [c, values[i, c]]
                for i in range(grid.npoints) for c in range(channels)]
        header = [f"t_{j + 1}" for j in range(grid.ndim)] + ["channel", "value"]
        expected = '# provenance: {"seed":3}\n' + _reference_csv(header, rows)
        assert path.read_text() == expected


def test_csv_rejects_misshapen_rows(tmp_path):
    path = tmp_path / "data.csv"
    with pytest.raises(FileFormatError):
        write_csv(path, ["x", "y"], [[1.0], [2.0, 3.0]])


@pytest.mark.parametrize("rows", [
    [1.0, 2.0],                       # flat list
    [[1.0, 2.0], [3.0]],              # ragged
    [[1.0, 2.0, 3.0]],                # wider than the header
    [[]],                             # a row with no values
    np.zeros((2, 2, 2)),              # 3-D
    [["a", "b"]],                     # not numbers
], ids=["flat", "ragged", "wide", "empty-row", "3d", "text"])
def test_csv_malformed_rows_raise_file_format_error(tmp_path, rows):
    path = tmp_path / "data.csv"
    with pytest.raises(FileFormatError, match="data.csv"):
        write_csv(path, ["x", "y"], rows)
    assert not path.exists()


@pytest.mark.parametrize("rows", [[], np.empty((0, 2))], ids=["list", "array"])
def test_csv_empty_rows_write_header_only(tmp_path, rows):
    path = tmp_path / "data.csv"
    write_csv(path, ["x", "y"], rows, provenance={"n": 0})
    assert path.read_text() == '# provenance: {"n":0}\nx,y\n'


def test_csv_chunks_join_seamlessly(tmp_path, monkeypatch):
    table = np.arange(23.0).reshape(-1, 1) / 7.0
    whole = tmp_path / "whole.csv"
    write_csv(whole, ["x"], table)
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", 5)
    chunked = tmp_path / "chunked.csv"
    write_csv(chunked, ["x"], table)
    assert chunked.read_bytes() == whole.read_bytes()
    assert whole.read_text() == _reference_csv(["x"], table)


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


def test_read_csv_keeps_the_first_row_after_a_byte_order_mark(tmp_path):
    # the mark once stuck to the first cell, which was then skipped as a header
    path = tmp_path / "lags.csv"
    path.write_bytes(b"\xef\xbb\xbf0.5\r\n1\r\n")
    assert read_csv(path).tolist() == [[0.5], [1.0]]


def test_read_csv_allows_one_header_row(tmp_path):
    # a malformed first data row was once skipped as a second header
    path = tmp_path / "lags.csv"
    path.write_text("h_1,h_2\n0.5,0.5x\n1,2\n")
    with pytest.raises(FileFormatError, match="lags.csv"):
        read_csv(path)


def test_read_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "lags.csv"
    path.write_bytes(b"h_\xe9\n0.5\n")
    with pytest.raises(FileFormatError, match="lags.csv"):
        read_csv(path)


_CORPUS = {
    "crlf": b"h_1,h_2\r\n0.5,1\r\n2,3\r\n",
    "lone-cr": b"h_1,h_2\r0.5,1\r2,3\r",
    "mixed-endings": b"0.5,1\r\n2,3\n4,5\r\r6,7",
    "comment-between-rows": b"x,y\n1,2\n# note\n3,4\n",
    "indented-comments": b"  # lead, with a comma\nx,y\n1,2\n\t # tab\n3,4\n",
    "blank-lines": b"\nx,y\n\n1,2\n\n\n3,4\n\n",
    "whitespace-line-first": b"   \n1,2\n",
    "whitespace-line-between-rows": b"x,y\n1,2\n  \n3,4\n",
    "quoted-numbers": b'x,y\n"1","2.5"\n3,"-0"\n',
    "quoted-header": b'"x","y"\n1,2\n',
    "quoted-comma": b'x\n"1,2"\n',
    "trailing-comma": b"x,y\n1,2,\n3,4,\n",
    "nul": b"x,y\n1,2\x00\n",
    "ragged": b"x,y\n1,2\n3\n",
    "text-after-data": b"x\n1\noops\n",
    "two-headers": b"x\ny\n1\n",
    "header-only": b"x,y\n",
    "comment-only": b"# nothing here\n",
    "empty": b"",
    "no-final-newline": b"1,2\n3,4",
    "spaces-around-cells": b"x, y\n 1 , 2\t\n",
    "underscore": b"x\n1_0\n",
    "plus": b"x\n+2\n",
    "tiny": b"x\n1e-300\n-0\n",
    "nan": b"x\nnan\n",
    "inf": b"x,y\n1,inf\n",
    "bom-header": b"\xef\xbb\xbfx\n1\n",
}


@pytest.mark.parametrize("raw", _CORPUS.values(), ids=_CORPUS.keys())
def test_read_csv_routes_agree(tmp_path, raw):
    # read_csv must give what the csv.reader route gives: the same array, or
    # a FileFormatError with the same message
    path = tmp_path / "in.csv"
    path.write_bytes(raw)

    def outcome(read):
        try:
            rows = read()
        except FileFormatError as exc:
            return str(exc)
        return rows.dtype, rows.shape, rows.tobytes()

    text = raw.removeprefix(b"\xef\xbb\xbf").decode()
    direct = outcome(lambda: fileio._read_records(path, text, 1))
    assert outcome(lambda: read_csv(path)) == direct


def test_read_csv_splits_plain_text_without_csv_reader(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader was called")

    path = tmp_path / "lags.csv"
    path.write_text("# comment\nh_1,h_2\n0.5,1\n2,3\n")
    monkeypatch.setattr(fileio.csv, "reader", refuse)
    assert read_csv(path).tolist() == [[0.5, 1.0], [2.0, 3.0]]


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


def test_field_csv_write_streams_its_chunks(tmp_path):
    # each chunk's text is encoded and written as it is made, so no copy of
    # the whole file is held: this one is 10.8 MB of text
    grid = Grid(origin=(0.0, -1.0), spacing=(1 / 255, 2 / 255), shape=(256, 256))
    values = np.random.default_rng(0).normal(size=grid.shape + (4,))
    fs = FieldSample(grid=grid, values=values, seed=0, metadata={})
    path = tmp_path / "field.csv"
    tracemalloc.start()
    try:
        write_field_csv(path, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size


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

    # a header promising no channels, with the empty payload that matches,
    # and channel counts or seeds that are not JSON integers in range, with
    # the payload of one channel
    payload = np.zeros(4).astype("<f8").tobytes()
    bad = [("channels", 0, b""), ("channels", -1, b"")]
    bad += [("channels", value, payload) for value in (1.7, True, "1")]
    bad += [("seed", value, payload) for value in (2.9, True, "7", -3, 2**63)]
    for i, (field, value, body) in enumerate(bad):
        header = {"origin": [0.0], "spacing": [1.0], "shape": [4], "channels": 1}
        header[field] = value
        blob = json.dumps(header).encode()
        bad_header = tmp_path / f"header{i}.afld"
        bad_header.write_bytes(fileio.AFLD_MAGIC + struct.pack("<I", len(blob)) + blob + body)
        with pytest.raises(FileFormatError, match=field):
            read_field_afld(bad_header)


def test_writes_are_atomic_overwrites(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"v": 1})
    write_json(path, {"v": 2})
    assert read_json(path) == {"v": 2}
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".aniso-")]
    assert leftovers == []


def _leftovers(directory):
    return [p.name for p in directory.iterdir() if p.name.startswith(".aniso-")]


def test_a_failed_write_keeps_the_old_target(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, ["x"], [[1.0], [2.0]])
    old = path.read_bytes()

    def body():
        yield "3\n"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        fileio._write_table(path, ["x"], None, body())
    assert path.read_bytes() == old
    assert _leftovers(tmp_path) == []


def test_an_occupied_temporary_name_is_neither_overwritten_nor_followed(
        tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_TEMP_NUMBERS", itertools.count())
    pid = os.getpid()
    squatter = tmp_path / f".aniso-{pid}-0.tmp"
    squatter.write_text("keep")
    victim = tmp_path / "victim.txt"
    victim.write_text("untouched")
    link = tmp_path / f".aniso-{pid}-1.tmp"
    link.symlink_to(victim)
    path = tmp_path / "doc.json"
    write_json(path, {"v": 1})
    assert read_json(path) == {"v": 1}
    assert squatter.read_text() == "keep"
    assert link.is_symlink() and victim.read_text() == "untouched"
    assert sorted(_leftovers(tmp_path)) == [squatter.name, link.name]


def test_outputs_have_mode_0600(tmp_path):
    grid = Grid(origin=(0.0,), spacing=(0.5,), shape=(3,))
    fs = sample_field(fbm(0.5, 1), grid, lattice=64, seed=1)
    paths = [tmp_path / name for name in ("doc.json", "data.csv", "f.csv", "f.afld")]
    write_json(paths[0], {"v": 1})
    write_csv(paths[1], ["x"], [[1.0]])
    write_field_csv(paths[2], fs)
    write_field_afld(paths[3], fs)
    for path in paths:
        assert path.stat().st_mode & 0o777 == 0o600, path.name


def test_threads_writing_at_once_all_land_intact(tmp_path):
    n_threads, rounds = 8, 20
    tables = [np.arange(50.0).reshape(-1, 1) + k for k in range(n_threads)]
    paths = [tmp_path / f"t{k}.csv" for k in range(n_threads)]
    start = threading.Barrier(n_threads)
    failures = []

    def write(k):
        try:
            start.wait(timeout=30)
            for _ in range(rounds):
                write_csv(paths[k], ["x"], tables[k])
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(k,)) for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    for path, table in zip(paths, tables):
        assert np.array_equal(read_csv(path), table)
    assert _leftovers(tmp_path) == []
