"""Readers and writers for the package's file formats.

CSV carries tabular numbers at 10 significant digits, with provenance
embedded in leading ``#`` comment lines.  A CSV table is formatted in
one bulk pass, one ``%`` of a repeated row template per chunk of rows;
the bytes are those of formatting each value on its own, as earlier
versions did.  A field CSV formats each grid coordinate and channel
index once and joins its row templates from those texts, so only the
values go through the bulk format; its bytes are unchanged too.  JSON
reports use Python's shortest round-trip float representation and
sorted keys, so reruns with the same inputs are byte-identical.  Large fields use the AFLD1 container: the 5-byte magic
``AFLD1``, a little-endian uint32 header length, a UTF-8 JSON header
carrying the grid and provenance, then the sample values as
little-endian float64 in row-major order with the channel axis fastest.

A CSV is read as UTF-8 bytes, a leading byte-order mark dropped, in one
of two routes chosen from the text alone.  Text with no quote character
and no NUL is split into lines at ``\n``, ``\r\n`` or a lone ``\r``;
comment and empty lines are dropped, the first remaining line is the
header if it is not numeric, and every other field is converted in one
pass.  Any other text, and any text whose fields do not all convert or
whose lines differ in width, goes through a ``csv.reader`` loop over the
same text, the only code that words a parse error.  Both routes give the
same array, or the same error, for every file.

Every writer goes through a temporary file and ``os.replace``, so a
reader never sees partial output.  The temporary file sits next to the
target as ``.aniso-<pid>-<n>.tmp``, ``n`` counting up within the
process; it is opened with ``O_EXCL``, so a file or symlink already at
that name is neither overwritten nor followed (the next ``n`` is taken),
and with mode 0600, which the output keeps.  It is unlinked if the write
fails.
"""

import csv
import io
import itertools
import json
import os
import struct

import numpy as np

from .errors import FileFormatError

AFLD_MAGIC = b"AFLD1"
# Decimal text at 10 significant digits, for single values and CSV rows.
_FLOAT = "%.10g"
# Rows per bulk format: bounds the transient tuple of Python floats and the
# texts of the one chunk being written.
_CHUNK_ROWS = 16384
# Numbers the temporary files of this process; next() on it is atomic, so
# threads writing at once take distinct names.
_TEMP_NUMBERS = itertools.count()


def format_float(x):
    """Decimal text at 10 significant digits."""
    return _FLOAT % float(x)


def _atomic_write_bytes(path, chunks):
    """Write an iterable of bytes-like chunks to ``path`` through a temporary file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".aniso-{os.getpid()}-{next(_TEMP_NUMBERS)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o600)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path, doc):
    """Write a JSON document atomically, keys sorted, trailing newline."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _atomic_write_bytes(path, [text.encode()])


def read_json(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from None


def _table(path, rows, width):
    """rows as a float array of shape (n, width), or FileFormatError."""
    try:
        table = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(
            f"{path}: rows are not a numeric table ({exc})") from None
    if table.shape == (0,):
        return table.reshape(0, width)
    if table.ndim != 2:
        raise FileFormatError(
            f"{path}: rows must form a 2-D table, got shape {table.shape}")
    if table.shape[1] != width:
        raise FileFormatError(
            f"{path}: rows have {table.shape[1]} values, header has {width}")
    return table


def write_csv(path, header, rows, provenance=None):
    """Write numeric rows under a named header, atomically.

    Parameters
    ----------
    path : str
    header : sequence of str
        Column names, one per column of rows.
    rows : array-like, shape (n, len(header))
        Numeric table; every value is formatted at 10 significant digits.
        Empty rows write the header alone; any other shape raises
        FileFormatError.
    provenance : dict, optional
        Embedded as one compact-JSON comment line before the header.
    """
    table = _table(path, rows, len(header))
    row = ",".join([_FLOAT] * len(header)) + "\n"
    chunks = (table[s:s + _CHUNK_ROWS] for s in range(0, len(table), _CHUNK_ROWS))
    _write_table(path, header, provenance,
                 ((row * len(c)) % tuple(c.ravel().tolist()) for c in chunks))


def _write_table(path, header, provenance, body):
    """Write the provenance comment, the header line and the body texts,
    each chunk encoded and written as it is made."""
    def chunks():
        if provenance:
            blob = json.dumps(provenance, sort_keys=True, separators=(",", ":"))
            yield f"# provenance: {blob}\n".encode()
        yield (",".join(header) + "\n").encode()
        for text in body:
            yield text.encode()

    _atomic_write_bytes(path, chunks())


def read_csv(path, min_columns=1):
    """Read a numeric CSV as a 2-D array.

    The file is UTF-8, with or without a byte-order mark.  Comment lines
    starting with ``#`` (after any leading spaces) and empty lines are
    skipped, as is one optional non-numeric header row before the data.
    All remaining rows must be finite numbers and of equal width.
    Quoted fields are accepted.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        # not the "utf-8-sig" codec, whose module a cold process would import
        text = raw.removeprefix(b"\xef\xbb\xbf").decode()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not valid UTF-8 ({exc})") from None
    if '"' in text or "\0" in text:
        return _read_records(path, text, min_columns)
    lines = list(filter(None, text.replace("\r\n", "\n").replace("\r", "\n").split("\n")))
    if "#" in text:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    if lines:
        try:
            list(map(float, lines[0].split(",")))
        except ValueError:
            del lines[0]  # the header
    commas = list(map(str.count, lines, itertools.repeat(",")))
    if not lines or commas.count(commas[0]) != len(lines):
        return _read_records(path, text, min_columns)
    try:
        values = list(map(float, ",".join(lines).split(",")))
    except ValueError:
        return _read_records(path, text, min_columns)
    return _checked(path, np.array(values).reshape(len(lines), commas[0] + 1),
                    min_columns)


def _read_records(path, text, min_columns):
    """read_csv through ``csv.reader``: every parse error is worded here."""
    rows = []
    header = False
    try:
        for record in csv.reader(io.StringIO(text, newline="")):
            if not record or record[0].lstrip().startswith("#"):
                continue
            try:
                rows.append([float(v) for v in record])
            except ValueError:
                if rows:
                    raise FileFormatError(
                        f"{path}: non-numeric row after data began") from None
                if header:
                    raise FileFormatError(
                        f"{path}: non-numeric row after the header") from None
                header = True
    except csv.Error as exc:
        raise FileFormatError(f"{path}: not a valid CSV ({exc})") from None
    if not rows:
        raise FileFormatError(f"{path}: no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FileFormatError(f"{path}: rows have unequal width")
    return _checked(path, np.asarray(rows), min_columns)


def _checked(path, rows, min_columns):
    """rows, or FileFormatError if too narrow or not all finite."""
    if rows.shape[1] < min_columns:
        raise FileFormatError(
            f"{path}: expected at least {min_columns} columns, found {rows.shape[1]}")
    if not np.all(np.isfinite(rows)):
        raise FileFormatError(f"{path}: non-finite value in numeric rows")
    return rows


def write_variogram_csv(path, table, provenance=None):
    """Write a VariogramTable as columns h_1..h_N, value, err."""
    n = table.lags.shape[1]
    header = [f"h_{j + 1}" for j in range(n)] + ["value", "err"]
    rows = np.column_stack([table.lags, table.values, table.errs])
    write_csv(path, header, rows, provenance)


def write_field_csv(path, fs, provenance=None):
    """Write a FieldSample as columns t_1..t_N, channel, value.

    Rows run over the grid in row-major order with the channel fastest.
    Each grid coordinate and channel index is formatted once and the row
    templates are joined from those texts, so only the values go through
    the bulk format.
    """
    grid = fs.grid
    header = [f"t_{j + 1}" for j in range(grid.ndim)] + ["channel", "value"]
    coords = [[format_float(x) + "," for x in grid.axis_coords(j).tolist()]
              for j in range(grid.ndim)]
    # a line is one run of the last axis: its rows share the leading text
    # of the other coordinates, which lead.join puts before each row
    leads = list(map("".join, itertools.product(*coords[:-1])))
    tails = [f"{x}{format_float(c)},{_FLOAT}\n"
             for x in coords[-1] for c in range(fs.nchannels)]
    width = len(tails)
    values = fs.values.reshape(-1)
    chunk = _CHUNK_ROWS

    def body():
        for start in range(0, values.size, chunk):
            stop = min(start + chunk, values.size)
            first = start // width
            template = "".join(
                lead + lead.join(tails[max(start - i * width, 0):stop - i * width])
                for i, lead in enumerate(leads[first:-(-stop // width)], first))
            yield template % tuple(values[start:stop].tolist())

    _write_table(path, header, provenance, body())


def write_prediction_csv(path, sites, predictions, variances, provenance=None):
    """Write kriging output as columns t_1..t_N, prediction, variance."""
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    header = [f"t_{j + 1}" for j in range(sites.shape[1])]
    header += ["prediction", "variance"]
    rows = np.column_stack([sites, predictions, variances])
    write_csv(path, header, rows, provenance)


def write_field_afld(path, fs, provenance=None):
    """Write a FieldSample in the AFLD1 container."""
    header = {
        "origin": list(fs.grid.origin),
        "spacing": list(fs.grid.spacing),
        "shape": list(fs.grid.shape),
        "channels": fs.nchannels,
        "seed": int(fs.seed),
        "metadata": fs.metadata,
        "provenance": provenance or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = np.ascontiguousarray(fs.values, dtype="<f8").reshape(-1)
    _atomic_write_bytes(path, [AFLD_MAGIC, struct.pack("<I", len(blob)), blob, payload])


def read_field_afld(path):
    """Read an AFLD1 container back into a FieldSample."""
    from .simulate import FieldSample, Grid
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != AFLD_MAGIC or len(raw) < 9:
        raise FileFormatError(f"{path}: missing AFLD1 magic")
    (hlen,) = struct.unpack("<I", raw[5:9])
    if len(raw) < 9 + hlen:
        raise FileFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[9:9 + hlen].decode())
        grid = Grid(origin=tuple(header["origin"]),
                    spacing=tuple(header["spacing"]),
                    shape=tuple(header["shape"]))
        channels = int(header["channels"])
        seed = int(header.get("seed", 0))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        raise FileFormatError(f"{path}: bad AFLD1 header ({exc})") from None
    if channels < 1:
        raise FileFormatError(f"{path}: header has {channels} channels, need at least 1")
    values = np.frombuffer(raw, dtype="<f8", offset=9 + hlen)
    expected = grid.npoints * channels
    if values.size != expected:
        raise FileFormatError(
            f"{path}: payload holds {values.size} floats, header promises "
            f"{expected}")
    values = values.reshape(grid.shape + (channels,))
    meta = dict(header.get("metadata") or {})
    meta["provenance"] = header.get("provenance") or {}
    return FieldSample(grid=grid, values=values, seed=seed, metadata=meta)
