"""CSV ingestion and model persistence.

CSV output writes each number as the shortest decimal that round-trips to
the same binary float, so files re-parse losslessly. Models serialize to a
single JSON document discriminated by ``kind``: "linear" (a
``LinearModel``) or "projection" (a ``ProjectionRegressor``), then the
model's init fields in declaration order; the class checks its own arrays
when loading builds it. Each array is stored exactly, as base64 of its
little-endian float64 bytes in row-major order. A document holds only what
prediction reads, so a robust fit is saved as its projection regressor.
The schema ships with the package.
"""

from __future__ import annotations

import base64
import csv
import json
import math
import numbers
import warnings
from dataclasses import dataclass, fields
from importlib import resources
from io import StringIO
import numpy as np

from .baselines import LinearModel
from .errors import ParseError
from .projection import ProjectionRegressor

__all__ = [
    "DatasetFile",
    "MODEL_FORMAT",
    "MODEL_VERSION",
    "format_float",
    "load_csv",
    "write_csv",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "load_model_schema",
]

MODEL_FORMAT = "robustpls-model"
MODEL_VERSION = 2


@dataclass(frozen=True)
class DatasetFile:
    """A comma-separated numeric text file holding one matrix, with an optional header line."""

    path: str
    has_header: bool = False


def format_float(v: float) -> str:
    """Shortest decimal string that parses back to the identical float."""
    return repr(float(v))


def load_csv(file) -> np.ndarray:
    """Read a matrix from a comma-separated file.

    Accepts a ``DatasetFile`` or a bare path (no header). The file is read
    as UTF-8, with or without a byte-order mark, and blank lines are
    skipped. Every row must have the same number of cells and every cell
    must parse as a finite number (any ``float`` spelling, quoted or not);
    violations raise ``ParseError`` with the offending line (and column)
    number, counted in physical lines. A file that is not UTF-8 raises
    ``ParseError`` too.
    """
    if not isinstance(file, DatasetFile):
        file = DatasetFile(path=str(file))
    # One vectorised parse of the whole file. Its grammar is a subset of the
    # cell parser's, and both read each number as the correctly rounded
    # double, so a file it rejects, or one with no data or a non-finite
    # entry, goes to the cell parser, which loads it the same way or names
    # the fault. A decoding fault is a ValueError as well.
    try:
        with open(file.path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a file with no data
            m = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, skiprows=int(file.has_header))
    except ValueError:
        return _parse_cells(file)
    if m.size == 0 or not np.isfinite(m).all():
        return _parse_cells(file)
    return m


def _parse_cells(file: DatasetFile) -> np.ndarray:
    """``load_csv`` one cell at a time, raising ``ParseError`` at the first fault."""
    rows = []
    width = None
    for lineno, cells in _records(file):
        if not cells or (len(cells) == 1 and cells[0].strip() == ""):
            continue  # blank line
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"{file.path}: line {lineno}: expected {width} columns, found {len(cells)}"
            )
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{file.path}: line {lineno}, column {col}: not a number: {cell.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{file.path}: line {lineno}, column {col}: non-finite value {cell.strip()!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise ParseError(f"{file.path}: no data rows")
    return np.array(rows, dtype=np.float64)


def _records(file: DatasetFile):
    """Each CSV record after the header, with the physical line it starts on.

    A quoted cell may span lines, so a record's line is one past the last
    line of the record before it, not its position among the records.
    """
    with open(file.path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            for index, cells in enumerate(reader):
                if index or not file.has_header:
                    yield start, cells
                start = reader.line_num + 1
        except UnicodeDecodeError as exc:
            raise _not_utf8(file.path, exc) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    """The error for a file at ``path`` that failed to decode as UTF-8."""
    return ParseError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#x})")


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` by the one rule for output files: UTF-8, with ``\\n`` line ends on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(path, matrix, header=None) -> None:
    """Write a matrix as UTF-8 comma-separated values with lossless float formatting."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    # A float's repr is format_float's string, which never needs quoting; a
    # row that is not all floats (input of more than two dimensions) raises.
    body = "".join(",".join(map(float.__repr__, row)) + "\n" for row in m.tolist())
    head = StringIO()
    if header is not None:
        csv.writer(head, lineterminator="\n").writerow(header)
    _write_text(path, head.getvalue() + body)


def _float64s(text, key: str) -> np.ndarray:
    """A base64 string of little-endian float64 bytes as a read-only float64 view of the decoded bytes,
    naming ``key`` otherwise; the model class copies it into a native array of its own."""
    if not isinstance(text, str):
        raise ValueError(f"field {key!r} must be a base64 string of float64 bytes")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"field {key!r} is not valid base64: {exc}") from None
    if len(raw) % 8:
        raise ValueError(f"field {key!r} holds {len(raw)} bytes, not a whole number of float64 values")
    return np.frombuffer(raw, "<f8")


def _strings(values, key: str) -> tuple:
    """A JSON list of strings as a tuple, naming ``key`` otherwise."""
    if not isinstance(values, list) or not all(isinstance(s, str) for s in values):
        raise ValueError(f"field {key!r} must be a list of strings")
    return tuple(values)


def _decode_matrix(doc: dict, key: str) -> np.ndarray:
    d = doc[key]
    if not (isinstance(d, dict) and {"rows", "cols", "data"} <= d.keys()):
        raise ValueError(f"field {key!r} must be an object with rows, cols and data")
    rows, cols = d["rows"], d["cols"]
    if not (type(rows) is int and type(cols) is int and rows >= 0 and cols >= 0):
        raise ValueError(f"field {key!r} must have nonnegative integer rows and cols, got {rows!r}x{cols!r}")
    m = _float64s(d["data"], key)
    if m.size != rows * cols:
        raise ValueError(f"field {key!r} has {m.size} values for a {rows}x{cols} matrix")
    return m.reshape(rows, cols)


# Document kind -> model class. A document holds the class's init fields in
# declaration order; the class checks the arrays its AXES name when built.
_KINDS = {"linear": LinearModel, "projection": ProjectionRegressor}


def _encode(value, axes):
    """One init field as JSON: arrays (``axes`` names their dimensions) as base64 strings or matrix objects."""
    if axes is not None:
        # Little-endian, row-major bytes, whatever the array's own byte order and layout.
        a = np.ascontiguousarray(value, dtype="<f8")
        data = base64.b64encode(a.tobytes()).decode("ascii")
        if len(axes) == 1:
            return data
        return {"rows": a.shape[0], "cols": a.shape[1], "data": data}
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    return value


def model_to_dict(model) -> dict:
    """Serialize a fitted model to a JSON-compatible dict."""
    kind = next((k for k, cls in _KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": kind}
    for f in fields(model):
        if f.init:
            doc[f.name] = _encode(getattr(model, f.name), model.AXES.get(f.name))
    return doc


def model_from_dict(doc: dict):
    """Inverse of ``model_to_dict``."""
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ParseError("not a model document (missing or wrong 'format')")
    version = doc.get("version", MODEL_VERSION)
    if isinstance(version, bool) or version != MODEL_VERSION:
        raise ParseError(f"field 'version' is {version!r}; this reader reads version {MODEL_VERSION}")
    try:
        return _decode_model(doc)
    except KeyError as exc:
        raise ParseError(f"model document has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed model document: {exc}") from None


def _decode(doc: dict, f, axes):
    """The value of init field ``f`` in ``doc``: the inverse of ``_encode``."""
    if axes is not None:
        return _decode_matrix(doc, f.name) if len(axes) == 2 else _float64s(doc[f.name], f.name)
    if isinstance(f.default, tuple):  # a list of strings, optional in the document
        return _strings(doc.get(f.name, []), f.name)
    return doc[f.name]


def _decode_model(doc: dict):
    cls = _KINDS.get(doc["kind"])
    if cls is None:
        raise ValueError(f"unknown model kind {doc['kind']!r}")
    return cls(**{f.name: _decode(doc, f, cls.AXES.get(f.name)) for f in fields(cls) if f.init})


def save_model(path, model) -> None:
    # json.dumps, unlike json.dump, runs the C encoder for compact output.
    _write_text(path, json.dumps(model_to_dict(model), separators=(",", ":")) + "\n")


def _read_json(path):
    """The JSON value in ``path`` (UTF-8, byte-order mark optional); a fault is a ``ParseError`` naming ``path``."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def load_model(path):
    """Read a model document, with or without a UTF-8 byte-order mark; every ``ParseError`` names ``path``."""
    doc = _read_json(path)
    try:
        return model_from_dict(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_model_schema() -> dict:
    """The JSON schema the model documents conform to."""
    text = resources.files("robustpls").joinpath("schemas/model.schema.json").read_text()
    return json.loads(text)
