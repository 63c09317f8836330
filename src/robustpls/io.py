"""CSV ingestion and model persistence.

All numeric output uses the shortest decimal representation that
round-trips to the same binary float, so files re-parse losslessly.
Models serialize to a single JSON document discriminated by ``kind``:
"linear" (a coefficient matrix) or "projection" (the loadings a
``ProjectionRegressor`` compiles). A document holds only what prediction
reads, so a robust fit is saved as its projection regressor. The schema
ships with the package.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
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
MODEL_VERSION = 1


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

    Accepts a ``DatasetFile`` or a bare path (no header). Every row must
    have the same number of cells and every cell must parse as a finite
    number; violations raise ``ParseError`` with the offending line (and
    column) number.
    """
    if not isinstance(file, DatasetFile):
        file = DatasetFile(path=str(file))
    rows = []
    width = None
    with open(file.path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if file.has_header and lineno == 1:
                continue
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


def write_csv(path, matrix, header=None) -> None:
    """Write a matrix as comma-separated values with lossless float formatting."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in m:
            writer.writerow([format_float(v) for v in row])


def _encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.float64)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": m.ravel().tolist()}


def _numbers(values, key: str) -> np.ndarray:
    """A JSON list of numbers as float64. A string, boolean or nested list fails, naming ``key``."""
    # One pass over the parsed list: json reads every number as an int or a float.
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise ValueError(f"field {key!r} must be a list of numbers")
    return np.array(values, dtype=np.float64)


def _decode_matrix(doc: dict, key: str) -> np.ndarray:
    d = doc[key]
    rows, cols = d["rows"], d["cols"]
    if not (type(rows) is int and type(cols) is int and rows >= 0 and cols >= 0):
        raise ValueError(f"field {key!r} must have nonnegative integer rows and cols, got {rows!r}x{cols!r}")
    m = _numbers(d["data"], key)
    if m.size != rows * cols:
        raise ValueError(f"field {key!r} has {m.size} values for a {rows}x{cols} matrix")
    return m.reshape(rows, cols)


def model_to_dict(model) -> dict:
    """Serialize a fitted model to a JSON-compatible dict."""
    if isinstance(model, LinearModel):
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": "linear",
            "theta": _encode_matrix(model.theta),
            "x_means": np.asarray(model.x_means, dtype=np.float64).tolist(),
            "y_means": np.asarray(model.y_means, dtype=np.float64).tolist(),
            "method_tag": model.method_tag,
            "n_components": int(model.n_components),
            "notes": list(model.notes),
        }
    if isinstance(model, ProjectionRegressor):
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": "projection",
            "lambda_x": _encode_matrix(model.lambda_x),
            "lambda_y": _encode_matrix(model.lambda_y),
            "x_means": np.asarray(model.x_means, dtype=np.float64).tolist(),
            "y_means": np.asarray(model.y_means, dtype=np.float64).tolist(),
            "source_tag": model.source_tag,
            "notes": list(model.notes),
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


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


# Axes of every array field, one letter per axis: fields sharing a letter
# must agree in that dimension.
_AXES = {
    "linear": {"theta": "pr", "x_means": "p", "y_means": "r"},
    "projection": {"lambda_x": "pk", "lambda_y": "rk", "x_means": "p", "y_means": "r"},
}


def _decode_arrays(doc: dict, kind: str) -> dict:
    """Every array field of a model kind, checked to be finite and to agree in shape."""
    dims = {}
    arrays = {}
    for field, axes in _AXES[kind].items():
        a = _decode_matrix(doc, field) if len(axes) == 2 else _numbers(doc[field], field)
        expected = tuple(dims.setdefault(ax, size) for ax, size in zip(axes, a.shape))
        if a.shape != expected:
            raise ValueError(f"field {field!r} has shape {a.shape}, which does not fit the other fields")
        if not np.isfinite(a).all():
            raise ValueError(f"field {field!r} has a non-finite entry")
        arrays[field] = a
    return arrays


def _notes(doc: dict) -> tuple:
    notes = doc.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(s, str) for s in notes):
        raise ValueError("field 'notes' must be a list of strings")
    return tuple(notes)


def _decode_model(doc: dict):
    kind = doc["kind"]
    if kind not in _AXES:
        raise ValueError(f"unknown model kind {kind!r}")
    arrays = _decode_arrays(doc, kind)
    if kind == "linear":
        return LinearModel(
            **arrays,
            method_tag=doc["method_tag"],
            n_components=doc["n_components"],
            notes=_notes(doc),
        )
    return ProjectionRegressor(**arrays, source_tag=doc["source_tag"], notes=_notes(doc))


def save_model(path, model) -> None:
    # json.dumps, unlike json.dump, runs the C encoder for compact output.
    text = json.dumps(model_to_dict(model), separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_dict(doc)


def load_model_schema() -> dict:
    """The JSON schema the model documents conform to."""
    text = resources.files("robustpls").joinpath("schemas/model.schema.json").read_text()
    return json.loads(text)
