"""CSV ingestion and model persistence.

All numeric output uses the shortest decimal representation that
round-trips to the same binary float, so files re-parse losslessly.
Models serialize to a single JSON document discriminated by ``kind``
("rpls", "linear", "projection"); the schema ships with the package.
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
from .rpls import RplsConfig, RplsModel, RplsState

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
    """A delimited numeric text file holding one matrix."""

    path: str
    has_header: bool = False
    delimiter: str = ","


def format_float(v: float) -> str:
    """Shortest decimal string that parses back to the identical float."""
    return repr(float(v))


def load_csv(file) -> np.ndarray:
    """Read a matrix from a delimited file.

    Accepts a ``DatasetFile`` or a bare path (no header, comma
    delimiter). Every row must have the same number of cells and every
    cell must parse as a finite number; violations raise ``ParseError``
    with the offending line (and column) number.
    """
    if not isinstance(file, DatasetFile):
        file = DatasetFile(path=str(file))
    rows = []
    width = None
    with open(file.path, newline="") as fh:
        reader = csv.reader(fh, delimiter=file.delimiter)
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


def write_csv(path, matrix, header=None, delimiter: str = ",") -> None:
    """Write a matrix with lossless float formatting."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        if header is not None:
            writer.writerow(header)
        for row in m:
            writer.writerow([format_float(v) for v in row])


def _encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.float64)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": m.ravel().tolist()}


def _decode_matrix(doc: dict, key: str) -> np.ndarray:
    d = doc[key]
    m = np.array(d["data"], dtype=np.float64)
    if m.size != d["rows"] * d["cols"]:
        raise ValueError(f"field {key!r} has {m.size} values for a {d['rows']}x{d['cols']} matrix")
    return m.reshape(d["rows"], d["cols"])


def model_to_dict(model) -> dict:
    """Serialize a fitted model to a JSON-compatible dict."""
    if isinstance(model, RplsModel):
        s = model.state
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": "rpls",
            "n": int(s.q.shape[0]),
            "p": int(s.lambda_x.shape[0]),
            "r": int(s.lambda_y.shape[0]),
            "k": int(s.q.shape[1]),
            "q": _encode_matrix(s.q),
            "lambda_x": _encode_matrix(s.lambda_x),
            "lambda_y": _encode_matrix(s.lambda_y),
            "delta_x": _encode_matrix(s.delta_x),
            "delta_y": _encode_matrix(s.delta_y),
            "l": _encode_matrix(s.l),
            "m": _encode_matrix(s.m),
            "alpha1": float(s.alpha1),
            "alpha2": float(s.alpha2),
            "iterations": int(s.iteration),
            "converged": bool(model.converged),
            "residual_trace": [[int(i), float(r)] for i, r in model.residual_trace],
            "config": {
                "k": int(model.config.k),
                "lambda1": model.config.lambda1,
                "lambda2": model.config.lambda2,
                "alpha1_0": float(model.config.alpha1_0),
                "alpha2_0": float(model.config.alpha2_0),
                "rho": float(model.config.rho),
                "alpha_max": float(model.config.alpha_max),
                "tol": model.config.tol,
                "max_iter": int(model.config.max_iter),
                "center": model.config.center,
            },
            "x_means": np.asarray(model.x_means, dtype=np.float64).tolist(),
            "y_means": np.asarray(model.y_means, dtype=np.float64).tolist(),
        }
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
    try:
        return _decode_model(doc)
    except KeyError as exc:
        raise ParseError(f"model document has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed model document: {exc}") from None


# Axes of every array field, one letter per axis: fields sharing a letter
# must agree in that dimension.
_AXES = {
    "rpls": {"q": "nk", "lambda_x": "pk", "lambda_y": "rk", "delta_x": "np",
             "delta_y": "nr", "l": "np", "m": "nr", "x_means": "p", "y_means": "r"},
    "linear": {"theta": "pr", "x_means": "p", "y_means": "r"},
    "projection": {"lambda_x": "pk", "lambda_y": "rk", "x_means": "p", "y_means": "r"},
}


def _decode_arrays(doc: dict, kind: str) -> dict:
    """Every array field of a model kind, checked to agree in shape."""
    dims = {}
    arrays = {}
    for field, axes in _AXES[kind].items():
        a = _decode_matrix(doc, field) if len(axes) == 2 else np.array(doc[field], dtype=np.float64)
        expected = tuple(dims.setdefault(ax, size) for ax, size in zip(axes, a.shape))
        if a.ndim != len(axes) or a.shape != expected:
            raise ValueError(f"field {field!r} has shape {a.shape}, which does not fit the other fields")
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
    if kind == "rpls":
        x_means, y_means = arrays.pop("x_means"), arrays.pop("y_means")
        state = RplsState(
            **arrays,
            alpha1=float(doc["alpha1"]),
            alpha2=float(doc["alpha2"]),
            iteration=int(doc["iterations"]),
        )
        return RplsModel(
            state=state,
            config=RplsConfig(**doc["config"]),
            converged=bool(doc["converged"]),
            residual_trace=tuple((int(i), float(r)) for i, r in doc["residual_trace"]),
            x_means=x_means,
            y_means=y_means,
        )
    if kind == "linear":
        return LinearModel(
            **arrays,
            method_tag=doc["method_tag"],
            n_components=int(doc["n_components"]),
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
