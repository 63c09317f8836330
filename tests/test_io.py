"""CSV parsing, float formatting, and model JSON round-trip tests."""

import base64
import copy
import csv
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_owns_read_only_arrays, b64_f8, rebuilt
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustpls import io as io_mod
from robustpls.baselines import LinearModel, fit_mlr, fit_pls_nipals, predict
from robustpls.datagen import SPARSE_RANDOM, OutlierSpec, SynthSpec, generate, inject_sparse
from robustpls.errors import ParseError
from robustpls.evaluate import confidence_ellipse, run_experiment
from robustpls.io import (
    DatasetFile,
    _parse_cells,
    format_float,
    load_csv,
    load_model,
    load_model_schema,
    model_from_dict,
    model_to_dict,
    save_model,
    write_csv,
)
from robustpls.projection import ProjectionRegressor, from_pls, from_rpls, predict_projection
from robustpls.rpls import RplsConfig, fit


def linear_doc(**fields):
    """A valid 3x2 linear model document, with ``fields`` replaced."""
    doc = {"format": "robustpls-model", "version": 2, "kind": "linear",
           "theta": {"rows": 3, "cols": 2, "data": b64_f8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])},
           "x_means": b64_f8([0.0, 0.0, 0.0]), "y_means": b64_f8([0.0, 0.0]), "method_tag": "MLR",
           "n_components": 0}
    doc.update(fields)
    return doc


def column_doc(theta=(), **fields):
    """A valid linear document with a 3x1 theta; ``theta`` replaces its matrix keys, ``fields`` the rest."""
    doc = linear_doc(theta={"rows": 3, "cols": 1, "data": b64_f8([1.0, 2.0, 3.0]), **dict(theta)},
                     y_means=b64_f8([0.0]))
    doc.update(fields)
    return doc


def projection_doc(**fields):
    """A valid projection document (p=3, r=1, k=2), with ``fields`` replaced."""
    doc = {"format": "robustpls-model", "version": 2, "kind": "projection",
           "lambda_x": {"rows": 3, "cols": 2, "data": b64_f8([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])},
           "lambda_y": {"rows": 1, "cols": 2, "data": b64_f8([1.0, 2.0])},
           "x_means": b64_f8([0.0, 0.0, 0.0]), "y_means": b64_f8([0.0]), "source_tag": "RPLS"}
    doc.update(fields)
    return doc


class TestCsv:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_csv(f), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("a,b,c\n1.5,2.5,3.5\n")
        m = load_csv(DatasetFile(str(f), has_header=True))
        np.testing.assert_array_equal(m, [[1.5, 2.5, 3.5]])

    def test_round_trip_lossless(self, tmp_path, rng):
        m = rng.standard_normal((7, 4)) * np.pi * 10.0 ** rng.integers(-300, 300, (7, 4))
        m[0] = [-0.0, 5e-324, 1e308, 0.1]
        f = tmp_path / "m.csv"
        write_csv(f, m, header=["a,b", "c", "d", "e"])
        assert load_csv(DatasetFile(str(f), has_header=True)).tobytes() == m.tobytes()

    def test_ragged_rows_error_has_line(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(f)

    def test_non_numeric_error_has_position(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match="line 2, column 2"):
            load_csv(f)

    @pytest.mark.parametrize("text, has_header, match", [
        ('"1\n",2\n3,x\n', False, "line 3, column 2: not a number: 'x'"),
        ('1,2\n"3\n\n",4\n5,6,7\n', False, "line 5: expected 2 columns, found 3"),
        ('"a\nb",c\n1,2\n3,inf\n', True, "line 4, column 2: non-finite"),
        ('1,2\r\n\r\n"3\r\n",x\r\n', False, "line 3, column 2: not a number"),
    ], ids=["quoted-newline", "ragged-after-two", "multiline-header", "crlf-blank"])
    def test_error_names_physical_line(self, tmp_path, text, has_header, match):
        # A quoted cell may span lines; the message counts lines, not records.
        f = tmp_path / "m.csv"
        f.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError, match=match):
            load_csv(DatasetFile(str(f), has_header=has_header))

    @pytest.mark.parametrize("data", [b"1,2\n3,\xb5\n", b"\xff\xfe1\x002\x00\n"], ids=["latin-1", "utf-16"])
    def test_not_utf8_rejected(self, tmp_path, data):
        f = tmp_path / "m.csv"
        f.write_bytes(data)
        with pytest.raises(ParseError, match=f"^{f}: not UTF-8 text"):
            load_csv(f)

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,inf\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_csv(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(f)

    def test_format_float_shortest_round_trip(self):
        for v in [0.1, 1 / 3, np.pi, 1e-300, -7.25, 2.0]:
            assert float(format_float(v)) == float(v)

    def test_byte_order_mark_ignored(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("1.0,2\n3,-0.5\n", encoding="utf-8")
        marked.write_text("1.0,2\n3,-0.5\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_csv(marked).tobytes() == load_csv(plain).tobytes()
        quoted = tmp_path / "quoted.csv"  # a file only the cell parser reads
        quoted.write_text('"1.0",2\n3,-0.5\n', encoding="utf-8-sig")
        assert load_csv(quoted).tobytes() == load_csv(plain).tobytes()

    def test_byte_order_mark_before_header(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("a,b\n1,2\n", encoding="utf-8-sig")
        np.testing.assert_array_equal(load_csv(DatasetFile(str(f), has_header=True)), [[1.0, 2.0]])
        f.write_text("a,b\n", encoding="utf-8-sig")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(DatasetFile(str(f), has_header=True))

    @pytest.mark.parametrize("text, has_header", [
        ("1,2\n3,4\n", False), ("1.5,2.5,3.5", False), ("1\n2\n3\n", False),
        ("a,b\n-0.0,5e-324\n", True), ("\r\n1,2\r\n\r\n3,4", False),
    ])
    def test_plain_file_takes_one_vectorised_parse(self, tmp_path, monkeypatch, text, has_header):
        f = tmp_path / "m.csv"
        f.write_text(text)
        expected = _parse_cells(DatasetFile(str(f), has_header=has_header))

        def cell_parser_called(file):
            raise AssertionError(f"cell parser ran on {file.path}")

        monkeypatch.setattr(io_mod, "_parse_cells", cell_parser_called)
        got = load_csv(DatasetFile(str(f), has_header=has_header))
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text, expected", [
        ('"1",2\n', [[1.0, 2.0]]), ("1_0,2\n", [[10.0, 2.0]]), ("1,\u0662\n", [[1.0, 2.0]]),
        ("1,2\n  \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ], ids=["quoted", "underscore", "unicode-digit", "whitespace-line"])
    def test_cell_parser_spellings_still_load(self, tmp_path, text, expected):
        # These fail the vectorised parse, but the cells are float() input.
        f = tmp_path / "m.csv"
        f.write_text(text, encoding="utf-8")
        np.testing.assert_array_equal(load_csv(f), expected)


def _old_write_csv(path, matrix, header=None):
    """The cell-by-cell writer ``write_csv`` replaced (now opening UTF-8 explicitly), kept as its byte oracle."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in m:
            writer.writerow([format_float(v) for v in row])


class TestWriteCsv:
    EDGE = np.array([[-0.0, 5e-324, 1e308], [0.1, 2.0, -3.0], [-1e308, 1e-300, 1 / 3]])

    @pytest.mark.parametrize("matrix, header", [
        (EDGE, None),
        (EDGE, ["a,b", "c", 'say "hi"']),
        (EDGE[:1], None),
        ([0.5, -0.0, 7.0], ["x", "y", "z"]),
        (np.arange(12.0).reshape(6, 2), ["score_1", "score_2"]),
        (np.empty((0, 2)), ["iteration", "primal_residual"]),
        (np.array([[np.nan, np.inf, -np.inf]]), None),
    ], ids=["edges", "quoted-header", "one-row", "vector", "integral", "no-rows", "non-finite"])
    def test_bytes_match_cell_writer(self, tmp_path, matrix, header):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_csv(new, matrix, header=header)
        _old_write_csv(old, matrix, header=header)
        assert new.read_bytes() == old.read_bytes()

    def test_more_than_two_dimensions_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "m.csv", np.zeros((2, 2, 2)))

    def test_header_cell_with_comma_is_quoted(self, tmp_path):
        f = tmp_path / "m.csv"
        write_csv(f, [[1.0, 2.0]], header=["a,b", "c"])
        assert f.read_bytes() == b'"a,b",c\n1.0,2.0\n'


class TestModelJson:
    def test_compact_document(self, tmp_path, rng):
        model = fit_mlr(rng.standard_normal((20, 5)), rng.standard_normal((20, 2)))
        path = tmp_path / "model.json"
        save_model(path, model)
        assert path.read_text() == json.dumps(model_to_dict(model), separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("model, text", [
        (LinearModel(theta=np.array([[1.5, -2.0], [0.25, 3.0], [0.0, -0.5]]), x_means=np.array([1.0, 2.0, 3.0]),
                     y_means=np.array([-1.0, 0.5]), method_tag="PCR", n_components=2, notes=("a note",)),
         '{"format":"robustpls-model","version":2,"kind":"linear",'
         '"theta":{"rows":3,"cols":2,"data":"AAAAAAAA+D8AAAAAAAAAwAAAAAAAANA/AAAAAAAACEAAAAAAAAAAAAAAAAAAAOC/"},'
         '"x_means":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","y_means":"AAAAAAAA8L8AAAAAAADgPw==",'
         '"method_tag":"PCR","n_components":2,"notes":["a note"]}\n'),
        (ProjectionRegressor(lambda_x=np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.0]]),
                             lambda_y=np.array([[0.5, -1.0]]), x_means=np.array([0.0, 1.0, -2.0]),
                             y_means=np.array([4.0]), source_tag="PLS", notes=("a note",)),
         '{"format":"robustpls-model","version":2,"kind":"projection",'
         '"lambda_x":{"rows":3,"cols":2,"data":"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAEAAAAAAAADgPwAAAAAAAAAA"},'
         '"lambda_y":{"rows":1,"cols":2,"data":"AAAAAAAA4D8AAAAAAADwvw=="},'
         '"x_means":"AAAAAAAAAAAAAAAAAADwPwAAAAAAAADA","y_means":"AAAAAAAAEEA=",'
         '"source_tag":"PLS","notes":["a note"]}\n'),
    ], ids=["linear", "projection"])
    def test_document_bytes_pinned(self, tmp_path, model, text):
        # Every key, its order and each array's bytes, as written files hold them.
        path = tmp_path / "model.json"
        save_model(path, model)
        assert path.read_text() == text

    def test_linear_round_trip(self, tmp_path, rng):
        x = rng.standard_normal((20, 5))
        y = rng.standard_normal((20, 2))
        model = fit_mlr(x, y)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.theta, model.theta)
        assert loaded.method_tag == "MLR"
        np.testing.assert_array_equal(predict(loaded, x), predict(model, x))

    def test_projection_round_trip_identical_predictions(self, tmp_path, rng):
        x = rng.standard_normal((25, 6))
        y = rng.standard_normal((25, 2))
        factors, linear = fit_pls_nipals(x, y, k=3)
        reg = from_pls(factors, linear.x_means, linear.y_means)
        path = tmp_path / "model.json"
        save_model(path, reg)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            predict_projection(loaded, x), predict_projection(reg, x)
        )
        assert loaded.source_tag == "PLS"

    def test_rpls_projection_round_trip(self, tmp_path):
        x, y, _ = generate(SynthSpec(n=40, p=10, r=2, k_true=3, n_collinear=2, seed=32))
        model = fit(x, y, RplsConfig(k=3))
        reg = from_rpls(model)
        path = tmp_path / "model.json"
        save_model(path, reg)
        loaded = load_model(path)
        assert loaded.source_tag == "RPLS"
        np.testing.assert_array_equal(loaded.w, reg.w)
        np.testing.assert_array_equal(
            predict_projection(loaded, x), predict_projection(reg, x)
        )
        # The solver state has no document kind: a library caller saves from_rpls(model).
        with pytest.raises(TypeError, match="RplsModel"):
            model_to_dict(model)

    def test_documents_validate_against_schema(self, tmp_path, rng):
        jsonschema = pytest.importorskip("jsonschema")
        schema = load_model_schema()
        x, y, _ = generate(SynthSpec(n=20, p=6, r=2, k_true=2, n_collinear=1, seed=33))
        docs = [
            model_to_dict(from_rpls(fit(x, y, RplsConfig(k=2)))),
            model_to_dict(fit_mlr(x, y)),
        ]
        factors, linear = fit_pls_nipals(x, y, k=2)
        docs.append(model_to_dict(from_pls(factors, linear.x_means, linear.y_means)))
        for doc in docs:
            # Through JSON text, as a reader would see it.
            jsonschema.validate(json.loads(json.dumps(doc)), schema)

    def test_not_utf8_rejected(self, tmp_path):
        # Read in the locale's encoding, this byte used to escape as a UnicodeDecodeError.
        p = tmp_path / "model.json"
        p.write_bytes(b'{"format": "robustpls-model", "notes": ["\xb5"]}\n')
        with pytest.raises(ParseError, match=rf"^{p}: not UTF-8 text \(byte 0xb5\)$"):
            load_model(p)

    def test_bad_documents_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        with pytest.raises(ParseError):
            load_model(p)
        p.write_text("not json")
        with pytest.raises(ParseError):
            load_model(p)
        with pytest.raises(ParseError):
            model_from_dict({"format": "robustpls-model", "version": 2, "kind": "mystery"})
        # The solver-state kind that earlier releases wrote is no longer read.
        with pytest.raises(ParseError, match="unknown model kind 'rpls'"):
            model_from_dict({"format": "robustpls-model", "version": 2, "kind": "rpls"})

    @pytest.mark.parametrize("doc, match", [
        ({"format": "robustpls-model", "kind": "linear"}, "'theta'"),
        ({"format": "robustpls-model", "kind": "linear",
          "theta": {"rows": 2, "cols": 3, "data": b64_f8([1.0, 2.0, 3.0, 4.0, 5.0])},
          "x_means": b64_f8([0.0, 0.0]), "y_means": b64_f8([0.0, 0.0, 0.0]), "method_tag": "MLR",
          "n_components": 0}, "'theta'"),
        # The rest are well formed JSON that the shipped schema rejects.
        (linear_doc(version=7), "'version'"),
        (linear_doc(version=True), "'version'"),
        (linear_doc(n_components=2.5), "n_components"),
        (linear_doc(n_components=True), "n_components"),
        (linear_doc(n_components=-1), "n_components"),
        (projection_doc(source_tag="OLS"), "source_tag"),
        (column_doc(x_means=["0.5", "1e3", "0"]), "'x_means'"),
        (column_doc({"data": "1,2,3"}), "'theta' is not valid base64"),
        (column_doc({"data": True}), "'theta' must be a base64 string"),
        (column_doc({"data": [[1], [2], [3]]}), "'theta' must be a base64 string"),
        (column_doc(y_means=False), "'y_means' must be a base64 string"),
        (column_doc({"rows": "3"}), "'theta' must have nonnegative integer rows"),
        (column_doc({"rows": True}), "'theta' must have nonnegative integer rows"),
        (column_doc({"rows": -3, "cols": -1}), "'theta' must have nonnegative integer rows"),
        (linear_doc(theta=5), "'theta' must be an object with rows, cols and data"),
        (linear_doc(theta="abc"), "'theta' must be an object with rows, cols and data"),
        (linear_doc(theta=None), "'theta' must be an object with rows, cols and data"),
    ], ids=["missing-field", "data-length", "version-7", "version-bool", "n_components-fraction",
            "n_components-bool", "n_components-negative", "source_tag-unknown", "x_means-strings",
            "data-string", "data-bool", "data-nested", "y_means-bool", "rows-string", "rows-bool",
            "rows-negative", "theta-int", "theta-string", "theta-null"])
    def test_malformed_document_names_field(self, doc, match):
        with pytest.raises(ParseError, match=match):
            model_from_dict(doc)

    def test_column_doc_is_valid(self):
        # The malformed cases above each break one field of this document.
        model = model_from_dict(column_doc())
        assert model.theta.shape == (3, 1) and model.y_means.shape == (1,)
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(column_doc(), load_model_schema())

    def test_versionless_document_is_valid(self):
        # A document without a version reads as the current one, and the schema agrees.
        doc = {k: v for k, v in linear_doc().items() if k != "version"}
        assert model_from_dict(doc).method_tag == "MLR"
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(doc, load_model_schema())

    @pytest.mark.parametrize("field, value", [
        ("x_means", b64_f8([0.0, 0.0])),
        ("y_means", b64_f8([0.0, 0.0, 0.0])),
        ("x_means", {"rows": 1, "cols": 3, "data": b64_f8([0.0, 0.0, 0.0])}),
        ("y_means", b64_f8([0.0])),
    ], ids=["x_means-length", "y_means-length", "x_means-2d", "y_means-scalar"])
    def test_shapes_cross_checked(self, field, value):
        assert model_from_dict(linear_doc()).theta.shape == (3, 2)
        with pytest.raises(ParseError, match=f"'{field}'"):
            model_from_dict(linear_doc(**{field: value}))

    def test_rpls_shapes_cross_checked(self, rng):
        # The saved regressor of a robust fit: lambda_y must have lambda_x's k columns.
        x = rng.standard_normal((12, 5))
        doc = model_to_dict(from_rpls(fit(x, x[:, :2], RplsConfig(k=2, max_iter=3))))
        assert model_from_dict(doc).lambda_x.shape == (5, 2)
        doc["lambda_y"] = {"rows": 2, "cols": 3, "data": b64_f8([0.0] * 6)}
        with pytest.raises(ParseError, match="'lambda_y'"):
            model_from_dict(doc)

    @pytest.mark.parametrize("kind, field, value", [
        ("linear", "theta", "nan"),
        ("linear", "x_means", "inf"),
        ("projection", "lambda_y", "-inf"),
        ("projection", "y_means", "nan"),
        ("projection", "lambda_x", "nan"),
        ("projection", "lambda_x", "inf"),
        ("projection", "x_means", "nan"),
    ])
    def test_non_finite_document_rejected(self, tmp_path, rng, kind, field, value):
        # Loading it would let predict write all-nan rows.
        x = rng.standard_normal((12, 5))
        y = x[:, :2] + 0.1 * rng.standard_normal((12, 2))
        if kind == "linear":
            model = fit_mlr(x, y)
        else:
            factors, linear = fit_pls_nipals(x, y, k=2)
            model = from_pls(factors, linear.x_means, linear.y_means)
        doc = model_to_dict(model)
        a = getattr(model, field).copy()
        a.flat[0] = float(value)
        if isinstance(doc[field], dict):
            doc[field]["data"] = b64_f8(a)
        else:
            doc[field] = b64_f8(a)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"'{field}' has a non-finite entry"):
            load_model(path)

    @pytest.mark.parametrize("notes", ["abc", [1, 2], {"a": "b"}], ids=["string", "numbers", "object"])
    def test_notes_must_be_list_of_strings(self, notes):
        # A string used to load as a tuple of its characters.
        assert model_from_dict(linear_doc(notes=["ok"])).notes == ("ok",)
        with pytest.raises(ParseError, match="'notes'"):
            model_from_dict(linear_doc(notes=notes))

    def test_byte_order_mark_accepted(self, tmp_path, rng):
        # As load_csv reads a spreadsheet's "UTF-8 with BOM" export.
        model = fit_mlr(rng.standard_normal((20, 5)), rng.standard_normal((20, 2)))
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        save_model(plain, model)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_model(marked).theta.tobytes() == model.theta.tobytes()

    def test_document_error_names_file(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(linear_doc(theta=5)))
        with pytest.raises(ParseError, match=rf"^{p}: malformed model document: field 'theta' must be an object"):
            load_model(p)

    def test_version_1_refused(self, tmp_path):
        # Decimal arrays are not read any more; refitting writes the current version.
        p = tmp_path / "model.json"
        p.write_text(V1_LINEAR)
        with pytest.raises(ParseError, match=rf"^{p}: field 'version' is 1; this reader reads version 2$"):
            load_model(p)


# A document as the decimal-text format, version 1, wrote it.
V1_LINEAR = ('{"format":"robustpls-model","version":1,"kind":"linear",'
             '"theta":{"rows":3,"cols":2,"data":[1.5,-2.0,0.25,3.0,0.0,-0.5]},"x_means":[1.0,2.0,3.0],'
             '"y_means":[-1.0,0.5],"method_tag":"PCR","n_components":2,"notes":["a note"]}\n')

FIXTURE = Path(__file__).parent / "data" / "projection_model.json"


def fixture_model():
    """The model ``tests/data/projection_model.json`` holds: p = 3, k = 2, r = 1."""
    return ProjectionRegressor(
        lambda_x=np.array([[0.1, -0.0], [1 / 3, 2.0], [-1e-300, 5e-324]]), lambda_y=np.array([[0.5, -1.25]]),
        x_means=np.array([1.0, -2.5, 1e300]), y_means=np.array([87.0]), source_tag="RPLS",
        notes=("removed 1 unstable latent direction(s)",))


class TestModelFormat:
    def test_fixture_pins_bytes(self, tmp_path):
        model = fixture_model()
        path = tmp_path / "model.json"
        save_model(path, model)
        assert path.read_bytes() == FIXTURE.read_bytes()
        loaded = load_model(FIXTURE)
        for name in ProjectionRegressor.AXES:
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes(), name
        assert (loaded.source_tag, loaded.notes) == (model.source_tag, model.notes)

    def test_fixture_field_reads_in_plain_numpy(self):
        # The recipe the README gives for reading one field without this package.
        doc = json.loads(FIXTURE.read_text())
        x_means = np.frombuffer(base64.b64decode(doc["x_means"]), "<f8")
        assert x_means.tobytes() == fixture_model().x_means.tobytes()

    def test_schema_accepts_fixture(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(json.loads(FIXTURE.read_text()), load_model_schema())

    @pytest.mark.parametrize("doc, match", [
        (json.loads(V1_LINEAR), "'version' is 1"),
        (projection_doc(lambda_y={"rows": 1, "cols": 2, "data": [1.0, 2.0]}), "'lambda_y' must be a base64 string"),
        (projection_doc(lambda_y={"rows": 1, "cols": 2, "data": "AAAAAAAA4D8AAAAAAAD0v-=="}), "'lambda_y' is not valid"),
        (projection_doc(y_means="AAAAAAAA4D8*"), "'y_means' is not valid"),
        (projection_doc(y_means="AAAAAAAAEEA"), "'y_means' is not valid"),
        (projection_doc(y_means="AAAAAAAAEEA=="), "'y_means' is not valid"),
        (projection_doc(y_means="AAAAAAAA=EEA"), "'y_means' is not valid"),
        (projection_doc(x_means="AAAAAAAAAAAAAAAA\nAADwPwAAAAAAAADA"), "'x_means' is not valid"),
        (projection_doc(lambda_y={"rows": 0, "cols": 2, "data": ""}, y_means=""), "'y_means' is empty"),
        (projection_doc(lambda_x={"rows": 0, "cols": 2, "data": ""}, x_means=""), "'x_means' is empty"),
    ], ids=["version-1", "data-list", "data-outside-alphabet", "vector-outside-alphabet", "padding-missing",
            "padding-excess", "padding-inside", "line-break", "no-response-column", "no-predictor-column"])
    def test_schema_and_loader_reject(self, doc, match):
        with pytest.raises(ParseError, match=match):
            model_from_dict(doc)
        jsonschema = pytest.importorskip("jsonschema")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, load_model_schema())

    @pytest.mark.parametrize("data, match", [
        (b64_f8([1.0])[:-4], "holds 6 bytes, not a whole number of float64 values"),
        (b64_f8([1.0, 2.0, 3.0]), "has 3 values for a 1x2 matrix"),
    ], ids=["partial-value", "wrong-count"])
    def test_byte_count_checked(self, data, match):
        # Valid base64 that the schema accepts, of the wrong length.
        with pytest.raises(ParseError, match=f"'lambda_y' {match}"):
            model_from_dict(projection_doc(lambda_y={"rows": 1, "cols": 2, "data": data}))

    def test_loaded_arrays_are_read_only_native_copies(self):
        # np.frombuffer alone would give a view of the decoded bytes, which owns no data.
        model = model_from_dict(projection_doc())
        for name in ProjectionRegressor.AXES:
            a = getattr(model, name)
            assert a.dtype == np.float64 and a.dtype.isnative and a.flags.c_contiguous, name
            assert a.flags.owndata and not a.flags.writeable, name


# Values at the edges of float64: signed zero, subnormals and the largest finite magnitudes.
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1.7976931348623157e308,
               -1.7976931348623157e308]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def models(draw):
    """A LinearModel or a ProjectionRegressor with drawn shapes (k may be 0) and values."""
    p, r, k = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(0, 4))

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(VALUES, min_size=size, max_size=size)), dtype=np.float64).reshape(shape)

    notes = tuple(draw(st.lists(st.text(max_size=6), max_size=2)))
    if draw(st.booleans()):
        return LinearModel(theta=array(p, r), x_means=array(p), y_means=array(r),
                           method_tag=draw(st.sampled_from(["MLR", "PCR", "PLSR"])), n_components=k, notes=notes)
    return ProjectionRegressor(lambda_x=array(p, k), lambda_y=array(r, k), x_means=array(p), y_means=array(r),
                               source_tag=draw(st.sampled_from(["RPLS", "PLS"])), notes=notes)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(models())
def test_model_round_trip_is_exact(tmp_path, model):
    path = tmp_path / "model.json"
    save_model(path, model)
    text = path.read_bytes()
    loaded = load_model(path)
    assert type(loaded) is type(model)
    for name in model.AXES:
        a, b = getattr(loaded, name), getattr(model, name)
        assert a.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    save_model(path, model)
    assert path.read_bytes() == text  # the same model writes the same bytes
    assert_owns_read_only_arrays(loaded)
    row = np.linspace(-1.0, 1.0, len(model.x_means))[None, :]
    for convert in (lambda a: a.astype(">f8"), np.asfortranarray, lambda a: np.asfortranarray(a.astype(">f8")),
                    lambda a: a.tolist()):
        again = rebuilt(model, convert)
        assert_owns_read_only_arrays(again)
        save_model(path, again)
        assert path.read_bytes() == text
        # Built from another layout or from lists, a model predicts like its loaded copy.
        assert _predict(again, row).tobytes() == _predict(loaded, row).tobytes()


def _reloaded(tmp_path, model):
    """``model`` saved and loaded again."""
    path = tmp_path / "model.json"
    save_model(path, model)
    return load_model(path)


def test_caller_edits_move_no_linear_model(tmp_path):
    # The model keeps copies: writing into the caller's arrays afterwards
    # changes neither its fields nor its compiled offset, so it and its
    # reloaded copy still predict (4 - 1) * 2 + (5 - 1) * 3 + 0.5.
    theta, x_means, y_means = np.array([[2.0], [3.0]]), np.array([1.0, 1.0]), np.array([0.5])
    model = LinearModel(theta=theta, x_means=x_means, y_means=y_means, method_tag="MLR")
    row = [[4.0, 5.0]]
    assert predict(model, row).tolist() == [[18.5]]
    x_means[:] = 5.0
    theta[0, 0] = 7.0
    assert model.x_means.tolist() == [1.0, 1.0] and model.theta.tolist() == [[2.0], [3.0]]
    assert predict(model, row).tolist() == [[18.5]]
    assert predict(_reloaded(tmp_path, model), row).tolist() == [[18.5]]


def test_caller_edits_move_no_projection_regressor(tmp_path):
    lambda_x, lambda_y = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.0]]), np.array([[0.5, -1.0]])
    x_means, y_means = np.array([0.0, 1.0, -2.0]), np.array([4.0])
    model = ProjectionRegressor(lambda_x=lambda_x, lambda_y=lambda_y, x_means=x_means, y_means=y_means,
                                source_tag="RPLS")
    row = [[1.0, 2.0, 3.0]]
    before = predict_projection(model, row)
    for a in (lambda_x, lambda_y, x_means, y_means):
        a[...] = 5.0
    assert model.lambda_x.tolist() == [[1.0, 0.0], [0.0, 2.0], [0.5, 0.0]] and model.y_means.tolist() == [4.0]
    assert predict_projection(model, row).tobytes() == before.tobytes()
    assert predict_projection(_reloaded(tmp_path, model), row).tobytes() == before.tobytes()


def _library_instances():
    """One instance of each type that holds arrays, keyed by type name, each as the library makes it."""
    x, y, truth = generate(SynthSpec(n=20, p=8, r=2, k_true=3, n_collinear=2, seed=1))
    _, _, mask = inject_sparse(x, y, OutlierSpec(kind=SPARSE_RANDOM, seed=1))
    model = fit(x, y, RplsConfig(k=3))
    factors, linear = fit_pls_nipals(x, y, 3)
    report = run_experiment(x, y, (range(16), range(16, 20)), ["MLR"])
    found = [model.state, model, linear, factors, from_rpls(model), truth, mask,
             confidence_ellipse(factors.scores[:, :2]), report.results["MLR"], report]
    return {type(a).__name__: a for a in found}


ARRAY_HOLDERS = ("RplsState", "RplsModel", "LinearModel", "PlsFactors", "ProjectionRegressor", "SynthTruth",
                 "CorruptionMask", "ConfidenceEllipse", "MethodResult", "ExperimentReport")


@pytest.fixture(scope="module")
def twin_instances():
    """Two independent builds of ``_library_instances``: equal fields, distinct objects and arrays."""
    return _library_instances(), _library_instances()


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(twin_instances, name):
    # Field equality would compare arrays, whose truth value is ambiguous, and
    # a field hash would hash arrays, which are unhashable; these types keep
    # object identity instead, so comparing two fits answers and never raises.
    a, fresh = twin_instances[0][name], twin_instances[1][name]
    shallow = copy.copy(a)
    assert a == a and not a != a
    assert a != fresh and not a == fresh
    assert hash(a) == hash(a) == object.__hash__(a)
    assert a != shallow and not a == shallow
    assert a in {a} and shallow not in {a}
    assert [shallow, a].index(a) == 1


@pytest.mark.parametrize("make", [
    lambda: RplsConfig(k=3, tol=1e-6),
    lambda: SynthSpec(n=60, p=401, r=1, seed=3),
    lambda: OutlierSpec(kind=SPARSE_RANDOM, fraction=0.1, seed=2),
    lambda: DatasetFile("x.csv", has_header=True),
], ids=["RplsConfig", "SynthSpec", "OutlierSpec", "DatasetFile"])
def test_value_types_compare_and_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and b in {a}


def _predict(model, x):
    """The raw prediction of either model kind, non-finite where the drawn values overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return predict(model, x) if isinstance(model, LinearModel) else predict_projection(model, x)
