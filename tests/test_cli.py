"""End-to-end command-line tests."""

import argparse
import builtins
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import b64_f8, svd_no_convergence

import robustpls
from robustpls import linalg
from robustpls.cli import HYPER_KEYS, _rpls_config, build_parser, main
from robustpls.datagen import (
    LOW_TAIL,
    SPARSE_RANDOM,
    OutlierSpec,
    SynthSpec,
    generate,
    inject_low_tail,
    inject_sparse,
    rng_from_seed,
)
from robustpls.errors import ConfigError, RplsError
from robustpls.evaluate import METHODS, _check_methods, nmse, run_experiment
from robustpls.io import DatasetFile, load_csv, load_model, load_model_schema, write_csv
from robustpls.rpls import CENTER_MODES, RplsConfig, fit


def run_cli(*args):
    return main(list(args))


def flag(dest, default=None, type=None, required=False, choices=None):
    """What a flag of ``build_parser`` declares: its dest, default, type, ``required`` rule and choices."""
    return dest, default, type, required, choices


HELP = {("-h", "--help"): flag("help", argparse.SUPPRESS)}
OUT_DIR = {("--out-dir",): flag("out_dir", required=True)}
HAS_HEADER = {("--has-header",): flag("has_header", False)}
XY = {("--x",): flag("x", required=True), ("--y",): flag("y", required=True)}
OUTLIER_FLAGS = {
    ("--outliers",): flag("outliers", "none", choices=("none", "sparse", "lowtail")),
    ("--outlier-fraction",): flag("outlier_fraction", OutlierSpec.fraction, float),
    ("--outlier-magnitude",): flag("outlier_magnitude", OutlierSpec.magnitude, float),
    ("--tail-fraction",): flag("tail_fraction", OutlierSpec.tail_fraction, float),
    ("--tail-multiplier",): flag("tail_multiplier", OutlierSpec.tail_multiplier, float),
}
HYPER_FLAGS = {
    ("--k",): flag("k", type=int),
    ("--lambda1",): flag("lambda1", type=float),
    ("--lambda2",): flag("lambda2", type=float),
    ("--rho",): flag("rho", type=float),
    ("--alpha0",): flag("alpha0", type=float),
    ("--alpha-max",): flag("alpha_max", type=float),
    ("--tol",): flag("tol", type=float),
    ("--max-iter",): flag("max_iter", type=int),
    ("--center",): flag("center", choices=CENTER_MODES),
    ("--config",): flag("config"),
}
# Every subcommand's flags, as each subcommand's --help documents them.
FLAG_SURFACE = {
    "synth": {
        **HELP,
        ("--n",): flag("n", SynthSpec.n, int),
        ("--p",): flag("p", SynthSpec.p, int),
        ("--r",): flag("r", SynthSpec.r, int),
        ("--k",): flag("k", SynthSpec.k_true, int),
        ("--n-collinear",): flag("n_collinear", SynthSpec.n_collinear, int),
        ("--noise-sigma",): flag("noise_sigma", SynthSpec.noise_sigma, float),
        ("--seed",): flag("seed", SynthSpec.seed, int),
        **OUTLIER_FLAGS,
        **OUT_DIR,
    },
    "fit": {
        **HELP, **XY, **HAS_HEADER, **HYPER_FLAGS, **OUT_DIR,
        ("--method",): flag("method", required=True, choices=tuple(sorted(METHODS))),
    },
    "predict": {**HELP, ("--model",): flag("model", required=True), ("--x",): XY[("--x",)], **HAS_HEADER, **OUT_DIR},
    "bench": {
        **HELP, **XY, **HAS_HEADER, **OUTLIER_FLAGS, **HYPER_FLAGS, **OUT_DIR,
        ("--methods",): flag("methods", ",".join(METHODS)),
        ("--split",): flag("split", 0.8, float),
        ("--seed",): flag("seed", OutlierSpec.seed, int),
    },
}


class TestFlagSurface:
    def subcommands(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sub.dest == "command" and sub.required
        return sub.choices

    def test_subcommands(self):
        assert list(self.subcommands()) == list(FLAG_SURFACE)

    @pytest.mark.parametrize("command", FLAG_SURFACE)
    def test_each_flag_is_declared_as_documented(self, command):
        # Compared as a set of flags: the order --help lists them in is free.
        actions = self.subcommands()[command]._actions
        found = {tuple(a.option_strings): flag(a.dest, a.default, a.type, a.required,
                                               None if a.choices is None else tuple(a.choices))
                 for a in actions}
        assert len(found) == len(actions)  # no flag declared twice
        assert found == FLAG_SURFACE[command]


class TestSynth:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli(
            "synth", "--n", "150", "--p", "40", "--r", "4", "--k", "5",
            "--seed", "7", "--out-dir", str(out),
        ) == 0
        x = load_csv(out / "x.csv")
        y = load_csv(out / "y.csv")
        assert x.shape == (150, 40)
        assert y.shape == (150, 4)
        assert load_csv(out / "truth_theta.csv").shape == (40, 4)

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("synth", "--seed", "3", "--out-dir", str(a))
        run_cli("synth", "--seed", "3", "--out-dir", str(b))
        assert (a / "x.csv").read_bytes() == (b / "x.csv").read_bytes()
        assert (a / "y.csv").read_bytes() == (b / "y.csv").read_bytes()

    def test_defaults_are_synth_spec_defaults(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli("synth", "--out-dir", str(out)) == 0
        x, y, _ = generate(SynthSpec())
        assert load_csv(out / "x.csv").tobytes() == x.tobytes()
        assert load_csv(out / "y.csv").tobytes() == y.tobytes()

    @pytest.mark.parametrize("regime", ["sparse", "lowtail"])
    def test_outlier_defaults_are_outlier_spec_defaults(self, tmp_path, regime):
        out = tmp_path / "data"
        assert run_cli("synth", "--outliers", regime, "--out-dir", str(out)) == 0
        x, y, _ = generate(SynthSpec())
        if regime == "sparse":
            x, y, _ = inject_sparse(x, y, OutlierSpec(kind=SPARSE_RANDOM))
        else:
            y, _ = inject_low_tail(y, OutlierSpec(kind=LOW_TAIL))
        assert load_csv(out / "x.csv").tobytes() == x.tobytes()
        assert load_csv(out / "y.csv").tobytes() == y.tobytes()

    def test_sparse_outliers_write_masks_and_clean(self, tmp_path):
        out = tmp_path / "data"
        run_cli("synth", "--outliers", "sparse", "--seed", "5", "--out-dir", str(out))
        x = load_csv(out / "x.csv")
        x_clean = load_csv(out / "x_clean.csv")
        mask = load_csv(out / "mask_x.csv").astype(bool)
        assert mask.sum() == round(0.02 * x.size)
        np.testing.assert_array_equal((x != x_clean), mask)

    def test_lowtail_outliers(self, tmp_path):
        out = tmp_path / "data"
        run_cli("synth", "--outliers", "lowtail", "--seed", "5", "--out-dir", str(out))
        mask = load_csv(out / "mask_y.csv").astype(bool)
        np.testing.assert_array_equal(mask.sum(axis=0), [15, 15, 15, 15])
        assert not (out / "mask_x.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--noise-sigma", "inf"],
        ["--noise-sigma", "nan"],
        ["--outliers", "sparse", "--outlier-magnitude", "nan"],
        ["--outliers", "lowtail", "--tail-multiplier", "inf"],
    ], ids=["noise-inf", "noise-nan", "magnitude-nan", "tail-multiplier-inf"])
    def test_non_finite_spec_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "data"
        assert run_cli("synth", *flags, "--out-dir", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (out / "x.csv").exists()

    def test_rank_short_spec_rejected(self, tmp_path, capsys):
        # Three rows cannot hold an x of rank 5.
        out = tmp_path / "data"
        assert run_cli("synth", "--n", "3", "--k", "5", "--out-dir", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: k_true=5 must be at most min(n, p - n_collinear)")
        assert not out.exists()


# Config files whose errors name the file; the first, with a byte-order mark, loads.
CONFIG_FILES = [
    (b'\xef\xbb\xbf{"k": 2}', None),
    (b'{"k": 3', "invalid JSON: Expecting ',' delimiter: line 1 column 8 (char 7)"),
    (b'[["k", 3]]', "config file must hold a JSON object, got list"),
    (b'{"alpha1_0": 2.0}', "unknown keys in config file: ['alpha1_0']"),
]
CONFIG_IDS = ["byte-order-mark", "invalid-json", "not-an-object", "unknown-key"]


class TestFitPredict:
    @pytest.fixture
    def dataset(self, tmp_path):
        out = tmp_path / "data"
        run_cli("synth", "--n", "60", "--p", "12", "--r", "2", "--k", "3",
                "--n-collinear", "3", "--seed", "11", "--out-dir", str(out))
        return out

    @pytest.mark.parametrize("method", ["rpls", "mlr", "pcr", "plsr", "pls-proj"])
    def test_fit_and_predict_each_method(self, dataset, tmp_path, method):
        # rpls fit + rpls predict give bit for bit what run_experiment (rpls bench) gives.
        x, y = load_csv(dataset / "x.csv"), load_csv(dataset / "y.csv")
        perm = rng_from_seed(5).permutation(60)
        train, test = np.sort(perm[:48]), np.sort(perm[48:])
        for name, m in (("x_train", x[train]), ("y_train", y[train]), ("x_test", x[test])):
            write_csv(tmp_path / f"{name}.csv", m)
        fit_dir = tmp_path / f"fit_{method}"
        assert run_cli(
            "fit", "--method", method, "--x", str(tmp_path / "x_train.csv"),
            "--y", str(tmp_path / "y_train.csv"), "--k", "3", "--out-dir", str(fit_dir),
        ) == 0
        assert (fit_dir / "model.json").exists()
        pred_dir = tmp_path / f"pred_{method}"
        assert run_cli(
            "predict", "--model", str(fit_dir / "model.json"),
            "--x", str(tmp_path / "x_test.csv"), "--out-dir", str(pred_dir),
        ) == 0
        preds = load_csv(pred_dir / "predictions.csv")
        assert preds.shape == (12, 2)
        assert np.isfinite(preds).all()
        tag = METHODS[method].tag
        expected = run_experiment(x, y, (train, test), [tag], config=RplsConfig(k=3)).results[tag].predictions
        assert preds.tobytes() == expected.tobytes()
        # model.json holds a predictor, the compiled regressor for rpls.
        doc = json.loads((fit_dir / "model.json").read_text())
        assert doc["kind"] == ("projection" if method in ("rpls", "pls-proj") else "linear")
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(doc, load_model_schema())

    def test_rpls_fit_writes_trace(self, dataset, tmp_path):
        fit_dir = tmp_path / "fit"
        run_cli("fit", "--method", "rpls", "--x", str(dataset / "x.csv"),
                "--y", str(dataset / "y.csv"), "--k", "3", "--out-dir", str(fit_dir))
        trace = load_csv(DatasetFile(str(fit_dir / "residual_trace.csv"), has_header=True))
        model = fit(load_csv(dataset / "x.csv"), load_csv(dataset / "y.csv"), RplsConfig(k=3))
        assert model.converged
        assert trace.tobytes() == np.array(model.residual_trace, dtype=np.float64).tobytes()

    def test_rpls_fit_records_screen_note(self, tmp_path):
        # Low-tail response corruption captures a latent direction the
        # predictors cannot support; the saved regressor notes its removal.
        x, y, _ = generate(SynthSpec(seed=1007))
        train = rng_from_seed(2007).permutation(150)[:120]
        y_bad, _ = inject_low_tail(y[train], OutlierSpec(kind=LOW_TAIL))
        write_csv(tmp_path / "x.csv", x[train])
        write_csv(tmp_path / "y.csv", y_bad)
        fit_dir = tmp_path / "fit"
        assert run_cli("fit", "--method", "rpls", "--x", str(tmp_path / "x.csv"),
                       "--y", str(tmp_path / "y.csv"), "--k", "5", "--out-dir", str(fit_dir)) == 0
        doc = json.loads((fit_dir / "model.json").read_text())
        assert "removed 1 unstable latent direction(s)" in doc["notes"]

    def test_config_file_and_flag_precedence(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "max_iter": 7}))
        fit_dir = tmp_path / "fit"
        run_cli("fit", "--method", "rpls", "--x", str(dataset / "x.csv"),
                "--y", str(dataset / "y.csv"), "--config", str(cfg),
                "--max-iter", "9", "--out-dir", str(fit_dir))
        assert load_model(fit_dir / "model.json").lambda_x.shape == (12, 2)  # k from config file
        # The flag overrides the file; unstopped, this fit takes 103 iterations.
        trace = load_csv(DatasetFile(str(fit_dir / "residual_trace.csv"), has_header=True))
        assert trace.shape[0] == 9

    def test_hyper_keys_are_config_fields(self):
        # Every RplsConfig field is a config-file key and a flag of fit and bench.
        assert HYPER_KEYS == tuple(f.name for f in dataclasses.fields(RplsConfig))
        assert set(HYPER_KEYS) == {"k", "lambda1", "lambda2", "alpha0", "rho", "alpha_max",
                                   "tol", "max_iter", "center"}
        for argv in (["fit", "--method", "rpls"], ["bench"]):
            args = build_parser().parse_args([*argv, "--x", "x", "--y", "y", "--out-dir", "o"])
            assert all(hasattr(args, key) for key in HYPER_KEYS), argv[0]

    @pytest.mark.parametrize("flags, file_cfg, alpha0", [
        (["--alpha0", "1.5"], None, 1.5),
        ([], {"alpha0": 2.0}, 2.0),
        (["--alpha0", "1.5"], {"alpha0": 2.0}, 1.5),
    ], ids=["flag", "file", "flag-over-file"])
    def test_alpha0_reaches_solver(self, dataset, tmp_path, flags, file_cfg, alpha0):
        # The trace of `rpls fit` is library fit's, bit for bit, with both penalties starting at alpha0.
        if file_cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(file_cfg))
            flags = flags + ["--config", str(tmp_path / "cfg.json")]
        fit_dir = tmp_path / "fit"
        assert run_cli("fit", "--method", "rpls", "--x", str(dataset / "x.csv"),
                       "--y", str(dataset / "y.csv"), "--k", "3", "--max-iter", "20", *flags,
                       "--out-dir", str(fit_dir)) == 0
        trace = load_csv(DatasetFile(str(fit_dir / "residual_trace.csv"), has_header=True))
        model = fit(load_csv(dataset / "x.csv"), load_csv(dataset / "y.csv"),
                    RplsConfig(k=3, max_iter=20, alpha0=alpha0))
        assert trace.tobytes() == np.array(model.residual_trace, dtype=np.float64).tobytes()
        other = fit(load_csv(dataset / "x.csv"), load_csv(dataset / "y.csv"),
                    RplsConfig(k=3, max_iter=20, alpha0=alpha0 + 0.25))
        assert trace.tobytes() != np.array(other.residual_trace, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("text, fragment", [
        ('[["k", 3]]', "JSON object"), ("5", "JSON object"), ("null", "JSON object"),
        ('{"k": null}', "k must"), ('{"alpha0": "x"}', "alpha0 must"), ('{"max_iter": 2.5}', "max_iter must"),
        ('{"k": true}', "k must"), ('{"max_iter": true}', "max_iter must"),
        ('{"alpha1_0": 2.0}', "unknown keys in config file: ['alpha1_0']"),
        ('{"center": "mean"}', "center must"),
    ], ids=["list", "number", "null", "k-null", "alpha0-string", "max_iter-fraction",
            "k-bool", "max_iter-bool", "alpha1_0-unknown", "center-mean"])
    def test_bad_config_file_rejected(self, dataset, tmp_path, capsys, text, fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = run_cli("fit", "--method", "rpls", "--x", str(dataset / "x.csv"),
                       "--y", str(dataset / "y.csv"), "--config", str(cfg),
                       "--out-dir", str(tmp_path / "fit"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0]

    def test_not_utf8_config_file_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"k": 3, "\xb5": 1}\n')
        args = build_parser().parse_args(["fit", "--method", "rpls", "--x", "x.csv", "--y", "y.csv",
                                          "--config", str(cfg), "--out-dir", "out"])
        with pytest.raises(RplsError, match=rf"^{cfg}: not UTF-8 text \(byte 0xb5\)$"):
            _rpls_config(args)

    @pytest.mark.parametrize("data, message", CONFIG_FILES, ids=CONFIG_IDS)
    def test_config_file_named_in_error(self, tmp_path, data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        args = build_parser().parse_args(["fit", "--method", "rpls", "--x", "x.csv", "--y", "y.csv",
                                          "--config", str(cfg), "--out-dir", "out"])
        if message is None:
            assert _rpls_config(args).k == 2
        else:
            with pytest.raises(RplsError) as info:
                _rpls_config(args)
            assert str(info.value) == f"{cfg}: {message}"

    @pytest.mark.parametrize("data, message", CONFIG_FILES, ids=CONFIG_IDS)
    def test_config_file_named_in_error_line(self, dataset, tmp_path, capsys, data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        fit_dir = tmp_path / "fit"
        code = run_cli("fit", "--method", "rpls", "--x", str(dataset / "x.csv"), "--y", str(dataset / "y.csv"),
                       "--config", str(cfg), "--max-iter", "5", "--out-dir", str(fit_dir))
        err = capsys.readouterr().err.splitlines()
        if message is None:
            assert code == 0
            assert load_model(fit_dir / "model.json").lambda_x.shape == (12, 2)  # k from the config file
        else:
            assert code == 1 and err == [f"error: {cfg}: {message}"]

    def test_predict_reads_model_with_byte_order_mark(self, dataset, tmp_path):
        xy = ("--x", str(dataset / "x.csv"))
        assert run_cli("fit", "--method", "mlr", *xy, "--y", str(dataset / "y.csv"),
                       "--out-dir", str(tmp_path / "fit")) == 0
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "fit" / "model.json").read_bytes())
        assert run_cli("predict", "--model", str(tmp_path / "fit" / "model.json"), *xy,
                       "--out-dir", str(tmp_path / "plain")) == 0
        assert run_cli("predict", "--model", str(marked), *xy, "--out-dir", str(tmp_path / "marked")) == 0
        assert (tmp_path / "marked" / "predictions.csv").read_bytes() == \
            (tmp_path / "plain" / "predictions.csv").read_bytes()

    def test_predict_version_1_model_rejected(self, dataset, tmp_path, capsys):
        # A model written with decimal arrays; refitting replaces it.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format": "robustpls-model", "version": 1, "kind": "linear",
            "theta": {"rows": 12, "cols": 2, "data": [0.0] * 24},
            "x_means": [0.0] * 12, "y_means": [0.0, 0.0], "method_tag": "MLR", "n_components": 0,
        }))
        code = run_cli("predict", "--model", str(path), "--x", str(dataset / "x.csv"),
                       "--out-dir", str(tmp_path / "pred"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: field 'version' is 1; this reader reads version 2"]

    def test_predict_malformed_model_rejected(self, dataset, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "robustpls-model", "kind": "linear"}))
        code = run_cli("predict", "--model", str(path), "--x", str(dataset / "x.csv"),
                       "--out-dir", str(tmp_path / "pred"))
        assert code == 1
        assert "'theta'" in capsys.readouterr().err

    def test_predict_non_finite_model_rejected(self, dataset, tmp_path, capsys):
        # Loading it would let predict write all-nan rows and exit 0.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format": "robustpls-model", "version": 2, "kind": "linear",
            "theta": {"rows": 12, "cols": 2, "data": b64_f8([float("nan")] + [0.0] * 23)},
            "x_means": b64_f8([float("inf")] + [0.0] * 11), "y_means": b64_f8([0.0, 0.0]),
            "method_tag": "MLR", "n_components": 0,
        }))
        pred_dir = tmp_path / "pred"
        code = run_cli("predict", "--model", str(path), "--x", str(dataset / "x.csv"),
                       "--out-dir", str(pred_dir))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'theta'" in err[0]
        assert not (pred_dir / "predictions.csv").exists()

    def test_predict_model_shape_mismatch_rejected(self, tmp_path, capsys):
        # A 401x1 theta with three x_means used to load and then die in a
        # numpy broadcast inside predict.
        write_csv(tmp_path / "x.csv", np.zeros((5, 401)))
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format": "robustpls-model", "version": 2, "kind": "linear",
            "theta": {"rows": 401, "cols": 1, "data": b64_f8([0.0] * 401)},
            "x_means": b64_f8([0.0, 0.0, 0.0]), "y_means": b64_f8([0.0]), "method_tag": "MLR",
            "n_components": 0,
        }))
        code = run_cli("predict", "--model", str(path), "--x", str(tmp_path / "x.csv"),
                       "--out-dir", str(tmp_path / "pred"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'x_means'" in err[0]

    @pytest.mark.parametrize("x_means, theta, row", [
        ([1e300, 1e300], 1e10, [1.0, 2.0]),  # the offset overflows: predict used to write -inf
        ([0.0, 0.0], 1e300, [1e10, 1e10]),   # the product overflows: predict used to write inf
    ], ids=["offset", "product"])
    def test_predict_non_finite_predictions_rejected(self, tmp_path, capsys, x_means, theta, row):
        # Both models and rows are finite; their predictions are not. predict
        # used to write them and exit 0, in a file that load_csv refuses.
        from robustpls.baselines import LinearModel
        from robustpls.io import save_model

        save_model(tmp_path / "model.json", LinearModel(
            theta=np.full((2, 1), theta), x_means=np.array(x_means), y_means=np.zeros(1), method_tag="MLR",
        ))
        write_csv(tmp_path / "x.csv", np.array([row, row]))
        pred_dir = tmp_path / "pred"
        code = run_cli("predict", "--model", str(tmp_path / "model.json"), "--x", str(tmp_path / "x.csv"),
                       "--out-dir", str(pred_dir))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: a prediction is not finite: the model and the rows overflow float64"]
        assert not pred_dir.exists()

    def test_predict_constant_model(self, tmp_path, dataset):
        # Zero response loadings predict the stored offsets everywhere.
        from robustpls.baselines import LinearModel
        from robustpls.io import save_model

        model = LinearModel(
            theta=np.zeros((12, 2)), x_means=np.zeros(12),
            y_means=np.array([2.0, -1.0]), method_tag="MLR",
        )
        path = tmp_path / "const.json"
        save_model(path, model)
        pred_dir = tmp_path / "pred"
        run_cli("predict", "--model", str(path), "--x", str(dataset / "x.csv"),
                "--out-dir", str(pred_dir))
        preds = load_csv(pred_dir / "predictions.csv")
        np.testing.assert_allclose(preds, np.tile([2.0, -1.0], (60, 1)))


class TestBench:
    def test_full_bench_outputs(self, tmp_path):
        data = tmp_path / "data"
        run_cli("synth", "--n", "60", "--p", "12", "--r", "2", "--k", "3",
                "--n-collinear", "3", "--seed", "21", "--out-dir", str(data))
        out = tmp_path / "bench"
        assert run_cli(
            "bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
            "--methods", "mlr,pcr,plsr,pls-proj,rpls", "--k", "3",
            "--split", "0.8", "--seed", "2", "--out-dir", str(out),
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["test_indices"]) == 12
        for tag in ("MLR", "PCR", "PLSR", "PLS_PROJ", "RPLS_PROJ"):
            assert report["methods"][tag]["nmse"] is not None
            assert (out / f"predictions_{tag.lower()}.csv").exists()
        # Score and ellipse files for the latent methods.
        for tag in ("pcr", "plsr", "pls_proj", "rpls_proj"):
            assert (out / f"scores_{tag}.csv").exists()
            assert (out / f"ellipse_{tag}.csv").exists()
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 12 + 1  # header, rows, NMSE line
        assert lines[-1].startswith("NMSE")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_data_whose_norms_overflow(self, tmp_path):
        # The baselines fit these data, so their scores hold too; the robust
        # fit's default tol overflows, and it alone fails, saying so.
        x, y, _ = generate(SynthSpec(seed=1))
        write_csv(tmp_path / "x.csv", x * 1e160)
        write_csv(tmp_path / "y.csv", y * 1e160)
        out = tmp_path / "bench"
        assert run_cli("bench", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                       "--out-dir", str(out)) == 0

        def no_constant(name):
            raise AssertionError(f"report.json holds {name}")

        methods = json.loads((out / "report.json").read_text(), parse_constant=no_constant)["methods"]
        for tag in ("MLR", "PCR", "PLSR", "PLS_PROJ"):
            assert methods[tag]["error"] is None and 0 < methods[tag]["nmse"] < 0.1, tag
        assert "so the default tol is not finite" in methods["RPLS_PROJ"]["error"]
        for tag in ("pcr", "plsr", "pls_proj"):
            ellipse = load_csv(DatasetFile(str(out / f"ellipse_{tag}.csv"), has_header=True))
            assert np.isfinite(ellipse).all() and (ellipse[0, 2:4] > 1e159).all(), tag

    def test_report_nmse_consistent_with_prediction_files(self, tmp_path):
        data = tmp_path / "data"
        run_cli("synth", "--n", "50", "--p", "10", "--r", "2", "--k", "3",
                "--n-collinear", "2", "--seed", "22", "--out-dir", str(data))
        out = tmp_path / "bench"
        run_cli("bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                "--methods", "mlr,plsr", "--k", "3", "--seed", "4", "--out-dir", str(out))
        report = json.loads((out / "report.json").read_text())
        y = load_csv(data / "y.csv")
        y_test = y[np.array(report["test_indices"])]
        for tag in ("MLR", "PLSR"):
            preds = load_csv(out / f"predictions_{tag.lower()}.csv")
            assert nmse(y_test, preds) == pytest.approx(report["methods"][tag]["nmse"], rel=1e-12)

    def test_bench_reproducible(self, tmp_path):
        data = tmp_path / "data"
        run_cli("synth", "--n", "40", "--p", "8", "--r", "2", "--k", "2",
                "--n-collinear", "2", "--seed", "23", "--out-dir", str(data))
        outs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            run_cli("bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                    "--methods", "mlr,rpls", "--k", "2", "--seed", "9", "--out-dir", str(out))
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("regime", ["sparse", "lowtail"])
    def test_bench_with_outliers(self, tmp_path, regime):
        data = tmp_path / "data"
        run_cli("synth", "--seed", "24", "--out-dir", str(data))
        out = tmp_path / "bench"
        assert run_cli(
            "bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
            "--methods", "mlr,rpls", "--seed", "3",
            "--outliers", regime, "--out-dir", str(out),
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["methods"]["RPLS_PROJ"]["nmse"] < report["methods"]["MLR"]["nmse"]
        # Only the training rows are corrupted, as the library does it with the same seed.
        x, y = load_csv(data / "x.csv"), load_csv(data / "y.csv")
        perm = rng_from_seed(3).permutation(150)
        train, test = np.sort(perm[:120]), np.sort(perm[120:])
        assert report["train_indices"] == train.tolist()
        if regime == "sparse":
            x[train], y[train], _ = inject_sparse(x[train], y[train], OutlierSpec(kind=SPARSE_RANDOM, seed=3))
        else:
            y[train], _ = inject_low_tail(y[train], OutlierSpec(kind=LOW_TAIL, seed=3))
        expected = run_experiment(x, y, (train, test), ["RPLS_PROJ"]).results["RPLS_PROJ"].predictions
        assert load_csv(out / "predictions_rpls_proj.csv").tobytes() == expected.tobytes()

    def test_no_ellipse_is_a_warning(self, tmp_path, capsys):
        # A 40% split of 5 rows leaves 2 training rows: too few score rows for an ellipse.
        # PCR keeps one direction of the rank-1 centered rows, so it publishes no 2-D scores.
        data = tmp_path / "data"
        assert run_cli("synth", "--n", "5", "--p", "6", "--r", "1", "--k", "2",
                       "--n-collinear", "1", "--seed", "3", "--out-dir", str(data)) == 0
        capsys.readouterr()
        out = tmp_path / "bench"
        assert run_cli("bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                       "--split", "0.4", "--k", "2", "--out-dir", str(out)) == 0
        err = capsys.readouterr().err.splitlines()
        assert "warning: no ellipse for rpls_proj: need at least 3 score rows, got 2" in err
        assert (out / "scores_rpls_proj.csv").exists()
        assert not (out / "ellipse_rpls_proj.csv").exists()
        assert not (out / "scores_pcr.csv").exists()

    def test_failed_method_leaves_blank_cells(self, tmp_path, capsys):
        # k = 7 exceeds a 6-column x for every latent method; MLR takes no k and still runs.
        data = tmp_path / "data"
        run_cli("synth", "--n", "30", "--p", "6", "--r", "2", "--k", "2",
                "--n-collinear", "1", "--seed", "4", "--out-dir", str(data))
        capsys.readouterr()
        out = tmp_path / "bench"
        assert run_cli("bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                       "--k", "7", "--out-dir", str(out)) == 0
        failed = ["PCR", "PLSR", "PLS_PROJ", "RPLS_PROJ"]
        error = "k must be in [1, 6], got 7"
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0].startswith("MLR: nmse=") and stdout[1:5] == [f"{tag}: failed: {error}" for tag in failed]
        report = json.loads((out / "report.json").read_text())
        assert report["methods"]["MLR"]["error"] is None and report["methods"]["MLR"]["nmse"] > 0
        for tag in failed:
            assert report["methods"][tag] == {"nmse": None, "error": error}
        assert sorted(f.name for f in out.glob("predictions_*.csv")) == ["predictions_mlr.csv"]
        rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
        header = rows[0]
        assert header[3:5] == ["MLR_1", "MLR_2"] and header[5:] == [f"{t}_{j}" for t in failed for j in (1, 2)]
        assert len(rows) == 1 + 6 + 1 and rows[-1][0] == "NMSE"
        for row in rows[1:]:
            assert all(row[3:5]) and row[5:] == [""] * 8

    def test_non_finite_predictions_fail_the_method(self, tmp_path, capsys):
        # One test row of x at 1e308 is finite, and so is every fit; each
        # method's prediction for it overflows and is recorded as a failure.
        x, y, _ = generate(SynthSpec(n=30, p=6, r=1, k_true=2, n_collinear=1, seed=4))
        y = 10.0 * x.sum(axis=1, keepdims=True)
        perm = rng_from_seed(5).permutation(30)
        x[np.sort(perm[24:])[0]] = 1e308  # the first test row of --split 0.8 --seed 5
        write_csv(tmp_path / "x.csv", x)
        write_csv(tmp_path / "y.csv", y)
        out = tmp_path / "bench"
        assert run_cli("bench", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                       "--k", "2", "--split", "0.8", "--seed", "5", "--out-dir", str(out)) == 0
        error = "a prediction is not finite: the model and the rows overflow float64"
        tags = ["MLR", "PCR", "PLSR", "PLS_PROJ", "RPLS_PROJ"]
        assert capsys.readouterr().out.splitlines()[:5] == [f"{tag}: failed: {error}" for tag in tags]
        report = json.loads((out / "report.json").read_text())
        assert report["methods"] == {tag: {"nmse": None, "error": error} for tag in tags}
        assert not list(out.glob("predictions_*.csv"))


class TestOutputFiles:
    def test_every_file_ends_lines_with_newline_only(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("synth", "--n", "40", "--p", "12", "--r", "2", "--n-collinear", "4",
                       "--outliers", "sparse", "--out-dir", str(data)) == 0
        xy = ("--x", str(data / "x.csv"), "--y", str(data / "y.csv"))
        for method in METHODS:
            assert run_cli("fit", *xy, "--method", method, "--k", "3",
                           "--out-dir", str(tmp_path / f"fit_{method}")) == 0
            assert run_cli("predict", "--model", str(tmp_path / f"fit_{method}" / "model.json"),
                           "--x", str(data / "x.csv"), "--out-dir", str(tmp_path / f"pred_{method}")) == 0
        assert run_cli("bench", *xy, "--k", "3", "--out-dir", str(tmp_path / "bench")) == 0
        files = sorted(f for f in tmp_path.rglob("*") if f.is_file())
        names = {f.name for f in files}
        assert {"x.csv", "residual_trace.csv", "model.json", "predictions.csv", "report.csv",
                "report.json"} <= names
        assert [f.relative_to(tmp_path) for f in files if b"\r" in f.read_bytes()] == []

    def test_every_written_file_opened_as_utf8_without_newline_translation(self, tmp_path, monkeypatch):
        # pathlib opens files through io.open, everything else through builtins.open: both are recorded.
        data = tmp_path / "data"
        assert run_cli("synth", "--n", "40", "--p", "12", "--r", "2", "--n-collinear", "4",
                       "--out-dir", str(data)) == 0
        real_open = builtins.open
        written = {}

        def recording_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None,
                           closefd=True, opener=None):
            if set(mode) & set("wax+"):
                written[Path(file)] = (encoding, newline)
            return real_open(file, mode, buffering, encoding, errors, newline, closefd, opener)

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        xy = ("--x", str(data / "x.csv"), "--y", str(data / "y.csv"))
        assert run_cli("fit", *xy, "--method", "rpls", "--k", "3", "--out-dir", str(tmp_path / "fit")) == 0
        assert run_cli("bench", *xy, "--k", "3", "--out-dir", str(tmp_path / "bench")) == 0
        monkeypatch.undo()
        outputs = sorted(f for d in ("fit", "bench") for f in (tmp_path / d).iterdir())
        assert {"model.json", "residual_trace.csv", "report.csv", "report.json"} <= {f.name for f in outputs}
        assert written == {f: ("utf-8", "") for f in outputs}


class TestCliErrors:
    @pytest.mark.parametrize("argv", [
        ["synth", "--outliers", "lowtail", "--tail-fraction", "2"],
        ["synth", "--n", "0"],
        ["fit", "--method", "plsr", "--x", "{x}", "--y", "{y}", "--k", "9"],
        ["fit", "--method", "rpls", "--x", "{x}", "--y", "{y}", "--config", "{missing}"],
        ["fit", "--method", "mlr", "--x", "{missing}", "--y", "{y}"],
        ["predict", "--model", "{missing}", "--x", "{x}"],
        ["bench", "--x", "{x}", "--y", "{y}", "--methods", "ols"],
        ["bench", "--x", "{x}", "--y", "{y}", "--outliers", "sparse", "--outlier-fraction", "3"],
    ], ids=["synth-tail-fraction", "synth-n", "fit-k", "fit-config", "fit-x", "predict-model",
            "bench-methods", "bench-outlier-fraction"])
    def test_rejected_run_makes_no_out_dir(self, tmp_path, capsys, argv):
        data = tmp_path / "data"
        run_cli("synth", "--n", "30", "--p", "6", "--r", "2", "--k", "2",
                "--n-collinear", "1", "--out-dir", str(data))
        capsys.readouterr()
        paths = {"x": data / "x.csv", "y": data / "y.csv", "missing": tmp_path / "missing.json"}
        out = tmp_path / "out"
        assert run_cli(*[a.format(**paths) for a in argv], "--out-dir", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("regime", ["none", "sparse", "lowtail"])
    @pytest.mark.parametrize("command", ["synth", "bench"])
    @pytest.mark.parametrize("flag, value, match", [
        ("--outlier-fraction", "3", "fraction must be in [0, 1], got 3.0"),
        ("--tail-fraction", "-0.5", "tail_fraction must be in [0, 1], got -0.5"),
        ("--tail-multiplier", "0", "tail_multiplier must be nonzero"),
        ("--outlier-magnitude", "nan", "magnitude must be a finite number, got nan"),
    ], ids=["outlier-fraction", "tail-fraction", "tail-multiplier", "outlier-magnitude"])
    def test_outlier_flags_checked_before_data(self, tmp_path, capsys, monkeypatch, regime, command,
                                               flag, value, match):
        # Under every regime, a bad outlier flag is reported before data are
        # generated (synth) or read (bench reads a missing file here).
        def no_data(*args, **kwargs):
            raise AssertionError("data generated before the outlier flags were checked")

        monkeypatch.setattr("robustpls.datagen.generate", no_data)
        inputs = [] if command == "synth" else ["--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv")]
        out = tmp_path / "out"
        assert run_cli(command, *inputs, "--outliers", regime, flag, value, "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {match}"]
        assert not out.exists()

    def test_default_tol_overflow_is_one_error_line(self, tmp_path, capsys):
        x, y, _ = generate(SynthSpec(seed=1))
        write_csv(tmp_path / "x.csv", x * 1e160)
        write_csv(tmp_path / "y.csv", y * 1e160)
        out = tmp_path / "out"
        assert run_cli("fit", "--method", "rpls", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                       "--out-dir", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the Frobenius norm of the centered data overflows")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["mlr", "pcr", "plsr"])
    def test_fits_data_whose_column_sums_overflow(self, tmp_path, capsys, method):
        rng = np.random.default_rng(0)
        write_csv(tmp_path / "x.csv", rng.standard_normal((150, 5)) * 1e306 + 1e307)
        write_csv(tmp_path / "y.csv", rng.standard_normal((150, 1)))
        out = tmp_path / "out"
        assert run_cli("fit", "--method", method, "--k", "3", "--x", str(tmp_path / "x.csv"),
                       "--y", str(tmp_path / "y.csv"), "--out-dir", str(out)) == 0
        assert capsys.readouterr().err == ""
        assert run_cli("predict", "--model", str(out / "model.json"), "--x", str(tmp_path / "x.csv"),
                       "--out-dir", str(tmp_path / "pred")) == 0
        assert np.isfinite(load_csv(tmp_path / "pred" / "predictions.csv")).all()

    def test_svd_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        run_cli("synth", "--n", "30", "--p", "6", "--r", "2", "--k", "2",
                "--n-collinear", "1", "--out-dir", str(data))
        capsys.readouterr()

        monkeypatch.setattr(linalg, "_svd_s", svd_no_convergence)
        out = tmp_path / "out"
        assert run_cli("fit", "--method", "pcr", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                       "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == ["error: SVD did not converge for 30x6 matrix"]
        assert not out.exists()

    def test_unknown_method_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--method", "ridge", "--x", "x.csv", "--y", "y.csv",
                    "--out-dir", str(tmp_path))
        assert exc.value.code == 2

    def test_unknown_center_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--method", "rpls", "--center", "mean", "--x", "x.csv", "--y", "y.csv",
                    "--out-dir", str(tmp_path))
        assert exc.value.code == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--bogus", "1", "--out-dir", "d")
        assert exc.value.code == 2

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = run_cli("fit", "--method", "mlr", "--x", str(tmp_path / "nope.csv"),
                       "--y", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,zebra\n")
        code = run_cli("fit", "--method", "mlr", "--x", str(bad), "--y", str(bad),
                       "--out-dir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    @pytest.mark.parametrize("command", ["fit", "predict", "bench"])
    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"1,2\n3,\xb5\n")
        argv = {"fit": ["--method", "mlr", "--x", str(bad), "--y", str(bad)],
                "predict": ["--model", str(tmp_path / "model.json"), "--x", str(bad)],
                "bench": ["--x", str(bad), "--y", str(bad)]}[command]
        if command == "predict":
            good = tmp_path / "good.csv"
            good.write_text("1,2\n3,4\n5,7\n")
            assert run_cli("fit", "--method", "mlr", "--x", str(good), "--y", str(good),
                           "--out-dir", str(tmp_path)) == 0
            capsys.readouterr()
        code = run_cli(command, *argv, "--out-dir", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: not UTF-8 text (byte 0xb5)"]

    @pytest.mark.parametrize("flag", ["--config", "--model"])
    def test_non_utf8_json_file_is_one_error_line(self, tmp_path, capsys, flag):
        good = tmp_path / "good.csv"
        good.write_text("1,2\n3,4\n5,7\n")
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"k": 2, "\xb5": 1}\n')
        command = ["fit", "--method", "rpls", "--y", str(good)] if flag == "--config" else ["predict"]
        code = run_cli(*command, "--x", str(good), flag, str(bad), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: not UTF-8 text (byte 0xb5)"]

    @pytest.mark.parametrize("methods", ["", " , ", "rpls,rpls", "mlr, rpls,mlr"],
                             ids=["empty", "blank", "repeated", "repeated-spaced"])
    def test_bench_methods_named_once(self, tmp_path, capsys, methods):
        data = tmp_path / "data"
        run_cli("synth", "--n", "30", "--p", "8", "--r", "2", "--k", "2",
                "--n-collinear", "2", "--out-dir", str(data))
        capsys.readouterr()
        out = tmp_path / "out"
        code = run_cli("bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                       "--methods", methods, "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--methods" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("methods, keys", [("", []), ("rpls,rpls", ["rpls", "rpls"]),
                                               ("mlr, ols", ["mlr", "ols"])],
                             ids=["empty", "repeated", "unknown"])
    def test_bench_methods_rule_is_the_library_rule(self, tmp_path, capsys, methods, keys):
        # One rule and one message for a method list; the CLI names its flag.
        with pytest.raises(ConfigError) as info:
            _check_methods(keys, METHODS, "--methods")
        data = tmp_path / "data"
        run_cli("synth", "--n", "30", "--p", "8", "--r", "2", "--k", "2",
                "--n-collinear", "2", "--out-dir", str(data))
        capsys.readouterr()
        code = run_cli("bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                       "--methods", methods, "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {info.value}"]

    @pytest.mark.parametrize("command", ["synth", "bench"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        # numpy rejects a negative seed with a ValueError, which is no RplsError.
        data = tmp_path / "data"
        run_cli("synth", "--n", "30", "--p", "8", "--r", "2", "--k", "2",
                "--n-collinear", "2", "--out-dir", str(data))
        capsys.readouterr()
        argv = ["--x", str(data / "x.csv"), "--y", str(data / "y.csv")] if command == "bench" else []
        out = tmp_path / "out"
        code = run_cli(command, *argv, "--seed", "-1", "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "seed" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("split, message", [
        ("0", "--split must be in (0, 1), got 0.0"),
        ("1", "--split must be in (0, 1), got 1.0"),
        ("1.5", "--split must be in (0, 1), got 1.5"),
        ("nan", "--split must be in (0, 1), got nan"),
        ("0.001", "--split 0.001 leaves an empty train or test set for 20 rows"),
        ("0.999", "--split 0.999 leaves an empty train or test set for 20 rows"),
    ])
    def test_bench_split_rejected(self, tmp_path, capsys, split, message):
        data = tmp_path / "data"
        run_cli("synth", "--n", "20", "--p", "8", "--r", "2", "--k", "2",
                "--n-collinear", "2", "--out-dir", str(data))
        capsys.readouterr()
        out = tmp_path / "out"
        code = run_cli("bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                       "--split", split, "--out-dir", str(out))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_nonconvergence_still_succeeds(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_cli("synth", "--n", "30", "--p", "8", "--r", "2", "--k", "2",
                "--n-collinear", "2", "--seed", "31", "--out-dir", str(data))
        fit_dir = tmp_path / "fit"
        code = run_cli("fit", "--method", "rpls", "--x", str(data / "x.csv"),
                       "--y", str(data / "y.csv"), "--k", "2", "--max-iter", "2",
                       "--out-dir", str(fit_dir))
        assert code == 0
        assert capsys.readouterr().err.splitlines() == ["warning: not converged within 2 iterations"]
        trace = load_csv(DatasetFile(str(fit_dir / "residual_trace.csv"), has_header=True))
        assert trace.shape[0] == 2

    def test_tall_skinny_spectra_shape_pipeline(self, tmp_path):
        # Same shape regime as a near-infrared benchmark: 60 samples, 401
        # predictors, one response, k=10, 80/20 split -> 12-row report.
        rng = np.random.Generator(np.random.Philox(606))
        wl = np.linspace(0.0, 1.0, 401)
        conc = rng.uniform(0.2, 1.0, (60, 6))
        centers = rng.uniform(0.1, 0.9, 6)
        x = np.stack([
            sum(c * np.exp(-0.5 * ((wl - mu) / 0.05) ** 2) for c, mu in zip(row, centers))
            for row in conc
        ])
        x += 0.001 * rng.standard_normal(x.shape)
        y = (conc @ rng.standard_normal(6))[:, None] + 87.0
        data = tmp_path / "data"
        data.mkdir()
        from robustpls.io import write_csv

        write_csv(data / "x.csv", x)
        write_csv(data / "y.csv", y)
        out = tmp_path / "bench"
        assert run_cli(
            "bench", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
            "--methods", "mlr,pcr,plsr,pls-proj,rpls", "--k", "10",
            "--split", "0.8", "--seed", "1", "--out-dir", str(out),
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["test_indices"]) == 12
        for tag in ("MLR", "PCR", "PLSR", "PLS_PROJ", "RPLS_PROJ"):
            assert report["methods"][tag]["nmse"] is not None

    def test_console_script_entry_point(self, tmp_path):
        # The child imports the same package as this process, installed or not.
        src = str(Path(robustpls.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "robustpls.cli", "synth", "--n", "10", "--p", "5",
             "--r", "1", "--k", "2", "--n-collinear", "1", "--seed", "1",
             "--out-dir", str(tmp_path / "d")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert (tmp_path / "d" / "x.csv").exists()


class TestLogging:
    @pytest.mark.parametrize("value", [None, "off", "info", "trace", "TRACE", "verbose"])
    def test_rpls_log_levels(self, tmp_path, value):
        # RPLS_LOG picks what a fit says on stderr: nothing (off, unset or an
        # unrecognised value), one INFO summary (info), or one DEBUG line per
        # iteration then that summary (trace). Values are read in any case.
        data = tmp_path / "data"
        run_cli("synth", "--n", "30", "--p", "6", "--r", "2", "--k", "2",
                "--n-collinear", "1", "--out-dir", str(data))
        src = str(Path(robustpls.__file__).parents[1])
        env = {key: v for key, v in os.environ.items() if key != "RPLS_LOG"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if value is not None:
            env["RPLS_LOG"] = value
        out = tmp_path / "fit"
        result = subprocess.run(
            [sys.executable, "-m", "robustpls.cli", "fit", "--method", "rpls", "--k", "2",
             "--x", str(data / "x.csv"), "--y", str(data / "y.csv"), "--out-dir", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        level = (value or "off").lower()
        lines = result.stderr.splitlines()
        if level not in ("info", "trace"):
            assert lines == []
            return
        iterations = load_csv(DatasetFile(str(out / "residual_trace.csv"), has_header=True)).shape[0]
        summary = re.fullmatch(r"INFO robustpls\.rpls: rpls fit \(30, 6, 2\): converged after (\d+) iterations "
                               r"\(residual \S+, tol \S+\)", lines[-1])
        assert summary and int(summary.group(1)) == iterations, lines[-1]
        steps = [re.fullmatch(r"DEBUG robustpls\.rpls: iteration (\d+): residual=\S+ alpha=\S+", line)
                 for line in lines[:-1]]
        assert all(steps), lines[:-1]
        assert [int(m.group(1)) for m in steps] == (list(range(1, iterations + 1)) if level == "trace" else [])

