"""Command-line interface: synth, fit, predict, bench.

Hyperparameters resolve in order: built-in defaults, then a JSON config
file given with --config, then explicit flags. The RPLS_LOG environment
variable (off|info|trace) controls diagnostic verbosity on stderr.
Every run seeded with --seed is bit-reproducible in its output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import datagen, evaluate, projection, rpls
from .errors import RplsError
from .io import DatasetFile, _read_json, _write_text, format_float, load_csv, load_model, save_model, write_csv

# Config-file keys and hyperparameter flags: exactly the fields of RplsConfig.
HYPER_KEYS = tuple(f.name for f in dataclasses.fields(rpls.RplsConfig))


def _setup_logging():
    level = {"off": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}.get(
        os.environ.get("RPLS_LOG", "off").lower(), logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)


def _add_hyper_flags(p):
    p.add_argument("--k", type=int, default=None, help=f"latent dimension (default {rpls.RplsConfig.k})")
    p.add_argument("--lambda1", type=float, default=None, help="nuclear-norm weight, X side")
    p.add_argument("--lambda2", type=float, default=None, help="nuclear-norm weight, Y side")
    p.add_argument("--rho", type=float, default=None, help="penalty growth factor")
    p.add_argument("--alpha0", type=float, default=None, help="initial penalty for both constraints")
    p.add_argument("--alpha-max", type=float, default=None, dest="alpha_max", help="penalty cap")
    p.add_argument("--tol", type=float, default=None, help="convergence threshold")
    p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    p.add_argument("--center", choices=rpls.CENTER_MODES, default=None,
                   help=f"column centering for the robust solver (default {rpls.RplsConfig.center})")
    p.add_argument("--config", default=None, help="JSON file with hyperparameter defaults")


def _add_outlier_flags(p):
    spec = datagen.OutlierSpec
    p.add_argument("--outliers", choices=["none", "sparse", "lowtail"], default="none")
    p.add_argument("--outlier-fraction", type=float, default=spec.fraction)
    p.add_argument("--outlier-magnitude", type=float, default=spec.magnitude)
    p.add_argument("--tail-fraction", type=float, default=spec.tail_fraction)
    p.add_argument("--tail-multiplier", type=float, default=spec.tail_multiplier)


def _rpls_config(args) -> rpls.RplsConfig:
    """RplsConfig's defaults < --config file < explicit flags."""
    h = {}
    if args.config:
        file_cfg = _read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise RplsError(f"{args.config}: config file must hold a JSON object, got {type(file_cfg).__name__}")
        unknown = set(file_cfg) - set(HYPER_KEYS)
        if unknown:
            raise RplsError(f"{args.config}: unknown keys in config file: {sorted(unknown)}")
        h.update(file_cfg)
    h.update({key: getattr(args, key) for key in HYPER_KEYS if getattr(args, key) is not None})
    return rpls.RplsConfig(**h)


def _outlier_spec(args):
    """The OutlierSpec of the outlier flags, checked under every regime; None under ``--outliers none``."""
    spec = datagen.OutlierSpec(
        kind=datagen.SPARSE_RANDOM if args.outliers == "sparse" else datagen.LOW_TAIL,
        fraction=args.outlier_fraction,
        magnitude=args.outlier_magnitude,
        tail_fraction=args.tail_fraction,
        tail_multiplier=args.tail_multiplier,
        seed=args.seed,
    )
    return None if args.outliers == "none" else spec


def _corrupt(spec, x, y):
    """Corrupted copies of x and y under ``spec``, and its CorruptionMask."""
    if spec.kind == datagen.SPARSE_RANDOM:
        return datagen.inject_sparse(x, y, spec)
    y, mask = datagen.inject_low_tail(y, spec)
    return x, y, mask


def _load_xy(args):
    x = load_csv(DatasetFile(args.x, has_header=args.has_header))
    y = load_csv(DatasetFile(args.y, has_header=args.has_header))
    return x, y


def cmd_synth(args) -> int:
    spec = datagen.SynthSpec(
        n=args.n, p=args.p, r=args.r, k_true=args.k, n_collinear=args.n_collinear,
        noise_sigma=args.noise_sigma, seed=args.seed,
    )
    outliers = _outlier_spec(args)
    x, y, truth = datagen.generate(spec)
    files = {}
    if outliers is not None:
        files = {"x_clean.csv": x, "y_clean.csv": y}
        x, y, mask = _corrupt(outliers, x, y)
        if mask.x is not None:
            files["mask_x.csv"] = mask.x.astype(float)
        files["mask_y.csv"] = mask.y.astype(float)
    files.update({"x.csv": x, "y.csv": y, "truth_scores.csv": truth.q_true,
                  "truth_loadings.csv": truth.loadings, "truth_theta.csv": truth.theta_true})
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in files.items():
        write_csv(out / name, matrix)
    print(f"wrote synthetic dataset ({spec.n}x{spec.p} predictors, {spec.r} responses) to {out}")
    return 0


def cmd_fit(args) -> int:
    cfg = _rpls_config(args)
    x, y = _load_xy(args)
    model, _ = evaluate.METHODS[args.method].fit(x, y, cfg)
    trace = None
    if isinstance(model, rpls.RplsModel):
        trace = np.array(model.residual_trace, dtype=np.float64)
        if not model.converged:
            print(f"warning: not converged within {model.config.max_iter} iterations", file=sys.stderr)
        model = projection.from_rpls(model)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if trace is not None:
        write_csv(out / "residual_trace.csv", trace, header=["iteration", "primal_residual"])
    save_model(out / "model.json", model)
    print(f"wrote {out / 'model.json'}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    x_new = load_csv(DatasetFile(args.x, has_header=args.has_header))
    y_hat = evaluate.predict_model(model, x_new)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "predictions.csv", y_hat)
    print(f"wrote {out / 'predictions.csv'}")
    return 0


def _write_bench_outputs(out, report, y_test):
    tags = [t for t in report.results]
    r = y_test.shape[1]
    header = ["row"] + [f"{tag}_{j+1}" for tag in ["TRUE", *tags] for j in range(r)]
    lines = [",".join(header)]
    for i in range(y_test.shape[0]):
        cells = [str(i)] + [format_float(v) for v in y_test[i]]
        for tag in tags:
            res = report.results[tag]
            if res.predictions is not None:
                cells += [format_float(v) for v in res.predictions[i]]
            else:
                cells += [""] * r
        lines.append(",".join(cells))
    nmse_cells = ["NMSE"] + [""] * r
    for tag in tags:
        res = report.results[tag]
        nmse_cells += [format_float(res.nmse) if res.nmse is not None else ""] * r
    lines.append(",".join(nmse_cells))
    _write_text(out / "report.csv", "\n".join(lines) + "\n")

    doc = {
        "dataset_tag": report.dataset_tag,
        "train_indices": report.train_indices.tolist(),
        "test_indices": report.test_indices.tolist(),
        "methods": {
            tag: {"nmse": res.nmse, "error": res.error} for tag, res in report.results.items()
        },
    }
    _write_text(out / "report.json", json.dumps(doc, indent=1) + "\n")

    for tag, res in report.results.items():
        name = tag.lower()
        if res.predictions is not None:
            write_csv(out / f"predictions_{name}.csv", res.predictions)
        if res.scores is not None and res.scores.shape[1] >= 2:
            scores_2d = res.scores[:, :2]
            write_csv(out / f"scores_{name}.csv", scores_2d, header=["score_1", "score_2"])
            try:
                ell = evaluate.confidence_ellipse(scores_2d)
                write_csv(
                    out / f"ellipse_{name}.csv",
                    np.array([[ell.center[0], ell.center[1], ell.semi_axes[0], ell.semi_axes[1], ell.rotation_angle]]),
                    header=["center_1", "center_2", "semi_major", "semi_minor", "angle_radians"],
                )
            except RplsError as exc:
                print(f"warning: no ellipse for {name}: {exc}", file=sys.stderr)


def cmd_bench(args) -> int:
    if not 0.0 < args.split < 1.0:
        raise RplsError(f"--split must be in (0, 1), got {args.split}")
    method_keys = [m.strip() for m in args.methods.split(",") if m.strip()]
    evaluate._check_methods(method_keys, evaluate.METHODS, "--methods")
    tags = [evaluate.METHODS[m].tag for m in method_keys]
    cfg = _rpls_config(args)
    outliers = _outlier_spec(args)

    x, y = _load_xy(args)
    n = x.shape[0]
    perm = datagen.rng_from_seed(args.seed).permutation(n)
    n_train = int(round(args.split * n))
    if n_train < 1 or n_train >= n:
        raise RplsError(f"--split {args.split} leaves an empty train or test set for {n} rows")
    train, test = np.sort(perm[:n_train]), np.sort(perm[n_train:])

    if outliers is not None:
        x_tr, y_tr, _ = _corrupt(outliers, x[train], y[train])
        x, y = x.copy(), y.copy()
        x[train], y[train] = x_tr, y_tr

    report = evaluate.run_experiment(x, y, (train, test), tags, cfg, dataset_tag=Path(args.x).name)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_bench_outputs(out, report, y[test])
    for tag in tags:
        res = report.results[tag]
        status = f"nmse={format_float(res.nmse)}" if res.nmse is not None else f"failed: {res.error}"
        print(f"{tag}: {status}")
    print(f"report written to {out}")
    return 0


@functools.cache  # the tree never changes, so one build serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpls",
        description="Outlier-robust PLS and classical baselines: data synthesis, fitting, prediction, benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset (optionally corrupted)")
    spec = datagen.SynthSpec
    p_synth.add_argument("--n", type=int, default=spec.n)
    p_synth.add_argument("--p", type=int, default=spec.p)
    p_synth.add_argument("--r", type=int, default=spec.r)
    p_synth.add_argument("--k", type=int, default=spec.k_true, help="true latent dimension")
    p_synth.add_argument("--n-collinear", type=int, default=spec.n_collinear)
    p_synth.add_argument("--noise-sigma", type=float, default=spec.noise_sigma)
    p_synth.add_argument("--seed", type=int, default=spec.seed)
    _add_outlier_flags(p_synth)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_fit = sub.add_parser("fit", help="fit one method and write model.json")
    p_fit.add_argument("--x", required=True)
    p_fit.add_argument("--y", required=True)
    p_fit.add_argument("--method", required=True, choices=sorted(evaluate.METHODS))
    p_fit.add_argument("--has-header", action="store_true")
    _add_hyper_flags(p_fit)
    p_fit.add_argument("--out-dir", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="apply a saved model to new predictors")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--x", required=True)
    p_pred.add_argument("--has-header", action="store_true")
    p_pred.add_argument("--out-dir", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_bench = sub.add_parser("bench", help="train/test comparison of several methods")
    p_bench.add_argument("--x", required=True)
    p_bench.add_argument("--y", required=True)
    p_bench.add_argument("--methods", default=",".join(evaluate.METHODS))
    p_bench.add_argument("--split", type=float, default=0.8, help="train fraction")
    p_bench.add_argument("--seed", type=int, default=datagen.OutlierSpec.seed, help="split shuffle / outlier seed")
    p_bench.add_argument("--has-header", action="store_true")
    _add_outlier_flags(p_bench)
    _add_hyper_flags(p_bench)
    p_bench.add_argument("--out-dir", required=True)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RplsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
