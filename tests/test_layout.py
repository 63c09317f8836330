"""No result depends on memory layout or byte order, only on the values.

Every public entry takes its data through ``linalg._matrix``, which gives
them one layout, C-ordered float64, and a model stores read-only copies of
its fields in the same layout. So Fortran-ordered, transposed, big-endian
and column-view inputs must give the bits that their C copies give: sums
and products over a column otherwise run in another order and round
differently.
"""

import numpy as np
import pytest
from conftest import assert_owns_read_only_arrays, rebuilt

from robustpls.datagen import (
    LOW_TAIL,
    SPARSE_RANDOM,
    OutlierSpec,
    SynthSpec,
    generate,
    inject_low_tail,
    inject_sparse,
)
from robustpls.evaluate import METHODS, confidence_ellipse, nmse, predict_model
from robustpls.io import load_model, save_model
from robustpls.projection import ProjectionRegressor, from_rpls, regression_matrix
from robustpls.rpls import RplsConfig, RplsModel, fit

# The benchmark's shapes: name -> (n, p, r, outlier regime, training rows).
SHAPES = {
    "paper-sparse": (150, 40, 4, SPARSE_RANDOM, 120),
    "nir-lowtail": (60, 401, 1, LOW_TAIL, 48),
}
SEEDS = (1, 2, 3)


def dataset(shape, seed):
    """A seeded benchmark-shaped problem, C-ordered, split into its training and test rows."""
    n, p, r, kind, m = SHAPES[shape]
    x, y, _ = generate(SynthSpec(n=n, p=p, r=r, seed=seed))
    spec = OutlierSpec(kind=kind, seed=seed)
    if kind == SPARSE_RANDOM:
        x, y, _ = inject_sparse(x, y, spec)
    else:
        y, _ = inject_low_tail(y, spec)
    return x[:m], y[:m], x[m:], y[m:]


def _column_views(a, b):
    """``a`` and ``b`` as the two column blocks of one ``[a b]`` array."""
    ab = np.hstack((a, b))
    return ab[:, :a.shape[1]], ab[:, a.shape[1]:]


# Name -> the same values of a pair of row-matched matrices in another layout.
LAYOUTS = {
    "fortran": lambda a, b: (np.asfortranarray(a), np.asfortranarray(b)),
    "transposed": lambda a, b: (np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T),
    "column-view": _column_views,
    "big-endian": lambda a, b: (a.astype(">f8"), b.astype(">f8")),
}


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), what


def fit_and_predict(method, x, y, x_test):
    """The training scores (or None) and test predictions of one method."""
    model, scores = METHODS[method].fit(x, y, RplsConfig())
    return scores, predict_model(model, x_test)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_method_ignores_layout(shape, method, layout):
    to_layout = LAYOUTS[layout]
    for seed in SEEDS:
        x, y, x_test, y_test = dataset(shape, seed)
        want_scores, want = fit_and_predict(method, x, y, x_test)
        scores, got = fit_and_predict(method, *to_layout(x, y), to_layout(x_test, y_test)[0])
        assert_same_bits(got, want, f"predictions, seed {seed}")
        if want_scores is not None:
            assert_same_bits(scores, want_scores, f"training scores, seed {seed}")


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rpls_fit_ignores_layout(shape, layout):
    for seed in SEEDS:
        x, y, _, _ = dataset(shape, seed)
        want = fit(x, y, RplsConfig())
        got = fit(*LAYOUTS[layout](x, y), RplsConfig())
        assert got.residual_trace == want.residual_trace, f"seed {seed}"
        assert got.config.tol == want.config.tol, f"seed {seed}"
        assert (got.converged, got.state.iteration) == (want.converged, want.state.iteration)
        assert_same_bits(got.x_means, want.x_means, f"x_means, seed {seed}")
        assert_same_bits(got.y_means, want.y_means, f"y_means, seed {seed}")


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_metrics_and_injectors_ignore_layout(layout):
    to_layout = LAYOUTS[layout]
    x, y, _ = generate(SynthSpec(seed=1))
    y_est = y + 0.1 * x[:, :y.shape[1]]
    assert nmse(*to_layout(y, y_est)) == nmse(y, y_est)

    scores = x[:, :2] @ np.array([[1.0, 0.3], [0.2, 1.0]])
    want = confidence_ellipse(scores)
    got = confidence_ellipse(to_layout(scores, scores)[0])
    assert_same_bits(got.center, want.center, "ellipse center")
    assert_same_bits(got.semi_axes, want.semi_axes, "ellipse semi-axes")
    assert got.rotation_angle == want.rotation_angle

    spec = OutlierSpec(kind=SPARSE_RANDOM, seed=1)
    got, want = inject_sparse(*to_layout(x, y), spec), inject_sparse(x, y, spec)
    for i, what in enumerate("xy"):
        assert_same_bits(got[i], want[i], f"inject_sparse {what}")
        assert_same_bits(getattr(got[2], what), getattr(want[2], what), f"inject_sparse mask.{what}")

    spec = OutlierSpec(kind=LOW_TAIL, seed=1)
    got, got_mask = inject_low_tail(to_layout(x, y)[1], spec)
    want, want_mask = inject_low_tail(y, spec)
    assert_same_bits(got, want, "inject_low_tail y")
    assert_same_bits(got_mask.y, want_mask.y, "inject_low_tail mask")


@pytest.mark.parametrize("convert", [np.asfortranarray, lambda a: a.tolist()], ids=["fortran", "lists"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_model_fields_ignore_layout(tmp_path, method, convert):
    # A model built from its fields in another layout, or as nested lists,
    # predicts bit for bit like the copy that loading it builds. The fitted
    # model, the rebuilt one and the loaded one each own read-only arrays.
    x, y, x_test, _ = dataset("paper-sparse", 1)
    fitted, _ = METHODS[method].fit(x, y, RplsConfig())
    if isinstance(fitted, RplsModel):
        fitted = from_rpls(fitted)
    model = rebuilt(fitted, convert)
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    for m in (fitted, model, loaded):
        assert_owns_read_only_arrays(m)
    for name in model.AXES:
        a = getattr(model, name)
        assert a.dtype == np.float64 and a.flags.c_contiguous, name
    assert_same_bits(predict_model(model, x_test), predict_model(loaded, x_test), "predictions")
    if isinstance(model, ProjectionRegressor):
        assert_same_bits(regression_matrix(model), regression_matrix(loaded), "regression matrix")
