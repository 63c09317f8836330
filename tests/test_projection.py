"""Projection-regression tests: score recovery, prediction identities, screening."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import robustpls as rp
from robustpls.baselines import BLOCK_BYTES, RANK_RCOND, LinearModel, PlsFactors, fit_pls_nipals, predict
from robustpls.datagen import LOW_TAIL, OutlierSpec, SynthSpec, generate, inject_low_tail, rng_from_seed
from robustpls.errors import DimensionError, InvalidInputError
from robustpls import linalg, projection
from robustpls.io import load_model, model_to_dict, save_model
from robustpls.linalg import svd
from robustpls.projection import (
    DEFICIENT_NOTE,
    STABILITY_THRESHOLD,
    ZERO_NOTE,
    ProjectionRegressor,
    from_pls,
    from_rpls,
    predict_projection,
    project,
    regression_matrix,
)
from robustpls.rpls import RplsConfig, fit

from conftest import dot_by_blocks, load_perfbench, random_orthonormal


def make_regressor(rng, p=7, r=3, k=4):
    return ProjectionRegressor(
        lambda_x=rng.standard_normal((p, k)),
        lambda_y=rng.standard_normal((r, k)),
        x_means=rng.standard_normal(p),
        y_means=rng.standard_normal(r),
        source_tag="RPLS",
    )


def regressor_over(lambda_x, r=2):
    """A regressor over the given predictor loadings, with unit response loadings and zero offsets."""
    p, k = lambda_x.shape
    return ProjectionRegressor(lambda_x=lambda_x, lambda_y=np.ones((r, k)), x_means=np.zeros(p),
                               y_means=np.zeros(r), source_tag="RPLS")


def screen(model):
    """``(u, s, vt, keep)``: canonical factors of the fitted ``lambda_x`` and
    the directions the screen keeps, judged as ``from_rpls`` judges them."""
    u, s, vt = svd(model.state.lambda_x)
    leverage = np.linalg.norm(model.state.delta_x @ u, axis=0)
    return u, s, vt, ~((s > RANK_RCOND * s.max()) & (leverage > STABILITY_THRESHOLD * s))


def hijacked_datasets():
    """``(x, y, train, test, corrupted y[train])`` on which the screen fires."""
    x, y, _ = generate(SynthSpec(seed=1007))
    perm = rng_from_seed(2007).permutation(150)
    train, test = perm[:120], perm[120:]
    yield x, y, train, test, inject_low_tail(y[train], OutlierSpec(kind=LOW_TAIL))[0]
    # A nir-lowtail benchmark dataset (60x401x1), split and corrupted as
    # `rpls bench --seed s --outliers lowtail` does. The sorted split matters:
    # with the rows in another order the fit lands in a basin where the
    # screen does not fire.
    s = 1490961094
    x, y, _ = generate(SynthSpec(n=60, p=401, r=1, seed=s))
    perm = rng_from_seed(s).permutation(60)
    train, test = np.sort(perm[:48]), np.sort(perm[48:])
    yield x, y, train, test, inject_low_tail(y[train], OutlierSpec(kind=LOW_TAIL, seed=s))[0]


def screened_fits():
    """``(x_test, model)`` for fits on which the screen fires: both hijacked
    datasets at k = 5, and the first 3 paper-sparse benchmark datasets of
    seed 1 at k = 8, one more direction than the data carry."""
    for x, y, train, test, y_bad in hijacked_datasets():
        yield x[test], fit(x[train], y_bad, RplsConfig(k=5))
    workloads = load_perfbench("workloads")
    for seed in workloads.dataset_seeds(1, 16)[:3]:
        d = workloads.make_dataset(rp, workloads.WORKLOADS["paper-sparse"], seed)
        yield d.x_test, fit(d.x_train, d.y_train, RplsConfig(k=8))


def clean_fit():
    """A fit on uncorrupted data, on which the screen does not fire."""
    x, y, _ = generate(SynthSpec(seed=3))
    return fit(x, y, RplsConfig(k=5))


# The workloads the benchmark gates, and the largest relative distance between
# a regressor in the principal basis and one over the solver's loadings, on
# their 16 seed-1 datasets; seen: 6.3e-15 (paper-sparse) and 4.8e-15 (nir-lowtail).
GATED = ("paper-sparse", "nir-lowtail")
BASIS_RTOL = 1e-12


class TestProject:
    def test_exact_preimage(self, rng):
        reg = make_regressor(rng)
        q_star = rng.standard_normal((6, 4))
        x_new = q_star @ reg.lambda_x.T + reg.x_means
        np.testing.assert_allclose(project(reg, x_new), q_star, atol=1e-8)

    def test_means_give_zero_scores(self, rng):
        reg = make_regressor(rng)
        np.testing.assert_allclose(project(reg, reg.x_means[None, :]), np.zeros((1, 4)), atol=1e-12)

    def test_least_squares_local_optimality(self, rng):
        # Perturbing the returned scores in random directions never improves
        # the reconstruction residual.
        reg = make_regressor(rng)
        x_new = rng.standard_normal((1, 7))
        q = project(reg, x_new)
        base = np.linalg.norm((x_new - reg.x_means) - q @ reg.lambda_x.T)
        for _ in range(200):
            d = rng.standard_normal(4) * 1e-3
            perturbed = np.linalg.norm((x_new - reg.x_means) - (q + d) @ reg.lambda_x.T)
            assert perturbed >= base - 1e-12

    def test_projection_idempotence(self, rng):
        reg = make_regressor(rng)
        q = rng.standard_normal((5, 4))
        x_new = q @ reg.lambda_x.T + reg.x_means
        np.testing.assert_allclose(project(reg, x_new), q, atol=1e-8)

    def test_dimension_mismatch(self, rng):
        reg = make_regressor(rng)
        with pytest.raises(DimensionError):
            project(reg, rng.standard_normal((3, 9)))


class TestPredictProjection:
    def test_identity_latent_map(self, rng):
        # lambda_x == lambda_y with x_new in the loading row space: the
        # prediction reproduces the centered input.
        lam = rng.standard_normal((5, 3))
        reg = ProjectionRegressor(
            lambda_x=lam, lambda_y=lam,
            x_means=np.zeros(5), y_means=np.zeros(5),
            source_tag="RPLS",
        )
        q = rng.standard_normal((4, 3))
        x_new = q @ lam.T
        np.testing.assert_allclose(predict_projection(reg, x_new), x_new, atol=1e-9)

    def test_two_formulas_agree(self, rng):
        reg = make_regressor(rng)
        x_new = rng.standard_normal((6, 7))
        via_scores = predict_projection(reg, x_new)
        via_theta = (x_new - reg.x_means) @ regression_matrix(reg) + reg.y_means
        np.testing.assert_allclose(via_scores, via_theta, atol=1e-10)

    def test_affine_in_input(self, rng):
        reg = make_regressor(rng)
        x1 = rng.standard_normal((3, 7))
        x2 = rng.standard_normal((3, 7))
        a = 0.25
        lhs = predict_projection(reg, a * x1 + (1 - a) * x2)
        rhs = a * predict_projection(reg, x1) + (1 - a) * predict_projection(reg, x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_noise_free_fixture(self, rng):
        # Forward synthesis: responses exactly linear in the latent scores.
        n, p, r, k = 40, 8, 2, 3
        q = random_orthonormal(rng, n, k)
        lx = rng.standard_normal((p, k))
        ly = rng.standard_normal((r, k))
        x = q @ lx.T
        y = q @ ly.T
        model = fit(x, y, RplsConfig(k=k, center="none"))
        reg = from_rpls(model)
        np.testing.assert_allclose(predict_projection(reg, x), y, atol=1e-4)


class TestFromRpls:
    def test_zero_response_loadings_predict_offsets(self, rng):
        x, y, _ = generate(SynthSpec(n=30, p=8, r=2, k_true=2, n_collinear=2, seed=4))
        model = fit(x, np.zeros((30, 2)), RplsConfig(k=2))
        reg = from_rpls(model)
        out = predict_projection(reg, x[:5])
        np.testing.assert_allclose(out, np.tile(model.y_means, (5, 1)), atol=1e-6)

    def test_training_predictions_track_low_rank_fit(self):
        x, y, _ = generate(SynthSpec(seed=9))
        model = fit(x, y, RplsConfig(k=5))
        reg = from_rpls(model)
        preds = predict_projection(reg, x)
        target = model.low_rank_y() + model.y_means
        # Training rows project back to their fitted low-rank responses up
        # to the sparse block's leverage (observed ~1.1e-2, frozen at 3e-2).
        assert np.linalg.norm(preds - target) / np.linalg.norm(target) < 3e-2

    def test_consistency_with_decomposition(self):
        # On the training data, the explicit regression matrix maps the
        # denoised predictors onto the denoised responses at residual scale.
        x, y, _ = generate(SynthSpec(seed=13))
        model = fit(x, y, RplsConfig(k=5))
        reg = from_rpls(model)
        theta = regression_matrix(reg)
        lhs = model.low_rank_x() @ theta
        rhs = model.low_rank_y()
        assert np.linalg.norm(lhs - rhs) <= max(50 * model.config.tol, 1e-6 * np.linalg.norm(rhs))

    def test_screen_removes_hijacked_direction(self):
        # Low-tail response corruption can capture a latent direction that
        # the predictors cannot support; the screen removes it.
        for x, y, train, test, y_bad in hijacked_datasets():
            model = fit(x[train], y_bad, RplsConfig(k=5))
            screened = from_rpls(model)
            raw = ProjectionRegressor(
                lambda_x=model.state.lambda_x, lambda_y=model.state.lambda_y,
                x_means=model.x_means, y_means=model.y_means, source_tag="RPLS",
            )
            assert any("unstable" in note for note in screened.notes)
            assert not raw.notes
            # The screened regressor predicts sanely; the raw one blows up.
            err_screened = np.linalg.norm(predict_projection(screened, x[test]) - y[test])
            err_raw = np.linalg.norm(predict_projection(raw, x[test]) - y[test])
            scale = np.linalg.norm(y[test])
            assert err_screened / scale < 1.0 < err_raw / scale

    def test_screen_gives_the_bits_of_canonical_factors(self):
        # Every regressor holds its kept directions in the principal basis of
        # lambda_x, with canonical signs, bit for bit: a clean fit all k of
        # them, a hijacked fit fewer.
        fits = [(clean_fit(), True)]
        fits += [(fit(x[train], y_bad, RplsConfig(k=5)), False) for x, y, train, test, y_bad in hijacked_datasets()]
        for model, clean in fits:
            u, s, vt, keep = screen(model)
            assert keep.all() == clean
            reg = from_rpls(model)
            rebuilt = ProjectionRegressor(
                lambda_x=u[:, keep] * s[keep], lambda_y=model.state.lambda_y @ vt[keep].T,
                x_means=model.x_means, y_means=model.y_means, source_tag="RPLS", notes=reg.notes,
            )
            for name in ("lambda_x", "lambda_y", "w", "offset"):
                np.testing.assert_array_equal(getattr(reg, name), getattr(rebuilt, name), err_msg=name)

    def test_screened_fit_keeps_only_its_directions(self, tmp_path):
        # Each screened fit stores k - removed columns, carries the screen's
        # note alone, saves a smaller document than the p x k rank-m product
        # through the kept factors, and predicts as that product does.
        for x_test, model in screened_fits():
            u, s, vt, keep = screen(model)
            removed = int((~keep).sum())
            assert 0 < removed < keep.size
            reg = from_rpls(model)
            assert reg.lambda_x.shape[1] == reg.lambda_y.shape[1] == keep.size - removed
            assert reg.notes == (f"removed {removed} unstable latent direction(s)",)
            oracle = replace(reg, lambda_x=(u[:, keep] * s[keep]) @ vt[keep],
                             lambda_y=model.state.lambda_y @ vt[keep].T @ vt[keep])
            assert oracle.notes[-1] == DEFICIENT_NOTE
            save_model(tmp_path / "kept.json", reg)
            save_model(tmp_path / "product.json", oracle)
            assert (tmp_path / "kept.json").stat().st_size < (tmp_path / "product.json").stat().st_size
            want = predict_projection(oracle, x_test)
            assert np.linalg.norm(predict_projection(reg, x_test) - want) <= 1e-12 * np.linalg.norm(want)

    def test_zero_loadings_get_only_the_compile_note(self):
        # No direction has gain, so the screen judges none, whatever the sparse block holds.
        x, y, _ = generate(SynthSpec(seed=3))
        model = fit(x, y, RplsConfig(k=5))
        zero = replace(model, state=replace(model.state, lambda_x=np.zeros_like(model.state.lambda_x)))
        assert zero.state.delta_x.any()
        reg = from_rpls(zero)
        assert reg.notes == (ZERO_NOTE,)
        np.testing.assert_array_equal(reg.lambda_y, model.state.lambda_y)

    def test_gainless_direction_is_deficient_not_unstable(self, rng):
        # Gains 10, 5 and 0; the sparse block has leverage 100 along the
        # second direction and along every direction orthogonal to the first
        # two, the gainless one included. Only the second is unstable.
        n, p = 10, 6
        model = fit(rng.standard_normal((n, p)), rng.standard_normal((n, 2)), RplsConfig(k=3))
        lambda_x = np.zeros((p, 3))
        lambda_x[0, 0], lambda_x[1, 1] = 10.0, 5.0
        delta_x = np.zeros((n, p))
        delta_x[np.arange(p - 1), np.arange(1, p)] = 100.0
        reg = from_rpls(replace(model, state=replace(model.state, lambda_x=lambda_x, delta_x=delta_x)))
        assert reg.notes == ("removed 1 unstable latent direction(s)", DEFICIENT_NOTE)
        assert reg.lambda_x.shape == (p, 2)

    def test_screen_inert_on_clean_fit(self):
        reg = from_rpls(clean_fit())
        assert not any("unstable" in note for note in reg.notes)

    @pytest.mark.parametrize("name", GATED)
    def test_predicts_as_the_solver_loadings(self, name):
        # With no direction removed, the principal basis predicts as the
        # solver's own loadings do, on the test rows and on a 1,000-row batch.
        workloads = load_perfbench("workloads")
        for seed in workloads.dataset_seeds(1, 16):
            d = workloads.make_dataset(rp, workloads.WORKLOADS[name], seed)
            model = fit(d.x_train, d.y_train, RplsConfig(k=workloads.K))
            reg = from_rpls(model)
            loadings = ProjectionRegressor(
                lambda_x=model.state.lambda_x, lambda_y=model.state.lambda_y,
                x_means=model.x_means, y_means=model.y_means, source_tag="RPLS",
            )
            for x in (d.x_test, workloads.batch_rows(d, d.seed)):
                want = predict_projection(loadings, x)
                gap = np.abs(predict_projection(reg, x) - want).max()
                assert gap <= BASIS_RTOL * np.abs(want).max(), (seed, gap)


class TestFromPls:
    def test_wraps_pls_factors(self, rng):
        x = rng.standard_normal((30, 8))
        y = rng.standard_normal((30, 2))
        factors, linear = fit_pls_nipals(x, y, k=3)
        reg = from_pls(factors, linear.x_means, linear.y_means)
        assert reg.source_tag == "PLS"
        assert reg.lambda_x.shape == (8, 3)
        preds = predict_projection(reg, x)
        assert preds.shape == (30, 2)
        assert np.isfinite(preds).all()

    def test_shares_no_memory(self, rng):
        # The regressor copies the PLS factors' loadings and the PLSR model's means.
        x = rng.standard_normal((30, 8))
        y = rng.standard_normal((30, 2))
        factors, linear = fit_pls_nipals(x, y, k=3)
        reg = from_pls(factors, linear.x_means, linear.y_means)
        theirs = [*vars(factors).values(), linear.theta, linear.x_means, linear.y_means, linear.offset]
        for name in (*reg.AXES, "w", "offset"):
            assert not any(np.shares_memory(getattr(reg, name), a) for a in theirs), name


def pls_regressor(rng, x_loadings, r=3):
    """A regressor over the given predictor loadings, built the way from_pls builds one."""
    p, k = x_loadings.shape
    factors = PlsFactors(
        scores=np.zeros((1, k)),
        weights=np.zeros((p, k)),
        x_loadings=x_loadings,
        y_loadings=rng.standard_normal((r, k)),
    )
    return from_pls(factors, rng.standard_normal(p), rng.standard_normal(r))


# Predictor loadings of each kind, with the note from_pls records for them.
LOADINGS = {
    "random": (lambda rng: rng.standard_normal((7, 4)), ()),
    "rank-deficient": (lambda rng: rng.standard_normal((7, 2)) @ rng.standard_normal((2, 4)),
                       (DEFICIENT_NOTE,)),
    "all-zero": (lambda rng: np.zeros((7, 4)), (ZERO_NOTE,)),
    "k=0": (lambda rng: np.zeros((7, 0)), (ZERO_NOTE,)),
}


class TestCompiledPredictor:
    @pytest.mark.parametrize("case", LOADINGS)
    def test_matches_pseudoinverse_oracle(self, rng, case):
        make_loadings, notes = LOADINGS[case]
        reg = pls_regressor(rng, make_loadings(rng))
        assert reg.notes == notes
        x_new = rng.standard_normal((6, 7))
        oracle = (x_new - reg.x_means) @ np.linalg.pinv(reg.lambda_x.T, rcond=RANK_RCOND) @ reg.lambda_y.T + reg.y_means
        # Same pseudoinverse, products taken in another order: rounding only.
        assert np.linalg.norm(predict_projection(reg, x_new) - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("case", LOADINGS)
    def test_no_svd_after_construction(self, rng, case, monkeypatch):
        reg = pls_regressor(rng, LOADINGS[case][0](rng))
        x_new = rng.standard_normal((6, 7))

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD taken after construction")

        monkeypatch.setattr(linalg, "_svd_s", no_svd)
        predict_projection(reg, x_new)
        project(reg, x_new)
        regression_matrix(reg)

    def test_compiled_map_not_serialized(self, rng, tmp_path):
        reg = make_regressor(rng)
        doc = model_to_dict(reg)
        assert "w" not in doc and "offset" not in doc and "theta" not in doc
        path = tmp_path / "model.json"
        save_model(path, reg)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.w, reg.w)
        np.testing.assert_array_equal(loaded.offset, reg.offset)

    def test_predict_goes_through_project(self, rng, monkeypatch):
        # Prediction maps the latent scores of project through the y-loadings.
        reg = make_regressor(rng)
        x_new = rng.standard_normal((6, 7))
        calls = []

        def spy(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr(projection, "project", spy)
        np.testing.assert_array_equal(
            predict_projection(reg, x_new), project(reg, x_new) @ reg.lambda_y.T + reg.y_means
        )
        assert len(calls) == 1

    @pytest.mark.parametrize("case", LOADINGS)
    def test_one_decomposition_per_build(self, rng, case, monkeypatch):
        # The rank note comes from the compile's own singular values.
        loadings = LOADINGS[case][0](rng)
        calls = []
        real_svd = linalg._svd_s

        def counting_svd(*args, **kwargs):
            calls.append(args)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(linalg, "_svd_s", counting_svd)
        pls_regressor(rng, loadings)
        assert len(calls) == 1

    def test_compile_owns_rank_notes(self, rng):
        # A rank note that does not hold is dropped; the one that does is appended.
        lam = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 4))
        reg = make_regressor(rng)
        stale = replace(reg, notes=("kept", ZERO_NOTE))
        assert stale.notes == ("kept",)
        deficient = replace(reg, lambda_x=lam, notes=("kept", DEFICIENT_NOTE))
        assert deficient.notes == ("kept", DEFICIENT_NOTE)

    def test_compiles_loadings_at_float64_max(self):
        # Unscaled, the singular values overflow to inf and no direction is kept.
        big = np.finfo(np.float64).max
        lam = np.array([[big, big], [big, -big], [0.0, big]])
        reg = regressor_over(lam)
        assert reg.notes == ()
        e = np.frexp(big)[1]
        want = np.ldexp(np.linalg.pinv(np.ldexp(lam, -e).T, rcond=RANK_RCOND), -e)
        assert np.abs(reg.w - want).max() <= 1e-12 * np.abs(want).max()

    def test_subnormal_gain_compiles_to_zero(self):
        # Unscaled, 1 / 5e-324 overflows to inf; the direction is numerically zero.
        reg = regressor_over(np.array([[5e-324, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        assert reg.notes == (ZERO_NOTE,)
        assert reg.w.tobytes() == np.zeros((3, 2)).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["lambda_x", "lambda_y"])
    def test_non_finite_loadings_rejected(self, rng, field, bad):
        reg = make_regressor(rng)
        loadings = getattr(reg, field).copy()
        loadings[0, 0] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            replace(reg, **{field: loadings})

    @pytest.mark.parametrize("fields, match", [
        ({"lambda_x": np.zeros((4, 2)), "lambda_y": np.zeros((1, 3))}, "'lambda_y' has shape"),
        ({"lambda_x": np.ones(7)}, "'lambda_x' has shape"),
        ({"x_means": np.zeros(6)}, "'x_means' has shape"),
        ({"y_means": np.zeros(2)}, "'y_means' has shape"),
        ({"lambda_y": np.zeros((0, 4)), "y_means": np.zeros(0)}, "'y_means' is empty"),
        ({"lambda_x": np.zeros((0, 4)), "x_means": np.zeros(0)}, "'x_means' is empty"),
    ], ids=["k-mismatch", "lambda_x-1d", "x_means-length", "y_means-length", "no-response-column",
            "no-predictor-column"])
    def test_shape_faults_rejected(self, rng, fields, match):
        # Unchecked, these fail later with a numpy matmul error, or with a
        # LinAlgError from the compile of a 1-D lambda_x; a model with no
        # response column predicts rows of no value, and every prediction
        # of one with no predictor column fails.
        with pytest.raises(DimensionError, match=match):
            replace(make_regressor(rng), **fields)

    @pytest.mark.parametrize("case", ["all-zero", "k=0"])
    def test_zero_loadings_predict_offsets(self, rng, case):
        reg = pls_regressor(rng, LOADINGS[case][0](rng), r=2)
        x_new = rng.standard_normal((5, 7))
        np.testing.assert_array_equal(regression_matrix(reg), np.zeros((7, 2)))
        np.testing.assert_array_equal(project(reg, x_new), np.zeros((5, reg.lambda_x.shape[1])))
        np.testing.assert_array_equal(predict_projection(reg, x_new), np.tile(reg.y_means, (5, 1)))

    def test_vanished_cross_covariance_round_trips(self, rng, tmp_path):
        # PLS on an all-zero response stops before its first component.
        x = rng.standard_normal((20, 6))
        factors, linear = fit_pls_nipals(x, np.zeros((20, 1)), 2)
        assert linear.theta.tobytes() == np.zeros((6, 1)).tobytes() and linear.theta.shape == (6, 1)
        assert linear.n_components == 0 and factors.scores.shape == (20, 0)
        reg = from_pls(factors, linear.x_means, linear.y_means)
        assert reg.lambda_x.shape == (6, 0)
        np.testing.assert_array_equal(predict_projection(reg, x), np.tile(reg.y_means, (20, 1)))
        path = tmp_path / "model.json"
        save_model(path, reg)
        loaded = load_model(path)
        assert loaded.lambda_x.shape == (6, 0) and loaded.lambda_y.shape == (1, 0)
        assert loaded.notes == reg.notes
        np.testing.assert_array_equal(predict_projection(loaded, x), predict_projection(reg, x))


def apply_models(rng, p, r=2, k=3, zero_rows=slice(0), gain=1.0):
    """A linear model and a projection regressor over p columns, each with
    its plain expression ``np.dot(x, M) - offset`` (then the model's response
    map; the product taken by row blocks above ``BLOCK_BYTES``, or by the
    ``dot`` it is given), its centered expression ``(x - x_means) @ M``
    (likewise) and its response means. The ``zero_rows`` of ``theta`` and of
    the predictor loadings, and so of ``M``, are zero; ``gain`` scales ``M``."""
    theta, loadings = gain * rng.standard_normal((p, r)), rng.standard_normal((p, k)) / gain
    theta[zero_rows] = loadings[zero_rows] = 0.0
    linear = LinearModel(theta=theta, x_means=rng.standard_normal(p) + 3.0,
                         y_means=rng.standard_normal(r), method_tag="MLR")
    reg = pls_regressor(rng, loadings, r=r)
    return {
        "linear": (lambda x: predict(linear, x),
                   lambda x, dot=dot_by_blocks: dot(x, linear.theta) - linear.offset,
                   lambda x: (x - linear.x_means) @ linear.theta + linear.y_means, linear.y_means),
        "projection": (lambda x: predict_projection(reg, x),
                       lambda x, dot=dot_by_blocks: (dot(x, reg.w) - reg.offset) @ reg.lambda_y.T + reg.y_means,
                       lambda x: ((x - reg.x_means) @ reg.w) @ reg.lambda_y.T + reg.y_means, reg.y_means),
    }


def with_warnings(f, x):
    """``f(x)`` and the text of every warning it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(x)
    return out, [str(w.message) for w in caught]


def assert_rejected_without_warning(apply, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^x_new contains non-finite entries$"):
            apply(x)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# A spectrum-wide batch: 401 columns, as in the NIR shape.
P = 401

# Matrices through which a product might not carry a non-finite entry of the
# batch, as (p, r, k, zero rows of M); the entry goes in column min(17, p - 1).
THIN_MATRICES = {
    "one-column": (P, 1, 1, slice(0)),  # a matrix-vector product
    # No score direction, so w has no columns; a linear model needs a
    # response column, so its theta here is a vector as in "one-column".
    "no-columns": (P, 1, 0, slice(0)),
    "zero-row": (P, 2, 3, [17]),
    # OpenBLAS returns finite zeros for an (n, 1) batch holding NaN or an
    # infinity times a 1x1 zero matrix.
    "one-zero-entry": (1, 1, 1, [0]),
}


@pytest.mark.parametrize("kind", ["linear", "projection"])
class TestBlockedApply:
    """The one uncentered apply, from one row to batches of several MiB."""

    def test_several_blocks_agree_with_direct_expression(self, rng, kind):
        apply, _, centered, _ = apply_models(rng, P)[kind]
        x = rng.standard_normal((500, P)) * 10.0 + 3.0
        assert_close(apply(x), centered(x))

    @pytest.mark.parametrize("n", [1, 7, 163, 500])
    def test_is_the_plain_product(self, rng, kind, n):
        # 163 rows of 401 float64 fill one BLOCK_BYTES block: up to there the
        # product is one np.dot, and 500 rows take four, one per row block.
        apply, plain, _, _ = apply_models(rng, P)[kind]
        x = rng.standard_normal((n, P))
        assert (n <= 163) == (x.nbytes <= BLOCK_BYTES)
        np.testing.assert_array_equal(apply(x), plain(x))

    def test_blocks_stay_close_to_the_whole_product(self, rng, kind):
        # Row blocks may sum in another order than one np.dot over the whole
        # batch. They stay within 4 eps of it, relative to its norm (0.03 to
        # 0.13 eps seen over five seeds).
        apply, plain, _, _ = apply_models(rng, P)[kind]
        x = rng.standard_normal((500, P)) * 10.0 + 3.0
        whole = plain(x, np.dot)
        assert np.linalg.norm(apply(x) - whole) <= 4 * np.finfo(np.float64).eps * np.linalg.norm(whole)

    def test_fortran_order(self, rng, kind):
        apply, _, centered, _ = apply_models(rng, P)[kind]
        x = rng.standard_normal((500, P))
        got = apply(np.asfortranarray(x))
        np.testing.assert_array_equal(got, apply(x))
        assert_close(got, centered(x))

    def test_row_wider_than_a_block(self, rng, kind):
        p = 64 * 1024 + 3  # one row of just over 512 KiB
        apply, _, centered, _ = apply_models(rng, p, k=1)[kind]
        x = rng.standard_normal((3, p))
        assert_close(apply(x), centered(x))

    def test_no_direction_left_predicts_offsets(self, rng, kind):
        apply, _, _, y_means = apply_models(rng, P, zero_rows=slice(None))[kind]
        x = rng.standard_normal((500, P))
        np.testing.assert_array_equal(apply(x), np.tile(y_means, (500, 1)))

    def test_nan_in_last_block_rejected(self, rng, kind):
        apply, _, _, _ = apply_models(rng, P)[kind]
        x = rng.standard_normal((500, P))
        x[-1, -1] = np.nan
        with pytest.raises(InvalidInputError, match="x_new contains non-finite entries"):
            apply(x)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 250, 499])  # in the first, the second and the last of four blocks
    def test_non_finite_in_any_block_rejected(self, rng, kind, value, row):
        apply, _, _, _ = apply_models(rng, P)[kind]
        x = rng.standard_normal((500, P))
        x[row, 17] = value
        assert_rejected_without_warning(apply, x)

    @pytest.mark.parametrize("shape", sorted(THIN_MATRICES))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_non_finite_rejected_through_thin_or_zero_rows(self, rng, kind, shape, value, where):
        # A large batch is checked through its product. These matrices are
        # where that could miss an entry: a zero row of M meets it with a
        # factor BLAS may skip, and with no columns there is no product.
        p, r, k, zero_rows = THIN_MATRICES[shape]
        apply, _, _, _ = apply_models(rng, p, r=r, k=k, zero_rows=zero_rows)[kind]
        n = 4 * (BLOCK_BYTES // (8 * p))  # four blocks
        x = rng.standard_normal((n, p))
        x[{"first": 0, "middle": n // 2, "last": n - 1}[where], min(17, p - 1)] = value
        assert_rejected_without_warning(apply, x)

    def test_overflow_keeps_values_and_warnings(self, rng, kind):
        # A finite batch whose product overflows is taken again with its
        # warnings, so it gives the values and warnings of the plain product.
        apply, plain, _, _ = apply_models(rng, P, gain=1e3)[kind]
        x = rng.standard_normal((500, P))
        x[[0, 250, 499]] = np.finfo(np.float64).max
        got, got_warnings = with_warnings(apply, x)
        want, want_warnings = with_warnings(plain, x)
        np.testing.assert_array_equal(got, want)
        assert not np.isfinite(got[[0, 250, 499]]).all() and np.isfinite(got[1:250]).all()
        assert got_warnings == want_warnings and "overflow encountered in dot" in got_warnings

    def test_column_mismatch_text(self, rng, kind):
        apply, _, _, _ = apply_models(rng, P)[kind]
        with pytest.raises(DimensionError, match="^x_new has 400 columns, model expects 401$"):
            apply(rng.standard_normal((500, P - 1)))

    def test_non_finite_reported_before_column_mismatch(self, rng, kind):
        apply, _, _, _ = apply_models(rng, P)[kind]
        x = rng.standard_normal((500, P - 1))
        x[250, 0] = np.nan
        with pytest.raises(InvalidInputError, match="^x_new contains non-finite entries$"):
            apply(x)


def test_no_direction_at_k0_predicts_offsets(rng):
    reg = pls_regressor(rng, np.zeros((P, 0)), r=2)
    x = rng.standard_normal((500, P))
    assert project(reg, x).shape == (500, 0)
    np.testing.assert_array_equal(predict_projection(reg, x), np.tile(reg.y_means, (500, 1)))


@pytest.mark.parametrize("kind", ["linear", "projection"])
def test_apply_makes_no_batch_sized_temporary(rng, kind):
    # Nothing the size of the batch is made: no centered copy, and no
    # whole-batch finiteness mask (x.nbytes / 8), since a batch this large is
    # checked one BLOCK_BYTES block at a time.
    apply, _, _, _ = apply_models(rng, P, k=5)[kind]
    x = rng.standard_normal((2000, P))
    apply(x[:1])  # warm up any one-time allocation
    tracemalloc.start()
    try:
        apply(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 16
