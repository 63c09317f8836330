"""Metric, experiment-harness, and confidence-ellipse tests."""

import math

import numpy as np
import pytest

from robustpls.datagen import SynthSpec, generate, rng_from_seed
from robustpls.errors import ConfigError, DegenerateEllipseError, DimensionError, MetricError
from robustpls.evaluate import (
    METHODS,
    chi2_quantile_2dof,
    confidence_ellipse,
    nmse,
    run_experiment,
)
from robustpls.rpls import RplsConfig


class TestNmse:
    def test_perfect_estimate(self, rng):
        y = rng.standard_normal((10, 2))
        assert nmse(y, y) == 0.0

    def test_zero_estimate(self, rng):
        y = rng.standard_normal((10, 2))
        assert nmse(y, np.zeros_like(y)) == pytest.approx(1.0)

    def test_scale_invariance(self, rng):
        y = rng.standard_normal((8, 3))
        e = rng.standard_normal((8, 3))
        base = nmse(y, e)
        assert nmse(5 * y, 5 * e) == pytest.approx(base, rel=1e-12)
        assert nmse(-2 * y, -2 * e) == pytest.approx(base, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e-160, 1e160, 1e300])
    def test_units_whose_squares_overflow_or_underflow(self, rng, c):
        # The norms are taken on power-of-two scaled data, so the squares
        # of these entries neither overflow nor flush to zero.
        y = rng.standard_normal((30, 4))
        e = y + 0.1 * rng.standard_normal((30, 4))
        assert nmse(c * y, c * e) == pytest.approx(nmse(y, e), rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(MetricError):
            nmse(np.zeros((3, 1)), np.ones((3, 1)))
        # A reference whose squares underflow to zero is not all-zero.
        assert nmse(np.full((3, 1), 1e-170), np.zeros((3, 1))) == 1.0

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            nmse(rng.standard_normal((3, 2)), rng.standard_normal((3, 3)))

    def test_reference_prediction_column(self):
        # Stored reference predictions (two-decimal precision) reproduce the
        # stored error value.
        from pathlib import Path

        from robustpls.io import DatasetFile, load_csv

        table = load_csv(
            DatasetFile(str(Path(__file__).parent / "data" / "octane_predictions.csv"), has_header=True)
        )
        assert abs(nmse(table[:, [0]], table[:, [5]]) - 0.0081) < 5e-4


class TestChi2Quantile:
    def test_closed_form_value(self):
        assert chi2_quantile_2dof(0.95) == pytest.approx(5.991, abs=5e-3)
        assert chi2_quantile_2dof(0.5) == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_range_check(self):
        with pytest.raises(ConfigError):
            chi2_quantile_2dof(1.0)
        with pytest.raises(ConfigError):
            chi2_quantile_2dof(0.0)


class TestConfidenceEllipse:
    def test_isotropic_axes(self):
        rng = rng_from_seed(123)
        scores = rng.standard_normal((200_000, 2))
        ell = confidence_ellipse(scores, coverage=0.95)
        assert ell.semi_axes[0] == pytest.approx(math.sqrt(5.991), abs=0.03)
        assert ell.semi_axes[1] == pytest.approx(math.sqrt(5.991), abs=0.03)

    def test_translation_equivariance(self, rng):
        scores = rng.standard_normal((500, 2))
        ell0 = confidence_ellipse(scores)
        ell1 = confidence_ellipse(scores + np.array([3.0, -4.0]))
        np.testing.assert_allclose(ell1.center, ell0.center + [3.0, -4.0], atol=1e-12)
        np.testing.assert_allclose(ell1.semi_axes, ell0.semi_axes, atol=1e-12)

    def test_scale_equivariance(self, rng):
        scores = rng.standard_normal((500, 2))
        ell0 = confidence_ellipse(scores)
        ell2 = confidence_ellipse(2.0 * scores)
        np.testing.assert_allclose(ell2.semi_axes, 2.0 * ell0.semi_axes, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e160, 1e200])
    def test_units_whose_covariance_overflows(self, rng, c):
        scores = rng.standard_normal((200, 2)) @ np.array([[2.0, 0.7], [0.0, 1.0]])
        ell0, ell = confidence_ellipse(scores), confidence_ellipse(c * scores)
        np.testing.assert_allclose(ell.semi_axes, c * ell0.semi_axes, rtol=1e-12)
        assert ell.rotation_angle == pytest.approx(ell0.rotation_angle, rel=1e-12)

    def test_axes_ordered(self, rng):
        scores = rng.standard_normal((400, 2)) * np.array([3.0, 0.5])
        ell = confidence_ellipse(scores)
        assert ell.semi_axes[0] >= ell.semi_axes[1] > 0

    def test_monte_carlo_coverage(self):
        # Mahalanobis test against the ellipse's own parameterization.
        rng = rng_from_seed(777)
        cov = np.array([[2.0, 0.7], [0.7, 1.0]])
        chol = np.linalg.cholesky(cov)
        scores = rng.standard_normal((100_000, 2)) @ chol.T + np.array([1.0, -2.0])
        ell = confidence_ellipse(scores, coverage=0.95)
        c, s = math.cos(ell.rotation_angle), math.sin(ell.rotation_angle)
        rot = np.array([[c, -s], [s, c]])
        local = (scores - ell.center) @ rot
        inside = (local[:, 0] / ell.semi_axes[0]) ** 2 + (local[:, 1] / ell.semi_axes[1]) ** 2 <= 1.0
        assert abs(inside.mean() - 0.95) < 0.01

    def test_degenerate_covariance(self, rng):
        line = np.column_stack([np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(DegenerateEllipseError):
            confidence_ellipse(line)

    def test_input_validation(self, rng):
        with pytest.raises(DimensionError):
            confidence_ellipse(rng.standard_normal((10, 3)))
        from robustpls.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            confidence_ellipse(rng.standard_normal((2, 2)))


class TestRunExperiment:
    def test_mlr_on_clean_noise_free(self):
        x, y, _ = generate(SynthSpec(noise_sigma=0.0, seed=21))
        train = np.arange(120)
        test = np.arange(120, 150)
        report = run_experiment(x, y, (train, test), ["MLR"])
        assert report.results["MLR"].nmse < 1e-8

    def test_split_row_counts(self):
        x, y, _ = generate(SynthSpec(n=60, seed=22))
        perm = rng_from_seed(5).permutation(60)
        report = run_experiment(x, y, (perm[:48], perm[48:]), ["MLR", "PCR"], config=RplsConfig(k=5))
        for res in report.results.values():
            assert res.predictions.shape == (12, 4)

    def test_shuffled_split_identical_report(self):
        x, y, _ = generate(SynthSpec(n=60, seed=23))
        perm = rng_from_seed(6).permutation(60)
        train, test = perm[:48], perm[48:]
        r1 = run_experiment(x, y, (train, test), ["MLR", "PLSR"], config=RplsConfig(k=4))
        r2 = run_experiment(x, y, (train[::-1], test[::-1]), ["MLR", "PLSR"], config=RplsConfig(k=4))
        for tag in ("MLR", "PLSR"):
            np.testing.assert_array_equal(r1.results[tag].predictions, r2.results[tag].predictions)
            assert r1.results[tag].nmse == r2.results[tag].nmse

    def test_no_test_leakage(self):
        x, y, _ = generate(SynthSpec(n=50, seed=24))
        x_orig, y_orig = x.copy(), y.copy()
        perm = rng_from_seed(7).permutation(50)
        run_experiment(x, y, (perm[:40], perm[40:]), ["MLR", "PCR", "PLSR"], config=RplsConfig(k=3))
        np.testing.assert_array_equal(x, x_orig)
        np.testing.assert_array_equal(y, y_orig)

    def test_all_methods_produce_results(self):
        x, y, _ = generate(SynthSpec(n=80, seed=25))
        perm = rng_from_seed(8).permutation(80)
        tags = ["MLR", "PCR", "PLSR", "PLS_PROJ", "RPLS_PROJ"]
        report = run_experiment(x, y, (perm[:64], perm[64:]), tags, config=RplsConfig(k=5))
        for tag in tags:
            res = report.results[tag]
            assert res.error is None
            assert res.nmse is not None and np.isfinite(res.nmse)
        assert report.results["RPLS_PROJ"].scores.shape == (64, 5)
        assert report.results["MLR"].scores is None

    def test_config_k_sets_every_latent_method(self):
        # One k, from the config, for the baselines and the robust solver alike.
        x, y, _ = generate(SynthSpec(n=60, seed=28))
        perm = rng_from_seed(10).permutation(60)
        train, test = perm[:48], perm[48:]
        config = RplsConfig(k=3)
        tags = ["PCR", "PLSR", "PLS_PROJ", "RPLS_PROJ"]
        report = run_experiment(x, y, (train, test), tags, config=config)
        for tag in tags:
            assert report.results[tag].scores.shape == (48, 3), tag
        x_train, y_train = x[np.sort(train)], y[np.sort(train)]
        assert METHODS["pcr"].fit(x_train, y_train, config)[0].n_components == 3
        assert METHODS["plsr"].fit(x_train, y_train, config)[0].n_components == 3

    def test_pcr_scores_hold_the_kept_directions(self):
        # x has rank 3 after centering, so PCR at k = 5 drops two numerically
        # zero directions and publishes only the scores it fits with.
        x, y, _ = generate(SynthSpec(n=60, p=12, r=2, k_true=3, n_collinear=2, seed=5))
        model, scores = METHODS["pcr"].fit(x, y, RplsConfig(k=5))
        assert model.n_components == 3
        assert scores.shape == (60, 3)

    def test_method_error_isolated(self):
        x, y, _ = generate(SynthSpec(n=30, p=10, n_collinear=2, seed=26))
        perm = rng_from_seed(9).permutation(30)
        # k larger than test-set geometry allows for PCR: recorded, not raised.
        report = run_experiment(x, y, (perm[:24], perm[24:]), ["MLR", "PCR"], config=RplsConfig(k=25))
        assert report.results["MLR"].error is None
        assert report.results["PCR"].error is not None
        assert report.results["PCR"].predictions is None

    def test_split_validation(self):
        x, y, _ = generate(SynthSpec(n=30, p=10, n_collinear=2, seed=27))
        with pytest.raises(ConfigError):
            run_experiment(x, y, ([0, 1], [1, 2]), ["MLR"])
        with pytest.raises(ConfigError, match="^split indices must be non-empty 1-D sequences$"):
            run_experiment(x, y, ([], [2]), ["MLR"])
        with pytest.raises(ConfigError):
            run_experiment(x, y, ([0, 1], [45]), ["MLR"])
        with pytest.raises(ConfigError):
            run_experiment(x, y, ([0, 0, 1], [2]), ["MLR"])
        with pytest.raises(ConfigError):
            run_experiment(x, y, ([0, 1], [2]), ["OLS"])

    @pytest.mark.parametrize("train, test, dtypes", [
        ([0.5, 1.7, 2.9], [4, 5], "float64 and int64"),
        (np.arange(30) < 20, np.arange(30) >= 20, "bool and bool"),
    ], ids=["float", "bool"])
    def test_split_indices_must_be_integers(self, train, test, dtypes):
        # Neither is cast: a float split would run as its truncated rows.
        x, y, _ = generate(SynthSpec(n=30, p=10, n_collinear=2, seed=27))
        with pytest.raises(ConfigError, match=f"^split indices must be integers, got {dtypes}$"):
            run_experiment(x, y, (train, test), ["MLR"])

    def test_method_list_validation(self):
        # As in rpls bench: no method is an error, and so is a repeated tag,
        # which would be fitted twice but reported once.
        x, y, _ = generate(SynthSpec(n=30, p=10, n_collinear=2, seed=27))
        with pytest.raises(ConfigError, match="no method"):
            run_experiment(x, y, ([0, 1], [2]), [])
        with pytest.raises(ConfigError, match=r"\['MLR'\] repeated"):
            run_experiment(x, y, ([0, 1], [2]), ["MLR", "PCR", "MLR"])
