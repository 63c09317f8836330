"""Baseline regressor tests: MLR, PCR, iterative PLS, prediction."""

import numpy as np
import pytest

from robustpls.baselines import LinearModel, fit_mlr, fit_pcr, fit_pls_nipals, predict
from robustpls.errors import ConfigError, DimensionError

from conftest import random_orthonormal


class TestMlr:
    def test_exact_interpolation(self, rng):
        # y - y_mean = (x - x_mean) @ theta_star, so centering keeps the oracle exact.
        x = rng.standard_normal((30, 6))
        theta_star = rng.standard_normal((6, 2))
        y = x @ theta_star
        model = fit_mlr(x, y)
        np.testing.assert_allclose(model.theta, theta_star, atol=1e-8)

    def test_orthonormal_predictors(self, rng):
        # Orthonormal columns with zero mean: centering leaves x as it is,
        # and x.T @ (y - y_mean) = x.T @ y.
        a = rng.standard_normal((20, 5))
        x = np.linalg.qr(a - a.mean(axis=0))[0]
        y = rng.standard_normal((20, 3))
        model = fit_mlr(x, y)
        np.testing.assert_allclose(model.theta, x.T @ y, atol=1e-10)

    def test_matches_normal_equations_oracle(self, rng):
        x = rng.standard_normal((40, 8))
        y = rng.standard_normal((40, 3))
        model = fit_mlr(x, y)
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        oracle = np.linalg.solve(xc.T @ xc, xc.T @ yc)
        np.testing.assert_allclose(model.theta, oracle, atol=1e-10)

    def test_residual_orthogonality(self, rng):
        x = rng.standard_normal((50, 7))
        y = rng.standard_normal((50, 2))
        model = fit_mlr(x, y)
        xc = x - model.x_means
        yc = y - model.y_means
        resid = yc - xc @ model.theta
        assert np.linalg.norm(xc.T @ resid) < 1e-8 * np.linalg.norm(xc) * np.linalg.norm(yc)

    def test_rank_deficient_notes_pseudoinverse(self, rng):
        x = rng.standard_normal((20, 4))
        x = np.hstack([x, x[:, :2]])  # duplicated columns
        y = rng.standard_normal((20, 2))
        model = fit_mlr(x, y)
        assert model.notes and "pseudoinverse" in model.notes[0]
        assert np.isfinite(model.theta).all()


class TestPcr:
    def test_full_rank_equals_mlr(self, rng):
        x = rng.standard_normal((40, 6))
        y = rng.standard_normal((40, 2))
        full = fit_pcr(x, y, k=6)
        mlr = fit_mlr(x, y)
        np.testing.assert_allclose(predict(full, x), predict(mlr, x), atol=1e-6)

    def test_single_dominant_direction(self, rng):
        # One strong rank-1 signal carrying the response, tiny noise floor.
        n, p = 60, 8
        t = rng.standard_normal(n) * 5
        v = rng.standard_normal(p)
        v /= np.linalg.norm(v)
        x = np.outer(t, v) + 0.001 * rng.standard_normal((n, p))
        y = (2.0 * t)[:, None] + 0.001 * rng.standard_normal((n, 1))
        model = fit_pcr(x, y, k=1)
        resid = np.linalg.norm(y - predict(model, x)) / np.linalg.norm(y)
        assert resid < 1e-2

    def test_scores_orthogonal(self, rng):
        from robustpls.linalg import svd

        x = rng.standard_normal((30, 7))
        xc = x - x.mean(axis=0)
        f = svd(xc)
        scores = f.u[:, :4] * f.s[:4]
        gram = scores.T @ scores
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-8)

    def test_residual_nonincreasing_in_k(self, rng):
        x = rng.standard_normal((40, 8))
        y = rng.standard_normal((40, 2))
        resids = []
        for k in range(1, 9):
            model = fit_pcr(x, y, k=k)
            resids.append(np.linalg.norm(y - predict(model, x)))
        assert all(b <= a + 1e-10 for a, b in zip(resids, resids[1:]))

    def test_k_out_of_range(self, rng):
        # PCR and PLS share RplsConfig.resolve's rule and message.
        x = rng.standard_normal((10, 5))
        y = rng.standard_normal((10, 2))
        for fitter in (fit_pcr, fit_pls_nipals):
            with pytest.raises(ConfigError, match=r"k must be in \[1, 5\], got 0"):
                fitter(x, y, k=0)
            with pytest.raises(ConfigError, match=r"k must be in \[1, 5\], got 6"):
                fitter(x, y, k=6)


class TestPls:
    def test_collinear_single_response(self, rng):
        # Response equals one predictor column; with mutually orthogonal
        # centered predictors the first weight is exactly its indicator.
        n, p = 50, 6
        x = random_orthonormal(rng, n + 1, p + 1)[:, 1:]  # columns orthogonal to 1
        x = x[:n]
        x = x - x.mean(axis=0)
        x = np.linalg.qr(x)[0]
        y = x[:, [2]] * 3.0
        factors, model = fit_pls_nipals(x, y, k=1)
        w = factors.weights[:, 0]
        expected = np.zeros(p)
        expected[2] = 1.0
        np.testing.assert_allclose(np.abs(w), expected, atol=1e-10)
        assert np.linalg.norm(y - predict(model, x)) / np.linalg.norm(y) < 1e-10

    def test_weights_unit_norm(self, rng):
        x = rng.standard_normal((30, 8))
        y = rng.standard_normal((30, 3))
        factors, _ = fit_pls_nipals(x, y, k=5)
        np.testing.assert_allclose(np.linalg.norm(factors.weights, axis=0), np.ones(5), atol=1e-10)

    def test_full_components_equal_mlr(self, rng):
        x = rng.standard_normal((40, 6))
        y = rng.standard_normal((40, 2))
        _, model = fit_pls_nipals(x, y, k=6)
        mlr = fit_mlr(x, y)
        np.testing.assert_allclose(predict(model, x), predict(mlr, x), atol=1e-6)

    def test_first_component_maximizes_covariance(self, rng):
        # Sampling oracle over random unit directions.
        x = rng.standard_normal((40, 7))
        y = rng.standard_normal((40, 2))
        factors, _ = fit_pls_nipals(x, y, k=1)
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        best = np.linalg.norm(yc.T @ (xc @ factors.weights[:, 0]))
        for _ in range(1000):
            v = rng.standard_normal(7)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(yc.T @ (xc @ v)) <= best + 1e-9

    def test_early_stop_records_components(self, rng):
        # Rank-one problem: the cross-covariance dies after one deflation.
        t = rng.standard_normal(30)
        x = np.outer(t, rng.standard_normal(5))
        y = np.outer(t, [2.0])
        factors, model = fit_pls_nipals(x, y, k=3)
        assert model.n_components == 1
        assert factors.weights.shape == (5, 1)
        assert model.notes

    def test_scores_match_deflation(self, rng):
        x = rng.standard_normal((25, 6))
        y = rng.standard_normal((25, 2))
        factors, _ = fit_pls_nipals(x, y, k=3)
        assert factors.scores.shape == (25, 3)
        assert factors.x_loadings.shape == (6, 3)
        assert factors.y_loadings.shape == (2, 3)


class TestPredict:
    def test_zero_theta_returns_means(self, rng):
        model = LinearModel(
            theta=np.zeros((4, 2)),
            x_means=np.zeros(4),
            y_means=np.array([1.5, -2.0]),
            method_tag="MLR",
        )
        out = predict(model, rng.standard_normal((7, 4)))
        np.testing.assert_allclose(out, np.tile([1.5, -2.0], (7, 1)))

    def test_batching_invariance(self, rng):
        x = rng.standard_normal((10, 5))
        y = rng.standard_normal((10, 2))
        model = fit_mlr(x, y)
        batch = predict(model, x)
        rows = np.vstack([predict(model, x[i : i + 1]) for i in range(10)])
        # Row-batched and single-row BLAS paths agree to rounding.
        np.testing.assert_allclose(batch, rows, atol=1e-12)

    def test_affine_in_input(self, rng):
        x = rng.standard_normal((10, 5))
        y = rng.standard_normal((10, 2))
        model = fit_mlr(x, y)
        x1 = rng.standard_normal((3, 5))
        x2 = rng.standard_normal((3, 5))
        a = 0.3
        lhs = predict(model, a * x1 + (1 - a) * x2)
        rhs = a * predict(model, x1) + (1 - a) * predict(model, x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dimension_mismatch(self, rng):
        model = fit_mlr(rng.standard_normal((10, 5)), rng.standard_normal((10, 2)))
        with pytest.raises(DimensionError):
            predict(model, rng.standard_normal((3, 4)))

    def test_invalid_method_tag(self):
        with pytest.raises(ConfigError):
            LinearModel(
                theta=np.zeros((2, 1)),
                x_means=np.zeros(2),
                y_means=np.zeros(1),
                method_tag="RIDGE",
            )
