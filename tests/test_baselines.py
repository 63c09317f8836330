"""Baseline regressor tests: MLR, PCR, iterative PLS, prediction."""

import numpy as np
import pytest

from robustpls import baselines
from robustpls.baselines import LinearModel, fit_mlr, fit_pcr, fit_pls_nipals, predict
from robustpls.datagen import SynthSpec, generate
from robustpls.errors import ConfigError, DimensionError, InvalidInputError, SolverError

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
        u, s, _ = svd(xc)
        scores = u[:, :4] * s[:4]
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

    def test_numerically_zero_direction_dropped(self, rng):
        # Centred rank-2 x has no third score direction: PCR with k = 3 drops it and fits as k = 2.
        x = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 5))
        y = rng.standard_normal((20, 2))
        model = fit_pcr(x, y, k=3)
        assert model.notes == ("1 of 3 score directions numerically zero: dropped",)
        assert model.n_components == 2 == fit_pls_nipals(x, y, k=3)[1].n_components
        assert fit_pcr(x, y, k=2).notes == ()
        np.testing.assert_allclose(model.theta, fit_pcr(x, y, k=2).theta, atol=1e-12)

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

    def test_unrepresentable_coefficients_raise(self, rng):
        # Coefficients of about 1e370 are beyond float64, so PLS raises as MLR
        # and PCR do, though its rounds on scaled blocks run as at any scale.
        x = 1e-170 * rng.standard_normal((20, 5))
        y = 1e200 * rng.standard_normal((20, 1))
        for fit in (fit_mlr, lambda x, y: fit_pcr(x, y, 2), lambda x, y: fit_pls_nipals(x, y, 2)):
            with pytest.raises(InvalidInputError, match="'theta' has a non-finite entry"), \
                    np.errstate(over="ignore", invalid="ignore"):
                fit(x, y)

    @pytest.mark.parametrize("n, p, rank, x_scale, y_scale", [
        (40, 8, 8, 1.0, 1.0),
        (12, 30, 12, 1.0, 1.0),
        (40, 8, 3, 1.0, 1.0),
        (30, 20, 2, 1e8, 1e-8),
        (30, 20, 5, 1e-8, 1e8),
    ], ids=["full-rank", "wide", "rank-3", "rank-2-scaled", "rank-5-scaled"])
    def test_loading_weight_product_unit_upper_triangular(self, rng, n, p, rank, x_scale, y_scale):
        # Why the composition solve needs no fallback: p_j.w_j = 1, and
        # deflation gives X_i w_j = 0 for i > j, so P^T W has no zero pivot.
        x = x_scale * rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
        y = y_scale * rng.standard_normal((n, 2))
        factors, model = fit_pls_nipals(x, y, k=min(n, p))
        pw = factors.x_loadings.T @ factors.weights
        assert model.n_components >= 1
        np.testing.assert_allclose(np.tril(pw), np.eye(model.n_components), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x_scale, y_scale", [
        (1e80, 1e80), (1e140, 1e140), (1e-155, 1e-155), (2.0**-1000, 2.0**-1000), (2.0**-1000, 2.0**-600),
        (1e155, 1e155), (1e200, 1e200), (2.0**1000, 2.0**1000), (2.0**1000, 2.0**700),
    ], ids=["1e80", "1e140", "1e-155", "2^-1000", "2^-1000,y2^-600", "1e155", "1e200", "2^1000", "2^1000,y2^700"])
    def test_fits_every_component_at_any_scale(self, rng, x_scale, y_scale):
        # The rounds run on blocks scaled by powers of two, so no product or
        # norm in them overflows or underflows at any of these scales.
        # Warnings are errors here, so every fit is also free of them.
        x = rng.standard_normal((30, 5))
        y = x @ rng.standard_normal((5, 1)) + 0.1 * rng.standard_normal((30, 1))
        want_factors, want = fit_pls_nipals(x, y, k=3)
        factors, model = fit_pls_nipals(x * x_scale, y * y_scale, k=3)
        assert (model.n_components, model.notes) == (3, ())
        unit = y_scale / x_scale
        np.testing.assert_allclose(model.theta, want.theta * unit, rtol=1e-12)
        if np.frexp(x_scale)[0] == np.frexp(y_scale)[0] == 0.5:
            # Powers of two scale every step of the fit exactly.
            np.testing.assert_array_equal(factors.weights, want_factors.weights)
            np.testing.assert_array_equal(factors.x_loadings, want_factors.x_loadings)
            np.testing.assert_array_equal(factors.scores, want_factors.scores * x_scale)
            np.testing.assert_array_equal(factors.y_loadings, want_factors.y_loadings * unit)
            np.testing.assert_array_equal(model.theta, want.theta * unit)
        for fit in (fit_mlr, lambda x, y: fit_pcr(x, y, 3)):
            base, scaled = fit(x, y), fit(x * x_scale, y * y_scale)
            assert (scaled.n_components, scaled.notes) == (base.n_components, base.notes)
            np.testing.assert_allclose(scaled.theta, base.theta * unit, rtol=1e-12)

    def test_scores_match_deflation(self, rng):
        x = rng.standard_normal((25, 6))
        y = rng.standard_normal((25, 2))
        factors, _ = fit_pls_nipals(x, y, k=3)
        assert factors.scores.shape == (25, 3)
        assert factors.x_loadings.shape == (6, 3)
        assert factors.y_loadings.shape == (2, 3)


# Rank-5 data: the 150x40 paper shape (120 rows) and the 60x401 NIR shape (48 rows, n < p).
RANK_5_DATA = {"120x40": (SynthSpec(seed=1), 120), "48x401": (SynthSpec(n=60, p=401, r=1, seed=1), 48)}


@pytest.mark.parametrize("shape", sorted(RANK_5_DATA))
def test_rank_holds_far_from_the_origin(shape):
    # Moving x by c mean column spreads leaves the centered data the same up
    # to rounding, which grows with c. Each method keeps its rank and notes,
    # and |theta| moves by at most 1e-9 of its value at c = 0 (1.1e-10 seen
    # at c = 1e8). A fixed RANK_RCOND alone took rank 6 or more from c = 1e4
    # on, with |theta| up to 3e8 times larger.
    spec, rows = RANK_5_DATA[shape]
    x, y, _ = generate(spec)
    x, y = x[:rows], y[:rows]
    spread = x.std(axis=0).mean()

    def fits(c):
        x_moved = x + c * spread
        return {"MLR": fit_mlr(x_moved, y), "PCR": fit_pcr(x_moved, y, 10), "PLSR": fit_pls_nipals(x_moved, y, 10)[1]}

    base = fits(0.0)
    assert [m.n_components for m in base.values()] == [0, 5, 5]
    assert all(m.notes for m in base.values())
    for c in (1e2, 1e4, 1e6, 1e8):
        for method, model in fits(c).items():
            want = base[method]
            assert (model.n_components, model.notes) == (want.n_components, want.notes), (c, method)
            norm, want_norm = np.linalg.norm(model.theta), np.linalg.norm(want.theta)
            assert abs(norm - want_norm) <= 1e-9 * want_norm, (c, method)


def near_max_data():
    """150x5 x whose column sums overflow float64, though every entry and the centered x are finite."""
    rng = np.random.default_rng(0)
    return rng.standard_normal((150, 5)) * 1e306 + 1e307, rng.standard_normal((150, 1))


class TestCenter:
    @pytest.mark.parametrize("fit", [fit_mlr, lambda x, y: fit_pcr(x, y, 3), lambda x, y: fit_pls_nipals(x, y, 3)[1]],
                             ids=["mlr", "pcr", "plsr"])
    def test_fits_data_whose_column_sums_overflow(self, fit):
        # Warnings are errors here, so the fit also runs without one.
        x, y = near_max_data()
        model = fit(x, y)
        assert np.isfinite(model.x_means).all() and not model.notes
        assert np.isfinite(predict(model, x)).all()

    def test_column_means_are_numpys_where_they_are_finite(self, rng):
        for spec, rows in RANK_5_DATA.values():
            x, y, _ = generate(spec)
            tiny_column = rng.standard_normal((7, 3)) * [1e-300, 1.0, 0.0]
            for a in (x[:rows], y[:rows], x * 2.0**-1000, x * 1e300 + 1e301, tiny_column):
                assert baselines._column_means(a).tobytes() == a.mean(axis=0).tobytes()

    def test_lstsq_failure_is_solver_error(self, rng, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", no_convergence)
        with pytest.raises(SolverError, match="least squares did not converge for 20x4 matrix"):
            fit_mlr(rng.standard_normal((20, 4)), rng.standard_normal((20, 1)))


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

    @pytest.mark.parametrize("fields, error, match", [
        ({"x_means": np.zeros(5)}, DimensionError, "'x_means' has shape"),
        ({"y_means": np.zeros((1, 2))}, DimensionError, "'y_means' has shape"),
        ({"theta": np.zeros(3)}, DimensionError, "'theta' has shape"),
        ({"theta": np.array([[0.0, np.nan], [1.0, 2.0], [3.0, 4.0]])}, InvalidInputError,
         "'theta' has a non-finite entry"),
        ({"x_means": np.array([0.0, np.inf, 0.0])}, InvalidInputError, "'x_means' has a non-finite entry"),
        ({"theta": np.zeros((3, 0)), "y_means": np.zeros(0)}, DimensionError, "'y_means' is empty"),
        ({"theta": np.zeros((0, 2)), "x_means": np.zeros(0)}, DimensionError, "'x_means' is empty"),
    ], ids=["x_means-length", "y_means-2d", "theta-1d", "theta-nan", "x_means-inf", "no-response-column",
            "no-predictor-column"])
    def test_constructor_checks_arrays(self, fields, error, match):
        # Unchecked, these fail only in predict, with a numpy broadcast
        # error, or predict NaN rows or rows of no value without an error.
        arrays = {"theta": np.zeros((3, 2)), "x_means": np.zeros(3), "y_means": np.zeros(2)}
        LinearModel(**arrays, method_tag="MLR")
        with pytest.raises(error, match=match):
            LinearModel(**{**arrays, **fields}, method_tag="MLR")
