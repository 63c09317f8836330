"""Generator and corruption tests: determinism, counts, masks, rank."""

import numpy as np
import pytest

from robustpls.baselines import fit_mlr, predict
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
from robustpls.errors import ConfigError
from robustpls.evaluate import nmse
from robustpls.rpls import RplsConfig, fit


class TestSynthSpec:
    def test_defaults_match_experiment_shape(self):
        spec = SynthSpec()
        assert (spec.n, spec.p, spec.r, spec.k_true) == (150, 40, 4, 5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthSpec(k_true=50, p=40)
        with pytest.raises(ConfigError):
            SynthSpec(n_collinear=40, p=40)
        with pytest.raises(ConfigError):
            SynthSpec(noise_sigma=-1.0)
        with pytest.raises(ConfigError):
            SynthSpec(n=0)

    @pytest.mark.parametrize("value", [np.inf, np.nan, "0.1", None])
    def test_noise_sigma_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="noise_sigma"):
            SynthSpec(noise_sigma=value)

    @pytest.mark.parametrize("name", ["n", "p", "r", "k_true", "n_collinear", "noise_sigma", "seed"])
    def test_booleans_rejected(self, name):
        with pytest.raises(ConfigError, match="boolean"):
            SynthSpec(**{name: True})

    @pytest.mark.parametrize("name, value, rule", [
        ("n", 0, "positive"), ("p", 2.0, "positive"), ("r", -1, "positive"), ("k_true", "5", "positive"),
        ("n_collinear", -1, "nonnegative"), ("seed", -1, "nonnegative"), ("seed", 2.5, "nonnegative"),
    ])
    def test_integer_fields(self, name, value, rule):
        with pytest.raises(ConfigError, match=f"{name} must be a {rule} integer"):
            SynthSpec(**{name: value})

    def test_numpy_integers_accepted(self):
        spec = SynthSpec(n=np.int64(30), p=np.int32(8), n_collinear=np.uint8(0), seed=np.int64(3))
        assert (spec.n, spec.p, spec.n_collinear, spec.seed) == (30, 8, 0, 3)


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 2.5, None, "0"])
    def test_bad_seed_is_config_error(self, seed):
        # numpy's own error for -1 is a bare ValueError, which the CLI does not report.
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            rng_from_seed(seed)

    def test_outlier_spec_seed(self):
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            OutlierSpec(kind=SPARSE_RANDOM, seed=-1)
        assert OutlierSpec(kind=LOW_TAIL, seed=np.uint32(7)).seed == 7


class TestGenerate:
    def test_shapes_and_truth(self):
        x, y, truth = generate(SynthSpec(seed=1))
        assert x.shape == (150, 40)
        assert y.shape == (150, 4)
        assert truth.q_true.shape == (150, 5)
        assert truth.loadings.shape == (40, 5)
        assert truth.theta_true.shape == (40, 4)
        np.testing.assert_allclose(truth.q_true.T @ truth.q_true, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(truth.q_true @ truth.loadings.T, x, atol=1e-8)

    def test_noise_free_mlr_interpolates(self):
        x, y, truth = generate(SynthSpec(noise_sigma=0.0, seed=2))
        np.testing.assert_allclose(y, x @ truth.theta_true, atol=1e-12)
        model = fit_mlr(x, y)
        assert nmse(y, predict(model, x)) < 1e-10

    def test_latent_rank(self):
        x, _, _ = generate(SynthSpec(seed=3))
        s = np.linalg.svd(x, compute_uv=False)
        assert s[4] > 1e-6
        assert s[5] < 1e-10 * s[0]

    def test_seed_determinism(self):
        x1, y1, t1 = generate(SynthSpec(seed=99))
        x2, y2, t2 = generate(SynthSpec(seed=99))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(t1.theta_true, t2.theta_true)
        x3, _, _ = generate(SynthSpec(seed=100))
        assert not np.array_equal(x1, x3)

    def test_theta_sparse_support(self):
        _, _, truth = generate(SynthSpec(seed=4))
        nonzero_per_response = (truth.theta_true != 0).sum(axis=0)
        assert (nonzero_per_response == max(1, 40 // 10)).all()

    def test_collinear_columns_in_base_span(self):
        spec = SynthSpec(seed=5)
        x, _, _ = generate(spec)
        base = x[:, : spec.p - spec.n_collinear]
        extra = x[:, spec.p - spec.n_collinear :]
        coef, *_ = np.linalg.lstsq(base, extra, rcond=None)
        np.testing.assert_allclose(base @ coef, extra, atol=1e-8)


class TestInjectSparse:
    def test_zero_fraction_noop(self):
        x, y, _ = generate(SynthSpec(seed=6))
        spec = OutlierSpec(kind=SPARSE_RANDOM, fraction=0.0, seed=1)
        x2, y2, mask = inject_sparse(x, y, spec)
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(y, y2)
        assert mask.x.sum() == 0 and mask.y.sum() == 0

    def test_exact_counts(self):
        x, y, _ = generate(SynthSpec(seed=7))
        spec = OutlierSpec(kind=SPARSE_RANDOM, fraction=0.02, seed=2)
        _, _, mask = inject_sparse(x, y, spec)
        assert mask.x.sum() == round(0.02 * 150 * 40) == 120
        assert mask.y.sum() == round(0.02 * 150 * 4) == 12

    def test_perturbation_magnitude(self):
        x, y, _ = generate(SynthSpec(seed=8))
        spec = OutlierSpec(kind=SPARSE_RANDOM, fraction=0.02, magnitude=10.0, seed=3)
        x2, y2, mask = inject_sparse(x, y, spec)
        diff = x2 - x
        stds = x.std(axis=0)
        rows, cols = np.nonzero(mask.x)
        np.testing.assert_allclose(np.abs(diff[rows, cols]), 10.0 * stds[cols], rtol=1e-12)

    def test_mask_exactly_indexes_changes(self):
        x, y, _ = generate(SynthSpec(seed=9))
        spec = OutlierSpec(kind=SPARSE_RANDOM, fraction=0.05, magnitude=3.0, seed=4)
        x2, y2, mask = inject_sparse(x, y, spec)
        np.testing.assert_array_equal(x2 != x, mask.x)
        np.testing.assert_array_equal(y2 != y, mask.y)

    def test_shapes_unchanged_and_deterministic(self):
        x, y, _ = generate(SynthSpec(seed=10))
        spec = OutlierSpec(kind=SPARSE_RANDOM, fraction=0.02, seed=5)
        x2a, y2a, _ = inject_sparse(x, y, spec)
        x2b, y2b, _ = inject_sparse(x, y, spec)
        assert x2a.shape == x.shape and y2a.shape == y.shape
        np.testing.assert_array_equal(x2a, x2b)
        np.testing.assert_array_equal(y2a, y2b)

    def test_wrong_kind_rejected(self):
        x, y, _ = generate(SynthSpec(seed=11))
        with pytest.raises(ConfigError):
            inject_sparse(x, y, OutlierSpec(kind=LOW_TAIL))


class TestInjectLowTail:
    def test_zero_fraction_noop(self):
        _, y, _ = generate(SynthSpec(seed=12))
        y2, mask = inject_low_tail(y, OutlierSpec(kind=LOW_TAIL, tail_fraction=0.0))
        np.testing.assert_array_equal(y, y2)
        assert mask.y.sum() == 0

    def test_smallest_single_value(self):
        y = np.arange(1.0, 11.0)[:, None]
        y2, mask = inject_low_tail(y, OutlierSpec(kind=LOW_TAIL, tail_fraction=0.10, tail_multiplier=10.0))
        assert y2[0, 0] == 10.0
        np.testing.assert_array_equal(y2[1:], y[1:])
        assert mask.y[0, 0] and mask.y.sum() == 1

    def test_counts_per_column(self):
        _, y, _ = generate(SynthSpec(seed=13))
        _, mask = inject_low_tail(y, OutlierSpec(kind=LOW_TAIL, tail_fraction=0.10))
        np.testing.assert_array_equal(mask.y.sum(axis=0), [15, 15, 15, 15])

    def test_ties_resolve_to_lower_index(self):
        y = np.array([[5.0], [1.0], [1.0], [7.0]])
        y2, mask = inject_low_tail(y, OutlierSpec(kind=LOW_TAIL, tail_fraction=0.25, tail_multiplier=2.0))
        assert mask.y[1, 0] and not mask.y[2, 0]
        assert y2[1, 0] == 2.0 and y2[2, 0] == 1.0

    def test_multiplies_selected_rows(self):
        _, y, _ = generate(SynthSpec(seed=14))
        spec = OutlierSpec(kind=LOW_TAIL, tail_fraction=0.10, tail_multiplier=10.0)
        y2, mask = inject_low_tail(y, spec)
        np.testing.assert_allclose(y2[mask.y], 10.0 * y[mask.y], rtol=1e-15)
        np.testing.assert_array_equal(y2[~mask.y], y[~mask.y])

    def test_wrong_kind_rejected(self):
        _, y, _ = generate(SynthSpec(seed=15))
        with pytest.raises(ConfigError):
            inject_low_tail(y, OutlierSpec(kind=SPARSE_RANDOM))


class TestOutlierSpecValidation:
    def test_bad_values(self):
        with pytest.raises(ConfigError):
            OutlierSpec(kind="GAUSSIAN")
        with pytest.raises(ConfigError):
            OutlierSpec(kind=SPARSE_RANDOM, fraction=1.5)
        with pytest.raises(ConfigError):
            OutlierSpec(kind=LOW_TAIL, tail_multiplier=0.0)

    @pytest.mark.parametrize("name", ["fraction", "magnitude", "tail_fraction", "tail_multiplier"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, "1", None])
    def test_numbers_must_be_finite(self, name, value):
        with pytest.raises(ConfigError, match=name):
            OutlierSpec(kind=SPARSE_RANDOM, **{name: value})

    @pytest.mark.parametrize("name", ["fraction", "magnitude", "tail_fraction", "tail_multiplier", "seed"])
    def test_booleans_rejected(self, name):
        with pytest.raises(ConfigError, match="boolean"):
            OutlierSpec(kind=LOW_TAIL, **{name: True})


class TestCrossModuleSanity:
    def test_forced_zero_sparse_blocks_give_vanilla_low_rank_fit(self):
        # Tiny fixed penalties push the l1 thresholds so high that both
        # sparse blocks stay exactly zero, reducing the solver to an
        # alternating low-rank fit; on clean exactly-rank-5 data it must
        # reproduce the predictors.
        x, y, _ = generate(SynthSpec(seed=16, noise_sigma=0.0))
        cfg = RplsConfig(
            k=5, lambda1=1e-12, lambda2=1e-12,
            alpha0=1e-9, rho=1.0, alpha_max=1.0,
            tol=1e-300, max_iter=60, center="none",
        )
        model = fit(x, y, cfg)
        assert np.linalg.norm(model.state.delta_x) == 0.0
        assert np.linalg.norm(model.state.delta_y) == 0.0
        rel = np.linalg.norm(model.low_rank_x() - x) / np.linalg.norm(x)
        assert rel < 1e-6

    def test_default_fit_keeps_clean_signal_low_rank(self):
        x, y, truth = generate(SynthSpec(seed=16, noise_sigma=0.0))
        model = fit(x, y, RplsConfig(k=5, center="none"))
        assert model.converged
        assert np.linalg.norm(x - model.low_rank_x() - model.state.delta_x) < model.config.tol
        # Sparse block carries almost none of the clean signal.
        assert np.linalg.norm(model.state.delta_x) < 0.05 * np.linalg.norm(x)
