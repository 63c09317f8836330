"""Solver tests: block updates, convergence contracts, recovery."""

import numpy as np
import pytest

from robustpls import linalg, rpls
from robustpls.datagen import (
    LOW_TAIL,
    SPARSE_RANDOM,
    OutlierSpec,
    SynthSpec,
    generate,
    inject_low_tail,
    inject_sparse,
)
from robustpls.errors import ConfigError, DimensionError, InvalidInputError
from robustpls.rpls import (
    RplsConfig,
    RplsState,
    fit,
    primal_residual,
    update_loadings,
    update_multipliers,
    update_q,
    update_sparse,
)

from conftest import random_orthonormal, svd_route_svt


def augmented_lagrangian(state: RplsState, x: np.ndarray, y: np.ndarray, cfg: RplsConfig) -> float:
    """Value of the augmented Lagrangian at the current state.

    Diagnostic: every block update minimizes this exactly over its own
    block, so the value is nonincreasing within an iteration while the
    multipliers and penalties are held fixed.
    """
    rx = x - state.q @ state.lambda_x.T - state.delta_x
    ry = y - state.q @ state.lambda_y.T - state.delta_y
    sx = np.linalg.svd(state.lambda_x, compute_uv=False)
    sy = np.linalg.svd(state.lambda_y, compute_uv=False)
    return float(
        np.abs(state.delta_x).sum()
        + np.abs(state.delta_y).sum()
        + cfg.lambda1 * sx.sum()
        + cfg.lambda2 * sy.sum()
        + np.vdot(state.l, rx)
        + np.vdot(state.m, ry)
        + 0.5 * state.alpha1 * (np.vdot(rx, rx) + np.vdot(ry, ry))
    )


def make_state(rng, n=12, p=7, r=3, k=4, alpha=2.0):
    return RplsState(
        q=random_orthonormal(rng, n, k),
        lambda_x=rng.standard_normal((p, k)),
        lambda_y=rng.standard_normal((r, k)),
        delta_x=rng.standard_normal((n, p)) * 0.1,
        delta_y=rng.standard_normal((n, r)) * 0.1,
        l=rng.standard_normal((n, p)) * 0.05,
        m=rng.standard_normal((n, r)) * 0.05,
        alpha1=alpha,
        alpha2=alpha,
    )


def zero_state(n, p, r, k, alpha):
    """Identity-padded scores, every other block zero."""
    return RplsState(
        q=np.eye(n, k),
        lambda_x=np.zeros((p, k)),
        lambda_y=np.zeros((r, k)),
        delta_x=np.zeros((n, p)),
        delta_y=np.zeros((n, r)),
        l=np.zeros((n, p)),
        m=np.zeros((n, r)),
        alpha1=alpha,
        alpha2=alpha,
    )


def stacked(bx, by):
    """The ``(n, p+r)`` array fit keeps: the X block in the first p columns, then the Y block."""
    return np.hstack((bx, by))


# The block functions take the intermediates fit builds in one pass; these
# build them from a state exactly as the fit loop does.
def shifted(state, x, y):
    """``b = l/alpha + X - Dx`` and ``a = m/alpha + Y - Dy``."""
    return state.l / state.alpha1 + x - state.delta_x, state.m / state.alpha1 + y - state.delta_y


def residuals(state, x, y):
    """``rx = X - Q Lx^T - Dx`` and ``ry = Y - Q Ly^T - Dy``."""
    return (x - state.q @ state.lambda_x.T - state.delta_x,
            y - state.q @ state.lambda_y.T - state.delta_y)


def q_step(state, x, y):
    return update_q(stacked(*shifted(state, x, y)), np.vstack((state.lambda_x, state.lambda_y)))


def loadings_step(state, x, y, cfg):
    p = x.shape[1]
    loadings = update_loadings(stacked(*shifted(state, x, y)), state.q, p,
                               cfg.lambda1 / state.alpha1, cfg.lambda2 / state.alpha1)
    return loadings[:p], loadings[p:]


def sparse_step(state, x, y):
    z = stacked(x - state.q @ state.lambda_x.T, y - state.q @ state.lambda_y.T)
    delta = update_sparse(z, stacked(state.l, state.m) / state.alpha1, state.alpha1)
    return np.hsplit(delta, [x.shape[1]])


def multiplier_step(state, x, y):
    lm = update_multipliers(stacked(state.l, state.m), stacked(*residuals(state, x, y)), state.alpha1)
    return np.hsplit(lm, [x.shape[1]])


def residual_of(state, x, y):
    return primal_residual(*residuals(state, x, y))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RplsConfig(k=0)
        with pytest.raises(ConfigError):
            RplsConfig(k=3, rho=0.9)
        with pytest.raises(ConfigError):
            RplsConfig(k=3, lambda1=-1.0)
        with pytest.raises(ConfigError):
            RplsConfig(k=3, alpha0=2.0, alpha_max=1.0)
        with pytest.raises(ConfigError, match=r"^alpha0 must be positive, got 0\.0$"):
            RplsConfig(alpha0=0.0)
        with pytest.raises(ConfigError, match=r"^alpha_max must be positive, got -1\.0$"):
            RplsConfig(alpha_max=-1.0)
        with pytest.raises(ConfigError):
            RplsConfig(k=3, center="quartile")
        with pytest.raises(ConfigError):
            RplsConfig(k=3, center="mean")
        with pytest.raises(ConfigError):
            RplsConfig(k=3, max_iter=0)

    @pytest.mark.parametrize("field", ["k", "max_iter", "rho", "alpha0", "lambda1", "tol"])
    def test_booleans_rejected(self, field):
        # bool is an int, so True would otherwise pass as k=1 or max_iter=1.
        with pytest.raises(ConfigError, match=field):
            RplsConfig(**{"k": 3, field: True})

    def test_resolve_fills_autos(self, rng):
        x = rng.standard_normal((10, 6))
        y = rng.standard_normal((10, 2))
        cfg = RplsConfig(k=3).resolve(x, y)
        assert cfg.lambda1 == pytest.approx(1 / np.sqrt(10))
        assert cfg.tol == pytest.approx(1e-6 * (np.linalg.norm(x) + np.linalg.norm(y)))

    def test_resolve_rejects_large_k(self, rng):
        x = rng.standard_normal((10, 6))
        y = rng.standard_normal((10, 2))
        with pytest.raises(ConfigError, match=r"k must be in \[1, 6\], got 7"):
            RplsConfig(k=7).resolve(x, y)

    def test_default_tol_overflow_blames_the_data(self):
        # The norm of these data overflows float64, so the default tol would
        # be infinite: the data are at fault, not a tol the caller never gave.
        x, y, _ = generate(SynthSpec(seed=1))
        with pytest.raises(InvalidInputError, match="Frobenius norm of the centered data overflows float64"):
            fit(x * 1e160, y * 1e160, RplsConfig())

    def test_explicit_values_win(self, rng):
        x = rng.standard_normal((10, 6))
        y = rng.standard_normal((10, 2))
        cfg = RplsConfig(k=3, lambda1=0.5, tol=1e-3).resolve(x, y)
        assert cfg.lambda1 == 0.5 and cfg.tol == 1e-3


class TestUpdateQ:
    def test_identity_direction(self, rng):
        n, p, r, k = 8, 5, 2, 3
        state = zero_state(n, p, r, k, 1.0)
        # With all-zero loadings the target matrix is zero: identity padding.
        x = rng.standard_normal((n, p))
        y = rng.standard_normal((n, r))
        np.testing.assert_allclose(q_step(state, x, y), np.eye(n, k))

    def test_orthonormal_output(self, rng):
        state = make_state(rng)
        x = rng.standard_normal((12, 7))
        y = rng.standard_normal((12, 3))
        q = q_step(state, x, y)
        assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-10

    def test_fixed_point_preserved(self, rng):
        # Forward-synthesized stationary point: exact data, zero errors.
        n, p, r, k = 10, 6, 3, 3
        q_star = random_orthonormal(rng, n, k)
        lx = rng.standard_normal((p, k))
        ly = rng.standard_normal((r, k))
        x = q_star @ lx.T
        y = q_star @ ly.T
        state = RplsState(
            q=q_star, lambda_x=lx, lambda_y=ly,
            delta_x=np.zeros((n, p)), delta_y=np.zeros((n, r)),
            l=np.zeros((n, p)), m=np.zeros((n, r)),
            alpha1=2.0, alpha2=2.0,
        )
        np.testing.assert_allclose(q_step(state, x, y), q_star, atol=1e-10)


class TestUpdateLoadings:
    def test_zero_threshold_exact(self, rng):
        state = make_state(rng)
        x = rng.standard_normal((12, 7))
        y = rng.standard_normal((12, 3))
        cfg = RplsConfig(k=4, lambda1=1e-300, lambda2=1e-300)
        lx, ly = loadings_step(state, x, y, cfg)
        b, a = shifted(state, x, y)
        np.testing.assert_allclose(lx, b.T @ state.q, atol=1e-12)
        np.testing.assert_allclose(ly, a.T @ state.q, atol=1e-12)

    def test_all_below_threshold_gives_zero(self, rng):
        state = make_state(rng)
        x = rng.standard_normal((12, 7)) * 1e-3
        state.delta_x = np.zeros((12, 7))
        state.l = np.zeros((12, 7))
        y = rng.standard_normal((12, 3))
        cfg = RplsConfig(k=4, lambda1=1e3 * state.alpha1, lambda2=1.0)
        lx, _ = loadings_step(state, x, y, cfg)
        np.testing.assert_array_equal(lx, np.zeros((7, 4)))

    def test_spectrum_matches_oracle(self, rng):
        state = make_state(rng)
        x = rng.standard_normal((12, 7))
        y = rng.standard_normal((12, 3))
        cfg = RplsConfig(k=4, lambda1=0.8, lambda2=0.3)
        lx, ly = loadings_step(state, x, y, cfg)
        b, a = shifted(state, x, y)
        np.testing.assert_allclose(
            np.linalg.svd(lx, compute_uv=False),
            np.maximum(np.linalg.svd(b.T @ state.q, compute_uv=False) - cfg.lambda1 / state.alpha1, 0),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            np.linalg.svd(ly, compute_uv=False),
            np.maximum(np.linalg.svd(a.T @ state.q, compute_uv=False) - cfg.lambda2 / state.alpha1, 0),
            atol=1e-10,
        )


class TestUpdateSparse:
    def test_exact_fit_gives_zero(self, rng):
        n, p, r, k = 10, 6, 3, 3
        q = random_orthonormal(rng, n, k)
        lx = rng.standard_normal((p, k))
        ly = rng.standard_normal((r, k))
        state = RplsState(
            q=q, lambda_x=lx, lambda_y=ly,
            delta_x=np.zeros((n, p)), delta_y=np.zeros((n, r)),
            l=np.zeros((n, p)), m=np.zeros((n, r)),
            alpha1=1.0, alpha2=1.0,
        )
        dx, dy = sparse_step(state, q @ lx.T, q @ ly.T)
        np.testing.assert_array_equal(dx, np.zeros((n, p)))
        np.testing.assert_array_equal(dy, np.zeros((n, r)))

    def test_scalar_shrink(self, rng):
        # A residual entry of 5.0 with unit threshold shrinks to 4.0.
        n, p, r, k = 6, 4, 2, 2
        state = zero_state(n, p, r, k, 1.0)
        x = np.zeros((n, p))
        x[2, 1] = 5.0
        dx, _ = sparse_step(state, x, np.zeros((n, r)))
        assert dx[2, 1] == pytest.approx(4.0)

    def test_small_residuals_exactly_zero(self, rng):
        state = make_state(rng)
        x = rng.standard_normal((12, 7))
        y = rng.standard_normal((12, 3))
        dx, dy = sparse_step(state, x, y)
        rx = x - state.q @ state.lambda_x.T + state.l / state.alpha1
        ry = y - state.q @ state.lambda_y.T + state.m / state.alpha1
        assert (dx[np.abs(rx) <= 1.0 / state.alpha1] == 0).all()
        assert (dy[np.abs(ry) <= 1.0 / state.alpha1] == 0).all()


class TestMultipliersAndPenalties:
    def test_zero_residual_no_change(self, rng):
        n, p, r, k = 10, 6, 3, 3
        q = random_orthonormal(rng, n, k)
        lx = rng.standard_normal((p, k))
        ly = rng.standard_normal((r, k))
        state = RplsState(
            q=q, lambda_x=lx, lambda_y=ly,
            delta_x=np.zeros((n, p)), delta_y=np.zeros((n, r)),
            l=rng.standard_normal((n, p)), m=rng.standard_normal((n, r)),
            alpha1=2.0, alpha2=2.0,
        )
        l2, m2 = multiplier_step(state, q @ lx.T, q @ ly.T)
        np.testing.assert_allclose(l2, state.l, atol=1e-12)
        np.testing.assert_allclose(m2, state.m, atol=1e-12)

    def test_accumulates_residual(self, rng):
        # Two steps with a constant residual grow the multiplier by alpha*R each.
        n, p, r, k = 5, 4, 2, 2
        state = zero_state(n, p, r, k, 1.5)
        x = rng.standard_normal((n, p))
        y = np.zeros((n, r))
        rx = x.copy()  # q @ lx.T and delta_x are zero
        l1, _ = multiplier_step(state, x, y)
        np.testing.assert_allclose(l1, 1.5 * rx)
        state.l = l1
        l2, _ = multiplier_step(state, x, y)
        np.testing.assert_allclose(l2, 2 * 1.5 * rx)

    def test_penalty_schedule(self, rng):
        # One penalty for both constraints: alpha1 == alpha2 at every
        # iteration, grown by rho from alpha0 and capped at alpha_max.
        seen = []
        fit(rng.standard_normal((15, 8)), rng.standard_normal((15, 3)),
            RplsConfig(k=2, rho=1.5, alpha_max=10.0, max_iter=9, tol=1e-300),
            callback=lambda s, r: seen.append((s.alpha1, s.alpha2)))
        assert seen == [(a, a) for a in (1.5, 2.25, 3.375, 5.0625, 7.59375, 10.0, 10.0, 10.0, 10.0)]


class TestStackedLayout:
    def test_state_blocks_are_views_of_stacked_arrays(self, rng):
        # Each pair of block fields cuts one array fit holds: [Lx; Ly] by
        # rows, [Dx Dy] and [l m] by columns.
        n, p, r, k = 15, 8, 3, 3
        kept = []
        fit(rng.standard_normal((n, p)), rng.standard_normal((n, r)),
            RplsConfig(k=k, max_iter=5, tol=1e-300), callback=lambda s, res: kept.append(s))
        for s in kept:
            for fx, fy, shapes in (
                ("lambda_x", "lambda_y", ((p, k), (r, k), (p + r, k))),
                ("delta_x", "delta_y", ((n, p), (n, r), (n, p + r))),
                ("l", "m", ((n, p), (n, r), (n, p + r))),
            ):
                bx, by = getattr(s, fx), getattr(s, fy)
                assert bx.base is not None and bx.base is by.base, fx
                assert (bx.shape, by.shape, bx.base.shape) == shapes, fx

    def test_stacked_steps_equal_blockwise(self, rng):
        # Each elementwise step on the stacked array gives, bit for bit,
        # what the same call gives on each block alone.
        n, p, r, alpha = 9, 5, 3, 1.7
        zx, sx, lx = (rng.standard_normal((n, p)) for _ in range(3))
        zy, sy, ly = (rng.standard_normal((n, r)) for _ in range(3))
        pairs = (
            (update_sparse(stacked(zx, zy), stacked(sx, sy), alpha),
             (update_sparse(zx, sx, alpha), update_sparse(zy, sy, alpha))),
            (update_multipliers(stacked(lx, ly), stacked(zx, zy), alpha),
             (update_multipliers(lx, zx, alpha), update_multipliers(ly, zy, alpha))),
        )
        for whole, blockwise in pairs:
            for got, expected in zip(np.hsplit(whole, [p]), blockwise):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e6])
    def test_update_q_ignores_the_penalty(self, rng, alpha):
        # update_q leaves out the penalty factor of its objective; a positive
        # factor does not move the Procrustes maximizer.
        ba, loadings = rng.standard_normal((12, 10)), rng.standard_normal((10, 4))
        np.testing.assert_allclose(update_q(ba, loadings),
                                   linalg.procrustes_orthonormal(alpha * (ba @ loadings)), rtol=0, atol=1e-12)


class TestPrimalResidual:
    def test_exact_zero(self, rng):
        n, p, r, k = 10, 6, 3, 3
        q = random_orthonormal(rng, n, k)
        lx = rng.standard_normal((p, k))
        ly = rng.standard_normal((r, k))
        state = RplsState(
            q=q, lambda_x=lx, lambda_y=ly,
            delta_x=np.zeros((n, p)), delta_y=np.zeros((n, r)),
            l=np.zeros((n, p)), m=np.zeros((n, r)),
            alpha1=1.0, alpha2=1.0,
        )
        assert residual_of(state, q @ lx.T, q @ ly.T) == 0.0

    def test_offset_by_known_error(self, rng):
        n, p, r, k = 10, 6, 3, 3
        q = random_orthonormal(rng, n, k)
        lx = rng.standard_normal((p, k))
        ly = rng.standard_normal((r, k))
        e = rng.standard_normal((n, p))
        state = RplsState(
            q=q, lambda_x=lx, lambda_y=ly,
            delta_x=-e, delta_y=np.zeros((n, r)),
            l=np.zeros((n, p)), m=np.zeros((n, r)),
            alpha1=1.0, alpha2=1.0,
        )
        assert residual_of(state, q @ lx.T, q @ ly.T) == pytest.approx(np.linalg.norm(e))

    def test_matches_elementwise_oracle(self, rng):
        state = make_state(rng)
        x = rng.standard_normal((12, 7))
        y = rng.standard_normal((12, 3))
        rx = x - state.q @ state.lambda_x.T - state.delta_x
        ry = y - state.q @ state.lambda_y.T - state.delta_y
        sx = sum(rx[i, j] ** 2 for i in range(12) for j in range(7))
        sy = sum(ry[i, j] ** 2 for i in range(12) for j in range(3))
        assert residual_of(state, x, y) == pytest.approx(np.sqrt(sx) + np.sqrt(sy), rel=1e-12)


class TestNuclearNormTransfer:
    def test_orthonormal_composition_preserves_nuclear_norm(self, rng):
        # ||Q Lx^T||_* == ||Lx||_* for orthonormal Q.
        for _ in range(5):
            q = random_orthonormal(rng, 12, 4)
            lx = rng.standard_normal((7, 4))
            full = np.linalg.svd(q @ lx.T, compute_uv=False).sum()
            small = np.linalg.svd(lx, compute_uv=False).sum()
            assert full == pytest.approx(small, rel=1e-10)


class TestBlockUpdatesDecreaseLagrangian:
    def test_each_update_not_increasing(self, rng):
        cfg = RplsConfig(k=4, lambda1=0.4, lambda2=0.6)
        x = rng.standard_normal((12, 7))
        y = rng.standard_normal((12, 3))
        state = make_state(rng)
        before = augmented_lagrangian(state, x, y, cfg)

        state.q = q_step(state, x, y)
        after_q = augmented_lagrangian(state, x, y, cfg)
        assert after_q <= before + 1e-9

        state.lambda_x, state.lambda_y = loadings_step(state, x, y, cfg)
        after_loadings = augmented_lagrangian(state, x, y, cfg)
        assert after_loadings <= after_q + 1e-9

        state.delta_x, state.delta_y = sparse_step(state, x, y)
        after_sparse = augmented_lagrangian(state, x, y, cfg)
        assert after_sparse <= after_loadings + 1e-9


class TestFit:
    def test_zero_data_converges_immediately(self):
        model = fit(np.zeros((6, 4)), np.zeros((6, 2)), RplsConfig(k=2, center="none"))
        assert model.converged
        assert model.state.iteration == 1
        assert model.residual_trace[0] == (1, 0.0)
        np.testing.assert_array_equal(model.state.lambda_x, np.zeros((4, 2)))
        np.testing.assert_array_equal(model.state.delta_x, np.zeros((6, 4)))

    def test_huge_tol_one_iteration(self, rng):
        x = rng.standard_normal((10, 6))
        y = rng.standard_normal((10, 2))
        model = fit(x, y, RplsConfig(k=3, tol=1e12))
        assert model.converged and model.state.iteration == 1

    def test_trace_recorded_every_iteration(self, rng):
        x = rng.standard_normal((20, 8))
        y = rng.standard_normal((20, 2))
        model = fit(x, y, RplsConfig(k=3, max_iter=17, tol=1e-300))
        assert not model.converged
        assert [i for i, _ in model.residual_trace] == list(range(1, 18))

    def test_orthonormality_invariant(self, rng):
        x = rng.standard_normal((15, 8))
        y = rng.standard_normal((15, 3))
        errs = []
        fit(x, y, RplsConfig(k=4, max_iter=40, tol=1e-300),
            callback=lambda s, r: errs.append(np.linalg.norm(s.q.T @ s.q - np.eye(4))))
        assert len(errs) == 40
        assert max(errs) < 1e-8

    def test_penalties_nondecreasing_and_capped(self, rng):
        x = rng.standard_normal((15, 8))
        y = rng.standard_normal((15, 3))
        alphas = []
        fit(x, y, RplsConfig(k=3, max_iter=200, tol=1e-300, alpha_max=50.0, rho=1.3),
            callback=lambda s, r: alphas.append((s.alpha1, s.alpha2)))
        a1 = [a for a, _ in alphas]
        assert all(b >= a for a, b in zip(a1, a1[1:]))
        assert a1[-1] == 50.0

    def test_deterministic_bitwise(self, rng):
        x = rng.standard_normal((30, 10))
        y = rng.standard_normal((30, 3))
        m1 = fit(x, y, RplsConfig(k=4))
        m2 = fit(x.copy(), y.copy(), RplsConfig(k=4))
        assert m1.residual_trace == m2.residual_trace
        np.testing.assert_array_equal(m1.state.q, m2.state.q)

    def test_low_rank_sparse_recovery(self):
        # Forward-synthesized ground truth; tolerance frozen after running
        # the oracle (observed error is ~2e-6, asserted at 1e-3).
        rng = np.random.Generator(np.random.Philox(42))
        n, p, r, k = 150, 40, 4, 5
        q_star = np.linalg.qr(rng.standard_normal((n, k)))[0]
        lx_star = rng.standard_normal((p, k))
        ly_star = rng.standard_normal((r, k))
        x0 = q_star @ lx_star.T
        y0 = q_star @ ly_star.T
        spec = OutlierSpec(kind=SPARSE_RANDOM, fraction=0.02, magnitude=10.0, seed=7)
        x, y, _ = inject_sparse(x0, y0, spec)
        model = fit(x, y, RplsConfig(k=k, center="none"))
        assert model.converged
        assert np.linalg.norm(model.low_rank_x() - x0) / np.linalg.norm(x0) < 1e-3
        assert np.linalg.norm(model.low_rank_y() - y0) / np.linalg.norm(y0) < 1e-3

    def test_converges_on_default_synthetic(self):
        x, y, _ = generate(SynthSpec(seed=11))
        model = fit(x, y, RplsConfig(k=5))
        assert model.converged
        assert model.state.iteration <= 500
        assert model.residual_trace[-1][1] < model.config.tol

    def test_centering_modes(self, rng):
        x = rng.standard_normal((12, 5)) + 7.0
        y = rng.standard_normal((12, 2)) - 3.0
        m_med = fit(x, y, RplsConfig(k=2, center="median", max_iter=5, tol=1e-300))
        np.testing.assert_allclose(m_med.y_means, np.median(y, axis=0))
        m_none = fit(x, y, RplsConfig(k=2, center="none", max_iter=5, tol=1e-300))
        np.testing.assert_array_equal(m_none.x_means, np.zeros(5))

    def test_dimension_mismatch(self, rng):
        # Shapes are checked once, where fit takes its inputs.
        with pytest.raises(DimensionError):
            fit(rng.standard_normal((12, 9)), rng.standard_normal((11, 3)), RplsConfig(k=4))

    def test_callback_states_not_overwritten(self, rng):
        # The loop reuses its own buffers; the state's arrays must be fresh
        # every iteration, so references a callback keeps stay valid.
        x = rng.standard_normal((15, 8))
        y = rng.standard_normal((15, 3))
        fields = ("q", "delta_x", "delta_y", "l", "m")
        kept = []
        fit(x, y, RplsConfig(k=3, max_iter=20, tol=1e-300),
            callback=lambda s, r: kept.append({f: (getattr(s, f), getattr(s, f).copy()) for f in fields}))
        assert len(kept) == 20
        for it, arrays in enumerate(kept, start=1):
            for f, (ref, snapshot) in arrays.items():
                assert ref.tobytes() == snapshot.tobytes(), f"state.{f} of iteration {it} changed"

    def test_callback_gets_a_state_per_iteration(self, rng):
        # fit builds a new state each iteration, so kept states keep their
        # own iteration; the model's state is the last one handed out.
        kept = []
        model = fit(rng.standard_normal((15, 8)), rng.standard_normal((15, 3)),
                    RplsConfig(k=3, max_iter=9, tol=1e-300), callback=lambda s, r: kept.append(s))
        assert [s.iteration for s in kept] == list(range(1, 10))
        assert len({id(s) for s in kept}) == 9
        assert model.state is kept[-1]

    @pytest.mark.parametrize("problem", ["sparse", "lowtail"])
    def test_canonical_signs_give_the_same_fit(self, monkeypatch, problem):
        # The kernels skip the SVD sign convention; forcing it back on every
        # call must leave the trace and every state field bit for bit.
        if problem == "sparse":
            x, y, _ = generate(SynthSpec(n=40, p=12, r=2, k_true=3, n_collinear=2, seed=3))
            x, y, _ = inject_sparse(x, y, OutlierSpec(kind=SPARSE_RANDOM, seed=3))
        else:
            x, y, _ = generate(SynthSpec(n=20, p=60, r=1, k_true=3, n_collinear=2, seed=4))
            y, _ = inject_low_tail(y, OutlierSpec(kind=LOW_TAIL, seed=4))
        cfg = RplsConfig(k=3)
        lean = fit(x, y, cfg)
        canonical_svd, calls = linalg.svd, []

        def canonical(a, *, canonical_signs=True):
            calls.append(canonical_signs)
            return canonical_svd(a)

        monkeypatch.setattr(linalg, "svd", canonical)
        canon = fit(x, y, cfg)
        assert calls and not any(calls)  # the kernels did ask for raw factors
        assert lean.residual_trace == canon.residual_trace
        for field in ("q", "lambda_x", "lambda_y", "delta_x", "delta_y", "l", "m"):
            assert getattr(lean.state, field).tobytes() == getattr(canon.state, field).tobytes(), field

    def test_each_block_runs_once_per_iteration(self, rng, monkeypatch):
        calls = {}
        for name in ("update_q", "update_loadings", "update_sparse", "update_multipliers",
                     "primal_residual"):
            def counted(*args, _fn=getattr(rpls, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(rpls, name, counted)
        fit(rng.standard_normal((15, 8)), rng.standard_normal((15, 3)),
            RplsConfig(k=3, max_iter=9, tol=1e-300))
        assert calls == dict.fromkeys(calls, 9) and len(calls) == 5

    @pytest.mark.parametrize("r, per_iteration", [(1, 2), (4, 3)])
    def test_svd_calls_per_iteration(self, rng, monkeypatch, r, per_iteration):
        # Procrustes and the X loading take one SVD each per iteration; the
        # Y loading takes one only when it has more than one row.
        shapes, svd = [], linalg.svd

        def counted(a, *, canonical_signs=True):
            shapes.append(np.shape(a))
            return svd(a, canonical_signs=canonical_signs)

        monkeypatch.setattr(linalg, "svd", counted)
        fit(rng.standard_normal((15, 8)), rng.standard_normal((15, r)), RplsConfig(k=3, max_iter=9, tol=1e-300))
        assert len(shapes) == per_iteration * 9
        assert ((r, 3) in shapes) == (r > 1)

    @pytest.mark.parametrize("seed", [2, 5, 9])
    def test_closed_form_loading_tracks_svd_route(self, monkeypatch, seed):
        # With r = 1 the Y loading is shrunk in closed form; the SVD route
        # that it replaced gives the same iterations and traces within 1e-8.
        x, y, _ = generate(SynthSpec(n=60, p=401, r=1, seed=seed))
        y, _ = inject_low_tail(y, OutlierSpec(kind=LOW_TAIL, seed=seed))
        closed = fit(x, y, RplsConfig(k=5))
        monkeypatch.setattr(rpls, "singular_value_threshold", svd_route_svt)
        ref = fit(x, y, RplsConfig(k=5))
        assert closed.residual_trace != ref.residual_trace  # the reference took the other route
        assert [it for it, _ in closed.residual_trace] == [it for it, _ in ref.residual_trace]
        np.testing.assert_allclose([res for _, res in closed.residual_trace],
                                   [res for _, res in ref.residual_trace], rtol=1e-8, atol=0)
        for field in ("lambda_x", "lambda_y"):  # seen: within 2.4e-14 of the largest entry
            got, want = getattr(closed.state, field), getattr(ref.state, field)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), field

    def test_input_validation(self, rng):
        with pytest.raises(DimensionError):
            fit(rng.standard_normal((10, 4)), rng.standard_normal((9, 2)), RplsConfig(k=2))
        bad = rng.standard_normal((10, 4))
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            fit(bad, rng.standard_normal((10, 2)), RplsConfig(k=2))
