"""Kernel tests: proximal operators, SVD conventions, Procrustes solver."""

import numpy as np
import pytest

from robustpls.errors import DimensionError, InvalidInputError
from robustpls.linalg import (
    procrustes_orthonormal,
    singular_value_threshold,
    soft_threshold,
    svd,
)

from conftest import random_orthonormal


class TestSoftThreshold:
    def test_scalar_cases(self):
        np.testing.assert_allclose(soft_threshold([[3.0]], 1.0), [[2.0]])
        np.testing.assert_allclose(soft_threshold([[0.5, -0.5]], 1.0), [[0.0, 0.0]])
        np.testing.assert_allclose(soft_threshold([[-3.0]], 1.0), [[-2.0]])

    def test_zero_eps_is_identity(self, rng):
        m = rng.standard_normal((4, 6))
        np.testing.assert_array_equal(soft_threshold(m, 0.0), m)

    def test_contraction_and_sign(self, rng):
        m = rng.standard_normal((5, 5)) * 3
        out = soft_threshold(m, 0.7)
        assert (np.abs(out) <= np.abs(m) + 1e-15).all()
        nz = out != 0
        assert (np.sign(out[nz]) == np.sign(m[nz])).all()

    def test_minimizes_l1_proximal_objective(self, rng):
        # Independent oracle: coarse-to-fine scalar grid search per entry.
        def grid_min(k, eps):
            lo, hi = k - 2 * abs(k) - 2 * eps - 1, k + 2 * abs(k) + 2 * eps + 1
            z = 0.0
            for _ in range(6):
                grid = np.linspace(lo, hi, 2001)
                vals = eps * np.abs(grid) + 0.5 * (grid - k) ** 2
                z = grid[np.argmin(vals)]
                span = (hi - lo) / 2000
                lo, hi = z - 2 * span, z + 2 * span
            return z

        ks = rng.standard_normal(25) * 4
        eps = 0.9
        expected = np.array([grid_min(k, eps) for k in ks]).reshape(5, 5)
        out = soft_threshold(ks.reshape(5, 5), eps)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            soft_threshold([[np.nan]], 1.0)
        with pytest.raises(InvalidInputError):
            soft_threshold([[1.0]], -0.5)
        with pytest.raises(InvalidInputError):
            soft_threshold([[1.0]], np.inf)


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        np.testing.assert_allclose(f.s, [1, 1, 1])

    def test_diagonal(self):
        f = svd(np.diag([5.0, 3.0]))
        np.testing.assert_allclose(f.s, [5, 3])
        np.testing.assert_allclose(np.abs(f.u), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(f.v), np.eye(2), atol=1e-14)

    def test_reconstruction_oracle(self, rng):
        m = rng.standard_normal((10, 4))
        f = svd(m)
        err = np.linalg.norm((f.u * f.s) @ f.v.T - m) / np.linalg.norm(m)
        assert err < 1e-8

    def test_factor_invariants(self, rng):
        for shape in [(7, 3), (3, 7), (5, 5)]:
            m = rng.standard_normal(shape)
            f = svd(m)
            k = min(shape)
            assert f.u.shape == (shape[0], k) and f.v.shape == (shape[1], k)
            assert np.linalg.norm(f.u.T @ f.u - np.eye(k)) < 1e-10
            assert np.linalg.norm(f.v.T @ f.v - np.eye(k)) < 1e-10
            assert (np.diff(f.s) <= 1e-15).all() and (f.s >= 0).all()

    def test_sign_convention(self, rng):
        f = svd(rng.standard_normal((8, 5)))
        anchors = np.argmax(np.abs(f.u), axis=0)
        assert (f.u[anchors, np.arange(5)] >= 0).all()

    def test_deterministic(self, rng):
        m = rng.standard_normal((6, 4))
        f1, f2 = svd(m), svd(m.copy())
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.s, f2.s)
        np.testing.assert_array_equal(f1.v, f2.v)

    def test_zero_matrix(self):
        f = svd(np.zeros((4, 2)))
        np.testing.assert_array_equal(f.s, [0.0, 0.0])
        np.testing.assert_allclose(f.u @ f.v.T, np.eye(4, 2))


# The solver loop's SVD shapes: Procrustes on n x k, SVT on p x k and r x k.
LOOP_SHAPES = [(150, 5), (40, 5), (4, 5), (60, 5), (401, 5), (1, 5)]


def special_inputs(rng):
    """Random inputs of the loop's shapes, a rank-deficient one and the zero matrix."""
    yield from (rng.standard_normal(shape) * rng.uniform(0.1, 10) for shape in LOOP_SHAPES)
    yield rng.standard_normal((30, 2)) @ rng.standard_normal((2, 5))
    yield np.zeros((12, 5))


class TestSignFreeKernels:
    """The loop's kernels skip the sign convention and still give the canonical factors' bits.

    These hold on any numpy and BLAS build, unlike the golden traces.
    """

    def test_procrustes_equals_canonical_product(self, rng):
        for d in special_inputs(rng):
            if d.shape[0] < d.shape[1]:
                continue
            f = svd(d)
            assert procrustes_orthonormal(d).tobytes() == (f.u @ f.v.T).tobytes()

    def test_svt_equals_canonical_product(self, rng):
        for a in special_inputs(rng):
            for tau in (0.0, 0.3, float(np.linalg.norm(a, 2))):
                f = svd(a)
                expected = (f.u * np.maximum(f.s - tau, 0.0)) @ f.v.T
                assert singular_value_threshold(a, tau).tobytes() == expected.tobytes()

    def test_raw_factors_are_a_matched_sign_flip(self, rng):
        for a in special_inputs(rng):
            raw, canon = svd(a, canonical_signs=False), svd(a)
            assert raw.s.tobytes() == canon.s.tobytes()
            np.testing.assert_allclose((raw.u * raw.s) @ raw.v.T, a, atol=1e-12 * max(1.0, np.abs(a).max()))
            signs = np.where(raw.u[np.argmax(np.abs(raw.u), axis=0), np.arange(raw.u.shape[1])] < 0, -1.0, 1.0)
            assert (raw.u * signs).tobytes() == canon.u.tobytes()
            assert (raw.v * signs).tobytes() == canon.v.tobytes()


class TestSingularValueThreshold:
    def test_zero_tau_is_identity(self, rng):
        m = rng.standard_normal((6, 4))
        out = singular_value_threshold(m, 0.0)
        assert np.linalg.norm(out - m) / np.linalg.norm(m) < 1e-8

    def test_rank_one_shrinks(self, rng):
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        out = singular_value_threshold(5.0 * np.outer(u, v), 2.0)
        np.testing.assert_allclose(out, 3.0 * np.outer(u, v), atol=1e-10)

    def test_thresholds_everything(self, rng):
        m = rng.standard_normal((5, 3))
        m *= 2.0 / np.linalg.svd(m, compute_uv=False)[0]
        np.testing.assert_allclose(singular_value_threshold(m, 3.0), np.zeros((5, 3)), atol=1e-12)

    def test_singular_values_match_oracle(self, rng):
        # Oracle: direct svd of the input, shrink, compare spectra of output.
        for _ in range(10):
            m = rng.standard_normal((8, 6)) * rng.uniform(0.5, 3)
            tau = rng.uniform(0, 2)
            out = singular_value_threshold(m, tau)
            expected = np.maximum(np.linalg.svd(m, compute_uv=False) - tau, 0.0)
            got = np.linalg.svd(out, compute_uv=False)
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_nuclear_norm_bound(self, rng):
        m = rng.standard_normal((7, 5))
        tau = 0.4
        s_in = np.linalg.svd(m, compute_uv=False)
        s_out = np.linalg.svd(singular_value_threshold(m, tau), compute_uv=False)
        assert s_out.sum() <= max(0.0, s_in.sum() - tau * np.count_nonzero(s_in > tau)) + 1e-9


class TestProcrustes:
    def test_identity_fixed_point(self):
        np.testing.assert_allclose(procrustes_orthonormal(np.eye(3)), np.eye(3), atol=1e-14)

    def test_padded_diagonal(self):
        d = np.zeros((4, 2))
        d[0, 0], d[1, 1] = 4.0, 2.0
        np.testing.assert_allclose(procrustes_orthonormal(d), np.eye(4, 2), atol=1e-14)

    def test_zero_matrix_convention(self):
        np.testing.assert_allclose(procrustes_orthonormal(np.zeros((5, 3))), np.eye(5, 3))

    def test_orthonormal_columns(self, rng):
        q = procrustes_orthonormal(rng.standard_normal((8, 3)))
        assert np.linalg.norm(q.T @ q - np.eye(3)) < 1e-10

    def test_maximizes_inner_product(self, rng):
        # Sampling oracle: no random orthonormal matrix scores higher.
        d = rng.standard_normal((8, 3))
        q = procrustes_orthonormal(d)
        best = np.vdot(d, q)
        for _ in range(1000):
            r = random_orthonormal(rng, 8, 3)
            assert np.vdot(d, r) <= best + 1e-10

    def test_wide_input_rejected(self, rng):
        with pytest.raises(DimensionError):
            procrustes_orthonormal(rng.standard_normal((2, 4)))
