"""Kernel tests: proximal operators, SVD conventions, Procrustes solver."""

import math

import numpy as np
import pytest

from robustpls import linalg
from robustpls.errors import DimensionError, InvalidInputError, SolverError
from robustpls.linalg import (
    as_matrix,
    procrustes_orthonormal,
    singular_value_threshold,
    soft_threshold,
    svd,
)

from conftest import random_orthonormal, svd_no_convergence, vector_svt


class TestAsMatrix:
    @pytest.mark.parametrize("shape, message", [
        ((3,), "x must be 2-D, got ndim=1"),
        ((2, 2, 2), "x must be 2-D, got ndim=3"),
        ((0, 3), r"x must have at least one row and column, got shape \(0, 3\)"),
    ], ids=["1-D", "3-D", "no-rows"])
    def test_rejects_bad_shapes(self, shape, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            as_matrix(np.zeros(shape), "x")


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
        _, s, _ = svd(np.eye(3))
        np.testing.assert_allclose(s, [1, 1, 1])

    def test_diagonal(self):
        u, s, vt = svd(np.diag([5.0, 3.0]))
        np.testing.assert_allclose(s, [5, 3])
        np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(vt), np.eye(2), atol=1e-14)

    def test_reconstruction_oracle(self, rng):
        m = rng.standard_normal((10, 4))
        u, s, vt = svd(m)
        err = np.linalg.norm((u * s) @ vt - m) / np.linalg.norm(m)
        assert err < 1e-8

    def test_factor_invariants(self, rng):
        for shape in [(7, 3), (3, 7), (5, 5)]:
            m = rng.standard_normal(shape)
            u, s, vt = svd(m)
            k = min(shape)
            assert u.shape == (shape[0], k) and vt.shape == (k, shape[1])
            assert np.linalg.norm(u.T @ u - np.eye(k)) < 1e-10
            assert np.linalg.norm(vt @ vt.T - np.eye(k)) < 1e-10
            assert (np.diff(s) <= 1e-15).all() and (s >= 0).all()

    def test_sign_convention(self, rng):
        u, _, _ = svd(rng.standard_normal((8, 5)))
        anchors = np.argmax(np.abs(u), axis=0)
        assert (u[anchors, np.arange(5)] >= 0).all()

    def test_deterministic(self, rng):
        m = rng.standard_normal((6, 4))
        for a, b in zip(svd(m), svd(m.copy())):
            np.testing.assert_array_equal(a, b)

    def test_zero_matrix(self):
        u, s, vt = svd(np.zeros((4, 2)))
        np.testing.assert_array_equal(s, [0.0, 0.0])
        np.testing.assert_allclose(u @ vt, np.eye(4, 2))

    def test_returns_numpys_triple(self, rng):
        # svd calls numpy's SVD gufunc without its wrapper: a numpy release
        # that makes the two differ fails here, rather than moving results.
        cases = [*special_inputs(rng)]
        cases += [rng.standard_normal(shape) for shape in [(120, 5), (48, 5), (48, 401), (1, 7), (7, 1)]]
        cases.append(np.zeros((5, 5)))
        fortran = np.asfortranarray(rng.standard_normal((40, 5)))
        cases += [fortran, rng.standard_normal((5, 48)).T, fortran.T]
        for a in cases:
            got = svd(a, canonical_signs=False)
            want = np.linalg.svd(a, full_matrices=False)
            assert isinstance(got, tuple) and len(got) == 3
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), a.shape

    def test_empty_matrix_gives_empty_factors(self):
        # The projection compile decomposes the p x 0 loadings of a k = 0 model.
        for shape in [(7, 0), (0, 3)]:
            want = np.linalg.svd(np.zeros(shape), full_matrices=False)
            for canonical_signs in (False, True):
                got = svd(np.zeros(shape), canonical_signs=canonical_signs)
                assert [g.shape for g in got] == [w.shape for w in want]

    def test_canonical_factors_are_lapacks_with_matched_flips(self, rng):
        for a in special_inputs(rng):
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            signs = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0, -1.0, 1.0)
            cu, cs, cvt = svd(a)
            assert cs.tobytes() == s.tobytes()
            assert cu.tobytes() == (u * signs).tobytes()
            assert cvt.tobytes() == (vt * signs[:, None]).tobytes()

    def test_no_convergence_is_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(linalg, "_svd_s", svd_no_convergence)
        with pytest.raises(SolverError, match="^SVD did not converge for 7x3 matrix$") as exc:
            svd(np.ones((7, 3)))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_no_factor_wrapper_is_public(self):
        # The decomposition is numpy's triple: no public Svd* type wraps it.
        import robustpls

        assert not [name for name in robustpls.__all__ if name.startswith("Svd")]
        assert not [name for name in linalg.__all__ if isinstance(getattr(linalg, name), type)]


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
            u, _, vt = svd(d)
            assert procrustes_orthonormal(d).tobytes() == (u @ vt).tobytes()

    def test_svt_equals_canonical_product(self, rng):
        # A one-row or one-column block is shrunk without an SVD; see
        # TestVectorSingularValueThreshold.
        for a in special_inputs(rng):
            if min(a.shape) < 2:
                continue
            for tau in (0.0, 0.3, float(np.linalg.norm(a, 2))):
                u, s, vt = svd(a)
                expected = (u * np.maximum(s - tau, 0.0)) @ vt
                assert singular_value_threshold(a, tau).tobytes() == expected.tobytes()

    def test_raw_factors_are_a_matched_sign_flip(self, rng):
        for a in special_inputs(rng):
            (u, s, vt), (cu, cs, cvt) = svd(a, canonical_signs=False), svd(a)
            assert s.tobytes() == cs.tobytes()
            np.testing.assert_allclose((u * s) @ vt, a, atol=1e-12 * max(1.0, np.abs(a).max()))
            signs = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0, -1.0, 1.0)
            assert (u * signs).tobytes() == cu.tobytes()
            assert (vt.T * signs).tobytes() == cvt.T.tobytes()


class TestVectorSingularValueThreshold:
    """One-row and one-column blocks take the closed form, bit for bit, and no SVD."""

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1), (1, 401), (60, 1)])
    def test_equals_closed_form(self, rng, shape, monkeypatch):
        monkeypatch.setattr(linalg, "svd", None)  # any SVD call fails
        a = rng.standard_normal(shape) * rng.uniform(0.1, 10)
        sigma = math.hypot(*a.ravel())
        for tau in (0.0, 0.3, sigma, np.nextafter(sigma, 0.0), 2.0 * sigma):
            assert singular_value_threshold(a, tau).tobytes() == vector_svt(a, tau).tobytes()
        assert not singular_value_threshold(a, sigma).any()

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_zero_block_gives_zeros(self, tau):
        out = singular_value_threshold(np.array([[0.0, -0.0, 0.0]]), tau)
        assert out.tobytes() == np.zeros((1, 3)).tobytes()

    def test_checks_its_input(self):
        with pytest.raises(InvalidInputError, match="non-finite"):
            singular_value_threshold(np.array([[1.0, np.inf]]), 0.1)


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

    @pytest.mark.parametrize("tau", [-1.0, np.nan])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(InvalidInputError, match=f"^tau must be a nonnegative finite real, got {tau!r}$"):
            singular_value_threshold(np.eye(2), tau)


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
