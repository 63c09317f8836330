"""The solver's kernels against the expressions they replaced, over generated inputs.

``soft_threshold`` runs as clip, subtract and copysign, and
``update_multipliers`` scales the residual before adding the multipliers.
Both must give the bits of the plain formulas on every finite input, so the
residual trace of ``fit`` does not move. ``singular_value_threshold`` shrinks
a one-row or one-column block in closed form instead of through an SVD: it
gives the bits of that formula and stays within rounding of the SVD route.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from robustpls.linalg import singular_value_threshold, soft_threshold
from robustpls.rpls import update_multipliers

from conftest import svd_route_svt, vector_svt

MAGNITUDE = 1e300
# Finite doubles up to 1e300 in magnitude, subnormals included, with -0.0 read as +0.0:
# the old form sent -0.0 to +0.0 and the new one to -0.0, which are equal but not the same bytes.
FINITE = st.floats(-MAGNITUDE, MAGNITUDE, allow_subnormal=True).map(lambda v: v + 0.0)
THRESHOLD = st.one_of(
    st.floats(0.0, MAGNITUDE, allow_subnormal=True),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0]),
)


def old_soft_threshold(m, eps):
    return np.sign(m) * np.maximum(np.abs(m) - eps, 0)


@st.composite
def threshold_cases(draw):
    """A threshold and a matrix mixing arbitrary entries with ``±eps`` and its neighbours."""
    eps = draw(THRESHOLD)
    near = [eps, -eps, np.nextafter(eps, np.inf), np.nextafter(eps, 0.0)]
    near += [-v for v in near[2:]]
    entry = st.one_of(FINITE, st.sampled_from([v + 0.0 for v in near if abs(v) <= MAGNITUDE]))
    m = draw(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6), elements=entry))
    return m, eps


@settings(max_examples=400, deadline=None)
@given(threshold_cases())
def test_soft_threshold_matches_plain_formula(case):
    m, eps = case
    assert soft_threshold(m, eps).tobytes() == old_soft_threshold(m, eps).tobytes()


@settings(max_examples=50, deadline=None)
@given(THRESHOLD)
def test_negative_zero_maps_to_zero(eps):
    out = soft_threshold(np.array([[-0.0, 0.0]]), eps)
    assert (out == 0.0).all()


@st.composite
def multiplier_cases(draw):
    shape = draw(array_shapes(min_dims=2, max_dims=2, max_side=6))
    lm = draw(arrays(np.float64, shape, elements=st.floats(-1e300, 1e300)))
    residual = draw(arrays(np.float64, shape, elements=st.floats(-1e290, 1e290)))
    alpha = draw(st.floats(1e-6, 1e6))
    return lm, residual, alpha


@settings(max_examples=400, deadline=None)
@given(multiplier_cases())
def test_update_multipliers_matches_plain_formula(case):
    lm, residual, alpha = case
    before = lm.tobytes(), residual.tobytes()
    out = update_multipliers(lm, residual, alpha)
    assert out.tobytes() == (lm + alpha * residual).tobytes()
    assert not np.shares_memory(out, lm) and not np.shares_memory(out, residual)
    assert (lm.tobytes(), residual.tobytes()) == before


@st.composite
def vector_svt_cases(draw):
    """A row or column of 1-8 entries whose largest is ``scale``, or zeros, and a threshold."""
    size = draw(st.integers(1, 8))
    shape = draw(st.sampled_from([(1, size), (size, 1)]))
    if draw(st.booleans()) and draw(st.booleans()):
        return np.zeros(shape), draw(st.sampled_from([0.0, 1.0]))
    unit = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)).filter(lambda u: u.any()))
    a = unit / np.abs(unit).max() * 10.0 ** draw(st.integers(-300, 300))
    sigma = math.hypot(*a.ravel())
    tau = draw(st.sampled_from([0.0, sigma, np.nextafter(sigma, np.inf), 2.0 * sigma,
                                sigma * draw(st.floats(0.0, 1.0))]))
    return a, tau


@settings(max_examples=400, deadline=None)
@given(vector_svt_cases())
def test_vector_svt_is_the_closed_form(case):
    a, tau = case
    assert singular_value_threshold(a, tau).tobytes() == vector_svt(a, tau).tobytes()


@settings(max_examples=400, deadline=None)
@given(vector_svt_cases())
def test_vector_svt_tracks_the_svd_route(case):
    # Over 30,000 draws the largest gap seen was below 2 eps ||a||.
    a, tau = case
    gap = math.hypot(*(singular_value_threshold(a, tau) - svd_route_svt(a, tau)).ravel())
    assert gap <= 8 * np.finfo(np.float64).eps * math.hypot(*a.ravel())
