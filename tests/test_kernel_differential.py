"""The solver's elementwise kernels against the expressions they replaced, over generated inputs.

``soft_threshold`` runs as clip, subtract and copysign, and
``update_multipliers`` scales the residual before adding the multipliers.
Both must give the bits of the plain formulas on every finite input, so the
residual trace of ``fit`` does not move.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from robustpls.linalg import soft_threshold
from robustpls.rpls import update_multipliers

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
