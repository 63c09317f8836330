"""The one-block prediction apply against the expressions it replaced, over generated inputs.

For a batch that fits one block, ``project``, ``predict_projection`` and
``baselines.predict`` take ``np.dot`` products and add the response offsets
in place, and ``as_matrix`` tests finiteness with one ``logical_and``
reduction. Each must give the bytes of the plain expression,
``(x - x_means) @ w`` and so on, for every layout a caller may pass, and
``as_matrix`` must accept exactly the arrays whose entries are all finite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpls.baselines import BLOCK_BYTES, LinearModel, predict
from robustpls.errors import InvalidInputError
from robustpls.linalg import as_matrix
from robustpls.projection import ProjectionRegressor, predict_projection, project


def strided(x):
    """A non-contiguous view holding the entries of ``x``."""
    base = np.zeros((2 * x.shape[0], 3 * x.shape[1]), dtype=x.dtype)
    base[::2, ::3] = x
    return base[::2, ::3]


# How a batch may reach the apply: its entries in another layout, type or container.
LAYOUTS = {
    "C": lambda x: x,
    "Fortran": np.asfortranarray,
    "strided": strided,
    "float32": lambda x: x.astype(np.float32),
    "list": lambda x: x.tolist(),
}
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def apply_cases(draw):
    """Both model kinds over drawn shapes (k may be 0), and a one-block batch in a drawn layout."""
    n, p, k, r = draw(st.integers(1, 8)), draw(st.integers(1, 450)), draw(st.integers(0, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(SEEDS))
    scale = 10.0 ** draw(st.integers(-3, 3))
    reg = ProjectionRegressor(lambda_x=rng.standard_normal((p, k)), lambda_y=rng.standard_normal((r, k)),
                              x_means=rng.standard_normal(p) * scale, y_means=rng.standard_normal(r),
                              source_tag="RPLS")
    linear = LinearModel(theta=rng.standard_normal((p, r)), x_means=reg.x_means, y_means=reg.y_means,
                         method_tag="MLR")
    batch = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](rng.standard_normal((n, p)) * scale + 1.0)
    return reg, linear, batch


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(apply_cases())
def test_one_block_apply_matches_plain_expressions(case):
    reg, linear, batch = case
    x = np.asarray(batch, dtype=np.float64)  # the values the apply checks and takes
    assert x.nbytes <= BLOCK_BYTES
    same_bytes(project(reg, batch), (x - reg.x_means) @ reg.w)
    same_bytes(predict_projection(reg, batch), (x - reg.x_means) @ reg.w @ reg.lambda_y.T + reg.y_means)
    same_bytes(predict(linear, batch), (x - linear.x_means) @ linear.theta + linear.y_means)


# Non-finite values and the finite extremes beside them.
MARKS = [np.nan, np.inf, -np.inf, np.finfo(np.float64).max, -np.finfo(np.float64).max, 5e-324, -0.0]


@st.composite
def marked_matrices(draw):
    """A matrix with up to three drawn cells set to a drawn mark, in a drawn layout."""
    n, p = draw(st.integers(1, 8)), draw(st.integers(1, 450))
    m = np.random.default_rng(draw(SEEDS)).standard_normal((n, p))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, p - 1), st.sampled_from(MARKS))
    for i, j, value in draw(st.lists(cells, max_size=3)):
        m[i, j] = value
    # float32 would overflow the largest doubles on the way in, so it is left out here.
    layout = draw(st.sampled_from(["C", "Fortran", "strided", "list"]))
    return m, LAYOUTS[layout](m)


@settings(max_examples=300, deadline=None)
@given(marked_matrices())
def test_as_matrix_accepts_exactly_the_finite_arrays(case):
    m, given_as = case
    if np.isfinite(m).all():
        same_bytes(as_matrix(given_as, "x_new"), m)
    else:
        with pytest.raises(InvalidInputError, match="^x_new contains non-finite entries$"):
            as_matrix(given_as, "x_new")
