"""The prediction apply against the plain expressions it computes, over generated inputs.

``project``, ``predict_projection`` and ``baselines.predict`` take one
uncentered ``np.dot`` product (one per row block above ``BLOCK_BYTES``),
subtract the offset their model compiled, and (for
``predict_projection``) map the scores through the response loadings and
add the response means in place; ``as_matrix`` tests finiteness with one
``logical_and`` reduction. Each must give the bytes of the plain
expression, ``np.dot(x, w) - offset`` and so on with the product taken by
the same row blocks, for every layout a caller may pass and for batches of
one to three blocks; the result must stay close to the centered
product ``(x - x_means) @ w`` for inputs far from the origin; and
``as_matrix``, and the apply of a batch above ``BLOCK_BYTES``, which tests
finiteness through its product, must accept exactly the arrays whose
entries are all finite.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpls.baselines import BLOCK_BYTES, LinearModel, _affine, predict
from robustpls.errors import InvalidInputError
from robustpls.linalg import as_matrix
from robustpls.projection import ProjectionRegressor, predict_projection, project

from conftest import dot_by_blocks


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


def models(rng, p, k, r, x_means):
    """A projection regressor and a linear model over the same means."""
    reg = ProjectionRegressor(lambda_x=rng.standard_normal((p, k)), lambda_y=rng.standard_normal((r, k)),
                              x_means=x_means, y_means=rng.standard_normal(r), source_tag="RPLS")
    linear = LinearModel(theta=rng.standard_normal((p, r)), x_means=x_means, y_means=reg.y_means,
                         method_tag="MLR")
    return reg, linear


@st.composite
def apply_cases(draw):
    """Both model kinds over drawn shapes (k may be 0), and a batch of one to three blocks in a drawn layout."""
    p, k, r = draw(st.integers(1, 450)), draw(st.integers(0, 6)), draw(st.integers(1, 4))
    step = BLOCK_BYTES // (8 * p)  # rows of float64 in one block
    blocks = draw(st.integers(1, 3))
    n = draw(st.integers(1, 16) if blocks == 1 else st.integers((blocks - 1) * step + 1, blocks * step))
    rng = np.random.default_rng(draw(SEEDS))
    scale = 10.0 ** draw(st.integers(-3, 3))
    reg, linear = models(rng, p, k, r, rng.standard_normal(p) * scale)
    batch = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](rng.standard_normal((n, p)) * scale + 1.0)
    return reg, linear, batch


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(apply_cases())
def test_apply_matches_plain_expressions(case):
    reg, linear, batch = case
    x = np.ascontiguousarray(batch, dtype=np.float64)  # the values and layout the apply takes
    same_bytes(reg.offset, np.dot(reg.x_means, reg.w))
    same_bytes(linear.offset, np.dot(linear.x_means, linear.theta) - linear.y_means)
    same_bytes(project(reg, batch), dot_by_blocks(x, reg.w) - reg.offset)
    same_bytes(predict_projection(reg, batch), (dot_by_blocks(x, reg.w) - reg.offset) @ reg.lambda_y.T + reg.y_means)
    same_bytes(predict(linear, batch), dot_by_blocks(x, linear.theta) - linear.offset)


@st.composite
def shifted_cases(draw):
    """Both model kinds, a batch whose column means sit up to 1e3 times its spread from zero, and that spread."""
    n, p, k, r = draw(st.integers(1, 16)), draw(st.integers(1, 450)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(SEEDS))
    spread = 10.0 ** draw(st.integers(-3, 3))
    shift = draw(st.floats(0.0, 1e3)) * spread * rng.uniform(-1.0, 1.0, p)
    reg, linear = models(rng, p, k, r, shift + rng.standard_normal(p) * spread)
    return reg, linear, shift + rng.standard_normal((n, p)) * spread, spread


@settings(max_examples=300, deadline=None)
@given(shifted_cases())
def test_apply_tracks_centered_oracle(case):
    # The intercept form rounds at the scale of |x|, not |x - x_means|. With
    # means up to 1e3 spreads from zero it stays within 1e-12 of the centered
    # product, relative to the size a centered batch of that spread has,
    # spread * sqrt(n p) * |M| (plus the response means); a row whose
    # centered product cancels to near zero is not held to its own size. The
    # oracle is in long double.
    reg, linear, x, spread = case
    ld = np.longdouble
    xc = x.astype(ld) - reg.x_means.astype(ld)
    for got, matrix, y_means in [(project(reg, x), reg.w, np.zeros(reg.w.shape[1])),
                                 (predict(linear, x), linear.theta, linear.y_means)]:
        want = (xc @ matrix.astype(ld) + y_means.astype(ld)).astype(np.float64)
        size = spread * np.sqrt(x.size) * np.linalg.norm(matrix, 2) + np.sqrt(len(x)) * np.linalg.norm(y_means)
        assert np.linalg.norm(got - want) <= 1e-12 * size


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


@st.composite
def marked_batches(draw):
    """A matrix of p <= 8 rows, some all zero, and k <= 3 columns, and a
    batch of two blocks with up to three cells set to a drawn mark."""
    p, k = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(SEEDS))
    matrix = rng.standard_normal((p, k))
    matrix[draw(st.lists(st.integers(0, p - 1), max_size=p))] = 0.0
    n = 2 * (BLOCK_BYTES // (8 * p))
    x = rng.standard_normal((n, p))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, p - 1), st.sampled_from(MARKS))
    for i, j, value in draw(st.lists(cells, max_size=3)):
        x[i, j] = value
    return matrix, x


@settings(max_examples=200, deadline=None)
@given(marked_batches())
def test_large_batch_accepted_exactly_when_finite(case):
    # No zero factor of M may hide a NaN or an infinity: the apply rejects
    # each such batch, with no warning, and otherwise gives the product by
    # row blocks (overflowing where the largest doubles do). M is given to
    # the apply itself: a model needs a response column, but a projection's
    # score map has none at k = 0.
    matrix, x = case
    offset = np.zeros(matrix.shape[1])
    if np.isfinite(x).all():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            same_bytes(_affine(x, matrix, offset), dot_by_blocks(x, matrix) - offset)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^x_new contains non-finite entries$"):
                _affine(x, matrix, offset)
