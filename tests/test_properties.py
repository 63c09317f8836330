"""Invariants of ``fit`` under changes of the data that should not change the answer.

Small random problems with a two-direction shared signal and a few gross
outliers, one response included, so that the closed-form shrink of a
one-row loading is covered:

- translation: ``fit(X + 1c^T, Y + 1d^T)`` moves the median offsets by ``c``
  and ``d`` and leaves the scores, the loadings and the sparse blocks;
- column permutation: permuting the columns of X permutes the rows of
  ``lambda_x`` and the columns of ``delta_x``, and leaves the scores;
- translation through predict: every method of ``evaluate.METHODS`` fit
  on ``X + c·spread`` predicts ``X_test + c·spread`` as its fit on X
  predicts ``X_test``, with the same rank notes, for c up to 1e8;
- degenerate data: every method fits a constant or a duplicated column,
  ``k = min(n, p)``, ``n < p`` and an all-zero Y with no warning and finite
  predictions, and predicts exactly zero from an all-zero Y;
- gross corruption: every method fits the paper's 150x40x4 and the NIR
  60x401x1 shapes with 2 % of the training entries moved by up to 1e6
  column spreads, with no warning and finite held-out predictions.

The data are moved exactly only up to rounding, so the fits agree within
``TOL``, not bit for bit: the largest entrywise gap of the scores, and of
every other field relative to the largest entry of the data. Over 3,000
hypothesis draws of each property the largest gap seen was 7.8e-13 for
translation (``|c|, |d| <= 1e3``) and 1.3e-12 for permutation.

The scores are identified only while the stacked loadings ``[Lx; Ly]``
keep rank ``k``. The first iteration starts from ``Q = eye(n, k)`` and can
zero all but one loading direction; the next Procrustes input then has
rank one, its other score columns are picked by rounding, and the moved
fit can take another path. In the same 6,000 draws the loadings lost rank
in 48, and 6 of those broke the property (gaps up to order one, or
iteration counts apart). Each test therefore assumes the unmoved fit kept
rank ``k`` at every iteration; RPLS keeps that assumption through predict.
One draw that breaks it is kept as a strict xfail, to pass once the start
no longer picks the path (ROADMAP item 4).

Far from the origin the data and their means round at the scale of
``c·spread``, so predictions move by a multiple of ``c·eps``. In units of
``c·eps·max|Y|`` the largest move seen over 2,000 draws (hypothesis seed 0)
at c = 1e2 to 1e8 was 125 (PCR), 119 (PLSR) and 119 (PLS_PROJ), all on one
9x2 draw at k = 2 = p, which every run checks as an example; 99.9 % of draws
stayed under 56. MLR's move grows with the condition number of the centered
X over the directions it solves on, and RPLS's with that of its compiled
score map ``w`` (up to 70 in these draws), so their units carry that
number; their largest was 35 (MLR) and 59 (RPLS, 158 without it). With X cut to its rank-two part none passed 60
(943 draws). ``PREDICT_TOL`` allows 200.

RPLS's iterations can also amplify the rounding of the moved data: on one
14x5x3 draw at k = 2 the moved fit missed by 1,044 conditioned units at
c = 1e2. Where an RPLS move passes ``PREDICT_TOL``, it is held instead to
``SENSITIVITY_TOL`` times the move of a fit of X nudged by up to one ulp of
the moved data, which measures that amplification. On that draw, and in
the three cases among the 2,000 draws where a move passed 20 conditioned
units, the move was at most 0.91 times the nudged fit's.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robustpls import evaluate
from robustpls.datagen import SPARSE_RANDOM, OutlierSpec, SynthSpec, generate, inject_sparse
from robustpls.projection import from_rpls, predict_projection
from robustpls.rpls import RplsConfig, RplsModel, fit

TOL = 1e-9
PREDICT_TOL = 200.0
SENSITIVITY_TOL = 10.0
EPS = np.finfo(np.float64).eps


def signal_problem(rng, n, p, r):
    """``(x, y)``: a two-direction signal plus noise, with about 5 % of the entries shifted by 10."""
    scores = rng.standard_normal((n, 2)) * [4.0, 2.0]
    x = scores @ rng.standard_normal((2, p)) + 0.1 * rng.standard_normal((n, p))
    y = scores @ rng.standard_normal((2, r)) + 0.1 * rng.standard_normal((n, r))
    for m in (x, y):
        m += 10.0 * (rng.random(m.shape) < 0.05) * rng.choice([-1.0, 1.0], m.shape)
    return x, y


@st.composite
def problems(draw):
    """``(x, y, k)``: ``signal_problem`` of a drawn shape and seed, with k of 1 or 2."""
    n, p, r = draw(st.integers(9, 16)), draw(st.integers(2, 8)), draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (*signal_problem(rng, n, p, r), k)


def gaps(base, moved, scale, x_fields=lambda a: a, x_means=None, y_means=None):
    """Each field's largest entrywise gap between two fits; ``x_fields`` maps ``base``'s X fields."""
    out = {
        "iterations": abs(moved.state.iteration - base.state.iteration),
        "q": np.abs(moved.state.q - base.state.q).max(),
    }
    pairs = {
        "lambda_x": (moved.state.lambda_x, x_fields(base.state.lambda_x.T).T),
        "delta_x": (moved.state.delta_x, x_fields(base.state.delta_x)),
        "lambda_y": (moved.state.lambda_y, base.state.lambda_y),
        "delta_y": (moved.state.delta_y, base.state.delta_y),
        "x_means": (moved.x_means, x_fields(base.x_means) if x_means is None else x_means),
        "y_means": (moved.y_means, base.y_means if y_means is None else y_means),
    }
    for name, (got, want) in pairs.items():
        out[name] = np.abs(got - want).max() / scale
    return out


def fit_of_full_rank(x, y, k):
    """The fit, and whether its stacked loadings kept rank ``k`` at every iteration."""
    ranks = []
    model = fit(x, y, RplsConfig(k=k), callback=lambda state, res: ranks.append(
        np.linalg.matrix_rank(np.vstack((state.lambda_x, state.lambda_y)))))
    return model, min(ranks) == k


def translation_gaps(x, y, k, c, d):
    """Gaps between the fits of the data and of the data moved by ``c`` and ``d``, and the rank flag."""
    base, full_rank = fit_of_full_rank(x, y, k)
    moved = fit(x + c, y + d, RplsConfig(k=k))
    scale = max(np.abs(x).max(), np.abs(y).max())
    return gaps(base, moved, scale, x_means=base.x_means + c, y_means=base.y_means + d), full_rank


def permutation_gaps(x, y, k, perm):
    """Gaps between the fits of the data and of the data with X's columns permuted, and the rank flag."""
    base, full_rank = fit_of_full_rank(x, y, k)
    moved = fit(x[:, perm], y, RplsConfig(k=k))
    scale = max(np.abs(x).max(), np.abs(y).max())
    return gaps(base, moved, scale, x_fields=lambda a: a[..., perm]), full_rank


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_translation_moves_only_the_offsets(problem, data):
    x, y, k = problem
    shift = st.floats(-1e3, 1e3)
    c = np.array([data.draw(shift) for _ in range(x.shape[1])])
    d = np.array([data.draw(shift) for _ in range(y.shape[1])])
    found, full_rank = translation_gaps(x, y, k, c, d)
    assume(full_rank)
    assert found.pop("iterations") == 0
    assert max(found.values()) <= TOL, found


@settings(max_examples=40, deadline=None)
@given(problems(), st.permutations(range(8)))
def test_column_permutation_permutes_the_x_fields(problem, order):
    x, y, k = problem
    perm = [j for j in order if j < x.shape[1]]
    found, full_rank = permutation_gaps(x, y, k, perm)
    assume(full_rank)
    assert found.pop("iterations") == 0
    assert found.pop("x_means") == 0.0  # each column's median moves with it, bit for bit
    assert max(found.values()) <= TOL, found


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the identity start Q = eye(n, k) zeroes a loading direction at the first update, so reversing X's "
    "columns or shifting X picks another path (66 iterations against 60); ROADMAP item 4's start race "
    "must flip this"))
def test_identity_start_keeps_predictions_equivariant():
    # One draw the rank assumption above excludes: the first update leaves
    # the stacked loadings of each fit with rank one. All three fits report
    # convergence; the reversed and shifted ones miss X's predictions by
    # about 8.6 times the largest of them, under one BLAS thread or two.
    x, y = signal_problem(np.random.default_rng(1884), n=13, p=3, r=1)
    config = RplsConfig(k=2)
    want = predict_projection(from_rpls(fit(x, y, config)), x)
    for moved, x_moved in (("reversed", x[:, ::-1]), ("shifted", x + 1e3)):
        got = predict_projection(from_rpls(fit(x_moved, y, config)), x_moved)
        gap = np.abs(got - want).max() / np.abs(want).max()
        assert gap <= 1e-6, (moved, gap)


def rank_notes(model):
    """What a fitted model says about the rank it kept: its component count and notes."""
    if isinstance(model, RplsModel):
        model = from_rpls(model)
    return getattr(model, "n_components", None), model.notes


def condition(m):
    """``m``'s condition number over its kept directions, whose singular values pass 1e-9 times the largest."""
    sv = np.linalg.svd(m, compute_uv=False)
    kept = sv[sv > 1e-9 * sv.max(initial=0.0)]
    return kept[0] / kept[-1] if kept.size else 1.0


@settings(max_examples=30, deadline=None)
@given(problems(), st.booleans(), st.integers(0, 2**32 - 1))
# Two draws that broke the bound before RPLS's unit carried its conditioning
# and its measured sensitivity (hypothesis seeds 10 and 21, fresh database).
@example(problem=(*signal_problem(np.random.default_rng(557963), 9, 2, 1), 2), exact_rank=False, seed=1)
@example(problem=(*signal_problem(np.random.default_rng(3186), 14, 5, 3), 2), exact_rank=False, seed=0)
# The draw on which PCR, PLSR and PLS_PROJ moved furthest over 2,000 draws
# (hypothesis seed 0): 125, 119 and 119 units, at k = 2 = p.
@example(problem=(*signal_problem(np.random.default_rng(134217728), 9, 2, 3), 2), exact_rank=False, seed=65881)
def test_translation_through_predict(problem, exact_rank, seed):
    # X moves by c spreads of each column, and so do the rows it predicts.
    # With ``exact_rank`` X is its rank-two part, so MLR notes a deficient
    # rank, which the rounding of the moved data must not lift.
    x, y, k = problem
    if exact_rank:
        u, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        x = x.mean(axis=0) + (u[:, :2] * s[:2]) @ vt[:2]
    spread = x.std(axis=0)
    x_test = x.mean(axis=0) + np.random.default_rng(seed).standard_normal((5, x.shape[1])) * spread
    config = RplsConfig(k=k)
    unit = EPS * np.abs(y).max()
    for name, method in evaluate.METHODS.items():
        if name == "rpls":
            base, full_rank = fit_of_full_rank(x, y, k)
            if not full_rank:
                continue
            scale = unit * condition(from_rpls(base).w)
        else:
            base, _ = method.fit(x, y, config)
            scale = unit * condition(x - x.mean(axis=0)) if name == "mlr" else unit
        want = evaluate.predict_model(base, x_test)
        for c in (1e2, 1e4, 1e6, 1e8):
            moved, _ = method.fit(x + c * spread, y, config)
            assert rank_notes(moved) == rank_notes(base), (name, c)
            gap = np.abs(evaluate.predict_model(moved, x_test + c * spread) - want).max()
            bound = PREDICT_TOL * c * scale
            if name == "rpls" and gap > bound:
                # The solver's iterations can amplify the rounding of the
                # moved data: measure that on X nudged by up to one ulp of it.
                nudge = np.spacing(x + c * spread) * np.random.default_rng(seed).uniform(-1.0, 1.0, x.shape)
                nudged, _ = method.fit(x + nudge, y, config)
                bound = SENSITIVITY_TOL * np.abs(evaluate.predict_model(nudged, x_test) - want).max()
            assert gap <= bound, (name, c, gap / (c * scale))


DEGENERATE = ("constant column", "duplicated column", "k = min(n, p)", "n < p", "all-zero y")


@st.composite
def degenerate_problems(draw, case):
    """``(x, y, k)`` from ``problems`` made degenerate as ``case`` says; "n < p" draws its own shape."""
    x, y, k = draw(problems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = x.shape
    if case == "constant column":
        x[:, draw(st.integers(0, p - 1))] = draw(st.sampled_from([0.0, 0.1, -3.5, 1e3]))
    elif case == "duplicated column":
        i, j = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
        x[:, j] = x[:, i]
    elif case == "k = min(n, p)":
        k = min(n, p)
    elif case == "n < p":
        n = draw(st.integers(3, 8))
        p = draw(st.integers(n + 1, 3 * n))
        x = rng.standard_normal((n, 2)) @ rng.standard_normal((2, p)) + 0.1 * rng.standard_normal((n, p))
        y = y[:n]
        k = min(k, n)
    else:
        y = np.zeros_like(y)
    return x, y, k


@pytest.mark.parametrize("case", DEGENERATE)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_degenerate_data_fit_and_predict(case, data):
    x, y, k = data.draw(degenerate_problems(case))
    config = RplsConfig(k=k)
    for name, method in evaluate.METHODS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, _ = method.fit(x, y, config)
            y_hat = evaluate.predict_model(model, x)
        assert y_hat.shape == y.shape and np.isfinite(y_hat).all(), name
        if case == "all-zero y":
            assert not y_hat.any(), name


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(150, 40, 4), (60, 401, 1)]), st.integers(0, 2**32 - 1), st.floats(1.0, 6.0))
def test_gross_corruption_fit_and_predict(shape, seed, log_magnitude):
    n, p, r = shape
    x, y, _ = generate(SynthSpec(n=n, p=p, r=r, seed=seed))
    train = n * 4 // 5
    spec = OutlierSpec(kind=SPARSE_RANDOM, magnitude=10.0**log_magnitude, seed=seed)
    x_train, y_train, _ = inject_sparse(x[:train], y[:train], spec)
    config = RplsConfig()
    for name, method in evaluate.METHODS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, _ = method.fit(x_train, y_train, config)
            y_hat = evaluate.predict_model(model, x[train:])
        assert y_hat.shape == (n - train, r) and np.isfinite(y_hat).all(), name
