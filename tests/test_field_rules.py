"""The range and choice rules that each config and model type hands to ``errors.check_fields``.

Each rule is tried at its bound and at the next float past it, so an open end
where a closed one belongs (or the reverse) fails here.
"""

import numpy as np
import pytest

from robustpls.baselines import LinearModel
from robustpls.datagen import LOW_TAIL, SPARSE_RANDOM, OutlierSpec, SynthSpec
from robustpls.errors import ConfigError
from robustpls.projection import ProjectionRegressor
from robustpls.rpls import CENTER_MODES, RplsConfig

TINY = 5e-324  # the smallest positive float64
BELOW_ONE = 0.9999999999999999  # the float64 just below 1
ABOVE_ONE = 1.0000000000000002  # the float64 just above 1


def linear_model(method_tag):
    return LinearModel(theta=np.zeros((2, 1)), x_means=np.zeros(2), y_means=np.zeros(1), method_tag=method_tag)


def projection_regressor(source_tag):
    return ProjectionRegressor(lambda_x=np.eye(2), lambda_y=np.ones((1, 2)), x_means=np.zeros(2),
                               y_means=np.zeros(1), source_tag=source_tag)


# (type, field, values at or inside the bound, values just past it)
RULES = [
    (RplsConfig, "rho", [1.0], [BELOW_ONE]),
    (RplsConfig, "alpha0", [TINY], [0.0]),
    (RplsConfig, "alpha_max", [TINY], [0.0]),
    (RplsConfig, "lambda1", [None, TINY], [0.0]),
    (RplsConfig, "lambda2", [None, TINY], [0.0]),
    (RplsConfig, "tol", [None, TINY], [0.0]),
    (RplsConfig, "center", list(CENTER_MODES), ["Median"]),
    (SynthSpec, "noise_sigma", [0.0], [-TINY]),
    (OutlierSpec, "kind", [SPARSE_RANDOM, LOW_TAIL], ["sparse_random"]),
    (OutlierSpec, "fraction", [0.0, 1.0], [-TINY, ABOVE_ONE]),
    (OutlierSpec, "tail_fraction", [0.0, 1.0], [-TINY, ABOVE_ONE]),
    (LinearModel, "method_tag", ["MLR", "PCR", "PLSR"], ["PLS"]),
    (ProjectionRegressor, "source_tag", ["RPLS", "PLS"], ["PLSR"]),
]

BUILDERS = {
    # alpha0 at its least, so that alpha_max can reach its own bound.
    RplsConfig: lambda field, v: RplsConfig(**{"alpha0": TINY, field: v}),
    SynthSpec: lambda field, v: SynthSpec(**{field: v}),
    OutlierSpec: lambda field, v: OutlierSpec(**{"kind": SPARSE_RANDOM, field: v}),
    LinearModel: lambda field, v: linear_model(v),
    ProjectionRegressor: lambda field, v: projection_regressor(v),
}


@pytest.mark.parametrize("cls, field, passes, fails", RULES, ids=[f"{c.__name__}.{f}" for c, f, _, _ in RULES])
def test_bound_passes_and_next_value_fails(cls, field, passes, fails):
    build = BUILDERS[cls]
    for v in passes:
        assert getattr(build(field, v), field) == v
    for v in fails:
        with pytest.raises(ConfigError, match=rf"^{field} must be "):
            build(field, v)
