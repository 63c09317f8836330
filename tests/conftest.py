import base64
import importlib.util
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from robustpls.baselines import BLOCK_BYTES


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded read-only.

    It is registered in ``sys.modules`` while it runs, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240811))


def random_orthonormal(rng, n, k):
    """Orthonormal columns via QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def dot_by_blocks(x, m):
    """``np.dot(x, m)`` taken as the prediction apply takes it: whole up to
    ``BLOCK_BYTES``, else one ``np.dot`` per block of ``BLOCK_BYTES // row
    bytes`` rows (at least one), stacked."""
    if x.nbytes <= BLOCK_BYTES:
        return np.dot(x, m)
    step = max(1, BLOCK_BYTES // x.strides[0])
    return np.concatenate([np.dot(x[i:i + step], m) for i in range(0, len(x), step)])


def b64_f8(values) -> str:
    """``values`` as a model document stores an array: base64 of little-endian float64 bytes, row-major."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def vector_svt(a, tau):
    """Singular value thresholding of a one-row or one-column block, whose one singular value is its norm."""
    sigma = math.hypot(*a.ravel())
    return np.zeros_like(a) if sigma == 0.0 else a * (max(sigma - tau, 0.0) / sigma)


def svd_route_svt(a, tau):
    """Singular value thresholding through LAPACK's thin SVD, for any shape."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def svd_no_convergence(m, signature):
    """A stand-in for the SVD gufunc that fails as LAPACK's non-convergence does: by raising the invalid
    floating-point flag, which the caller's error state turns into numpy's ``LinAlgError``."""
    return np.subtract(np.inf, np.inf)


def rebuilt(model, convert):
    """``model`` built again from its array fields passed through ``convert``."""
    return type(model)(**{f.name: convert(getattr(model, f.name)) if f.name in model.AXES else getattr(model, f.name)
                          for f in fields(model) if f.init})


def assert_owns_read_only_arrays(model):
    """Every array ``model`` holds, each ``AXES`` field and the compiled ``offset`` (and ``w``, where the
    model has one), owns its data, is not writeable, and refuses a write with ``ValueError``."""
    for name in (*model.AXES, "offset", "w"):
        if not hasattr(model, name):
            continue  # a LinearModel compiles no w
        a = getattr(model, name)
        assert a.flags.owndata and not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
