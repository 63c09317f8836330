"""Golden residual traces: the solver's output, bit for bit, on two seeded problems.

``tests/data/golden_traces.json`` holds the ``float.hex`` residual trace and a
digest of the final state of ``fit`` on a 150x40x4 problem with sparse
outliers and a 60x401x1 problem with low-tail outliers. The test requires
bitwise equality, so a change meant to keep the solver's arithmetic (a
refactor, a speedup) is checked against the exact numbers. Floating-point
results depend on the numpy build, the BLAS and its thread count (OpenBLAS
splits a long dot product by thread), so the file also records all three and
the test skips, saying why, when any differs.

A change that alters the trace on purpose regenerates the file with::

    python tests/test_golden_trace.py --write

The file's ``flat_row`` section keeps, as recorded, the traces of the solver
that held ``[X Y]`` in one flat ``(1, n*p + n*r)`` row and formed its
products block by block. Regenerating carries it over unchanged. The stacked
``(n, p+r)`` solver takes one product where that one took two and an add, so
its bits differ; a second test, which runs under any BLAS and thread count,
bounds the current traces against the recorded ones.
"""

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustpls.datagen import (  # noqa: E402
    LOW_TAIL,
    SPARSE_RANDOM,
    OutlierSpec,
    SynthSpec,
    generate,
    inject_low_tail,
    inject_sparse,
)
from robustpls.rpls import RplsConfig, fit  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_traces.json"

# name -> (n, p, r, outlier regime, seed); every fit uses RplsConfig(k=5).
PROBLEMS = {
    "sparse-150x40x4": (150, 40, 4, SPARSE_RANDOM, 1),
    "lowtail-60x401x1": (60, 401, 1, LOW_TAIL, 2),
}
K = 5
STATE_FIELDS = ("q", "lambda_x", "lambda_y", "delta_x", "delta_y", "l", "m")


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any.

    The same lookup as ``perfbench/run.py::_blas_threads``, copied because
    importing ``run.py`` sets up the benchmark's own import path.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    """The numpy version, the BLAS it was built against and its thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without structured build info
        blas = None
    return {"numpy": np.__version__, "blas": blas, "blas_threads": blas_threads()}


def run(name: str) -> dict:
    n, p, r, kind, seed = PROBLEMS[name]
    x, y, _ = generate(SynthSpec(n=n, p=p, r=r, seed=seed))
    spec = OutlierSpec(kind=kind, seed=seed)
    if kind == SPARSE_RANDOM:
        x, y, _ = inject_sparse(x, y, spec)
    else:
        y, _ = inject_low_tail(y, spec)
    model = fit(x, y, RplsConfig(k=K))
    digest = hashlib.sha256()
    for field in STATE_FIELDS:
        digest.update(np.ascontiguousarray(getattr(model.state, field)).tobytes())
    return {
        "trace": [float(res).hex() for _, res in model.residual_trace],
        "state_sha256": digest.hexdigest(),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_residual_trace_bitwise(name):
    golden = _golden()
    env = environment()
    recorded = golden["environment"]
    if env["blas"] is None or env != recorded:
        differs = ", ".join(key for key in recorded if env.get(key) != recorded[key]) or "blas"
        pytest.skip(f"the environment differs in {differs}: "
                    f"golden traces were recorded with {recorded}, this is {env}")
    got = run(name)
    want = golden["problems"][name]
    assert len(got["trace"]) == len(want["trace"]), "iteration count changed"
    for i, (g, w) in enumerate(zip(got["trace"], want["trace"]), start=1):
        assert g == w, f"residual at iteration {i}: {g} != golden {w}"
    assert got["state_sha256"] == want["state_sha256"], "final state differs"


# Largest relative distance from the flat-row trace at any iteration; seen:
# 8.2e-11 under one and two OpenBLAS threads.
FLAT_ROW_RTOL = 1e-9


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_residual_trace_near_flat_row(name):
    want = [float.fromhex(h) for h in _golden()["flat_row"][name]]
    got = [float.fromhex(h) for h in run(name)["trace"]]
    assert len(got) == len(want), "iteration count changed"
    np.testing.assert_allclose(got, want, rtol=FLAT_ROW_RTOL, atol=0)


def write() -> None:
    doc = {"environment": environment(), "problems": {name: run(name) for name in sorted(PROBLEMS)},
           "flat_row": _golden()["flat_row"]}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_trace.py --write")
    write()
