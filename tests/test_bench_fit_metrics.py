"""The benchmark's per-fit metrics are all emitted by one traced ``fit``.

``test_bench_contract.py`` checks that each function the benchmark times
exists and is traced. This test checks that ``fit`` still calls them: a loop
that inlined a block (say, calling ``soft_threshold`` in place of
``update_sparse``) would leave that block's metric absent from every
benchmark run. It runs one small fit under the benchmark's own tracer, with
``perfbench/layers.py`` and ``perfbench/tracer.py`` loaded read-only by the
contract test.

``test_predict_row_emits_every_predict_metric`` does the same for the metrics
of a one-row prediction: one that inlined ``project`` would leave
``projection.project.self_us`` absent.
"""

import robustpls.io  # noqa: F401 - the tracer wraps every layer module, so all must be imported
from robustpls import projection, rpls
from robustpls.datagen import SynthSpec, generate

from test_bench_contract import layers, tracer


def test_fit_emits_every_fit_metric():
    x, y, _ = generate(SynthSpec(n=40, p=12, r=2, n_collinear=4, seed=5))
    t = tracer.Tracer()
    t.install()
    try:
        with t.span(layers.FIT):
            rpls.fit(x, y, rpls.RplsConfig(k=3, max_iter=5))  # through the module, so the wrapper runs
    finally:
        t.uninstall()
    emitted = layers.compute(t.spans())
    expected = [name for name, _, (_, op, _, _) in layers.SPAN_METRICS if op == layers.FIT]
    assert expected
    assert [name for name in expected if name not in emitted] == []


def test_predict_row_emits_every_predict_metric():
    x, y, _ = generate(SynthSpec(n=40, p=12, r=2, n_collinear=4, seed=5))
    reg = projection.from_rpls(rpls.fit(x, y, rpls.RplsConfig(k=3, max_iter=5)))
    t = tracer.Tracer()
    t.install()
    try:
        with t.span(layers.PREDICT_ROW):
            projection.predict_projection(reg, x[:1])  # through the module, so the wrapper runs
    finally:
        t.uninstall()
    emitted = layers.compute(t.spans())
    expected = [name for name, _, (_, op, _, _) in layers.SPAN_METRICS if op == layers.PREDICT_ROW]
    assert expected
    assert [name for name in expected if name not in emitted] == []
