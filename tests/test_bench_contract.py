"""The benchmark times package functions by name; each one it names must exist.

``perfbench/layers.py`` computes per-layer metrics from spans named
``<module>.<function>``, and ``perfbench/tracer.py`` opens such a span only
for a function listed in the module's ``__all__``. A function renamed,
removed or made private would silently turn its metric absent; this test
fails instead. Both files are loaded read-only.
"""

import importlib
import inspect

import pytest

from conftest import load_perfbench

layers = load_perfbench("layers")
tracer = load_perfbench("tracer")

TIMED = sorted({
    name
    for _, _, (_, _, names, _) in layers.SPAN_METRICS
    for name in names
    if name.split(".")[0] in tracer.LAYERS
})


def test_contract_is_not_empty():
    assert TIMED


@pytest.mark.parametrize("name", TIMED)
def test_timed_function_is_traced(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"robustpls.{layer}")
    fn = getattr(module, attr, None)
    assert attr in module.__all__, f"{attr} is not in robustpls.{layer}.__all__"
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert name not in tracer.UNWRAPPED
