"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(tmp_path, monkeypatch):
    # Every fenced python block runs, in order and in one namespace, so a
    # later block may read what an earlier one wrote (model.json). An example
    # that names a removed function or option fails here.
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S))
    assert blocks, "README.md has no python example"
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for block in blocks:
        line = text.count("\n", 0, block.start(1)) + 1
        exec(compile("\n" * (line - 1) + block.group(1), str(README), "exec"), namespace)
