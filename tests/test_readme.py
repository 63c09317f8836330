"""The README's library and CLI examples run as written."""

import re
import shlex
from pathlib import Path

from robustpls.cli import main

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


def test_cli_examples_run(tmp_path, monkeypatch):
    # Every `rpls` line of the README's sh blocks runs, in order, through
    # the CLI's main (a backslash continues a line). Each command's bullet
    # in the CLI section names files; each of them is in its --out-dir.
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
             for line in block.replace("\\\n", " ").splitlines() if line.startswith("rpls ")]
    assert lines, "README.md has no rpls example"
    bullets = {m.group(1): m.group(2) for m in re.finditer(r"^- `(\w+)` (.*?)(?=^- |^\n)", text, flags=re.M | re.S)}
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = Path(argv[argv.index("--out-dir") + 1])
        named = re.findall(r"`([\w.]+\.(?:csv|json))`", bullets[argv[0]])
        assert named, f"the README bullet for {argv[0]} names no file"
        assert [name for name in named if not (out / name).is_file()] == [], line
