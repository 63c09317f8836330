"""Spans around the calls into each robustpls module, recorded from outside the package.

The tracer wraps every public function of the package's modules and rebinds
the wrapper at every module attribute that holds the original, because
modules import kernels by name (``rpls`` binds ``soft_threshold`` itself, so
patching ``linalg`` alone would miss those calls). Nothing inside ``src/`` is
changed; ``uninstall`` restores the original bindings.

A span is (name, start, end, parent index, bytes). Spans live in memory and
are written once, when the run ends. A layer's self time is its span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Modules whose public functions are wrapped; ``cli`` is the caller of all of
# them and is timed from the benchmark's own spans around ``cli.main``.
LAYERS = ("linalg", "rpls", "projection", "baselines", "evaluate", "io", "datagen")

# ``io.format_float`` runs once per matrix cell; a span per call would cost
# more than the work it measures, so its time stays in its caller's self time.
UNWRAPPED = {"io.format_float"}


def _result_nbytes(args, result):
    return getattr(result, "nbytes", 0)


def _matrix_arg_nbytes(args, result):
    return np.asarray(args[1]).nbytes if len(args) > 1 else 0


# Bytes per call, computed from array sizes (not measured memory traffic).
BYTES = {
    "linalg.soft_threshold": _result_nbytes,  # output has the input's shape
    "linalg.as_matrix": _result_nbytes,       # the array checked for finiteness
    "io.load_csv": _result_nbytes,
    "io.write_csv": _matrix_arg_nbytes,
}


class Tracer:
    def __init__(self, package: str = "robustpls"):
        self.table: list[str] = []  # span names; spans store an index into it
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.nbytes = array("q")
        self._stack: list[int] = []
        self._bindings = []  # (module, attribute, original, wrapper)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in UNWRAPPED:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, BYTES.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._bindings.append((mod, attr, value, wrappers[id(value)][1]))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.table)
            self.table.append(name)
        return self._ids[name]

    def _enter(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.nbytes.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, bytes_of):
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if bytes_of is not None:
                self.nbytes[idx] = bytes_of(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an operation or a CLI command)."""
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def spans(self) -> "Spans":
        return Spans(self.table, self.name, self.start, self.end, self.parent, self.nbytes)


class Spans:
    """Recorded spans as arrays, with each span's self time and owning root span."""

    def __init__(self, table, name, start, end, parent, nbytes):
        self.table = list(table)
        self.name = np.asarray(name, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.nbytes = np.asarray(nbytes, dtype=np.int64)
        n = self.name.size
        self.duration = self.end - self.start
        nested = self.parent >= 0
        child = np.zeros(n)
        np.add.at(child, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - child
        root = np.where(nested, self.parent, np.arange(n))
        while True:  # pointer jumping until every span points at its root
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        self.root = root

    def __len__(self) -> int:
        return self.name.size

    def _ids(self, names) -> list[int]:
        return [self.table.index(n) for n in names if n in self.table]

    def select(self, names, op: str | None = None) -> np.ndarray:
        """Indices of the spans with one of ``names``, optionally only below operations ``op``."""
        mask = np.isin(self.name, self._ids(names))
        if op is not None:
            mask &= np.isin(self.name[self.root], self._ids([op]))
        return np.flatnonzero(mask)

    def ops(self, kind: str) -> np.ndarray:
        """Indices of the benchmark's operation spans of one kind, in order."""
        return np.flatnonzero(np.isin(self.name, self._ids([kind])) & (self.parent < 0))

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.table), name=self.name, start=self.start,
                            end=self.end, parent=self.parent, nbytes=self.nbytes)
