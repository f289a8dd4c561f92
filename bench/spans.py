"""In-memory span tracer that wraps pvghi's public functions from outside.

Every public function defined in a pvghi module is replaced, in each
module namespace that holds it, by a wrapper that records a span:
name, start, end and the index of its parent span. ``proxy_matrix``,
for example, is bound separately in ``proxy``, ``solver``,
``orientation``, ``synth`` and the package itself, and all five names
are patched. ``uninstall`` puts every original back.

The benchmark is single-threaded, so child spans never overlap and a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import pvghi

LAYERS = (
    "solar", "proxy", "orientation", "reconcile", "solver",
    "synth", "data", "cli", "metrics", "config",
)

# functions a layer imports from a dependency whose time belongs to it
FOREIGN = {"orientation": ("nnls",)}


def pvghi_modules() -> list:
    return [pvghi] + [importlib.import_module(f"pvghi.{m}") for m in LAYERS]


class Tracer:
    """Collects spans while installed.

    ``observe`` maps a span name to a function of the wrapped call's
    return value; each result is kept with its span index in
    ``observed[name]``. It lets the benchmark read counts from results
    (a proxy matrix's size, a solver result) without holding on to
    large arrays.
    """

    def __init__(self, observe: dict | None = None):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.observed: dict[str, list] = defaultdict(list)
        self._observe = observe or {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        observe = self._observe.get(name)
        observed = self.observed[name] if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe:
                observed.append((idx, observe(out)))
            return out

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = pvghi_modules()
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                if own or attr in FOREIGN.get(layer, ()):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _under(self, root_name: str) -> list[bool]:
        """Whether each span descends from a top-level span named ``root_name``."""
        roots = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
        return [self.spans[r][0] == root_name and r != i for i, r in enumerate(roots)]

    def summary(self, root_name: str) -> dict[str, dict]:
        """Per span name below ``root_name``: calls, inclusive ``s`` and ``self_s``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), kids, inside in zip(
            self.spans, child, self._under(root_name)
        ):
            if not inside:
                continue
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - kids
        return dict(out)

    def observed_under(self, root_name: str) -> dict[str, list]:
        """Observed values of calls below ``root_name``, per span name."""
        inside = self._under(root_name)
        return {
            name: [value for idx, value in rows if inside[idx]]
            for name, rows in self.observed.items()
        }

    def write(self, path) -> None:
        """Spans as ``[name, start_s, end_s, parent]``, times from the first start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
            fh.write("\n")
