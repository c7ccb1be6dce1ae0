"""In-memory span recording for the traced benchmark run.

A span is one call across a layer boundary: its name, start and end
(``perf_counter_ns``), the index of the span that was open when it began
(-1 at top level) and the operation id, which is the index of the
top-level span it belongs to.  Each top-level span carries the caller's
current ``tag``.  Spans stay in compact arrays until :meth:`Tracer.write`
saves them once, when the run ends.

Layer calls made from inside the package are reached by temporarily
replacing module attributes with recording wrappers (:func:`patched`);
the package itself is not changed.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.digests = array("q")
        self.tags: dict[int, object] = {}
        self.tag: object = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        index = len(self.start)
        if self._stack:
            parent = self._stack[-1]
            op = self.op[parent]
        else:
            parent, op = -1, index
            self.tags[op] = self.tag
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.op.append(op)
        self.digests.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter_ns()
            self._stack.pop()
        # digests produced: one per element of a returned digest array,
        # one for a scalar digest, none for anything else (e.g. seed lists)
        if isinstance(result, np.ndarray):
            self.digests[index] = result.size
        elif isinstance(result, int) and not isinstance(result, bool):
            self.digests[index] = 1
        return result

    def columns(self) -> dict[str, np.ndarray]:
        """Span columns as arrays, with ``self_ns`` = duration minus children."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64),
            "digests": np.frombuffer(self.digests, dtype=np.int64),
            "duration_ns": duration,
            "self_ns": duration - children,
        }

    def write(self, path, meta: str) -> None:
        """Save every span, the span names and the op tags to one ``.npz``."""
        cols = self.columns()
        ops = np.array(sorted(self.tags), dtype=np.int64)
        np.savez(
            path,
            names=np.array(self.names),
            tag_op=ops,
            tag=np.array([repr(self.tags[o]) for o in ops]),
            meta=np.array(meta),
            **cols,
        )


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


def hashing_targets(modules, hashing_module: str = "bloom2d.hashing"):
    """Every function imported from the hashing module into ``modules``.

    Found by ``__module__`` so that a new hashing entry point is traced
    without editing the benchmark.
    """
    return [
        (mod, attr, "hashing." + value.__name__)
        for mod in modules
        for attr, value in vars(mod).items()
        if inspect.isfunction(value) and value.__module__ == hashing_module
    ]


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace each ``(module, attribute, span name)`` with a traced wrapper."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, name in targets:
            setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)
