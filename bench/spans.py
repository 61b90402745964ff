"""In-memory span tracing for the benchmark.

A span is one call across a layer boundary: its name, start and end
(perf_counter seconds), the index of the span that was open when it began
(its parent, -1 at top level), the record id the benchmark had set, and a
small dict of counts taken where the work happened. Spans stay in a list
until the run ends; nothing is written while measuring.

Wrapping replaces a function at the module attribute its callers look up,
so the program's own code is unchanged and a call made through another
module's binding is not traced.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

NAME, START, END, PARENT, RID, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.record_id = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name, None)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name, info) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.record_id, info])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, after=None):
        """Trace module.attr under `name` until restore().

        after(span, args, kwargs, result, error) runs once the span has
        closed, so counting costs land outside every span's interval.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, {} if after else None)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                self._close(idx)
                if after is not None:
                    after(self.spans[idx], args, kwargs, result, error)

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        reach = lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out
