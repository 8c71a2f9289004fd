"""In-memory spans and counts for the traced run.

A span is ``(id, parent, run_id, name, start, end)`` with times from
``time.perf_counter``; spans nest by a per-tracer stack, so a span opened
inside another records it as its parent.  Counts are plain named sums
recorded at the same call boundaries.  Nothing is written until
:meth:`Tracer.summary` is called at exit.

:func:`wrap` replaces a module attribute with a timing wrapper for the life
of a ``with`` block: the program calls that function through its module
global, so the wrapper sees every call made in this process.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, run_id, name, start, end)
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, self.run_id, name, time.perf_counter(), None))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            s = self.spans[sid]
            self.spans[sid] = s[:5] + (time.perf_counter(),)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[5] - s[4] for s in self.spans if s[3] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus time covered by child spans
        (children never overlap in this single-threaded tracer)."""
        child = [0.0] * len(self.spans)
        for sid, parent, _run, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, _parent, _run, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out


@contextlib.contextmanager
def wrap(tracer: Tracer, module, attr: str, name, on_result=None):
    """Time every call of ``module.attr`` as span ``name`` (a string, or a
    function of the call's positional args returning one); ``on_result(
    args, result)`` may record counts at the same boundary."""
    orig = getattr(module, attr)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        with tracer.span(name(args) if callable(name) else name):
            result = orig(*args, **kwargs)
        if on_result is not None:
            on_result(args, result)
        return result

    setattr(module, attr, traced)
    try:
        yield
    finally:
        setattr(module, attr, orig)


@contextlib.contextmanager
def counted(tracer: Tracer, module, attr: str, name: str):
    """Count calls of ``module.attr`` without a span (for calls too small
    and too many to time one by one)."""
    orig = getattr(module, attr)
    counts = tracer.counts

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return orig(*args, **kwargs)

    setattr(module, attr, traced)
    try:
        yield
    finally:
        setattr(module, attr, orig)
