"""Spans around calls into the library, recorded from outside it.

A traced pass replaces public functions by timing wrappers under the names
their callers look them up by (``opcov.estimation.relative_error`` inside
``estimate_and_report``, ``opcov.enkf.spectral_norm`` inside
``compare_analysis_updates``, ...), so nothing inside ``src/`` changes.  Spans
stay in memory as ``(name, start, end, parent, trial)`` rows; the pass hands
them to ``run.py``, which writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, trial id]
        self.counts: dict[str, float] = defaultdict(float)
        self.trial = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.trial])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, module, attr: str, name, before=None, after=None) -> None:
        """Replace ``module.attr`` by a spanned wrapper until :meth:`restore`.

        ``name`` is the span name, or a function of (args, kwargs) giving it.
        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result)`` sees the result.  Both run inside the
        span, so their cost shows up as that layer's time.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            self.counts[label + ".calls"] += 1
            self.begin(label)
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self.end()

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Span each step of a generator function; ``.calls`` counts items."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.counts[name + ".calls"] += 1
                yield item

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per span name, and the time covered by top-level spans.

        A span's self time is its duration minus that of its direct children,
        so the self times of all spans add up to the top-level total.
        """
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out, top
