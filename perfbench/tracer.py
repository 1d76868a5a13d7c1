"""Timing wrappers around the program's public per-layer entry points.

A :class:`Tracer` patches each entry point (a class attribute or a module
function) with a wrapper that records one span per call: name, start,
end, the enclosing span and the root span of its request.  Spans stay in
memory while the run lasts and are written out by :meth:`Tracer.write`.
Self time per layer is accumulated online: a span's duration minus the
time its child spans cover.  ``uninstall`` restores every original, so an
untraced measurement in the same process runs the unpatched program.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """Spans, self time and work counts of the wrapped layers."""

    def __init__(self) -> None:
        #: (span id, parent id, request id, layer, start s, end s); id 0
        #: means none.
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Work counts gathered from the wrapped calls' results.
        self.counts: Counter = Counter()
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def _enter(self, layer: str, request: bool = True) -> list:
        """Open a span.  A call made from no other layer's span starts a
        request; the spans it causes carry that request's id."""
        self._next_id += 1
        sid = self._next_id
        up = self._stack[-1][2] if self._stack else 0
        frame = [sid, layer, (up or sid) if request else 0, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, layer, request, child_s, start = frame
        dur = end - start
        self.self_s[layer] += dur - child_s
        self.calls[layer] += 1
        parent = 0
        if self._stack:
            up = self._stack[-1]
            up[3] += dur
            parent = up[0]
        self.spans.append((sid, parent, request, layer, start, end))

    @contextmanager
    def span(self, layer: str):
        """A span around a block of the benchmark's own code (its self time
        is the part of the block no wrapped layer accounts for)."""
        frame = self._enter(layer, request=False)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, owner, attr: str, layer: str,
             count: Optional[Callable] = None) -> None:
        """Patch ``owner.attr`` to record a ``layer`` span per call.

        ``count(counts, result)`` folds the call's result into the work
        counts after the span closes.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        enter, leave, counts = self._enter, self._exit, self.counts

        def wrapper(*args, **kwargs):
            frame = enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(frame)
            if count is not None:
                count(counts, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def total_s(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, layer, start, end in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": request,
                    "layer": layer, "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                }) + "\n")
