"""In-memory spans recorded around the public calls the benchmark makes.

A :class:`Tracer` keeps every span in a list while the run lasts and writes
them as JSON lines when the run ends.  A disabled tracer records nothing,
so the untraced run pays one attribute check per call site.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span recorder: name, start, end, parent span and a step/request id."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.origin = time.perf_counter()

    def current(self) -> int | None:
        """Id of the innermost open span on this thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, ident=None) -> int | None:
        """Store one finished span (times from ``time.perf_counter``).

        ``parent`` defaults to the innermost open span on this thread.
        """
        if not self.enabled:
            return None
        span_id = next(self._ids)
        parent = self.current() if parent is None else parent
        self.spans.append({"id": span_id, "name": name,
                           "start": start - self.origin,
                           "end": end - self.origin,
                           "parent": parent, "ident": ident})
        return span_id

    @contextmanager
    def span(self, name: str, ident=None, parent: int | None = None):
        """Time the enclosed block as a child of the current span."""
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        parent = self.current() if parent is None else parent
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": span_id, "name": name,
                               "start": start - self.origin,
                               "end": end - self.origin,
                               "parent": parent, "ident": ident})

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, ordered by start time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span) + "\n")
