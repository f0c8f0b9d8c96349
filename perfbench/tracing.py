"""In-memory spans recorded around calls into packrun's public API.

A rank keeps one :class:`Tracer`. Spans are opened by the benchmark's own
code, either explicitly (``with tracer.span(...)``) or by :meth:`Tracer.wrap`,
which replaces a method on one object (a transport context, a message
buffer, a master pool) with a timed call-through. Nothing inside packrun is
touched. Each span holds a name, start and end on ``time.perf_counter_ns``
(CLOCK_MONOTONIC on Linux, so ranks in different processes share it), the
index of its parent span, a request id (message seq or job index) and one
integer attribute (bytes sent, or messages queued ahead of a receive).

When tracing is off the rank uses :class:`Off` instead, whose ``wrap`` does
nothing and whose ``span`` is an empty context manager, so the measured loop
pays for no wrapper.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

NAME, START, END, PARENT, REQ, ATTR, FAILED = range(7)


class _Span:
    __slots__ = ("_tracer", "_name", "_attr", "_index")

    def __init__(self, tracer: "Tracer", name: str, attr: int):
        self._tracer, self._name, self._attr = tracer, name, attr

    def __enter__(self):
        self._index = self._tracer.begin(self._name, self._attr)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer.end(self._index, exc_type is not None)
        return False


class Tracer:
    """Spans of one rank, written out when the rank's session ends."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.req = -1    # request id stamped on spans opened from now on
        self.depth = 0   # messages queued ahead of the next receive, from the schedule

    def begin(self, name: str, attr: int = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.req, attr, False])
        self._stack.append(index)
        return index

    def end(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span[END] = perf_counter_ns()
        span[FAILED] = failed
        self._stack.pop()

    def span(self, name: str, attr: int = 0) -> _Span:
        return _Span(self, name, attr)

    def wrap(self, obj, method: str, name: str, attr=None) -> None:
        """Time every call of ``obj.method`` as a span called ``name``.

        ``attr(args)`` computes the span's attribute from the call's
        positional arguments; without it the tracer's current depth is used.
        """
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            index = self.begin(name, attr(args) if attr else self.depth)
            failed = True
            try:
                result = inner(*args, **kwargs)
                failed = False
                return result
            finally:
                self.end(index, failed)

        setattr(obj, method, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


class Off:
    """The tracer used when tracing is off: every call is a no-op."""

    enabled = False

    def __init__(self):
        self.req = -1
        self.depth = 0

    def span(self, name: str, attr: int = 0):
        return self

    def wrap(self, obj, method: str, name: str, attr=None) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover (ns).

    Spans of one rank nest strictly (a rank runs its calls one at a time),
    so the children of a span never overlap and their durations add up.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own
