"""In-memory spans recorded around calls into the program's layers.

The benchmark times each layer from outside: it wraps a call into a
layer's public function in :meth:`SpanRecorder.span`, keeps every span
in memory while the run goes on, and writes them out once at the end.
A span's *self time* is its duration minus the part of it that its
child spans cover, so the self times of one tree add up to the
duration of its root.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the enclosing span on
    the same thread (``None`` for a root) and ``key`` groups the spans
    of one step or one job."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    key: Optional[str]
    error: bool = False      #: the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe collector of :class:`Span` records."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, key: Optional[str] = None) -> Iterator[None]:
        """Time the enclosed block as one span named ``name``."""
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        error = True
        try:
            yield
            error = False
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, key,
                                       error))

    def wrap(self, obj: object, methods: Iterable[str], prefix: str) -> None:
        """Replace ``obj``'s bound ``methods`` by traced versions that
        record spans named ``<prefix>.<method>``."""
        for name in methods:
            inner = getattr(obj, name)

            @functools.wraps(inner)
            def traced(*args, _inner=inner, _name=f"{prefix}.{name}",
                       **kwargs):
                with self.span(_name):
                    return _inner(*args, **kwargs)

            setattr(obj, name, traced)

    def by_name(self, prefix: str) -> List[Span]:
        """Spans whose name starts with ``prefix``."""
        with self._lock:
            return [s for s in self.spans if s.name.startswith(prefix)]

    def dump(self, path) -> None:
        """Write the spans out as JSON lines."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to it."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out
