"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer's public functions; nothing under ``src/`` is instrumented.
A span has a name, a start, an end, the id of the span that caused it
and an id shared by every span of one compile or one request.  Spans
stay in memory and are written once, at exit.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional


class _Open:
    """Context manager for one synchronous span."""

    __slots__ = ("rec", "index")

    def __init__(self, rec: "Recorder", index: int) -> None:
        self.rec = rec
        self.index = index

    def __enter__(self) -> int:
        return self.index

    def __exit__(self, *exc) -> None:
        self.rec.close(self.index)
        self.rec._stack().pop()


class Recorder:
    """In-memory span log; ``span()`` nests on a per-thread stack."""

    enabled = True

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: [name, start, end, parent, shared] per span; index is the id
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self,
        name: str,
        shared: object = None,
        parent: Optional[int] = None,
        start: Optional[float] = None,
    ) -> int:
        """Start a span without nesting it (for asynchronous work: a
        request is opened when due and closed by its done callback)."""
        if start is None:
            start = time.perf_counter()
        with self._lock:
            self.spans.append([name, start, None, parent, shared])
            return len(self.spans) - 1

    def close(self, index: int, end: Optional[float] = None) -> None:
        self.spans[index][2] = time.perf_counter() if end is None else end

    def span(
        self, name: str, shared: object = None, parent: Optional[int] = None
    ) -> _Open:
        """A nested span: child of the innermost open ``span()`` of
        this thread (or of ``parent``), inheriting its shared id."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if shared is None and parent is not None:
            shared = self.spans[parent][4]
        index = self.open(name, shared, parent)
        stack.append(index)
        return _Open(self, index)

    def mark(self) -> int:
        """Position in the log.  Two marks bound what one step of one
        phase recorded: phases are interleaved, so a phase's spans are
        a list of such ranges, not one stretch of the log."""
        return len(self.spans)

    def totals(self, start: int, stop: int) -> Dict[str, float]:
        """Summed duration (seconds) per span name in one range."""
        out: Dict[str, float] = {}
        for name, begin, end, _, _ in self.spans[start:stop]:
            if end is not None:
                out[name] = out.get(name, 0.0) + (end - begin)
        return out

    def self_times(self, ranges) -> Dict[str, List[float]]:
        """``{name: [total seconds, self seconds, count]}`` over the
        ``(start, stop)`` ranges of one phase."""
        indexes = [i for start, stop in ranges for i in range(start, stop)]
        children: Dict[int, List[tuple]] = {}
        for index in indexes:
            _, begin, end, parent, _ = self.spans[index]
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((begin, end))
        out: Dict[str, List[float]] = {}
        for index in indexes:
            name, begin, end, _, _ = self.spans[index]
            if end is None:
                continue
            covered = 0.0
            cursor = begin
            for c_begin, c_end in sorted(children.get(index, ())):
                c_begin = max(c_begin, cursor)
                c_end = min(c_end, end)
                if c_end > c_begin:
                    covered += c_end - c_begin
                    cursor = c_end
            row = out.setdefault(name, [0.0, 0.0, 0])
            row[0] += end - begin
            row[1] += (end - begin) - covered
            row[2] += 1
        return out

    def dump(self, path: str, header: dict) -> None:
        """Write ``trace.json``: times are seconds since the recorder
        was created."""
        spans = [
            {
                "id": index,
                "name": name,
                "start": start - self.origin,
                "end": None if end is None else end - self.origin,
                "parent": parent,
                "shared": shared,
            }
            for index, (name, start, end, parent, shared) in enumerate(
                self.spans
            )
        ]
        with open(path, "w") as handle:
            json.dump(dict(header, spans=spans), handle)


class _Null:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


class NullRecorder:
    """Tracing off: every call is a no-op, so the end-to-end numbers
    are measured without the recorder."""

    enabled = False
    _null = _Null()

    def open(self, *args, **kwargs) -> None:
        return None

    def close(self, *args, **kwargs) -> None:
        return None

    def span(self, *args, **kwargs) -> _Null:
        return self._null

    def mark(self) -> int:
        return 0


def format_self_times(table: Dict[str, List[float]]) -> str:
    """The per-layer self-time table printed per phase."""
    width = max([len(name) for name in table] + [4])
    lines = [
        f"  {'span':<{width}}  {'count':>7}  {'total ms':>10}  {'self ms':>10}"
    ]
    for name, (total, own, count) in sorted(
        table.items(), key=lambda item: -item[1][1]
    ):
        lines.append(
            f"  {name:<{width}}  {count:>7d}  {total * 1e3:>10.2f}"
            f"  {own * 1e3:>10.2f}"
        )
    return "\n".join(lines)
