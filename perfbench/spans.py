"""In-memory spans around calls into each layer, for the traced run only.

The benchmark installs timing wrappers on the program's public functions
(:meth:`SpanRecorder.wrap`), records one span per call — name, start, end,
parent span and request id — in a list, writes them out when the run ends,
and computes each layer's self time: a span's duration minus the part of
its interval its children cover.

Parents come from a per-thread stack.  Work a gateway hands to its own
worker threads (the micro-batch drain) runs outside any benchmark span; such
an orphan span is adopted as a child by every request span, on another
thread, whose interval contains it — the request was waiting on that work.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .stats import self_time


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[Dict[str, object]]:
        """Record one span; nested spans on this thread become its children."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record: Dict[str, object] = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request if request is not None else (parent["request"] if parent else None),
            "thread": threading.get_ident(),
            "attrs": {},
        }
        stack.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, measure: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper until :meth:`uninstall`.

        ``measure(result)`` may return a dict of attributes to keep on the
        span (payload bytes, for one).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if measure is not None:
                    record["attrs"].update(measure(result))
                return result

        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Self time in seconds of every recorded span, keyed by span id."""
        spans = list(self.spans)
        children: Dict[int, List[tuple]] = {s["id"]: [] for s in spans}
        requests = sorted(
            (s for s in spans if s["parent"] is None and s["request"] is not None),
            key=lambda s: s["start"],
        )
        starts = [r["start"] for r in requests]
        longest = max((r["end"] - r["start"] for r in requests), default=0.0)
        for s in spans:
            interval = (s["start"], s["end"])
            if s["parent"] is not None:
                children[s["parent"]].append(interval)
            elif s["request"] is None:
                # requests that started before s, no earlier than the
                # longest request could have, and ended after it
                i = bisect.bisect_right(starts, s["start"])
                while i > 0 and starts[i - 1] >= s["start"] - longest:
                    i -= 1
                    r = requests[i]
                    if r["thread"] != s["thread"] and s["end"] <= r["end"]:
                        children[r["id"]].append(interval)
        return {
            s["id"]: self_time(s["start"], s["end"], children[s["id"]]) for s in spans
        }

    def layer_ms(self) -> Dict[str, Tuple[float, float]]:
        """``{name: (mean self ms, mean total ms)}`` per call, for every span name."""
        times = self.self_times()
        sums: Dict[str, List[float]] = {}
        for s in self.spans:
            entry = sums.setdefault(s["name"], [0.0, 0.0, 0])
            entry[0] += times[s["id"]]
            entry[1] += s["end"] - s["start"]
            entry[2] += 1
        return {name: (1e3 * own / n, 1e3 * total / n) for name, (own, total, n) in sums.items()}

    def attr_mean(self, name: str, attr: str) -> float:
        values = [s["attrs"][attr] for s in self.spans if s["name"] == name and attr in s["attrs"]]
        return sum(values) / len(values) if values else 0.0

    def write_jsonl(self, path: str) -> None:
        times = self.self_times()
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(dict(s, self=times[s["id"]])) + "\n")
