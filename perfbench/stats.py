"""Latency summaries, the tail-percentile rule and failure accounting.

Pure Python + NumPy, no ``repro`` import: the benchmark's own tests cover
this arithmetic without building a pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def tail_percentile(count: int) -> float:
    """The highest percentile with >= ``TAIL_SAMPLES_BEYOND`` samples above it.

    For ``count`` samples and NumPy's linear interpolation, the value at
    percentile ``100 * (1 - 10 / count)`` sits strictly below the ten
    largest samples.  Callers fix ``count`` per workload (the round size),
    so the percentile is a constant of the workload, not of the run.
    """
    if count < 2 * TAIL_SAMPLES_BEYOND:
        raise ValueError(
            f"a tail needs at least {2 * TAIL_SAMPLES_BEYOND} samples, got {count}"
        )
    return 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / count)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def failed_ratio(failed: int, attempted: int) -> float:
    """Add-one (rule of succession) estimate of the per-op failure rate.

    ``(failed + 1) / (attempted + 2)`` is never 0, so run-to-run spreads
    stay defined when nothing fails, and still rises with every failure.
    The raw counts travel beside it in the result's ``attempted`` and
    ``failed`` fields.
    """
    if attempted < 0 or not 0 <= failed <= attempted:
        raise ValueError(f"bad counts: failed={failed} attempted={attempted}")
    return (failed + 1) / (attempted + 2)


@dataclass
class OpLog:
    """Outcomes of one round of operations, per kind.

    ``record`` takes a latency for an op that returned, ``fail`` an op
    that raised or was refused; a failed op has no latency and counts in
    :func:`failed_ratio`.
    """

    latencies: Dict[str, List[float]] = field(default_factory=dict)
    failures: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def attempted(self, kind: Optional[str] = None) -> int:
        kinds = [kind] if kind is not None else set(self.latencies) | set(self.failures)
        return sum(
            len(self.latencies.get(k, ())) + self.failures.get(k, 0) for k in kinds
        )

    def failed(self, kind: Optional[str] = None) -> int:
        if kind is not None:
            return self.failures.get(kind, 0)
        return sum(self.failures.values())

    def summary(self, kind: str, round_size: Optional[int] = None) -> Dict[str, float]:
        """p50 of ``kind`` in milliseconds, plus the tail at the fixed
        ``round_size`` when one is given."""
        values = self.latencies.get(kind, [])
        if not values:
            raise ValueError(f"no successful {kind!r} ops to summarize")
        result = {"p50_ms": 1e3 * percentile(values, 50.0), "samples": len(values)}
        if round_size is not None:
            q = tail_percentile(round_size)
            result["tail_ms"] = 1e3 * percentile(values, q)
            result["tail_percentile"] = q
        return result


def self_time(span_start: float, span_end: float, children: Sequence[tuple]) -> float:
    """``span_end - span_start`` minus the part covered by child intervals.

    Children are ``(start, end)`` pairs; overlapping children (concurrent
    work, or one trunk call shared by two requests) count once, and the
    parts outside the parent's interval do not count at all.
    """
    clipped = sorted(
        (max(start, span_start), min(end, span_end))
        for start, end in children
        if end > span_start and start < span_end
    )
    covered = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return (span_end - span_start) - covered
