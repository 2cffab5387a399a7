"""Arithmetic the benchmark reports with: tails, self times, failure
shares, the service ladder's highest sustainable rate, and the digest
that compares simulated statistics.

Everything here is pure (no clocks, no I/O) so ``perfbench/tests``
can pin it down on hand-built inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail is the highest percentile with at least this many samples
#: beyond it (fewer and the figure is one unlucky sample).
TAIL_MIN_BEYOND = 10


def digest(stats_dict: Dict) -> str:
    """SHA-256 of a ``SimStats.to_dict()`` in canonical JSON."""
    blob = json.dumps(stats_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def median(values: Sequence[float]) -> float:
    """Median; ``nan`` for no samples (printed as missing, never as 0)."""
    return statistics.median(values) if values else math.nan


@dataclass(frozen=True)
class Tail:
    """The tail of a sample: its value, which percentile it is, and n."""

    value: float
    percentile: float
    samples: int


def tail(values: Iterable[float], min_beyond: int = TAIL_MIN_BEYOND) -> Optional[Tail]:
    """Highest percentile with at least *min_beyond* samples beyond it.

    With ``n`` sorted samples that is the one at index ``n - 1 -
    min_beyond``: exactly ``min_beyond`` samples lie above it, and it is
    the ``100 * (n - min_beyond) / n``-th percentile.  ``None`` when
    there are not more than *min_beyond* samples.  Infinite samples
    (failed or refused requests) sort last, so they count as beyond any
    finite tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        return None
    index = n - 1 - min_beyond
    return Tail(ordered[index], 100.0 * (index + 1) / n, n)


def self_times(spans: Sequence[Tuple[int, Optional[int], str, float, float]]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    *spans* are ``(id, parent_id, name, start, end)``.  Children are
    clipped to their parent's interval and merged before subtracting, so
    overlapping or nested children are never counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {sid: (start, end) for sid, _, _, start, end in spans}
    for sid, parent, _, start, end in spans:
        if parent is not None and parent in bounds:
            p_start, p_end = bounds[parent]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    result: Dict[int, float] = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(sid, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def self_time_by_name(spans: Sequence[Tuple[int, Optional[int], str, float, float]]) -> Dict[str, float]:
    """Sum of self times per span name."""
    totals: Dict[str, float] = {}
    own = self_times(spans)
    for sid, _, name, _, _ in spans:
        totals[name] = totals.get(name, 0.0) + own[sid]
    return totals


@dataclass
class Outcomes:
    """Operation accounting for ``fail_frac``.

    Every operation attempted ends in exactly one bucket: completed,
    failed (an error from the program), refused (admission said no),
    unfinished (not done when the benchmark stopped waiting, including
    arrivals the generator never got to send), or check-failed
    (completed, but its output failed an identity or conservation
    check).
    """

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    unfinished: int = 0
    check_failed: int = 0

    @property
    def bad(self) -> int:
        return self.failed + self.refused + self.unfinished + self.check_failed

    @property
    def fail_frac(self) -> float:
        if self.attempted <= 0:
            raise ValueError("fail_frac needs at least one attempted operation")
        return self.bad / self.attempted


@dataclass(frozen=True)
class Rung:
    """One ladder rate's outcome.

    ``latencies_ms`` holds one entry per arrival, ``inf`` for arrivals
    that failed, were refused or never finished (they miss any limit).
    ``backlog_start``/``backlog_end`` count arrivals that were due and
    not yet done when the rung's first arrival was due and when its last
    one was.
    """

    rate: float
    latencies_ms: Tuple[float, ...]
    backlog_start: int
    backlog_end: int


def backlog_grows(rung: Rung) -> bool:
    """The queue grew during the rung by more than noise allows.

    Poisson bursts move the backlog by a few jobs at any load, so growth
    counts only beyond ``max(3, 10%`` of the rung's arrivals).
    """
    allowance = max(3, 0.1 * len(rung.latencies_ms))
    return rung.backlog_end - rung.backlog_start > allowance


def rung_ok(rung: Rung, limit_ms: float) -> bool:
    """Tail within *limit_ms* and no growing backlog."""
    measured = tail(rung.latencies_ms)
    if measured is None:
        return False
    return measured.value <= limit_ms and not backlog_grows(rung)


def max_ok_rps(rungs: Sequence[Rung], limit_ms: float) -> float:
    """Highest rate such that it and every lower rung are ok; 0 if none.

    Capacity is monotone in the rate, so a rung above a failed one that
    looks ok is noise and does not count.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r.rate):
        if not rung_ok(rung, limit_ms):
            break
        best = rung.rate
    return best
