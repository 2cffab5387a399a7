"""Host-speed calibration for the benchmark's time metrics.

Host time on a shared machine drifts: on a shared 2-vCPU Xeon host the
same simulator work took from 0.09 s to 0.18 s within a minute, and
whole benchmark runs from 23 s to 42 s within five.
:func:`probe` is a fixed piece of pure-Python work (dict, int and str
operations, none of it from ``repro``) timed right next to the work it
calibrates; the run reports every work-driven time scaled by
``REFERENCE_S / probe time`` ("reference seconds": what the time would
be on a host that runs the probe in ``REFERENCE_S``).  Interleaved with
the work like this, the ratio of simulator time to probe time stayed
within a few percent while either alone moved by tens of percent.  A
change to ``repro`` moves the work, never the probe, so a code change
shows in full.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Sequence

#: The probe's time on the reference host (a quiet 2-vCPU Xeon).
REFERENCE_S = 0.010


def probe() -> float:
    """Run the fixed probe once; its wall time in seconds."""
    start = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(60000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(i)) if i % 7 == 0 else i % 13
    sorted(table.values())
    return time.perf_counter() - start


def factor(
    probes: Sequence[float],
    statistic: Callable[[Sequence[float]], float] = statistics.median,
) -> float:
    """Scale from host seconds to reference seconds, from *statistic*
    (by default the median) of the probe times."""
    return REFERENCE_S / statistic(probes)
