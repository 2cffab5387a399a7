"""Self-tests for the benchmark's arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from calibration import REFERENCE_S, factor  # noqa: E402
from service_mix import backlog_at, event_times  # noqa: E402
from stats import (  # noqa: E402
    Outcomes,
    Rung,
    backlog_grows,
    max_ok_rps,
    self_time_by_name,
    self_times,
    tail,
)


# -- tail: highest percentile with at least 10 samples beyond it ----------


def test_tail_needs_more_than_ten_samples():
    assert tail(range(10)) is None
    eleven = tail(range(11))
    assert eleven.value == 0 and eleven.samples == 11
    assert eleven.percentile == pytest.approx(100 / 11)


def test_tail_of_a_hundred_is_p90():
    found = tail(range(1, 101))
    assert found.value == 90
    assert found.percentile == pytest.approx(90.0)
    assert sum(1 for v in range(1, 101) if v > found.value) == 10


def test_tail_ignores_input_order_and_counts_failures_beyond_it():
    values = [5.0, math.inf, 1.0, 3.0] * 5  # 20 samples, 5 of them failed
    found = tail(values)
    assert found.value == 3.0 and found.percentile == pytest.approx(50.0)
    eleven_failed = [1.0] * 9 + [math.inf] * 11
    assert tail(eleven_failed).value == math.inf


# -- span self time with nested children ----------------------------------


def test_self_time_subtracts_nested_children_once():
    spans = [
        (0, None, "run", 0.0, 10.0),
        (1, 0, "executor", 1.0, 9.0),
        (2, 1, "emu.trace", 2.0, 4.0),
        (3, 2, "frontend.compile", 2.5, 3.0),
        (4, 1, "core.timing", 5.0, 8.0),
    ]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 1.5, 3: 0.5, 4: 3.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        (0, None, "run", 0.0, 10.0),
        (1, 0, "store.load", 1.0, 5.0),
        (2, 0, "store.load", 4.0, 6.0),  # overlaps its sibling
        (3, 0, "store.save", 9.0, 12.0),  # runs past its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    by_name = self_time_by_name(spans)
    assert by_name["store.load"] == pytest.approx(6.0)
    assert by_name["run"] == pytest.approx(4.0)


# -- fail_frac accounting -------------------------------------------------


def test_fail_frac_counts_refused_unfinished_failed_and_checks():
    outcomes = Outcomes(attempted=20, refused=3, unfinished=4, failed=1, check_failed=2)
    assert outcomes.bad == 10
    assert outcomes.fail_frac == pytest.approx(0.5)
    assert Outcomes(attempted=7).fail_frac == 0.0


def test_fail_frac_needs_an_attempt():
    with pytest.raises(ValueError):
        Outcomes().fail_frac


# -- max_ok_rps -----------------------------------------------------------


def _rung(rate, latencies, start=0, end=0):
    return Rung(rate, tuple(latencies), start, end)


def test_max_ok_rps_is_the_highest_rung_within_the_limit():
    rungs = [
        _rung(1.0, [100.0] * 20),
        _rung(4.0, [200.0] * 20),
        _rung(16.0, [2000.0] * 20),
    ]
    assert max_ok_rps(rungs, 1000.0) == 4.0
    assert max_ok_rps(rungs, 100.0) == 1.0
    assert max_ok_rps(rungs, 10.0) == 0.0


def test_max_ok_rps_stops_where_the_backlog_keeps_growing():
    # Jobs of the second rung each finish later than the last: the queue
    # grows by one job per arrival while the tail still looks fine.
    admitted = [(t * 0.25, t * 0.25 + 0.5 + 0.2 * t) for t in range(40)]
    start, end = admitted[0][0], admitted[-1][0]
    growing = _rung(4.0, [500.0] * 40, backlog_at(start, admitted), backlog_at(end, admitted))
    assert growing.backlog_end - growing.backlog_start > 4
    assert backlog_grows(growing)
    rungs = [_rung(1.0, [300.0] * 20, 0, 1), growing, _rung(16.0, [300.0] * 20)]
    assert max_ok_rps(rungs, 1000.0) == 1.0


def test_a_rung_above_a_failed_one_does_not_count():
    rungs = [_rung(1.0, [5000.0] * 20), _rung(4.0, [10.0] * 20)]
    assert max_ok_rps(rungs, 1000.0) == 0.0


def test_refused_and_unfinished_arrivals_miss_the_limit():
    rung = _rung(1.0, [10.0] * 9 + [math.inf] * 11)
    assert max_ok_rps([rung], 1000.0) == 0.0


def test_event_times_take_first_submit_last_run_and_terminal():
    record = {"events": [
        {"ts": 1.0, "state": "submitted"},
        {"ts": 2.0, "state": "running"},
        {"ts": 3.0, "state": "retrying"},
        {"ts": 4.0, "state": "running"},
        {"ts": 5.0, "state": "done"},
        {"ts": 5.1, "state": "done", "progress": {}},
    ]}
    assert event_times(record) == {"submitted": 1.0, "running": 4.0, "terminal": 5.0}


# -- calibration: which statistic of the probes stands for the host ------


def test_mean_factor_weighs_a_slow_stretch_by_its_length():
    probes = [0.010] * 7 + [0.020] * 3  # the host ran at half speed 30% of the time
    assert factor(probes, statistics.mean) == pytest.approx(REFERENCE_S / 0.013)
    assert factor(probes) == pytest.approx(1.0)
