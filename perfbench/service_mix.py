"""service_mix: seeded open-loop traffic against ``python -m repro serve``.

Preparation (outside every metric): simulate the pre-filled store
cells in this process, and write a journal whose snapshot already holds
more completed jobs than the journal's rotation threshold.  Then the
server is started with its default settings ``SETUP_STARTS`` times
(spawn until ``/v1/ready`` answers is one ``setup_s`` sample, journal
recovery included); the last start serves the ladder.

One generator (this process, ``CONNECTIONS`` keep-alive connections)
sends every seeded arrival of every ladder rung, late if the server
holds it up, each timed from its due time.  Then the run waits until
every admitted job has ended, for at most ``DRAIN_LIMIT_S`` after the
last arrival was due; jobs not done by then count as unfinished.  Job
records (journaled ``submitted``/``running``/``done`` timestamps) and
``/v1/stats`` come back over the same connections; results are checked
against the pre-filled entries and, for fresh cells, against an
in-process ``repro.api.Simulation`` run after the timed window.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibration import factor, probe
from stats import Outcomes, Rung, digest, max_ok_rps, median, tail

#: Ladder of (arrival rate in jobs/s, arrivals), lowest rate first; every
#: rung has more than 10 arrivals, so it has a tail.  The top rate stays
#: well below what one generator process sustains (150-300 jobs/s).  The
#: lowest is one the server meets even while its journal rewrites every
#: job on every append (about 3 jobs/s on a 2-vCPU Xeon host), and the
#: next is over twice that, so ``max_ok_rps`` does not flip with noise.
#: The upper rungs' 56 arrivals then queue for 16-20 s; every one is
#: waited for, so their count is what keeps a run inside its time limit.
LADDER = ((0.5, 16), (8.0, 16), (24.0, 16), (64.0, 24))
#: A rung is ok when its tail (``stats.tail``) is within this limit.
LATENCY_LIMIT_MS = 1000.0
#: Completed jobs already in the journal: above its 1024-record rotation
#: threshold, as on any server that has run for a while.
HISTORY_JOBS = 1100
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
FRESH_SHARE = 0.1
#: How long after the last arrival was due the run waits for the jobs
#: still queued.  Every job of a healthy run ends well inside it, even
#: while the journal rewrites every job on every append (the backlog
#: drains in 16-20 s on a 2-vCPU Xeon host): a job still queued at the
#: limit is a failed operation, never a reading of the load.
DRAIN_LIMIT_S = 75.0
FETCH_BUDGET_S = 20.0
SETUP_STARTS = 5
SAMPLE_EVERY_S = 0.5
CONNECTIONS = 2
READY_TIMEOUT_S = 60.0

#: Cheap suite workloads; every cell below simulates in ~0.1 s.
CHEAP_WORKLOADS = ("Bert_AtScore", "Bert_AtOp")
HIT_TECHNIQUES = ("baseline", "cars", "cars_low", "cars_high")
#: Fresh cells replay the same (non-inlined) traces as the hits, so the
#: server's memory does not depend on which ones a seed draws.
FRESH_TECHNIQUES = ("swl_1", "swl_2", "swl_4", "swl_8", "regdem", "rfcache", "regcomp")
#: Simulated once per cheap workload after the server is ready and before
#: the window opens, as on a server that has run for a while: workloads
#: built, traces cached, code paths warm.  Neither a hit nor fresh cell.
WARMUP_TECHNIQUE = "cars_nxlow2"
SCHEDULERS = ("gto", "lrr")


def make_cells():
    """(hit cells, fresh candidates) as ExperimentRequests."""
    from repro.api import volta
    from repro.harness.executor import ExperimentRequest

    def grid(techniques):
        return [
            ExperimentRequest(workload, technique, volta().with_scheduler(sched))
            for workload in CHEAP_WORKLOADS
            for technique in techniques
            for sched in SCHEDULERS
        ]

    fresh = grid(FRESH_TECHNIQUES) + [
        ExperimentRequest(
            workload, "cars",
            volta().with_scheduler(sched).with_cars_policy(min_samples=samples),
        )
        for workload in CHEAP_WORKLOADS
        for sched in SCHEDULERS
        for samples in (2, 3)
    ]
    return grid(HIT_TECHNIQUES), fresh


@dataclass
class Arrival:
    index: int
    rung: int
    due: float  # seconds after the window opens
    tenant: str
    kind: str  # "hit" | "fresh"
    request: Any
    sent: Optional[float] = None  # wall clock
    acked: Optional[float] = None
    status: int = 0
    job_id: str = ""
    record: Optional[Dict[str, Any]] = None


def alternate(rng: random.Random, cells) -> List[List[Any]]:
    """*cells* split by cheap workload, each part in a seeded order."""
    parts = [[c for c in cells if c.workload == w] for w in CHEAP_WORKLOADS]
    for part in parts:
        rng.shuffle(part)
    return parts


def make_arrivals(seed: int, hits, fresh) -> List[Arrival]:
    """Seeded Poisson arrivals per rung (uniform times given the count),
    tenants, and cell mix: Zipf-weighted hits and, at seeded positions,
    ``FRESH_SHARE`` of each rung (at least one) as distinct fresh cells.

    Hits and fresh cells each take the cheap workloads in turn, so every
    seed serves the same number of jobs of each (their cells differ by a
    third in warp instructions); the seed orders the cells within one.
    """
    rng = random.Random(f"service_mix:{seed}")
    hit_parts = alternate(rng, hits)
    weights = [1.0 / (k + 1) for k in range(len(hit_parts[0]))]
    fresh_parts = alternate(rng, fresh)
    served = {"hit": 0, "fresh": 0}
    arrivals: List[Arrival] = []
    offset = 0.0
    for rung, (rate, count) in enumerate(LADDER):
        duration = count / rate
        times = sorted(rng.uniform(0.0, duration) for _ in range(count))
        fresh_at = set(rng.sample(range(count), max(1, round(FRESH_SHARE * count))))
        for n, t in enumerate(times):
            kind = "fresh" if n in fresh_at else "hit"
            turn = served[kind] % len(CHEAP_WORKLOADS)
            served[kind] += 1
            if kind == "fresh":
                request = fresh_parts[turn].pop()
            else:
                request = rng.choices(hit_parts[turn], weights)[0]
            arrivals.append(Arrival(
                len(arrivals), rung, offset + t, rng.choice(TENANTS), kind, request,
            ))
        offset += duration
    return arrivals


def prefill(store_dir: Path, hits) -> Dict[str, str]:
    """Simulate every hit cell into the store: store key -> stats digest."""
    from repro.api import Executor
    from repro.harness.executor import ResultStore

    executor = Executor(jobs=1, store=ResultStore(str(store_dir)))
    results = executor.run_many(hits)
    return {
        executor.key_for(request): digest(result.stats.to_dict())
        for request, result in results.items()
    }


def write_history(journal_dir: Path, hits, keys: List[str], seed: int) -> None:
    """A compacted journal of HISTORY_JOBS completed jobs on hit cells."""
    from repro.service.jobs import JobRecord, JobState
    from repro.service.journal import JobJournal

    rng = random.Random(f"history:{seed}")
    journal = JobJournal(journal_dir)
    now = time.time() - 3600.0
    for n in range(HISTORY_JOBS):
        pick = rng.randrange(len(hits))
        record = JobRecord(
            job_id=f"{rng.getrandbits(64):016x}", tenant=rng.choice(TENANTS),
            request=hits[pick], submitted_at=now + n,
        )
        record = record.advance(JobState.RUNNING, attempts=1)
        journal.jobs[record.job_id] = record.advance(JobState.DONE, store_key=keys[pick])
    journal.rotate()
    journal.close()


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``python -m repro serve`` in its own process, default settings."""

    def __init__(self, root: Path, work: Path, log: Path) -> None:
        self.port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_CACHE_DIR"] = str(work / "store")
        env["TMPDIR"] = str(work / "tmp")
        self.spawned = time.monotonic()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port)],
            cwd=str(work), env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self) -> float:
        """Seconds from spawn until ``GET /v1/ready`` answers 200."""
        deadline = self.spawned + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("GET", "/v1/ready")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return time.monotonic() - self.spawned
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server not ready in time")

    def cpu_s(self) -> float:
        fields_ = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields_[11]) + int(fields_[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Client:
    """One keep-alive connection; reconnects after a dropped one."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, body=None) -> Tuple[int, Dict[str, Any]]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            return response.status, json.loads(response.read().decode())
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = None
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


def fan_out(port: int, items: List[Any], handle: Callable[[Client, Any], bool]) -> None:
    """Hand *items* in order to CONNECTIONS threads, each with its own
    keep-alive connection; ``handle`` returning False stops them all."""
    lock = threading.Lock()
    cursor = iter(items)
    stop = threading.Event()

    def worker() -> None:
        client = Client(port)
        try:
            while not stop.is_set():
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                if not handle(client, item):
                    stop.set()
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def drive(port: int, arrivals: List[Arrival], window_start: float) -> None:
    """Send every arrival at its due time (wall clock), or as soon after
    it as a connection is free."""

    def send(client: Client, arrival: Arrival) -> bool:
        delay = window_start + arrival.due - time.time()
        if delay > 0:
            time.sleep(delay)
        arrival.sent = time.time()
        try:
            arrival.status, payload = client.call("POST", "/v1/jobs", {
                "tenant": arrival.tenant, "request": arrival.request.to_dict(),
            })
            arrival.job_id = payload.get("job_id", "")
        except (OSError, http.client.HTTPException, ValueError):
            arrival.status = 0
        arrival.acked = time.time()
        return True

    fan_out(port, arrivals, send)


def sample_host(server: "Server", probes: List[Tuple[float, float]], start: float,
                lo_end: float, cpu: List[float], stop: threading.Event) -> None:
    """Time the host probe every SAMPLE_EVERY_S from *start* until *stop*
    is set, as (wall clock, probe seconds), and read the server's CPU
    time at *start* and at *lo_end* (the end of the lowest rung)."""
    cpu.append(server.cpu_s())
    at = start
    while not stop.wait(max(0.0, at - time.time())):
        if len(cpu) == 1 and time.time() >= lo_end:
            cpu.append(server.cpu_s())
        probes.append((time.time(), probe()))
        at += SAMPLE_EVERY_S


def warm_up(port: int) -> None:
    """One WARMUP_TECHNIQUE job per cheap workload, waited for."""
    from repro.api import volta
    from repro.harness.executor import ExperimentRequest

    client = Client(port)
    try:
        job_ids = []
        for workload in CHEAP_WORKLOADS:
            request = ExperimentRequest(workload, WARMUP_TECHNIQUE, volta())
            status, payload = client.call(
                "POST", "/v1/jobs", {"tenant": TENANTS[0], "request": request.to_dict()}
            )
            if status != 202:
                raise RuntimeError(f"warm-up job refused: {payload}")
            job_ids.append(payload["job_id"])
        deadline = time.monotonic() + READY_TIMEOUT_S
        for job_id in job_ids:
            while True:
                _, record = client.call("GET", f"/v1/jobs/{job_id}")
                if record["state"] == "done":
                    break
                if record["state"] in ("failed", "cancelled") or time.monotonic() > deadline:
                    raise RuntimeError(f"warm-up job {job_id} ended {record['state']}")
                time.sleep(0.05)
    finally:
        client.close()


def fetch_records(port: int, admitted: List[Arrival], settled: int, horizon: float) -> None:
    """GET job records in admission order until all *settled* jobs that
    ended by *horizon* are found; the rest cannot count as finished."""
    deadline = time.monotonic() + FETCH_BUDGET_S
    found = [0]
    lock = threading.Lock()

    def get(client: Client, arrival: Arrival) -> bool:
        with lock:
            if found[0] >= settled or time.monotonic() > deadline:
                return False
        try:
            status, payload = client.call("GET", f"/v1/jobs/{arrival.job_id}")
        except (OSError, http.client.HTTPException, ValueError):
            return True
        if status == 200:
            arrival.record = payload
            ended = event_times(payload).get("terminal")
            if ended is not None and ended <= horizon:
                with lock:
                    found[0] += 1
        return True

    fan_out(port, admitted, get)


def fetch_results(port: int, job_ids: List[str]) -> Dict[str, Dict[str, Any]]:
    """Served ``RunResult`` dicts by job id."""
    deadline = time.monotonic() + FETCH_BUDGET_S
    served: Dict[str, Dict[str, Any]] = {}

    def get(client: Client, job_id: str) -> bool:
        if time.monotonic() > deadline:
            return False
        try:
            status, payload = client.call("GET", f"/v1/jobs/{job_id}/result")
        except (OSError, http.client.HTTPException, ValueError):
            return True
        if status == 200:
            served[job_id] = payload["result"]
        return True

    fan_out(port, job_ids, get)
    return served


def event_times(record: Dict[str, Any]) -> Dict[str, float]:
    """First submitted, last running and the terminal event's timestamps."""
    times: Dict[str, float] = {}
    for event in record.get("events", ()):
        state = event.get("state")
        if "progress" in event:
            continue
        if state == "submitted":
            times.setdefault("submitted", event["ts"])
        elif state == "running":
            times["running"] = event["ts"]
        elif state in ("done", "failed", "cancelled"):
            times["terminal"] = event["ts"]
    return times


def backlog_at(t: float, admitted: List[Tuple[float, float]]) -> int:
    """Admitted jobs not yet ended at *t*, from (start, end) intervals."""
    return sum(1 for start, end in admitted if start <= t < end)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """What the timed window observed."""

    start: float
    end: float  # when the wait ended: all admitted jobs settled, or the deadline
    deadline: float  # last arrival due + DRAIN_LIMIT_S: later is unfinished
    setups: List[float]  # reference seconds
    lo_scale: float  # host to reference seconds while the lowest rung ran
    hi_scale: float  # host to reference seconds from the lowest rung's end on
    lo_cpu_s: float  # server CPU while the lowest rung ran, reference seconds
    peak_rss_mb: float
    executor: Dict[str, int]
    served: Dict[str, Dict[str, Any]]


def serve_ladder(root: Path, work: Path, arrivals: List[Arrival]) -> Window:
    """Start the server SETUP_STARTS times, drive the ladder on the last,
    wait for it, then collect job records and results."""
    setups: List[float] = []
    server = None
    try:
        for start in range(SETUP_STARTS):
            if server is not None:
                server.stop()
            before_probe = probe()
            server = Server(root, work, work / "server.log")
            ready_s = server.wait_ready()
            setups.append(ready_s * factor([before_probe, probe()]))
        warm_up(server.port)
        poller = Client(server.port)
        _, before = poller.call("GET", "/v1/stats")
        window_start = time.time() + 0.2
        lo_end = window_start + LADDER[0][1] / LADDER[0][0]
        probes: List[Tuple[float, float]] = []
        cpu: List[float] = []
        stop_sampling = threading.Event()
        sampler = threading.Thread(
            target=sample_host,
            args=(server, probes, window_start, lo_end, cpu, stop_sampling),
            daemon=True,
        )
        sampler.start()
        try:
            drive(server.port, arrivals, window_start)
            admitted = [a for a in arrivals if a.status == 202 and a.job_id]
            deadline = window_start + arrivals[-1].due + DRAIN_LIMIT_S
            while True:
                _, stats = poller.call("GET", "/v1/stats")
                settled = sum(
                    stats["counters"][k] - before["counters"][k]
                    for k in ("done", "failed", "cancelled")
                )
                window_end = time.time()
                if settled >= len(admitted) or window_end >= deadline:
                    break
                time.sleep(0.05)
        finally:
            stop_sampling.set()
            sampler.join()
        poller.close()
        if len(cpu) < 2:
            raise RuntimeError("the window ended before its lowest rung")
        peak_rss_mb = server.peak_rss_mb()
        fetch_records(server.port, admitted, settled, window_end)
        wanted: Dict[str, str] = {}  # one job per distinct result, every fresh job
        for arrival in admitted:
            if arrival.record is None or arrival.record["state"] != "done":
                continue
            key = arrival.record["store_key"]
            if arrival.kind == "fresh" or key not in wanted.values():
                wanted[arrival.job_id] = key
        served = fetch_results(server.port, list(wanted))
    finally:
        if server is not None:
            server.stop()
    # The server's work accrues at the host's mean speed over a stretch,
    # so each stretch is scaled by its mean probe time (the median tracks
    # how often probes overlap the server's journal rewrites instead).
    lo_scale = factor([p for t, p in probes if t < lo_end], statistics.mean)
    hi_scale = factor([p for t, p in probes if t >= lo_end], statistics.mean)
    return Window(
        window_start, window_end, deadline, setups, lo_scale, hi_scale,
        (cpu[1] - cpu[0]) * lo_scale, peak_rss_mb,
        {k: stats["executor"][k] - before["executor"][k]
         for k in ("store_hits", "memo_hits", "executed")},
        served,
    )


def check(arrivals: List[Arrival], window: Window, prefilled) -> Tuple[set, Dict[str, Dict]]:
    """Arrival indexes whose result fails a check, and stats by store key.

    Every served result must conserve CPI; a hit must equal its
    pre-filled entry byte for byte; a fresh cell must equal an
    in-process ``repro.api.Simulation`` of the same request.
    """
    from repro.api import Simulation
    from repro.metrics.counters import SimStats

    by_key: Dict[str, Dict[str, Any]] = {}
    for arrival in arrivals:
        served = window.served.get(arrival.job_id)
        if served is not None:
            by_key[arrival.record["store_key"]] = served["stats"]
    failed = set()
    for arrival in arrivals:
        if arrival.record is None or arrival.record["state"] != "done":
            continue
        stats_dict = by_key.get(arrival.record["store_key"])
        if stats_dict is None:
            failed.add(arrival.index)
            continue
        stats = SimStats.from_dict(stats_dict)
        if stats.cpi_total() != stats.cycles:
            failed.add(arrival.index)
        if arrival.kind == "hit":
            expected = prefilled.get(arrival.record["store_key"])
            if expected is None or digest(stats_dict) != expected:
                failed.add(arrival.index)
        else:
            request = arrival.request
            local = Simulation(
                workload=request.workload, technique=request.technique,
                config=request.config,
            ).run()
            if digest(local.to_dict()) != digest(stats_dict):
                failed.add(arrival.index)
    return failed, by_key


def run(root: Path, work: Path, seed: int, log) -> Dict[str, Any]:
    """Prepare, serve the ladder, check, and measure one service_mix run."""
    from repro.harness.executor import Executor, ResultStore

    (work / "tmp").mkdir(parents=True, exist_ok=True)
    hits, fresh = make_cells()
    arrivals = make_arrivals(seed, hits, fresh)
    prefilled = prefill(work / "store", hits)
    keyer = Executor(jobs=1, store=ResultStore(str(work / "store")))
    write_history(
        work / "service-state" / "journal", hits,
        [keyer.key_for(request) for request in hits], seed,
    )
    log(f"service_mix: {len(arrivals)} arrivals over {len(LADDER)} rungs, "
        f"{sum(a.kind == 'fresh' for a in arrivals)} fresh; "
        f"journal holds {HISTORY_JOBS} completed jobs")

    window = serve_ladder(root, work, arrivals)
    check_failed, by_key = check(arrivals, window, prefilled)

    outcomes = Outcomes(attempted=len(arrivals))
    times: Dict[int, Dict[str, float]] = {}
    finished: Dict[int, bool] = {}
    for arrival in arrivals:
        times[arrival.index] = event_times(arrival.record) if arrival.record else {}
        state = arrival.record["state"] if arrival.record else ""
        ended = times[arrival.index].get("terminal", math.inf)
        finished[arrival.index] = (
            state == "done" and ended <= window.deadline
            and arrival.index not in check_failed
        )
        if arrival.status in (429, 503):
            outcomes.refused += 1
        elif arrival.index in check_failed:
            outcomes.check_failed += 1
        elif state in ("failed", "cancelled") and ended <= window.deadline:
            outcomes.failed += 1
        elif not finished[arrival.index]:
            outcomes.unfinished += 1

    def latency_ms(arrival: Arrival, censor: bool) -> float:
        """Due time to journaled done; an arrival that did not finish is
        ``inf`` for the limit test, or censored at the deadline."""
        if finished[arrival.index]:
            end = times[arrival.index]["terminal"]
        elif censor:
            end = window.deadline
        else:
            return math.inf
        return max(0.0, end - (window.start + arrival.due)) * 1000.0

    # The open loop's backlog: arrivals due and not yet done, whether they
    # wait in the server or in the generator.
    offered = [
        (window.start + a.due,
         times[a.index]["terminal"] if finished[a.index] else math.inf)
        for a in arrivals
    ]
    rungs = []
    for index, (rate, _) in enumerate(LADDER):
        members = [a for a in arrivals if a.rung == index]
        rungs.append(Rung(
            rate,
            tuple(latency_ms(a, censor=False) for a in members),
            backlog_at(window.start + members[0].due, offered),
            backlog_at(window.start + members[-1].due, offered),
        ))
        measured = tail(rungs[-1].latencies_ms)
        log(f"  rung {index}: {rate:g} jobs/s, {len(members)} arrivals, tail "
            + (f"{measured.value:.1f} ms (p{measured.percentile:.0f})" if measured else "-")
            + f", backlog {rungs[-1].backlog_start} -> {rungs[-1].backlog_end}")
    log(f"host scale to reference seconds: {window.lo_scale:.3f} (lowest rung), "
        f"{window.hi_scale:.3f} (after it)")

    def p50(values):
        return median(values)

    def tail_of(values):
        found = tail(values)
        return found.value if found else math.nan

    # Latencies are the server's work: at the lowest rung each job's own,
    # at the highest the queue ahead of it draining.  Reference seconds.
    lo = [latency_ms(a, True) * window.lo_scale for a in arrivals if a.rung == 0]
    top = [a for a in arrivals if a.rung == len(LADDER) - 1]
    hi = [latency_ms(a, True) * window.hi_scale for a in top]
    hi_hits = [latency_ms(a, True) * window.hi_scale for a in top if a.kind == "hit"]
    # The ladder's schedule fixes the span until the last arrival is due;
    # the wait after it is the server's work: reference seconds.
    scheduled = arrivals[-1].due
    wall = scheduled + (window.end - window.start - scheduled) * window.hi_scale
    served_winst = sum(
        by_key[arrival.record["store_key"]]["warp_instructions"]
        for arrival in arrivals if finished[arrival.index]
    )
    end_to_end = {
        "setup_s": (median(window.setups), "s", len(window.setups)),
        "wall_s": (wall, "s", 1),
        "sim_winst_per_s": (served_winst / wall, "1/s", sum(finished.values())),
        "cpu_s": (window.lo_cpu_s, "s", 1),
        "peak_rss_mb": (window.peak_rss_mb, "MB", 1),
        "job_p50_ms.lo": (p50(lo), "ms", len(lo)),
        "job_tail_ms.lo": (tail_of(lo), "ms", len(lo)),
        "job_p50_ms.hi": (p50(hi), "ms", len(hi)),
        "job_tail_ms.hi": (tail_of(hi), "ms", len(hi)),
        "hit_tail_ms.hi": (tail_of(hi_hits), "ms", len(hi_hits)),
        "max_ok_rps": (max_ok_rps(rungs, LATENCY_LIMIT_MS), "1/s", len(rungs)),
    }

    sent = [a for a in arrivals if a.sent is not None]
    submit_ms = [(a.acked - a.sent) * 1000.0 for a in sent]
    queue_ms, run_hit, run_fresh = [], [], []
    for arrival in arrivals:
        t = times[arrival.index]
        if "running" in t and "submitted" in t:
            queue_ms.append((t["running"] - t["submitted"]) * 1000.0)
        if finished[arrival.index]:
            group = run_hit if arrival.kind == "hit" else run_fresh
            group.append((t["terminal"] - t["running"]) * 1000.0)
    late_ms = [(a.sent - window.start - a.due) * 1000.0 for a in sent]
    # The server's own backlog: admitted jobs, submitted until ended.
    admitted = [
        (times[a.index].get("submitted", a.acked), times[a.index].get("terminal", math.inf))
        for a in sent if a.status == 202
    ]
    executor = window.executor
    per_layer = {
        "service.submit_ms.p50": (p50(submit_ms), "ms", len(submit_ms)),
        "service.submit_ms.tail": (tail_of(submit_ms), "ms", len(submit_ms)),
        "service.queue_ms.p50": (p50(queue_ms), "ms", len(queue_ms)),
        "service.queue_ms.tail": (tail_of(queue_ms), "ms", len(queue_ms)),
        "service.run_ms.hit.p50": (p50(run_hit), "ms", len(run_hit)),
        "service.run_ms.fresh.p50": (p50(run_fresh), "ms", len(run_fresh)),
        "service.refused": (outcomes.refused, "count", len(arrivals)),
        "service.failed": (outcomes.failed, "count", len(arrivals)),
        "service.backlog_max": (
            max((backlog_at(start, admitted) for start, _ in admitted), default=0),
            "count", len(admitted)),
        "service.store_hits": (executor.get("store_hits", 0), "count", 1),
        "service.memo_hits": (executor.get("memo_hits", 0), "count", 1),
        "service.executed": (executor.get("executed", 0), "count", 1),
        "loadgen.late_ms.max": (max(late_ms, default=0.0), "ms", len(late_ms)),
        "loadgen.jobs": (len(arrivals), "count", len(arrivals)),
        "trace.overhead_frac": (0.0, "frac", 0),
        "trace.unattributed_frac": (0.0, "frac", 0),
    }
    combined = hashlib.sha256()
    for key in sorted(by_key):
        combined.update(f"{key}={digest(by_key[key])}\n".encode())
    return {
        "outcomes": outcomes,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "digests": {"service_mix": combined.hexdigest()},
        "trace": {
            "window": [window.start, window.end],
            "jobs": [
                {"job": a.job_id, "kind": a.kind, "rung": a.rung, "tenant": a.tenant,
                 "due": window.start + a.due, "sent": a.sent, "acked": a.acked,
                 "status": a.status, **times[a.index]}
                for a in arrivals
            ],
        },
    }
