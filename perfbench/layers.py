"""Spans around calls into each layer of ``repro``, from outside it.

The traced run hooks in only where the package already takes
injections: ``Executor(store=, workload_factory=, runner=)``, a
subclass for ``key_for``/``run_many``, and ``Tuner(executor=)``.  Each
span records its name, start, end, parent and the request's store key;
spans stay in memory until the run writes them out.

Layer names are the package's modules::

    run                 the timed portion (root)
    dse                 Tuner.search
    executor            Executor.run_many
    store.key           Executor.key_for (ExperimentRequest.store_key)
    store.load/.save    ResultStore.load / ResultStore.save
    workloads.build     the workload factory (make_workload)
    frontend.compile    Workload.module on a cache miss (compile, inline);
                        the baseline binary is compiled by the suite
                        builder, inside workloads.build
    analysis.lint       ensure_module_linted
    analysis.interproc  ensure_module_analyzed
    emu.trace           Workload.traces on a cache miss
    callgraph.build     build_call_graph
    core.timing         execute_request once every stage above is cached:
                        the timing core with mem, cars and spill under it
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import fields
from typing import Any, Dict, Iterator, List, Optional

from repro.analysis import ensure_module_linted
from repro.analysis.interproc import ensure_module_analyzed
from repro.api import Executor
from repro.callgraph import build_call_graph
from repro.core.techniques import resolve_technique
from repro.harness.executor import ResultStore, execute_request
from repro.workloads import Workload, make_workload


class SpanRecorder:
    """In-memory spans of one single-threaded run."""

    def __init__(self) -> None:
        #: ``[id, parent, name, start, end, key]`` per span.
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, key: str = "") -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None, key])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][4] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> Dict[str, Any]:
        """Spans and counts so far (spans recorded later are not in it)."""
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


class TracedStore(ResultStore):
    """``ResultStore`` with spans around load and save."""

    def __init__(self, root: str, recorder: SpanRecorder) -> None:
        super().__init__(root)
        self.recorder = recorder

    def load(self, key: str):
        with self.recorder.span("store.load", key):
            self.recorder.count("store.loads")
            return super().load(key)

    def save(self, key, request, result):
        with self.recorder.span("store.save", key):
            self.recorder.count("store.saves")
            path = super().save(key, request, result)
            self.recorder.count("store.bytes_written", path.stat().st_size)
            return path


class TracedWorkload(Workload):
    """A suite workload sharing the cached one's compile and trace caches,
    with spans on the calls that miss them."""

    recorder: Optional[SpanRecorder] = None

    def module(self, inlined: bool = False):
        if inlined in self._modules:
            return super().module(inlined)
        with self.recorder.span("frontend.compile", self.name):
            self.recorder.count("frontend.modules")
            return super().module(inlined)

    def traces(self, inlined: bool = False):
        if inlined in self._traces:
            return super().traces(inlined)
        with self.recorder.span("emu.trace", self.name):
            traces = super().traces(inlined)
            self.recorder.count(
                "emu.winst", sum(t.dynamic_instructions for t in traces)
            )
            return traces


class TracedFactory:
    """Workload factory: spans the first build of each suite workload."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._built: Dict[str, TracedWorkload] = {}

    def __call__(self, name: str) -> Workload:
        traced = self._built.get(name)
        if traced is None:
            with self.recorder.span("workloads.build", name):
                base = make_workload(name)
                traced = TracedWorkload(
                    **{f.name: getattr(base, f.name) for f in fields(base)}
                )
            # The suite builder compiles and validates the baseline binary
            # itself, so that compile sits inside workloads.build.
            self.recorder.count("frontend.modules", len(base._modules))
            traced.recorder = self.recorder
            self._built[name] = traced
        return traced


class TracedExecutor(Executor):
    """Serial ``Executor`` whose dispatch, keying and stages are spanned.

    The runner warms every config-independent stage under its own span
    (each is cached by the package), then calls the ordinary
    ``execute_request``: what remains inside it is the timing core.
    """

    def __init__(self, store_root: str, recorder: SpanRecorder, **kwargs) -> None:
        self.recorder = recorder
        super().__init__(
            jobs=1,
            store=TracedStore(store_root, recorder),
            workload_factory=TracedFactory(recorder),
            runner=self._traced_runner,
            **kwargs,
        )

    def key_for(self, request):
        with self.recorder.span("store.key", request.workload):
            return super().key_for(request)

    def run_many(self, requests):
        requests = list(requests)
        with self.recorder.span("executor"):
            self.recorder.count("executor.requests", len(set(requests)))
            return super().run_many(requests)

    def _traced_runner(self, request, workload):
        key = self.key_for(request)
        span = self.recorder.span
        technique = resolve_technique(request.technique)
        module = workload.module(technique.use_inlined)
        with span("analysis.lint", key):
            ensure_module_linted(module, workload.name)
        with span("analysis.interproc", key):
            ensure_module_analyzed(module, workload.name)
        workload.traces(technique.use_inlined)
        if technique.requires_analysis:
            with span("callgraph.build", key):
                build_call_graph(module)
        with span("core.timing", key):
            result = execute_request(request, workload)
        self.recorder.count("core.runs")
        self.recorder.count("core.sim_cycles", result.stats.cycles)
        self.recorder.count("core.sim_winst", result.stats.warp_instructions)
        self.recorder.count("core.idle_cycles", result.stats.idle_cycles)
        return result
