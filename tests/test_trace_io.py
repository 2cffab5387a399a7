"""Trace-archive round-trip tests (the Accel-Sim trace-file workflow)."""

import gzip
import json

import pytest

from repro.config import volta
from repro.core.gpu import GPU
from repro.core.techniques import BASELINE
from repro.emu import TraceFormatError, load_trace, save_trace
from repro.frontend import builder as b
from repro.metrics.counters import SimStats
from repro.workloads import KernelLaunch, Workload


def _trace():
    prog = b.program()
    b.device(prog, "leaf", ["x"], [b.ret(b.v("x") * 2 + 1)], reg_pressure=4)
    b.kernel(prog, "main", ["out"], [
        b.let("i", b.gid()),
        b.if_(b.v("i") < 8, [b.let("i", b.v("i") + 64)]),
        b.store(b.v("out") + b.v("i"), b.call("leaf", b.v("i"))),
    ])
    wl = Workload(name="w", suite="t", program=prog,
                  launches=[KernelLaunch("main", 2, 64, (1 << 20,))])
    return wl.traces()[0]


class TestRoundTrip:
    def test_metadata_preserved(self, tmp_path):
        trace = _trace()
        path = str(tmp_path / "t.trace.gz")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.kernel == trace.kernel
        assert loaded.threads_per_block == trace.threads_per_block
        assert loaded.regs_per_warp_baseline == trace.regs_per_warp_baseline
        assert loaded.code_bytes == trace.code_bytes
        assert loaded.dynamic_instructions == trace.dynamic_instructions

    def test_records_identical(self, tmp_path):
        trace = _trace()
        path = str(tmp_path / "t.trace.gz")
        save_trace(trace, path)
        loaded = load_trace(path)
        for blk_a, blk_b in zip(trace.blocks, loaded.blocks):
            assert blk_a.block_id == blk_b.block_id
            for wa, wb in zip(blk_a.warps, blk_b.warps):
                assert wa.warp_id == wb.warp_id
                for ra, rb in zip(wa.records, wb.records):
                    for field in ("kind", "dst", "srcs", "sectors",
                                  "local_offset", "reg_count", "callee",
                                  "fru", "push_count", "frame_release",
                                  "active"):
                        assert getattr(ra, field) == getattr(rb, field)

    def test_replayed_trace_times_identically(self, tmp_path):
        trace = _trace()
        path = str(tmp_path / "t.trace.gz")
        save_trace(trace, path)
        loaded = load_trace(path)
        cycles = []
        for t in (trace, loaded):
            stats = SimStats()
            ctx = BASELINE.make_context(t, volta(), stats)
            cycles.append(GPU(volta(), ctx, stats).run(t))
        assert cycles[0] == cycles[1]


class TestFormatErrors:
    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.gz")
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"magic": "nope", "version": 1}) + "\n")
        with pytest.raises(TraceFormatError, match="not a repro trace"):
            load_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = str(tmp_path / "bad.gz")
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"magic": "repro-trace", "version": 99,
                                     "blocks": []}) + "\n")
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(path)

    def test_truncated_archive_rejected(self, tmp_path):
        trace = _trace()
        path = str(tmp_path / "t.gz")
        save_trace(trace, path)
        with gzip.open(path, "rt") as handle:
            lines = handle.readlines()
        with gzip.open(path, "wt") as handle:
            handle.writelines(lines[:-1])  # drop the last warp
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = str(tmp_path / "junk.gz")
        with gzip.open(path, "wt") as handle:
            handle.write("not json\n")
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(path)

    def test_garbled_warp_line_rejected(self, tmp_path):
        path = str(tmp_path / "t.gz")
        save_trace(_trace(), path)
        with gzip.open(path, "rt") as handle:
            lines = handle.readlines()
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"  # cut a warp's JSON
        with gzip.open(path, "wt") as handle:
            handle.writelines(lines)
        with pytest.raises(TraceFormatError, match="bad JSON") as excinfo:
            load_trace(path)
        assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)

    def test_header_without_blocks_rejected(self, tmp_path):
        path = str(tmp_path / "t.gz")
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"magic": "repro-trace", "version": 1}) + "\n")
        with pytest.raises(TraceFormatError, match="blocks") as excinfo:
            load_trace(path)
        assert isinstance(excinfo.value.__cause__, KeyError)

    def test_gzip_cut_mid_member_rejected(self, tmp_path):
        path = tmp_path / "t.gz"
        save_trace(_trace(), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TraceFormatError, match="gzip") as excinfo:
            load_trace(str(path))
        assert isinstance(excinfo.value.__cause__, EOFError)

    def test_not_gzip_rejected(self, tmp_path):
        path = tmp_path / "plain.trace"
        path.write_text(json.dumps({"magic": "repro-trace", "version": 1}) + "\n")
        with pytest.raises(TraceFormatError, match="gzip") as excinfo:
            load_trace(str(path))
        assert isinstance(excinfo.value.__cause__, gzip.BadGzipFile)
