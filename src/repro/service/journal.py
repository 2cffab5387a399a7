"""Crash-safe job journal: an append-only WAL of state transitions.

Layout (``docs/architecture.md`` §15): a directory of numbered segments
``journal-<n>.wal``, each a sequence of JSON lines.  Every line is one
job state transition::

    {"seq": 17, "job": {<JobRecord.to_dict()>}}

``seq`` increases monotonically across segments, so replay order never
depends on timestamps.  Appends are ``write + flush + fsync`` — when
:meth:`append` returns, the transition survives ``kill -9``.  One
append may carry several transitions (a hit's ``running`` and
``done``) in one write; a crash inside it leaves at most its last line
torn.

Rotation is compaction: the journal writes a *snapshot* segment
holding just the latest record of every job (terminal jobs included —
clients may still poll them), via the same temp-file + ``os.replace``
dance the result store uses, then deletes the older segments.  A crash
between the rename and the deletes only leaves extra segments behind;
replay is idempotent because the highest ``seq`` per job wins.  The
active segment rotates once it holds ``max(rotate_after, 2 * jobs)``
records, so it must outgrow both ``rotate_after`` and the snapshot it
started from: a snapshot of ``J`` jobs follows at least ``J`` appends,
and compaction costs amortized O(1) records per append however many
jobs the journal keeps.  A recovered journal counts its last segment's
lines and follows the same rule.

Recovery (:meth:`recover`) replays every segment in order and tolerates
a torn final line — the one partial write a ``kill -9`` mid-append can
leave.  A torn line *before* the last one means real corruption and is
counted in the report rather than silently skipped.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .jobs import JobRecord

__all__ = ["JobJournal"]

_SEGMENT_GLOB = "journal-*.wal"


def _segment_index(path: Path) -> int:
    try:
        return int(path.stem.split("-", 1)[1])
    except (IndexError, ValueError):
        return -1


class JobJournal:
    """Append-only, fsynced, segment-rotated journal of job records."""

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        rotate_after: int = 1024,
    ) -> None:
        if rotate_after < 1:
            raise ValueError("rotate_after must be at least 1")
        self.directory = Path(directory)
        self.rotate_after = rotate_after
        self._seq = 0
        self._active_records = 0
        self._fh = None  # type: Optional[object]
        self._active_path: Optional[Path] = None
        #: latest record per job, maintained on append/recover — rotation
        #: compacts from this table without re-reading segments.
        self.jobs: Dict[str, JobRecord] = {}

    # -- segments -------------------------------------------------------

    def segments(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(
            self.directory.glob(_SEGMENT_GLOB), key=_segment_index
        )

    def _open_active(self) -> None:
        if self._fh is not None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        existing = self.segments()
        if existing:
            self._active_path = existing[-1]
            # A torn final write may have left the segment without its
            # newline; appending onto that line would corrupt *two*
            # records, so terminate it first.
            with open(self._active_path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                ends_clean = size == 0 or (
                    fh.seek(size - 1) or fh.read(1) == b"\n"
                )
        else:
            self._active_path = self.directory / "journal-000001.wal"
            ends_clean = True
        self._fh = open(self._active_path, "a", encoding="utf-8")
        if not ends_clean:
            self._fh.write("\n")
            self._fh.flush()

    # -- writes ---------------------------------------------------------

    def append(self, *records: JobRecord) -> int:
        """Durably journal *records*, in order, with one write and one
        fsync; returns the last one's sequence number."""
        self._open_active()
        lines = []
        for record in records:
            self._seq += 1
            lines.append(json.dumps(
                {"seq": self._seq, "job": record.to_dict()},
                sort_keys=True, separators=(",", ":"),
            ) + "\n")
        fh = self._fh
        assert fh is not None
        fh.write("".join(lines))
        fh.flush()
        os.fsync(fh.fileno())
        for record in records:
            self.jobs[record.job_id] = record
        self._active_records += len(records)
        if self._active_records >= max(self.rotate_after, 2 * len(self.jobs)):
            self.rotate()
        return self._seq

    def rotate(self) -> Path:
        """Compact to a fresh snapshot segment; prune the older ones."""
        self.close()
        old = self.segments()
        next_index = (_segment_index(old[-1]) + 1) if old else 1
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"journal-{next_index:06d}.wal"
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for job_id in sorted(self.jobs):
                self._seq += 1
                fh.write(json.dumps(
                    {"seq": self._seq, "job": self.jobs[job_id].to_dict()},
                    sort_keys=True, separators=(",", ":"),
                ) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        for stale in old:
            try:
                stale.unlink()
            except OSError:
                pass
        self._active_path = path
        self._active_records = len(self.jobs)
        self._fh = open(path, "a", encoding="utf-8")
        return path

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- recovery -------------------------------------------------------

    def recover(self) -> Tuple[Dict[str, JobRecord], Dict[str, int]]:
        """Replay every segment; returns ``(jobs, report)``.

        ``jobs`` maps job id to its latest journaled record (highest
        ``seq`` wins).  ``report`` counts ``segments``, ``records``,
        ``torn_tail`` (0/1 — the benign kill-mid-append case) and
        ``corrupt`` (bad lines anywhere else).  The journal is left
        positioned to append after the highest recovered ``seq``.
        """
        best: Dict[str, Tuple[int, JobRecord]] = {}
        report = {"segments": 0, "records": 0, "torn_tail": 0, "corrupt": 0}
        max_seq = 0
        segments = self.segments()
        active_records = 0
        for seg_pos, segment in enumerate(segments):
            report["segments"] += 1
            last_segment = seg_pos == len(segments) - 1
            with open(segment, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
            if last_segment:
                active_records = len(lines)
            for line_pos, line in enumerate(lines):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    seq = int(entry["seq"])
                    record = JobRecord.from_dict(entry["job"])
                except Exception:
                    tail = (
                        last_segment and line_pos == len(lines) - 1
                    )
                    report["torn_tail" if tail else "corrupt"] += 1
                    if tail:
                        # Repair: drop the torn fragment so the next
                        # append starts on a clean line instead of
                        # concatenating onto (and corrupting) it.
                        keep = sum(
                            len(l.encode("utf-8")) for l in lines[:-1]
                        )
                        with open(segment, "rb+") as fh:
                            fh.truncate(keep)
                        active_records -= 1
                    continue
                report["records"] += 1
                max_seq = max(max_seq, seq)
                prev = best.get(record.job_id)
                if prev is None or seq >= prev[0]:
                    best[record.job_id] = (seq, record)
        self.jobs = {job_id: rec for job_id, (_, rec) in best.items()}
        self._seq = max_seq
        self._active_records = active_records
        return dict(self.jobs), report
