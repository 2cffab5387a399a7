"""The crash-safe job journal (``repro.service.journal``).

The WAL contract (docs/architecture.md §15): appends are durable when
they return, rotation compacts via temp-file + rename, and recovery
replays highest-seq-wins while tolerating exactly the torn final line a
``kill -9`` mid-append can leave.
"""

import json

import pytest

from repro.harness.executor import ExperimentRequest
from repro.service.jobs import JobRecord, JobState
from repro.service.journal import JobJournal


def _record(job_id, state=JobState.SUBMITTED, attempts=0):
    record = JobRecord(
        job_id=job_id,
        tenant="t",
        request=ExperimentRequest("FIB", "baseline"),
        submitted_at=1.0,
        attempts=attempts,
    )
    if state is not JobState.SUBMITTED:
        object.__setattr__(record, "state", state)
    return record


class TestAppendRecover:
    def test_round_trips_records(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.append(_record("a"))
        journal.append(_record("b"))
        journal.close()

        jobs, report = JobJournal(tmp_path / "j").recover()
        assert set(jobs) == {"a", "b"}
        assert report == {
            "segments": 1, "records": 2, "torn_tail": 0, "corrupt": 0,
        }
        restored = jobs["a"]
        assert restored.tenant == "t"
        assert restored.request.workload == "FIB"
        assert restored.state is JobState.SUBMITTED

    def test_highest_seq_wins(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.append(_record("a"))
        journal.append(_record("a", JobState.RUNNING, attempts=1))
        journal.append(_record("a", JobState.DONE, attempts=1))
        journal.close()

        jobs, _ = JobJournal(tmp_path / "j").recover()
        assert jobs["a"].state is JobState.DONE

    def test_sequence_continues_after_recovery(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        first = journal.append(_record("a"))
        journal.close()

        reopened = JobJournal(tmp_path / "j")
        reopened.recover()
        assert reopened.append(_record("b")) == first + 1

    def test_empty_directory_recovers_empty(self, tmp_path):
        jobs, report = JobJournal(tmp_path / "missing").recover()
        assert jobs == {}
        assert report["segments"] == 0

    def test_records_carrying_a_backend_key_recover(self, tmp_path):
        # Segments written while the simulator had two timing backends
        # carry a request-level "backend" key; recovery ignores it.
        journal = JobJournal(tmp_path / "j")
        journal.append(_record("a"))
        journal.append(_record("b"))
        journal.close()
        segment = journal.segments()[-1]
        lines = []
        for line, backend in zip(segment.read_text().splitlines(),
                                 ("event", "vectorized")):
            entry = json.loads(line)
            entry["job"]["request"]["backend"] = backend
            lines.append(json.dumps(entry))
        segment.write_text("\n".join(lines) + "\n")

        jobs, report = JobJournal(tmp_path / "j").recover()
        assert set(jobs) == {"a", "b"}
        assert report["corrupt"] == 0 and report["torn_tail"] == 0
        assert all(
            job.request == ExperimentRequest("FIB", "baseline")
            for job in jobs.values()
        )


class TestTornAndCorrupt:
    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.append(_record("a"))
        journal.append(_record("b"))
        journal.close()
        segment = journal.segments()[-1]
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 99, "job": {"truncated')  # kill -9 mid-append

        jobs, report = JobJournal(tmp_path / "j").recover()
        assert set(jobs) == {"a", "b"}
        assert report["torn_tail"] == 1
        assert report["corrupt"] == 0

    def test_mid_segment_corruption_is_counted_not_fatal(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.append(_record("a"))
        journal.append(_record("b"))
        journal.close()
        segment = journal.segments()[-1]
        lines = segment.read_text().splitlines()
        lines[0] = "garbage not json"
        segment.write_text("\n".join(lines) + "\n")

        jobs, report = JobJournal(tmp_path / "j").recover()
        assert set(jobs) == {"b"}
        assert report["corrupt"] == 1
        assert report["torn_tail"] == 0

    def test_recovered_journal_keeps_accepting_appends(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.append(_record("a"))
        journal.close()
        segment = journal.segments()[-1]
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write("{torn")

        reopened = JobJournal(tmp_path / "j")
        reopened.recover()
        reopened.append(_record("b"))
        reopened.close()
        jobs, report = JobJournal(tmp_path / "j").recover()
        assert set(jobs) == {"a", "b"}


class TestRotation:
    def test_rotation_compacts_to_latest_records(self, tmp_path):
        journal = JobJournal(tmp_path / "j", rotate_after=4)
        for _ in range(3):
            journal.append(_record("a"))
        journal.append(_record("a", JobState.DONE, attempts=1))  # triggers
        journal.close()

        segments = journal.segments()
        assert len(segments) == 1  # older segments pruned
        lines = segments[0].read_text().splitlines()
        assert len(lines) == 1  # one job -> one compacted line
        jobs, report = JobJournal(tmp_path / "j").recover()
        assert jobs["a"].state is JobState.DONE

    def test_rotation_uses_rename_not_in_place_write(self, tmp_path):
        journal = JobJournal(tmp_path / "j", rotate_after=1024)
        journal.append(_record("a"))
        path = journal.rotate()
        journal.close()
        assert path.name != "journal-000001.wal"  # fresh segment, not reuse
        assert not list((tmp_path / "j").glob("*.tmp"))

    def test_terminal_jobs_survive_compaction(self, tmp_path):
        # Clients may still poll a done job; rotation must not drop it.
        journal = JobJournal(tmp_path / "j")
        journal.append(_record("done-job", JobState.DONE, attempts=1))
        journal.append(_record("live-job"))
        journal.rotate()
        journal.close()
        jobs, _ = JobJournal(tmp_path / "j").recover()
        assert set(jobs) == {"done-job", "live-job"}

    @staticmethod
    def _count_rotated_records(journal):
        """Make *journal* tally the records each rotation writes."""
        written = []
        rotate = journal.rotate

        def counting_rotate():
            path = rotate()
            written.append(len(path.read_text().splitlines()))
            return path

        journal.rotate = counting_rotate
        return written

    def test_compaction_is_amortized_constant_per_append(self, tmp_path):
        # Ten live jobs against rotate_after=4: a snapshot alone already
        # passes the threshold, so rotating whenever the segment holds
        # rotate_after records would rewrite all ten on every append.
        journal = JobJournal(tmp_path / "j", rotate_after=4)
        written = self._count_rotated_records(journal)
        appends = 150
        for n in range(appends):
            journal.append(_record(f"job-{n % 10}", attempts=n))
        journal.close()
        assert written, "the journal never compacted"
        assert sum(written) <= 2 * appends
        jobs, _ = JobJournal(tmp_path / "j").recover()
        assert {job_id: job.attempts for job_id, job in jobs.items()} == {
            f"job-{k}": 140 + k for k in range(10)
        }

    def test_recovered_snapshot_past_threshold_is_not_rewritten_per_append(
        self, tmp_path
    ):
        seeded = JobJournal(tmp_path / "j")
        for n in range(10):
            seeded.append(_record(f"job-{n}", JobState.DONE, attempts=1))
        seeded.rotate()
        seeded.close()

        journal = JobJournal(tmp_path / "j", rotate_after=4)
        journal.recover()
        written = self._count_rotated_records(journal)
        appends = 60
        for n in range(appends):
            journal.append(_record(f"new-{n % 5}"))
        journal.close()
        assert written, "the journal never compacted"
        assert sum(written) <= 2 * appends
        jobs, _ = JobJournal(tmp_path / "j").recover()
        assert len(jobs) == 15

    def test_rotate_after_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            JobJournal(tmp_path / "j", rotate_after=0)


class TestRecordModel:
    def test_transitions_are_validated(self):
        record = _record("a")
        running = record.advance(JobState.RUNNING, attempts=1)
        with pytest.raises(ValueError):
            running.advance(JobState.SUBMITTED)
        done = running.advance(JobState.DONE)
        assert done.terminal

    def test_recovered_requeues_any_live_state(self):
        running = _record("a").advance(JobState.RUNNING, attempts=1)
        assert running.recovered().state is JobState.SUBMITTED
        # attempts survive: the retry budget spans restarts.
        assert running.recovered().attempts == 1

    def test_to_dict_round_trips_through_json(self):
        record = _record("a").advance(JobState.RUNNING, attempts=2)
        clone = JobRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone == record
