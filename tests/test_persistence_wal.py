"""WriteAheadLog tests: append/replay, rotation, repair, injected faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import BackpressureError
from repro.persistence.codec import PersistenceError, WAL_MAGIC
from repro.persistence.faults import (
    FaultyFile,
    WriteFaultPlan,
    count_durable_batches,
)
from repro.persistence.wal import WriteAheadLog
from repro.serving.queue import IngestionQueue
from repro.streaming.events import BulkSelfRiskUpdate, SelfRiskUpdate


def _events(*labels):
    return [SelfRiskUpdate(label, 0.5) for label in labels]


class TestAppendAndReplay:
    def test_round_trip_across_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            assert wal.append_register("t1", 3, {"seed": 1}) == 1
            assert wal.append_events("t1", _events("a", "b")) == 2
            assert wal.append_events("t2", [
                BulkSelfRiskUpdate(np.array([0.1, 0.9]))
            ]) == 3
        with WriteAheadLog(tmp_path) as wal:
            batches = wal.read_batches()
            assert [b.seq for b in batches] == [1, 2, 3]
            assert [b.kind for b in batches] == ["register", "events", "events"]
            assert batches[1].events == tuple(_events("a", "b"))
            assert np.array_equal(batches[2].events[0].values, [0.1, 0.9])
            assert wal.next_seq == 4

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(PersistenceError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        with pytest.raises(PersistenceError, match="closed"):
            wal.append_events("t", _events("x"))


class TestRotationAndTruncation:
    def test_appends_rotate_at_segment_cap(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=1024) as wal:
            for i in range(100):
                wal.append_events("t", _events(f"node-{i:03d}"))
            assert len(wal.segment_paths) > 1
            assert wal.read_batches()[-1].seq == 100

    def test_truncate_deletes_only_sealed_covered_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=1024) as wal:
            for i in range(100):
                wal.append_events("t", _events(f"node-{i:03d}"))
            segments_before = len(wal.segment_paths)
            # Nothing covered: seq 0 deletes nothing.
            assert wal.truncate_upto(0) == 0
            removed = wal.truncate_upto(50)
            assert 0 < removed < segments_before
            survivors = wal.read_batches()
            # Every batch past the watermark must survive truncation.
            assert {b.seq for b in survivors} >= set(range(51, 101))
            # The active segment survives even a full-coverage watermark.
            wal.truncate_upto(10**9)
            assert wal.active_segment.exists()

    def test_truncate_deletes_sealed_segments_without_records(
        self, tmp_path
    ):
        with WriteAheadLog(tmp_path) as wal:
            wal.append_events("t", _events("a"))  # seq 1 in segment 1
            wal.rotate()
            wal.rotate()  # segment 2 sealed without a record
            wal.append_events("t", _events("b"))  # seq 2 in segment 3
            wal.rotate()
            assert wal.truncate_upto(1) == 2
            assert [path.name for path in wal.segment_paths] == [
                "wal-00000003.log", "wal-00000004.log"
            ]
            wal.rotate()  # segment 4 sealed without a record
            assert wal.truncate_upto(2) == 2
            assert wal.segment_paths == [wal.active_segment]
            assert wal.read_batches() == []

    def test_rotate_then_truncate_empties_history(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append_events("t", _events("a"))
            wal.rotate()
            assert wal.truncate_upto(1) == 1
            assert wal.read_batches() == []


class TestOpenTimeRepair:
    def test_torn_tail_is_truncated_and_log_appendable(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append_events("t", _events("good-1"))
            wal.append_events("t", _events("good-2"))
            path = wal.active_segment
        with open(path, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00torn")  # half a record
        with WriteAheadLog(tmp_path) as wal:
            labels = [b.events[0].label for b in wal.read_batches()]
            assert labels == ["good-1", "good-2"]
            wal.append_events("t", _events("after-repair"))
        with WriteAheadLog(tmp_path) as wal:
            labels = [b.events[0].label for b in wal.read_batches()]
            assert labels == ["good-1", "good-2", "after-repair"]

    def test_corruption_discards_everything_after(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=1024) as wal:
            for i in range(60):
                wal.append_events("t", _events(f"node-{i:03d}"))
            first = wal.segment_paths[0]
            later = [str(p) for p in wal.segment_paths[1:]]
            assert later
        data = bytearray(first.read_bytes())
        data[len(WAL_MAGIC) + 30] ^= 0xFF  # corrupt the first segment
        first.write_bytes(bytes(data))
        with WriteAheadLog(tmp_path) as wal:
            batches = wal.read_batches()
            # A prefix (possibly empty) of segment one survives; every
            # later segment is discarded, not trusted past the tear.
            assert [b.seq for b in batches] == list(
                range(1, len(batches) + 1)
            )
        for orphan in later:
            import os
            assert not os.path.exists(orphan)

    def test_future_format_version_refused(self, tmp_path):
        path = tmp_path / "wal-00000001.log"
        path.write_bytes(b"REPROWAL" + bytes([99]))
        with pytest.raises(PersistenceError, match="version"):
            WriteAheadLog(tmp_path)

    def test_file_torn_during_creation_recovers_empty(self, tmp_path):
        (tmp_path / "wal-00000001.log").write_bytes(b"REPR")
        with WriteAheadLog(tmp_path) as wal:
            assert wal.read_batches() == []
            wal.append_events("t", _events("fresh"))
            assert len(wal.read_batches()) == 1


class TestInjectedWriteFaults:
    def _faulty_once(self, plan):
        """io_wrapper injecting *plan* on the first handle only."""
        state = {"wrapped": False}

        def wrapper(raw):
            if state["wrapped"]:
                return raw
            state["wrapped"] = True
            return FaultyFile(raw, plan)

        return wrapper

    @pytest.mark.parametrize("partial", [True, False])
    def test_failed_append_leaves_no_torn_tail(self, tmp_path, partial):
        magic_budget = len(WAL_MAGIC)
        plan = WriteFaultPlan(
            fail_after_bytes=magic_budget + 40, partial=partial
        )
        wal = WriteAheadLog(
            tmp_path, io_wrapper=self._faulty_once(plan), fsync="always"
        )
        wal.append_events("t", _events("durable"))
        with pytest.raises(OSError, match="injected"):
            # Too big for the remaining byte budget: fails (partially).
            wal.append_events("t", _events("lost-" + "x" * 64))
        assert plan.tripped
        # The tear was cut out immediately: the live handle keeps
        # working and readers see every durable batch.
        wal.append_events("t", _events("after-fault"))
        labels = [b.events[0].label for b in wal.read_batches()]
        assert labels == ["durable", "after-fault"]
        wal.close()
        with WriteAheadLog(tmp_path) as wal:
            labels = [b.events[0].label for b in wal.read_batches()]
            assert labels == ["durable", "after-fault"]

    def test_count_durable_batches_is_pure(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append_register("t", 1, {})
            wal.append_events("t", _events("a"))
            wal.append_events("t", _events("b"))
            path = wal.active_segment
        with open(path, "ab") as handle:
            handle.write(b"\x99\x00\x00\x00torn-bytes")
        before = path.read_bytes()
        assert count_durable_batches(tmp_path) == 2  # registers don't count
        assert path.read_bytes() == before  # probe never repairs


class TestQueueWalIntegration:
    def test_drain_appends_coalesced_batches(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            queue = IngestionQueue(wal=wal)
            queue.submit("t", SelfRiskUpdate("a", 0.1))
            queue.submit("t", SelfRiskUpdate("a", 0.9))  # coalesced away
            queue.submit("t", SelfRiskUpdate("b", 0.4))
            batches = queue.drain()
            assert [e.label for e in batches["t"]] == ["a", "b"]
            durable = wal.read_batches()
            assert len(durable) == 1
            assert [e.label for e in durable[0].events] == ["a", "b"]
            assert durable[0].events[0].value == 0.9  # last write won

    def test_wal_failure_restores_events_and_reraises(self, tmp_path):
        plan = WriteFaultPlan(fail_after_bytes=len(WAL_MAGIC), partial=True)
        wal = WriteAheadLog(
            tmp_path,
            io_wrapper=lambda raw: FaultyFile(raw, plan),
            fsync="never",
        )
        queue = IngestionQueue(wal=wal)
        queue.submit("t1", SelfRiskUpdate("a", 0.1))
        queue.submit("t2", SelfRiskUpdate("b", 0.2))
        with pytest.raises(OSError, match="injected"):
            queue.drain()
        # Accepted traffic survived the disk fault, in order, uncounted.
        assert queue.pending("t1") == 1 and queue.pending("t2") == 1
        assert queue.stats.batches == 0 and queue.stats.flushed == 0
        assert count_durable_batches(tmp_path) == 0
        wal.close()


class TestBackpressure:
    def test_error_policy_raises_at_cap(self):
        queue = IngestionQueue(max_pending=2, overflow="error")
        queue.submit("t", SelfRiskUpdate("a", 0.1))
        queue.submit("t", SelfRiskUpdate("b", 0.2))
        with pytest.raises(BackpressureError, match="max_pending"):
            queue.submit("t", SelfRiskUpdate("c", 0.3))
        assert queue.pending("t") == 2
        queue.drain()
        assert queue.submit("t", SelfRiskUpdate("c", 0.3))  # cap freed

    def test_shed_policy_drops_and_counts(self):
        queue = IngestionQueue(max_pending=2, overflow="shed")
        assert queue.submit("t", SelfRiskUpdate("a", 0.1))
        assert queue.submit("t", SelfRiskUpdate("b", 0.2))
        assert not queue.submit("t", SelfRiskUpdate("c", 0.3))
        assert queue.stats.shed == 1
        assert queue.stats.submitted == 2
        assert [e.label for e in queue.drain()["t"]] == ["a", "b"]

    def test_wake_policy_stays_unbounded(self):
        queue = IngestionQueue(max_pending=2, overflow="wake")
        for i in range(10):
            assert queue.submit("t", SelfRiskUpdate(f"n{i}", 0.1))
        assert queue.pending("t") == 10

    def test_bad_policy_rejected(self):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError, match="overflow"):
            IngestionQueue(overflow="explode")
