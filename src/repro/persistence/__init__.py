"""Durability layer — write-ahead event log, snapshots, crash recovery.

The paper's deployment is a long-lived monitoring service (a bank
re-scoring its guaranteed-loan network month over month); state must
outlive the process that computed it.  This package makes the serving
layer crash-recoverable:

* :mod:`repro.persistence.codec` — versioned, CRC-checksummed binary
  codec for every :data:`~repro.streaming.events.UpdateEvent` type and
  the WAL's record framing (torn tails are detected, never mis-decoded);
* :mod:`repro.persistence.wal` — :class:`WriteAheadLog`, segmented
  append-only batch log with configurable fsync policy, torn-tail
  repair, and snapshot-driven segment truncation;
* :mod:`repro.persistence.snapshots` — :class:`SnapshotStore`, atomic
  (temp + rename) rotation of per-tenant monitor state blobs;
* :mod:`repro.persistence.faults` — fault injection: write errors,
  partial writes, and a SIGKILL harness for crash-recovery tests.

Recovery = snapshot + replay: the WAL records exactly the coalesced
batch order the monitors consumed, and a monitor's answer is a
deterministic function of (base graph, seed, graph state), so replaying
the post-snapshot suffix reproduces the interrupted process's answers
and their work counters bit for bit.  Replay folds each tenant's suffix
into one refresh, so the monitors' history counters (``stats``) count
it as one.
"""

from repro.persistence.codec import (
    CODEC_VERSION,
    SUPPORTED_WAL_VERSIONS,
    CorruptRecordError,
    decode_event,
    decode_record_stream,
    encode_event,
    encode_record,
)
from repro.persistence.faults import (
    CrashHarness,
    FaultyFile,
    WriteFaultPlan,
    count_durable_batches,
)
from repro.persistence.snapshots import SnapshotStore, TenantSnapshot
from repro.persistence.wal import WalBatch, WalChunk, WriteAheadLog

__all__ = [
    "WalChunk",
    "count_durable_batches",
    "CODEC_VERSION",
    "SUPPORTED_WAL_VERSIONS",
    "CorruptRecordError",
    "encode_event",
    "decode_event",
    "encode_record",
    "decode_record_stream",
    "WriteAheadLog",
    "WalBatch",
    "SnapshotStore",
    "TenantSnapshot",
    "FaultyFile",
    "WriteFaultPlan",
    "CrashHarness",
]
