"""Fault injection for the durability layer.

Three escalating ways to hurt a serving process, used by the
crash-recovery test suite and ``benchmarks/bench_durability.py``:

* :class:`WriteFaultPlan` / :class:`FaultyFile` — deterministic disk
  faults: after a configured number of bytes, a write either fails
  outright or lands **partially** (the realistic torn-write case: a
  record's first bytes reach the file, the rest never do).  Plugged
  into :class:`~repro.persistence.wal.WriteAheadLog` via its
  ``io_wrapper`` hook, so production code paths run unmodified.
* :class:`CrashHarness` — process death: runs a workload in a forked
  child and SIGKILLs it the moment an observed condition holds (e.g.
  "at least 7 batches are durable"), which lands the kill at an
  arbitrary point mid-flush.  SIGKILL is not catchable: whatever the
  child had not made durable is genuinely gone.
* :func:`stream_durably` — the standard crashable driver: a durable
  :class:`~repro.serving.service.RiskService` replaying a per-tenant
  workload one flush per batch, so the WAL's batch sequence is
  deterministic and a recovered run can be compared bit-for-bit
  against an uninterrupted one (see ``tests/test_persistence_faults.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import BinaryIO, Callable, Hashable

from repro.persistence.wal import scan_batches

__all__ = [
    "WriteFaultPlan",
    "FaultyFile",
    "CrashHarness",
    "stream_durably",
    "count_durable_batches",
]

TenantId = Hashable


@dataclass
class WriteFaultPlan:
    """When and how the wrapped file starts failing.

    Attributes
    ----------
    fail_after_bytes:
        Total bytes allowed through before the fault triggers.
    partial:
        With ``True``, the triggering write lands its allowed prefix
        before raising — a torn write.  With ``False`` it fails whole.
    message:
        The injected :class:`OSError`'s message.
    error_errno:
        Optional errno stamped onto the injected :class:`OSError`
        (e.g. ``errno.ENOSPC`` for a disk-full fault), so callers that
        branch on errno see a realistic error.
    sticky:
        With ``True`` (default), every write after the trigger fails
        until :meth:`clear` — a full disk stays full.  With ``False``
        only the triggering write fails.
    """

    fail_after_bytes: int
    partial: bool = True
    message: str = "injected write fault"
    error_errno: int | None = None
    sticky: bool = True

    def __post_init__(self) -> None:
        self.written = 0
        self.tripped = False

    def clear(self, *, allow_bytes: int | None = None) -> None:
        """Lift the fault — "space freed".  Subsequent writes succeed
        until another *allow_bytes* (default: unlimited) pass through."""
        self.tripped = False
        self.written = 0
        self.fail_after_bytes = (
            (1 << 62) if allow_bytes is None else int(allow_bytes)
        )

    def make_error(self) -> OSError:
        if self.error_errno is not None:
            return OSError(self.error_errno, self.message)
        return OSError(self.message)


class FaultyFile:
    """A binary file wrapper that fails writes according to a plan.

    Everything except :meth:`write` passes straight through, so the
    WAL's flush/fsync/tell bookkeeping behaves normally right up to the
    injected fault.
    """

    def __init__(self, raw: BinaryIO, plan: WriteFaultPlan) -> None:
        self._raw = raw
        self._plan = plan

    def write(self, data: bytes) -> int:
        plan = self._plan
        if plan.tripped:
            if plan.sticky:
                raise plan.make_error()
            plan.tripped = False
        allowed = plan.fail_after_bytes - plan.written
        if len(data) <= allowed:
            plan.written += len(data)
            return self._raw.write(data)
        plan.tripped = True
        if plan.partial and allowed > 0:
            self._raw.write(data[:allowed])
            self._raw.flush()
            plan.written += allowed
        raise plan.make_error()

    def __getattr__(self, name: str):
        return getattr(self._raw, name)


# ----------------------------------------------------------------------
# Read-only durable-progress probe (never repairs, never truncates)
# ----------------------------------------------------------------------
def count_durable_batches(wal_dir: str | os.PathLike) -> int:
    """Intact event batches currently on disk under *wal_dir*.

    Pure read (:func:`~repro.persistence.wal.scan_batches`): unlike
    opening a :class:`WriteAheadLog`, which repairs torn tails in place,
    it leaves the segment bytes as they are, so a parent process can
    watch a live child's durable progress and time a SIGKILL against it.
    """
    return sum(batch.kind == "events" for batch in scan_batches(wal_dir))


# ----------------------------------------------------------------------
# SIGKILL harness
# ----------------------------------------------------------------------
class CrashHarness:
    """Run a target in a forked child and SIGKILL it on a condition.

    Fork start method, so targets may close over live objects (graphs,
    workloads) without pickling — and so the child is a faithful clone
    of the test process right up to the kill.
    """

    def __init__(self, target: Callable[[], None]) -> None:
        context = multiprocessing.get_context("fork")
        self._process = context.Process(target=target, daemon=True)

    def start(self) -> "CrashHarness":
        """Fork and start the child."""
        self._process.start()
        return self

    @property
    def pid(self) -> int:
        """The child's pid (valid after :meth:`start`)."""
        assert self._process.pid is not None
        return self._process.pid

    def kill_when(
        self,
        condition: Callable[[], bool],
        *,
        poll: float = 0.002,
        timeout: float = 60.0,
    ) -> bool:
        """SIGKILL the child once *condition* holds; join; report the kill.

        Returns ``True`` if the kill landed while the child was alive,
        ``False`` if the child finished first (callers treating an
        early exit as "ran to completion" can retry with an earlier
        condition).  Raises :class:`TimeoutError` if the condition
        never holds and the child never exits.
        """
        deadline = time.monotonic() + timeout
        while True:
            if condition():
                break
            if not self._process.is_alive():
                self._process.join()
                return False
            if time.monotonic() > deadline:
                self.kill()
                raise TimeoutError(
                    "kill condition never held within "
                    f"{timeout}s (child still running)"
                )
            time.sleep(poll)
        killed = self._process.is_alive()
        if killed:
            os.kill(self.pid, signal.SIGKILL)
        self._process.join()
        return killed

    def kill(self) -> None:
        """Unconditional SIGKILL + join (cleanup path)."""
        if self._process.pid is not None and self._process.is_alive():
            os.kill(self._process.pid, signal.SIGKILL)
        self._process.join()


# ----------------------------------------------------------------------
# Crashable serving driver
# ----------------------------------------------------------------------
def stream_durably(
    graph,
    workload: dict[TenantId, list[list]],
    k: int,
    wal_dir: str | os.PathLike,
    *,
    monitor_defaults: dict | None = None,
    fsync: str = "always",
    snapshot_every: int | None = None,
    pause: float = 0.0,
    mode: str = "serial",
) -> dict:
    """Replay *workload* through a durable service, one flush per batch.

    ``workload`` maps tenant id to its ordered list of event batches.
    Batches are driven round-robin (round r: every tenant's r-th batch,
    tenant order fixed), each submitted and flushed individually, so
    the WAL's durable batch sequence is a deterministic function of the
    workload — the property the crash-recovery bit-identity tests rest
    on.  ``snapshot_every`` takes a snapshot after every N rounds;
    ``pause`` sleeps between batches so a parent's kill condition can
    land anywhere mid-stream.

    Returns the final per-tenant answers (for uninterrupted-reference
    runs; a SIGKILLed child never gets this far).
    """
    from repro.serving.service import RiskService

    service = RiskService(
        graph,
        mode=mode,
        monitor_defaults=monitor_defaults,
        wal_dir=wal_dir,
        fsync=fsync,
    )
    try:
        for tenant_id in workload:
            if not service.pool.has_tenant(tenant_id):
                service.register_tenant(tenant_id, k)
        rounds = max(len(batches) for batches in workload.values())
        for round_index in range(rounds):
            for tenant_id, batches in workload.items():
                if round_index >= len(batches):
                    continue
                for event in batches[round_index]:
                    service.submit_update(tenant_id, event)
                service.flush()
                if pause:
                    time.sleep(pause)
            if snapshot_every and (round_index + 1) % snapshot_every == 0:
                service.snapshot_to_disk()
        return {
            tenant_id: service.query_topk(tenant_id)
            for tenant_id in workload
        }
    finally:
        service.close()
