"""Atomic, rotated snapshots of per-tenant monitor state.

A snapshot is one directory (``snap-00000001/``) holding a
``manifest.json`` and, per tenant, one ``tenant-NNNN.state.pkl``: the
pickled :class:`~repro.streaming.monitor.TopKMonitor` (the exact process
state — graph view, bound iterates, sampled worlds, counters — so
replaying the post-snapshot WAL suffix reproduces the interrupted run
bit for bit).  Snapshots from older builds also hold a
``tenant-NNNN.result.pkl`` answer file per tenant; it goes unread.

Atomicity is the classic temp + rename dance: every blob is written and
fsynced inside ``snap-N.tmp/``, the manifest goes in **last**, then one
``os.rename`` publishes the directory.  A crash mid-snapshot leaves a
``.tmp`` orphan that the next writer sweeps; :meth:`SnapshotStore.latest`
only ever sees complete snapshots, so rotation can never corrupt the
previous good state — the PR-4 leftover this module closes is precisely
"snapshot rotation without blocking or dropping live tenant streams",
and nothing here takes a lock any ingestion path shares.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterator

from repro.persistence.codec import (
    CODEC_VERSION,
    SUPPORTED_WAL_VERSIONS,
    PersistenceError,
)

__all__ = ["SnapshotStore", "Snapshot", "TenantSnapshot"]

TenantId = Hashable

_SNAP_PREFIX = "snap-"
_MANIFEST = "manifest.json"


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class TenantSnapshot:
    """One tenant's durable state inside a snapshot."""

    tenant_id: TenantId
    state_path: Path

    def load_state_blob(self) -> bytes:
        """The pickled monitor bytes (installed worker-side on restore)."""
        return self.state_path.read_bytes()


@dataclass(frozen=True)
class Snapshot:
    """One complete, published snapshot directory."""

    path: Path
    index: int
    #: Every tenant blob folds in each WAL batch through this seq and
    #: none after it: replay starts past it.
    wal_seq: int
    base_fingerprint: str | None
    tenants: dict[TenantId, TenantSnapshot]
    #: Fencing epoch of the writer (0 = fencing disabled, or a manifest
    #: from a build that did not record it).  The WAL's epoch stamp is
    #: covered, and may be truncated away, so this is what survives.
    epoch: int


class SnapshotStore:
    """Write-rotated snapshot directories under ``<root>/snapshots``.

    Parameters
    ----------
    root:
        The durability directory (shared with the WAL); snapshots live
        in a ``snapshots/`` subdirectory.
    keep:
        Completed snapshots retained after a successful write; older
        ones (and any crashed ``.tmp`` orphans) are swept.
    """

    def __init__(self, root: str | os.PathLike, *, keep: int = 2) -> None:
        if keep < 1:
            raise PersistenceError(f"keep must be >= 1, got {keep}")
        self.directory = Path(root) / "snapshots"
        self.directory.mkdir(parents=True, exist_ok=True)
        self._keep = int(keep)
        # Read-pins: snapshot indices a concurrent recovery reader is
        # still loading from.  Rotation's sweep skips pinned indices so
        # it can never delete a manifest out from under the reader.
        self._pin_lock = threading.Lock()
        self._pins: Counter[int] = Counter()

    # ------------------------------------------------------------------
    def _snapshot_dirs(self) -> list[Path]:
        dirs = [
            path
            for path in self.directory.glob(f"{_SNAP_PREFIX}*")
            if path.is_dir()
            and not path.name.endswith(".tmp")
            and path.name[len(_SNAP_PREFIX):].isdigit()
            and (path / _MANIFEST).exists()
        ]
        return sorted(dirs, key=lambda path: int(path.name[len(_SNAP_PREFIX):]))

    def latest(self) -> Snapshot | None:
        """The newest complete snapshot, or ``None``.

        Serialised against the sweep (see :meth:`_sweep`), so the
        manifest it loads cannot be deleted out from under it.
        """
        with self._pin_lock:
            return self._latest_locked()

    def _latest_locked(self) -> Snapshot | None:
        """List + load under ``_pin_lock`` (sweeps hold it too)."""
        while True:
            dirs = self._snapshot_dirs()
            if not dirs:
                return None
            try:
                return self._load(dirs[-1])
            except PersistenceError:
                if (dirs[-1] / _MANIFEST).exists():
                    raise  # genuinely unreadable, not swept
                # Swept before we took the lock: retry the survivors.

    @contextmanager
    def pin_latest(self) -> Iterator[Snapshot | None]:
        """Yield the newest snapshot, protected from rotation's sweep.

        Recovery readers load blobs over a window during which a
        concurrent :meth:`write` may rotate the snapshot they opened
        past ``keep``; inside this context the pinned index is exempt
        from sweeping, so every ``load_state_blob`` the reader issues
        still finds its file.  Pins nest and stack across threads; an
        unpinned snapshot is reclaimed by the *next* rotation.

        Load and pin happen atomically with respect to the sweep —
        both hold ``_pin_lock``, closing the window where a snapshot
        could be chosen and then deleted before its pin registered.
        """
        with self._pin_lock:
            snapshot = self._latest_locked()
            if snapshot is not None:
                self._pins[snapshot.index] += 1
        if snapshot is None:
            yield None
            return
        try:
            yield snapshot
        finally:
            with self._pin_lock:
                self._pins[snapshot.index] -= 1
                if self._pins[snapshot.index] <= 0:
                    del self._pins[snapshot.index]

    def _load(self, path: Path) -> Snapshot:
        try:
            manifest = json.loads((path / _MANIFEST).read_text("utf-8"))
        except (OSError, ValueError) as error:
            raise PersistenceError(
                f"unreadable snapshot manifest {path / _MANIFEST}: {error}"
            ) from None
        if manifest.get("version") not in SUPPORTED_WAL_VERSIONS:
            raise PersistenceError(
                f"snapshot {path} has format version "
                f"{manifest.get('version')}, this build reads "
                f"{SUPPORTED_WAL_VERSIONS}"
            )
        # Older builds also wrote a per-tenant watermark and answer file
        # in each row and an ``extras`` block in the manifest; all three
        # go unread.
        tenants: dict[TenantId, TenantSnapshot] = {}
        for row in manifest["tenants"]:
            tenant_id = row["tenant_id"]
            tenants[tenant_id] = TenantSnapshot(
                tenant_id=tenant_id, state_path=path / row["state"]
            )
        return Snapshot(
            path=path,
            index=int(path.name[len(_SNAP_PREFIX):]),
            wal_seq=int(manifest["wal_seq"]),
            base_fingerprint=manifest.get("base_fingerprint"),
            tenants=tenants,
            epoch=int(manifest.get("epoch", 0)),
        )

    # ------------------------------------------------------------------
    def write(
        self,
        tenants: dict[TenantId, bytes],
        *,
        wal_seq: int,
        base_fingerprint: str | None = None,
        epoch: int = 0,
    ) -> Snapshot:
        """Publish one snapshot atomically and rotate old ones out.

        Parameters
        ----------
        tenants:
            ``tenant_id -> monitor_blob``, each written and fsynced as
            one ``tenant-NNNN.state.pkl`` beside the manifest.
        wal_seq:
            The last WAL batch seq every blob folds in; recovery treats
            batches at or below it as applied.
        epoch:
            The writer's fencing epoch, recorded in the manifest.
        """
        dirs = self._snapshot_dirs()
        index = (int(dirs[-1].name[len(_SNAP_PREFIX):]) + 1) if dirs else 1
        final = self.directory / f"{_SNAP_PREFIX}{index:08d}"
        tmp = self.directory / f"{_SNAP_PREFIX}{index:08d}.tmp"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        rows = []
        for position, (tenant_id, blob) in enumerate(tenants.items()):
            state_name = f"tenant-{position:04d}.state.pkl"
            (tmp / state_name).write_bytes(blob)
            _fsync_file(tmp / state_name)
            rows.append({"tenant_id": tenant_id, "state": state_name})
        manifest = {
            "version": CODEC_VERSION,
            "wal_seq": int(wal_seq),
            "base_fingerprint": base_fingerprint,
            "epoch": int(epoch),
            "tenants": rows,
        }
        (tmp / _MANIFEST).write_text(
            json.dumps(manifest, indent=1), encoding="utf-8"
        )
        _fsync_file(tmp / _MANIFEST)
        _fsync_dir(tmp)
        os.rename(tmp, final)  # the publish point — atomic on POSIX
        _fsync_dir(self.directory)
        self._sweep()
        return self._load(final)

    def _sweep(self) -> None:
        """Drop crashed ``.tmp`` orphans and snapshots beyond ``keep``.

        Pinned snapshots (see :meth:`pin_latest`) are skipped even when
        they fall outside the keep window — a recovery reader may still
        be loading their blobs.
        """
        for orphan in self.directory.glob(f"{_SNAP_PREFIX}*.tmp"):
            shutil.rmtree(orphan, ignore_errors=True)
        # Deletion runs under the pin lock so a reader's list-and-pin
        # (:meth:`pin_latest`) can never interleave with it: the reader
        # sees the directory either before or after one whole sweep.
        with self._pin_lock:
            dirs = self._snapshot_dirs()
            pinned = set(self._pins)
            stale_dirs = (
                dirs[:-self._keep] if len(dirs) > self._keep else []
            )
            for stale in stale_dirs:
                if int(stale.name[len(_SNAP_PREFIX):]) in pinned:
                    continue
                shutil.rmtree(stale, ignore_errors=True)
