"""Replicated serving: WAL shipping, operator-driven promotion, fencing.

The package turns one durable :class:`~repro.serving.service.RiskService`
into a replicated topology with provable zero accepted-event loss:

* :mod:`~repro.replication.epoch` — file-backed fencing epochs; one
  writer generation at a time.
* :mod:`~repro.replication.hub` — primary-side fetch/bootstrap/ack
  endpoint; acks drive the WAL retain floor.
* :mod:`~repro.replication.shipper` — the pull loop: CRC-framed chunks,
  resumable cursors, corruption rewind, reconnect backoff.
* :mod:`~repro.replication.replica` — byte-identical WAL mirror plus a
  warm serving pool; promotes in place.
* :mod:`~repro.replication.failover` — when an operator promotes,
  choose the most-caught-up replica, fence the old lineage, adopt.
"""

from repro.replication.epoch import EpochRecord, EpochStore
from repro.replication.failover import FailoverCoordinator, FailoverEvent
from repro.replication.hub import BootstrapResult, FetchResult, ReplicationHub
from repro.replication.replica import CorruptShippedError, ReplicaService
from repro.replication.shipper import (
    HttpSource,
    LocalSource,
    WalShipper,
)

__all__ = [
    "EpochRecord",
    "EpochStore",
    "FailoverCoordinator",
    "FailoverEvent",
    "BootstrapResult",
    "FetchResult",
    "ReplicationHub",
    "CorruptShippedError",
    "ReplicaService",
    "HttpSource",
    "LocalSource",
    "WalShipper",
]
