"""Promotion choreography: pick the most-caught-up replica, fence, adopt.

:class:`FailoverCoordinator` turns an operator's decision to fail over
into a new primary:

1. **Choose** — among the surviving replicas, take the one with the
   highest ``(applied_seq, durable_cursor)``; ties break toward the
   smallest node id so two coordinators racing on the same inputs pick
   the same winner.
2. **Fence** — promotion claims the next epoch from the shared
   :class:`~repro.replication.epoch.EpochStore` *before* the new
   primary accepts writes; the deposed primary's next append window
   sees the newer epoch and raises
   :class:`~repro.core.errors.FencedError`.  Surviving replicas get
   :meth:`~repro.replication.replica.ReplicaService.fence_below` so
   late stream batches from the old lineage are rejected too.
3. **Adopt** — :meth:`ReplicaService.promote` re-opens the mirrored WAL
   as a real :class:`~repro.serving.service.RiskService`, replaying
   only the durable suffix past the replica's ``applied_seq``: the
   warm serving pool is kept, so failover time is dominated by the
   un-acked suffix, not a cold rebuild.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.errors import ReplicationError
from repro.replication.epoch import EpochStore
from repro.replication.replica import ReplicaService

__all__ = ["FailoverCoordinator", "FailoverEvent"]


@dataclass(frozen=True)
class FailoverEvent:
    """One promotion, for the coordinator's audit trail."""

    winner: str
    epoch: int
    applied_seq: int
    fenced: tuple = ()
    candidates: dict = field(default_factory=dict)


class FailoverCoordinator:
    def __init__(self, epoch_store: EpochStore) -> None:
        self._store = epoch_store
        self.events: list[FailoverEvent] = []

    @property
    def epoch_store(self) -> EpochStore:
        return self._store

    # ------------------------------------------------------------------
    @staticmethod
    def choose(replicas: Mapping[str, ReplicaService]) -> str:
        """Most-caught-up replica id; deterministic under ties."""
        if not replicas:
            raise ReplicationError("no replicas available for promotion")
        best = max(
            (replicas[node].applied_seq, replicas[node].durable_cursor)
            for node in replicas
        )
        return min(
            node
            for node in replicas
            if (replicas[node].applied_seq, replicas[node].durable_cursor)
            == best
        )

    def promote(
        self,
        replicas: Mapping[str, ReplicaService],
        *,
        fsync: str = "always",
        **service_kwargs,
    ):
        """Promote the best replica; returns ``(winner_id, service)``.

        The returned service has already claimed the new epoch,
        stamped it into the WAL, and replayed its un-acked durable
        suffix — it accepts writes the moment this returns.  All other
        replicas in *replicas* are fenced below the new epoch.
        """
        winner = self.choose(replicas)
        candidates = {
            node: {
                "applied_seq": replica.applied_seq,
                "durable_cursor": list(replica.durable_cursor),
            }
            for node, replica in replicas.items()
        }
        started = time.monotonic()
        service = replicas[winner].promote(
            epoch_store=self._store,
            node_id=winner,
            fsync=fsync,
            **service_kwargs,
        )
        for node, replica in replicas.items():
            if node != winner:
                replica.fence_below(service.epoch)
        self.events.append(
            FailoverEvent(
                winner=winner,
                epoch=service.epoch,
                applied_seq=service.durable_seq,
                fenced=tuple(
                    node for node in replicas if node != winner
                ),
                candidates=candidates,
            )
        )
        self.last_promotion_seconds = time.monotonic() - started
        return winner, service
