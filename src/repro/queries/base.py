"""The ``WorldQuery`` protocol, result type and family registry.

One repaired world set, many query families.  The expensive asset the
system maintains is the cached, repairable possible-world state; this
package turns it from a single-purpose top-k engine into a substrate any
registered **query family** can execute against:

* a family's :meth:`~WorldQuery.estimate` runs over a read-only
  :class:`~repro.sampling.worldstate.WorldView` — the realised worlds
  the monitor already keeps repaired — and shares derived per-world
  products (propagated defaults, component labels, …) with every other
  family through :meth:`WorldView.cached`;
* a family's :meth:`~WorldQuery.exact` is the house small-graph oracle:
  a mass-weighted sum over :func:`repro.core.worlds
  .enumerate_world_blocks`, against which the estimator is pinned by
  the test suite (bit-identical on deterministic graphs, statistical
  parity otherwise).

Families register themselves at import time through
:func:`register_query_family`; consumers resolve them by name through
:func:`get_query_family` — the monitor's ``query(family, ...)``, the
serving layer's per-family result cache, the front end's ``family``
request field and the ``repro-detect query --family`` CLI all go
through this one registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.errors import QueryError
from repro.core.graph import UncertainGraph
from repro.core.worlds import free_choices
from repro.sampling.worldstate import WorldView

__all__ = [
    "QueryResult",
    "WorldQuery",
    "register_query_family",
    "get_query_family",
    "available_families",
    "param_key",
    "enumerated_world_count",
]


def enumerated_world_count(graph: UncertainGraph) -> int:
    """``2^free`` — worlds an exact oracle enumerates for *graph*, with
    the free choices :func:`repro.core.worlds.enumerate_world_blocks`
    enumerates (:func:`repro.core.worlds.free_choices`)."""
    free_nodes, free_edges = free_choices(graph)
    return 1 << (free_nodes.size + free_edges.size)


def _jsonable(value):
    """Recursively coerce numpy containers/scalars to JSON-safe types."""
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class QueryResult:
    """Answer of one query family over one set of worlds.

    Attributes
    ----------
    family:
        The registered family name that produced this result.
    params:
        The (validated, normalised) parameters the family ran with.
    nodes:
        ``int64`` internal node indices the result reports on.  What
        the indices *mean* is family-specific (top-k members, skyline
        members, all nodes, …); families that answer about node sets
        rather than nodes (reliability pairs) leave this empty and
        report through *values*/*details*.
    values:
        ``float64`` array aligned with *nodes* (or with the family's
        own documented order when *nodes* is empty).  Estimates and
        exact answers use the same layout so they compare directly.
    worlds_used:
        Worlds the answer integrates over (sample count for estimates,
        enumerated world count for the oracle).
    method:
        ``"estimate"`` or ``"exact"``.
    elapsed_seconds:
        Wall-clock of the computation (0.0 when not measured).
    details:
        Family-specific extras, JSON-safe after :meth:`to_dict`.
    """

    family: str
    params: dict
    nodes: np.ndarray
    values: np.ndarray
    worlds_used: int
    method: str
    elapsed_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def same_answer(self, other: "QueryResult") -> bool:
        """Whether two results report the identical answer.

        Compares family, reported nodes and values bit-for-bit —
        the lockstep invariant the drift tests assert (timing, method
        and world counts are intentionally excluded).
        """
        return (
            self.family == other.family
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.values, other.values)
        )

    def to_dict(self) -> dict:
        """JSON-safe representation (the wire format of the front end)."""
        return {
            "family": self.family,
            "params": _jsonable(self.params),
            "nodes": [int(v) for v in np.asarray(self.nodes).tolist()],
            "values": [float(v) for v in np.asarray(self.values).tolist()],
            "worlds_used": int(self.worlds_used),
            "method": self.method,
            "elapsed_seconds": float(self.elapsed_seconds),
            "details": _jsonable(self.details),
        }


@runtime_checkable
class WorldQuery(Protocol):
    """What a pluggable query family must provide.

    ``name`` is the registry key.  ``estimate`` answers from realised
    worlds (a :class:`WorldView`); ``exact`` is the small-graph
    enumeration oracle with the same parameter surface and result
    layout, so the two are directly comparable.
    """

    name: str

    def estimate(self, view: WorldView, **params) -> QueryResult:
        """Answer from the realised worlds of *view*."""
        ...

    def exact(self, graph: UncertainGraph, **params) -> QueryResult:
        """Ground-truth answer by possible-world enumeration."""
        ...


_REGISTRY: dict[str, WorldQuery] = {}


def register_query_family(query: WorldQuery, *, replace: bool = False) -> None:
    """Register a family under ``query.name``.

    Registration is module-import-time side effect of each family
    module; *replace* exists so re-imports (and tests swapping in
    doubles) stay idempotent instead of erroring.
    """
    name = str(query.name)
    if not name:
        raise QueryError("query family needs a non-empty name")
    if name in _REGISTRY and not replace:
        raise QueryError(f"query family {name!r} is already registered")
    _REGISTRY[name] = query


def get_query_family(name: str) -> WorldQuery:
    """Resolve a registered family by name."""
    try:
        return _REGISTRY[str(name)]
    except KeyError:
        raise QueryError(
            f"unknown query family {name!r}; "
            f"available: {available_families()}"
        ) from None


def available_families() -> list[str]:
    """Sorted names of every registered family."""
    return sorted(_REGISTRY)


def param_key(params: dict) -> str:
    """Deterministic hashable key for a family's parameter dict.

    The serving layer's result cache and the monitor's per-state memo
    both key on ``(family, param_key(params))``; ``repr`` round-trips
    the JSON-level types the wire protocol can carry.
    """
    return repr(
        sorted((str(key), repr(value)) for key, value in dict(params).items())
    )
