"""JSON (de)serialisation for graphs and detection results.

JSON is the interchange format the experiment runner uses to persist
results (``EXPERIMENTS.md`` tables are generated from these records), and
the format example applications use to hand graphs between processes.
Labels survive round-trips for the JSON-representable label types (str,
int, float, bool); other hashables are stringified with a warning in the
payload.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.algorithms.base import DetectionResult
from repro.core.errors import GraphError
from repro.core.graph import UncertainGraph

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "save_graph_json",
    "load_graph_json",
    "result_to_dict",
    "result_from_dict",
    "save_results_json",
]

_JSON_SAFE = (str, int, float, bool)


def _encode_label(label: Any) -> Any:
    return label if isinstance(label, _JSON_SAFE) else str(label)


def graph_to_dict(graph: UncertainGraph) -> dict[str, Any]:
    """Encode *graph* as a JSON-ready dict."""
    return {
        "format": "repro-uncertain-graph",
        "version": 1,
        "nodes": [
            {"label": _encode_label(label), "self_risk": graph.self_risk(label)}
            for label in graph.nodes()
        ],
        "edges": [
            {
                "src": _encode_label(src),
                "dst": _encode_label(dst),
                "probability": prob,
            }
            for src, dst, prob in graph.edges()
        ],
    }


def graph_from_dict(payload: dict[str, Any]) -> UncertainGraph:
    """Decode a dict produced by :func:`graph_to_dict`.

    Anything else — another JSON value, a payload missing its nodes or
    edges, a malformed entry — raises :class:`GraphError`.
    """
    if not isinstance(payload, dict):
        raise GraphError(
            "not an uncertain-graph payload: a JSON "
            f"{type(payload).__name__}, not an object"
        )
    if payload.get("format") != "repro-uncertain-graph":
        raise GraphError(
            f"not an uncertain-graph payload: format={payload.get('format')!r}"
        )
    graph = UncertainGraph()
    try:
        for node in payload["nodes"]:
            graph.add_node(node["label"], node["self_risk"])
        for edge in payload["edges"]:
            graph.add_edge(edge["src"], edge["dst"], edge["probability"])
    except KeyError as error:
        raise GraphError(
            f"malformed uncertain-graph payload: missing {error}"
        ) from None
    except TypeError as error:
        raise GraphError(f"malformed uncertain-graph payload: {error}") from None
    return graph


def save_graph_json(graph: UncertainGraph, path: str | os.PathLike) -> None:
    """Write *graph* as JSON to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_dict(graph), handle, indent=1)


def load_graph_json(path: str | os.PathLike) -> UncertainGraph:
    """Read a JSON graph written by :func:`save_graph_json`.

    A file that is not JSON, or not a graph payload, raises
    :class:`GraphError`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
            raise GraphError(f"{path} is not a JSON graph: {error}") from None
    return graph_from_dict(payload)


def result_to_dict(result: DetectionResult) -> dict[str, Any]:
    """Encode a :class:`DetectionResult` as a JSON-ready dict."""
    return {
        "method": result.method,
        "k": result.k,
        "nodes": [_encode_label(label) for label in result.nodes],
        "scores": {
            str(_encode_label(label)): score
            for label, score in result.scores.items()
        },
        "samples_used": result.samples_used,
        "candidate_size": result.candidate_size,
        "k_verified": result.k_verified,
        "elapsed_seconds": result.elapsed_seconds,
        "details": {key: _jsonify(value) for key, value in result.details.items()},
        "stale": result.stale,
        "degraded": result.degraded,
    }


def result_from_dict(payload: dict[str, Any]) -> DetectionResult:
    """Decode a dict produced by :func:`result_to_dict`.

    Labels come back as their JSON representations (non-JSON-safe label
    types were stringified on the way out), so compare decoded results
    with results decoded the same way.
    """
    return DetectionResult(
        method=str(payload["method"]),
        k=int(payload["k"]),
        nodes=list(payload["nodes"]),
        scores={
            label: float(score)
            for label, score in payload["scores"].items()
        },
        samples_used=int(payload["samples_used"]),
        candidate_size=int(payload["candidate_size"]),
        k_verified=int(payload["k_verified"]),
        elapsed_seconds=float(payload["elapsed_seconds"]),
        details=dict(payload.get("details", {})),
        stale=bool(payload.get("stale", False)),
        degraded=bool(payload.get("degraded", False)),
    )


def _jsonify(value: Any) -> Any:
    if isinstance(value, _JSON_SAFE) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    try:  # numpy scalars
        return value.item()
    except AttributeError:
        return str(value)


def save_results_json(
    results: list[DetectionResult], path: str | os.PathLike
) -> None:
    """Persist a list of detection results as a JSON array."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([result_to_dict(result) for result in results], handle, indent=1)
