"""Plain-text edge-list I/O for uncertain graphs.

Format (whitespace separated, ``#`` comments allowed):

* node lines:  ``N <label> <self_risk>``
* edge lines:  ``E <src> <dst> <diffusion_probability>``

Node lines must precede the edges that reference them.  Labels are stored
as strings on read; callers needing typed labels can remap afterwards.
A file that is not UTF-8 text, or a probability field that is not a
number, raises :class:`~repro.core.errors.GraphError` naming the line.
This format exists so experiment graphs can be checked into text fixtures
and diffed.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, TextIO

from repro.core.errors import GraphError
from repro.core.graph import UncertainGraph

__all__ = ["write_edgelist", "read_edgelist", "dumps_edgelist", "loads_edgelist"]


def _write(graph: UncertainGraph, handle: TextIO) -> None:
    handle.write("# uncertain graph edge list\n")
    handle.write(f"# nodes={graph.num_nodes} edges={graph.num_edges}\n")
    # 17 significant digits round-trips any float64 exactly; 12 does not,
    # and lossy probabilities break the serialisation round-trip tests.
    for label in graph.nodes():
        handle.write(f"N {label} {graph.self_risk(label):.17g}\n")
    for src, dst, prob in graph.edges():
        handle.write(f"E {src} {dst} {prob:.17g}\n")


def _number(field: str, what: str, line_number: int) -> float:
    try:
        return float(field)
    except ValueError:
        raise GraphError(
            f"line {line_number}: {what} {field!r} is not a number"
        ) from None


def _decoded(lines: Iterable[bytes]) -> Iterator[str]:
    """Byte lines as UTF-8 text, naming a line that is not."""
    for line_number, raw in enumerate(lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError:
            raise GraphError(f"line {line_number}: not UTF-8 text") from None


def _parse(lines: Iterable[str]) -> UncertainGraph:
    graph = UncertainGraph()
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "N":
            if len(parts) != 3:
                raise GraphError(
                    f"line {line_number}: node lines need 3 fields, got {len(parts)}"
                )
            graph.add_node(
                parts[1], _number(parts[2], "self-risk", line_number)
            )
        elif kind == "E":
            if len(parts) != 4:
                raise GraphError(
                    f"line {line_number}: edge lines need 4 fields, got {len(parts)}"
                )
            graph.add_edge(
                parts[1],
                parts[2],
                _number(parts[3], "edge probability", line_number),
            )
        else:
            raise GraphError(
                f"line {line_number}: unknown record type {kind!r}"
            )
    return graph


def write_edgelist(graph: UncertainGraph, path: str | os.PathLike) -> None:
    """Write *graph* to *path* in the text edge-list format."""
    with open(path, "w", encoding="utf-8") as handle:
        _write(graph, handle)


def read_edgelist(path: str | os.PathLike) -> UncertainGraph:
    """Read an uncertain graph from *path*; labels come back as strings."""
    with open(path, "rb") as handle:
        data = handle.read()
    return _parse(_decoded(data.splitlines()))


def dumps_edgelist(graph: UncertainGraph) -> str:
    """Serialise *graph* to an edge-list string."""
    import io

    buffer = io.StringIO()
    _write(graph, buffer)
    return buffer.getvalue()


def loads_edgelist(text: str) -> UncertainGraph:
    """Parse an edge-list string produced by :func:`dumps_edgelist`."""
    return _parse(text.splitlines())
