"""Wire protocol of the network front end — HTTP/1.1 + JSON, stdlib only.

The front end speaks a deliberately small slice of HTTP/1.1 over
``asyncio`` streams: JSON request bodies, JSON responses, persistent
connections (``Connection: keep-alive`` is the default), no chunked
transfer, no TLS.  That slice is enough for ``curl``, for
:class:`~repro.frontend.client.FrontendClient`, and for the open-loop
load generator — while keeping the parser small enough to audit: a
malformed request can reject a connection, never crash the server.

This module also fixes the JSON encoding of
:mod:`~repro.streaming.events` update events
(:func:`event_to_json` / :func:`event_from_json`): the four
probability-update types, without provenance.  ``NodeAdd``, ``EdgeAdd``
and provenance fields are in-process only; the WAL codec stores all
six types.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.errors import FrontendError
from repro.streaming.events import (
    BulkEdgeProbabilityUpdate,
    BulkSelfRiskUpdate,
    EdgeProbabilityUpdate,
    SelfRiskUpdate,
    UpdateEvent,
)

__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "HttpRequest",
    "read_request",
    "write_response",
    "event_to_json",
    "event_from_json",
    "send_request",
]

#: Reject request heads larger than this (one line + headers).
MAX_HEADER_BYTES = 16_384
#: Reject bodies larger than this (bulk events on big graphs dominate).
MAX_BODY_BYTES = 16 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class HttpRequest:
    """One parsed request: method, path, lower-cased headers, raw body."""

    method: str
    path: str
    headers: Mapping[str, str]
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise FrontendError(f"request body is not valid JSON: {error}")

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


async def read_request(
    reader: asyncio.StreamReader,
) -> HttpRequest | None:
    """Parse one request off *reader*; ``None`` on clean EOF.

    Raises :class:`~repro.core.errors.FrontendError` for anything
    malformed or over the size limits — the connection handler turns
    that into a 400 and closes the connection.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise FrontendError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise FrontendError(f"request head exceeds {MAX_HEADER_BYTES} bytes")
    if len(head) > MAX_HEADER_BYTES:
        raise FrontendError(f"request head exceeds {MAX_HEADER_BYTES} bytes")
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise FrontendError("undecodable request head")
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise FrontendError(f"malformed request line: {request_line!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise FrontendError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise FrontendError(f"bad Content-Length: {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise FrontendError(f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise FrontendError("connection closed mid-body")
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any = None,
    *,
    headers: Mapping[str, str] | None = None,
    keep_alive: bool = True,
) -> None:
    """Serialise one JSON response onto *writer* (buffered, not drained)."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)


# ----------------------------------------------------------------------
# Update-event JSON codec
# ----------------------------------------------------------------------
def event_to_json(event: UpdateEvent) -> dict:
    """Encode one update event as its wire JSON object."""
    if isinstance(event, SelfRiskUpdate):
        return {
            "type": "self_risk",
            "label": event.label,
            "value": float(event.value),
        }
    if isinstance(event, EdgeProbabilityUpdate):
        return {
            "type": "edge_probability",
            "src": event.src,
            "dst": event.dst,
            "value": float(event.value),
        }
    if isinstance(event, BulkSelfRiskUpdate):
        return {
            "type": "bulk_self_risk",
            "values": [float(value) for value in event.values],
        }
    if isinstance(event, BulkEdgeProbabilityUpdate):
        return {
            "type": "bulk_edge_probability",
            "values": [float(value) for value in event.values],
        }
    raise FrontendError(f"unencodable update event: {event!r}")


def event_from_json(payload: Mapping[str, Any]) -> UpdateEvent:
    """Decode one wire JSON object back into an update event."""
    if not isinstance(payload, Mapping):
        raise FrontendError(f"event must be a JSON object, got {payload!r}")
    kind = payload.get("type")
    try:
        if kind == "self_risk":
            return SelfRiskUpdate(payload["label"], float(payload["value"]))
        if kind == "edge_probability":
            return EdgeProbabilityUpdate(
                payload["src"], payload["dst"], float(payload["value"])
            )
        if kind == "bulk_self_risk":
            return BulkSelfRiskUpdate(
                [float(value) for value in payload["values"]]
            )
        if kind == "bulk_edge_probability":
            return BulkEdgeProbabilityUpdate(
                [float(value) for value in payload["values"]]
            )
    except (KeyError, TypeError, ValueError) as error:
        raise FrontendError(f"malformed {kind!r} event: {error}")
    raise FrontendError(f"unknown event type {kind!r}")


# ----------------------------------------------------------------------
# Minimal async client request (tests and the load generator)
# ----------------------------------------------------------------------
@dataclass
class WireResponse:
    """Status + headers + decoded JSON body of one exchange."""

    status: int
    headers: Mapping[str, str]
    payload: Any = field(default=None)


async def send_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    payload: Any = None,
    *,
    headers: Mapping[str, str] | None = None,
) -> WireResponse:
    """Issue one request on an open connection and parse the response.

    The counterpart of :func:`read_request`/:func:`write_response`,
    shared by the e2e tests and the open-loop load generator; the
    synchronous :class:`~repro.frontend.client.FrontendClient` has its
    own ``http.client`` transport with retries.
    """
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    lines = [
        f"{method} {path} HTTP/1.1",
        "Host: localhost",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    status = int(status_line.split(" ")[1])
    response_headers: dict[str, str] = {}
    for line in header_lines:
        if line:
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
    length = int(response_headers.get("content-length", "0"))
    raw = await reader.readexactly(length) if length else b""
    decoded = json.loads(raw) if raw else None
    return WireResponse(status=status, headers=response_headers, payload=decoded)
