"""Binary codec for update events and the WAL's record framing.

Two layers, both versioned and both deliberately boring:

**Event codec** — one event, one byte string.  A 1-byte type tag
selects the event class; scalar events carry a compact JSON body
(labels survive as JSON scalars — ``str`` / ``int`` / ``float`` /
``bool`` / ``None``), bulk events carry their vector as raw
little-endian float64 bytes (no JSON float round-tripping, no parsing
cost at replay time).  ``decode_event(encode_event(e))`` reconstructs
an equal event for every valid event; the hypothesis suite in
``tests/test_persistence_codec.py`` pins this, and committed golden
files pin the on-disk format itself (v1, and v2 with provenance and
topology events).

**Record framing** — one payload, one self-checking record::

    +------------+------------+--------------------+
    | length u32 | crc32 u32  | payload bytes ...  |
    +------------+------------+--------------------+

Little-endian, CRC over the payload only.  A reader walks records until
the buffer ends *or* a record fails its checks — a short header, a
payload shorter than its declared length (a torn tail from a crash
mid-write), or a CRC mismatch (a torn or bit-flipped write).  Framing
makes corruption detectable, never mis-decodable: everything before the
first bad record is trusted, everything from it on is discarded.

The segment file header is ``REPROWAL`` + a version byte; readers
refuse versions they do not understand instead of guessing.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Iterator

import numpy as np

from repro.core.errors import ReproError
from repro.streaming.events import (
    BulkEdgeProbabilityUpdate,
    BulkSelfRiskUpdate,
    EdgeAdd,
    EdgeProbabilityUpdate,
    NodeAdd,
    SelfRiskUpdate,
    UpdateEvent,
)

__all__ = [
    "CODEC_VERSION",
    "SUPPORTED_WAL_VERSIONS",
    "WAL_MAGIC",
    "WAL_MAGIC_PREFIX",
    "PersistenceError",
    "CorruptRecordError",
    "encode_event",
    "decode_event",
    "encode_record",
    "next_record",
    "decode_record_stream",
    "encode_batch_payload",
    "decode_batch_payload",
]

#: On-disk format version; bump on any incompatible layout change.
#: v2 (this version) adds optional provenance fields on per-entity
#: events and the ``NodeAdd``/``EdgeAdd`` topology tags.  v2 is a strict
#: superset of v1: every event a v1 writer could produce still encodes
#: byte-identically, so v1 segments remain readable (see
#: :data:`SUPPORTED_WAL_VERSIONS`).
CODEC_VERSION = 2

#: Versions this reader understands.  v1 files contain only tags 1-4
#: with provenance-free bodies — a subset of the v2 grammar — so the
#: same decoder serves both.
SUPPORTED_WAL_VERSIONS = (1, 2)

#: Magic bytes every supported segment header starts with.
WAL_MAGIC_PREFIX = b"REPROWAL"

#: Segment file header written by this version: magic + version byte.
WAL_MAGIC = WAL_MAGIC_PREFIX + bytes([CODEC_VERSION])

_RECORD_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

# Event type tags (1 byte each).
_TAG_SELF_RISK = 1
_TAG_EDGE_PROB = 2
_TAG_BULK_SELF_RISK = 3
_TAG_BULK_EDGE_PROB = 4
_TAG_NODE_ADD = 5
_TAG_EDGE_ADD = 6

# Batch payload kinds.
BATCH_KIND_EVENTS = b"B"
BATCH_KIND_REGISTER = b"R"
#: Epoch stamp written by a newly promoted (or newly started) primary.
#: Replicas and recovery treat every later batch as belonging to that
#: epoch; a record from a lower epoch than a replica's fence is the
#: signature of a deposed primary's late append and is rejected.  The
#: kind is additive — event and registration encodings are untouched,
#: so v1/v2 golden files remain byte-valid.
BATCH_KIND_EPOCH = b"E"

_JSON_LABEL_TYPES = (str, int, float, bool, type(None))


class PersistenceError(ReproError):
    """Raised when durable state cannot be written or interpreted."""


class CorruptRecordError(PersistenceError):
    """Raised when a record fails framing or checksum validation."""


def _check_label(label: object, what: str) -> object:
    # bool is an int subclass; list it explicitly anyway for clarity.
    if not isinstance(label, _JSON_LABEL_TYPES):
        raise PersistenceError(
            f"{what} {label!r} is not WAL-serialisable; durable serving "
            f"requires JSON-scalar node labels (str/int/float/bool/None)"
        )
    return label


def _provenance_suffix(event: UpdateEvent) -> list:
    """Optional provenance tail of a JSON event body.

    Empty when the event carries no provenance — which keeps every
    provenance-free event byte-identical to its v1 encoding (the v1
    golden file still pins this codec).  When either field is set, both
    are appended so the decoder can address them positionally.
    """
    source, confidence = event.source, event.confidence
    if source is None and confidence is None:
        return []
    if source is not None and not isinstance(source, str):
        raise PersistenceError(
            f"event source {source!r} is not WAL-serialisable (want str)"
        )
    return [source, None if confidence is None else float(confidence)]


def _split_provenance(fields: list, base: int, what: str) -> tuple[list, dict]:
    """Split a decoded JSON body into base fields + provenance kwargs."""
    if len(fields) == base:
        return fields, {}
    if len(fields) == base + 2:
        return fields[:base], {
            "source": fields[base],
            "confidence": fields[base + 1],
        }
    raise ValueError(f"{what} body has {len(fields)} fields, want {base} or {base + 2}")


def encode_event(event: UpdateEvent) -> bytes:
    """Encode one update event as a self-describing byte string."""
    if isinstance(event, SelfRiskUpdate):
        body = json.dumps(
            [_check_label(event.label, "node label"), float(event.value)]
            + _provenance_suffix(event),
            ensure_ascii=False,
        ).encode("utf-8")
        return bytes([_TAG_SELF_RISK]) + body
    if isinstance(event, EdgeProbabilityUpdate):
        body = json.dumps(
            [
                _check_label(event.src, "edge source label"),
                _check_label(event.dst, "edge target label"),
                float(event.value),
            ]
            + _provenance_suffix(event),
            ensure_ascii=False,
        ).encode("utf-8")
        return bytes([_TAG_EDGE_PROB]) + body
    if isinstance(event, BulkSelfRiskUpdate):
        values = np.ascontiguousarray(event.values, dtype="<f8")
        return bytes([_TAG_BULK_SELF_RISK]) + values.tobytes()
    if isinstance(event, BulkEdgeProbabilityUpdate):
        values = np.ascontiguousarray(event.values, dtype="<f8")
        return bytes([_TAG_BULK_EDGE_PROB]) + values.tobytes()
    if isinstance(event, NodeAdd):
        body = json.dumps(
            [_check_label(event.label, "node label"), float(event.self_risk)]
            + _provenance_suffix(event),
            ensure_ascii=False,
        ).encode("utf-8")
        return bytes([_TAG_NODE_ADD]) + body
    if isinstance(event, EdgeAdd):
        body = json.dumps(
            [
                _check_label(event.src, "edge source label"),
                _check_label(event.dst, "edge target label"),
                float(event.probability),
            ]
            + _provenance_suffix(event),
            ensure_ascii=False,
        ).encode("utf-8")
        return bytes([_TAG_EDGE_ADD]) + body
    raise PersistenceError(f"unknown update event: {event!r}")


def decode_event(data: bytes) -> UpdateEvent:
    """Decode one event encoded by :func:`encode_event`."""
    if not data:
        raise CorruptRecordError("empty event payload")
    tag, body = data[0], data[1:]
    try:
        if tag == _TAG_SELF_RISK:
            fields = json.loads(body.decode("utf-8"))
            (label, value), prov = _split_provenance(fields, 2, "self-risk")
            return SelfRiskUpdate(label=label, value=float(value), **prov)
        if tag == _TAG_EDGE_PROB:
            fields = json.loads(body.decode("utf-8"))
            (src, dst, value), prov = _split_provenance(fields, 3, "edge-prob")
            return EdgeProbabilityUpdate(
                src=src, dst=dst, value=float(value), **prov
            )
        if tag == _TAG_BULK_SELF_RISK:
            return BulkSelfRiskUpdate(values=_decode_vector(body))
        if tag == _TAG_BULK_EDGE_PROB:
            return BulkEdgeProbabilityUpdate(values=_decode_vector(body))
        if tag == _TAG_NODE_ADD:
            fields = json.loads(body.decode("utf-8"))
            (label, risk), prov = _split_provenance(fields, 2, "node-add")
            return NodeAdd(label=label, self_risk=float(risk), **prov)
        if tag == _TAG_EDGE_ADD:
            fields = json.loads(body.decode("utf-8"))
            (src, dst, prob), prov = _split_provenance(fields, 3, "edge-add")
            return EdgeAdd(src=src, dst=dst, probability=float(prob), **prov)
    except (ValueError, UnicodeDecodeError) as error:
        raise CorruptRecordError(f"malformed event body: {error}") from None
    raise CorruptRecordError(f"unknown event tag {tag}")


def _decode_vector(body: bytes) -> np.ndarray:
    if len(body) % 8:
        raise CorruptRecordError(
            f"bulk vector body of {len(body)} bytes is not float64-aligned"
        )
    # Copy out of the read buffer so the event owns writable memory.
    return np.frombuffer(body, dtype="<f8").astype(np.float64)


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------
def encode_record(payload: bytes) -> bytes:
    """Frame *payload* as one length-prefixed, CRC-checksummed record."""
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def next_record(
    data: bytes, offset: int = 0, *, max_length: int | None = None
) -> tuple[bytes, int] | None:
    """The record framed at *offset* of *data*: ``(payload, end_offset)``.

    ``None`` while *data* ends before the record does (a torn tail, or
    a shipped chunk whose rest is still in flight).  Raises
    :class:`CorruptRecordError` on a CRC mismatch, or when the header
    declares more than *max_length* payload bytes.
    """
    if offset + _RECORD_HEADER.size > len(data):
        return None
    length, crc = _RECORD_HEADER.unpack_from(data, offset)
    if max_length is not None and length > max_length:
        raise CorruptRecordError(f"record declares {length} payload bytes")
    body_start = offset + _RECORD_HEADER.size
    body_end = body_start + length
    if body_end > len(data):
        return None
    payload = data[body_start:body_end]
    if zlib.crc32(payload) != crc:
        raise CorruptRecordError("record failed its CRC check")
    return payload, body_end


def decode_record_stream(
    data: bytes, *, start: int = 0
) -> Iterator[tuple[bytes, int]]:
    """Yield ``(payload, end_offset)`` for each intact record in *data*.

    Stops silently at the first torn or corrupt record — the crash-
    recovery contract: everything before the first bad checksum is
    durable, everything after it is gone.  The final yielded
    ``end_offset`` is where a repaired log should be truncated (and
    where appends may resume).
    """
    offset = start
    while True:
        try:
            record = next_record(data, offset)
        except CorruptRecordError:
            return
        if record is None:
            return
        payload, offset = record
        yield payload, offset


# ----------------------------------------------------------------------
# Batch payloads (what one WAL record carries)
# ----------------------------------------------------------------------
def encode_batch_payload(
    kind: bytes, seq: int, tenant_id: object, parts: list[bytes]
) -> bytes:
    """Encode one WAL batch: kind, sequence, tenant, then *parts*.

    ``kind`` is :data:`BATCH_KIND_EVENTS` (parts = encoded events, in
    coalesced order) or :data:`BATCH_KIND_REGISTER` (parts = one JSON
    blob of tenant registration arguments).
    """
    tenant_json = json.dumps(
        _check_label(tenant_id, "tenant id"), ensure_ascii=False
    ).encode("utf-8")
    out = bytearray()
    out += kind
    out += struct.pack("<Q", seq)
    out += struct.pack("<I", len(tenant_json))
    out += tenant_json
    out += struct.pack("<I", len(parts))
    for part in parts:
        out += struct.pack("<I", len(part))
        out += part
    return bytes(out)


def decode_batch_payload(payload: bytes) -> tuple[bytes, int, object, list[bytes]]:
    """Decode :func:`encode_batch_payload`'s output."""
    try:
        kind = payload[0:1]
        if kind not in (BATCH_KIND_EVENTS, BATCH_KIND_REGISTER, BATCH_KIND_EPOCH):
            raise CorruptRecordError(f"unknown batch kind {kind!r}")
        offset = 1
        (seq,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        (tenant_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        tenant_id = json.loads(payload[offset:offset + tenant_len].decode("utf-8"))
        offset += tenant_len
        (count,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        parts: list[bytes] = []
        for _ in range(count):
            (part_len,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            parts.append(payload[offset:offset + part_len])
            offset += part_len
        if offset != len(payload):
            raise CorruptRecordError(
                f"{len(payload) - offset} trailing bytes after batch body"
            )
    except (struct.error, ValueError, UnicodeDecodeError) as error:
        raise CorruptRecordError(f"malformed batch payload: {error}") from None
    return kind, int(seq), tenant_id, parts
