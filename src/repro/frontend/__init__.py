"""SLO-enforced network front end for the serving layer.

:class:`~repro.frontend.server.FrontendServer` puts an asyncio
HTTP/JSON endpoint in front of a
:class:`~repro.serving.service.RiskService` with per-tenant bearer
auth, token-bucket admission control, deadline propagation with
degraded bounds-only answers under overload, and honest 429 +
``Retry-After`` load shedding.
:class:`~repro.frontend.client.FrontendClient` is the matching polite
client (jittered exponential backoff, ``Retry-After`` honoured).
"""

from repro.frontend.admission import (
    AdmissionController,
    AdmissionDecision,
    FrontendStats,
    TokenBucket,
)
from repro.frontend.client import ClientResponse, FrontendClient
from repro.frontend.protocol import (
    HttpRequest,
    event_from_json,
    event_to_json,
    read_request,
    send_request,
    write_response,
)
from repro.frontend.server import FrontendServer

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "FrontendStats",
    "TokenBucket",
    "ClientResponse",
    "FrontendClient",
    "HttpRequest",
    "event_from_json",
    "event_to_json",
    "read_request",
    "send_request",
    "write_response",
    "FrontendServer",
]
