"""A minimal HTTP/1.1 codec over asyncio streams.

The gateway deliberately avoids ``http.server`` (thread-per-request, no
backpressure) and keeps the wire layer to the subset the planning API
needs: request-line + headers + ``Content-Length`` bodies, keep-alive by
default, no chunked encoding, no pipelining guarantees beyond strict
request/response alternation.  Both the server
(:mod:`repro.serve.gateway`) and the client (:mod:`repro.serve.loadgen`)
share this module, so a framing bug cannot hide on one side only.

Malformed messages raise :class:`~repro.errors.GatewayProtocolError`; a
clean EOF before the first request byte returns ``None`` so connection
loops can distinguish "client hung up" from "client sent garbage".
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.errors import GatewayProtocolError

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "read_request",
    "read_response",
    "render_request",
    "render_response",
]

#: Cap on any single header/request line; longer lines are an attack or a bug.
MAX_LINE_BYTES = 8192
#: Cap on the number of header lines per message.
MAX_HEADERS = 64
#: Cap on message bodies; every gateway and cluster admin listener
#: answers a larger request 413.
MAX_BODY_BYTES = 1_048_576

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class HttpRequest:
    """One parsed request: method, target path, lower-cased headers, body."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


@dataclass
class HttpResponse:
    """One parsed response (client side)."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise GatewayProtocolError(f"oversized protocol line: {exc}") from None
    if len(line) > MAX_LINE_BYTES:
        raise GatewayProtocolError("protocol line exceeds MAX_LINE_BYTES")
    return line


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise GatewayProtocolError("connection closed inside headers")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            raise GatewayProtocolError("undecodable header line") from None
        if not _ or not name.strip():
            raise GatewayProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    raise GatewayProtocolError("too many header lines")


async def _read_body(
    reader: asyncio.StreamReader,
    headers: Mapping[str, str],
    max_body: int,
) -> bytes:
    raw_length = headers.get("content-length", "0")
    # RFC 9110 allows only 1*DIGIT: int() would also take "+2", "0_2" or
    # non-ASCII digits, a parsing differential behind any proxy.
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise GatewayProtocolError(f"bad Content-Length: {raw_length!r}")
    length = int(raw_length)
    if length > max_body:
        raise GatewayProtocolError(
            f"body of {length} bytes exceeds cap {max_body}", status=413
        )
    if "transfer-encoding" in headers:
        raise GatewayProtocolError("chunked transfer encoding is not supported")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise GatewayProtocolError("connection closed inside body") from None


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
) -> Optional[HttpRequest]:
    """Parse one request; ``None`` on clean EOF before the first byte."""
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise GatewayProtocolError(f"malformed request line: {line!r}")
    method, path, _version = parts
    headers = await _read_headers(reader)
    body = await _read_body(reader, headers, max_body)
    return HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


async def read_response(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
) -> HttpResponse:
    """Parse one response (used by the loadgen client and tests)."""
    line = await _read_line(reader)
    if not line:
        raise GatewayProtocolError("connection closed before status line")
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise GatewayProtocolError(f"malformed status line: {line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise GatewayProtocolError(f"malformed status code: {parts[1]!r}") from None
    headers = await _read_headers(reader)
    body = await _read_body(reader, headers, max_body)
    return HttpResponse(status=status, headers=headers, body=body)


def render_request(
    method: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one client request."""
    lines = [f"{method} {path} HTTP/1.1"]
    merged: Dict[str, str] = {"content-length": str(len(body))}
    if not keep_alive:
        merged["connection"] = "close"
    if headers:
        merged.update({name.lower(): value for name, value in headers.items()})
    lines.extend(f"{name}: {value}" for name, value in sorted(merged.items()))
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def render_response(
    status: int,
    body: bytes = b"",
    headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = True,
    content_type: str = "application/json",
) -> bytes:
    """Serialize one server response."""
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    merged: Dict[str, str] = {
        "content-length": str(len(body)),
        "content-type": content_type,
        "connection": "keep-alive" if keep_alive else "close",
    }
    if headers:
        merged.update({name.lower(): value for name, value in headers.items()})
    lines.extend(f"{name}: {value}" for name, value in sorted(merged.items()))
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body
