"""Wire protocol of the fleet gateway: HTTP/1.1 and WebSocket.

The gateway cannot assume an HTTP framework in the container, so this
module implements the minimum slice of both protocols over
:mod:`asyncio` streams (stdlib only, plus numpy for the mask XOR):

* **HTTP/1.1** — request parsing (request line, headers,
  ``Content-Length`` bodies) and response rendering with keep-alive, for
  the REST control plane (``/tenants``, ``/fleet``, ``/metrics``);
* **WebSocket (RFC 6455)** — the ``Sec-WebSocket-Accept`` handshake and
  a single-frame codec (text/binary/ping/pong/close, 7/16/64-bit
  lengths, client masking) for the persistent per-vehicle streaming
  connections.

Both sides of each protocol live here: the gateway serves with the
unmasked-server rules, and the load generator connects with the
masked-client rules, so one codec is exercised from both ends by every
fleet test.

Frames are never fragmented by either peer (each chunk/verdict payload
is one frame), so the codec rejects ``FIN=0`` rather than carrying
reassembly state.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.errors import FleetError

#: Reason phrases for the status codes the gateway actually emits.
STATUS_PHRASES: Mapping[int, str] = {
    101: "Switching Protocols",
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    426: "Upgrade Required",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Upper bounds keeping a malformed peer from ballooning memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: RFC 6455 handshake GUID (fixed by the spec).
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: WebSocket opcodes used by the gateway.
OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA
#: Every opcode RFC 6455 defines; 0x3-0x7 and 0xB-0xF are reserved.
_DEFINED_OPCODES = frozenset({OP_CONT, OP_TEXT, OP_BINARY, OP_CLOSE, OP_PING, OP_PONG})

#: Close status for a peer that broke the protocol (RFC 6455 7.4.1).
WS_CLOSE_PROTOCOL_ERROR = 1002
#: Control-frame payloads are capped at 125 bytes, 2 of them the status.
_MAX_CLOSE_REASON_BYTES = 123


class ProtocolError(FleetError):
    """The peer sent bytes that are not valid HTTP/WebSocket."""


# ----------------------------------------------------------------------
# HTTP requests
# ----------------------------------------------------------------------

@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request.

    ``headers`` keys are lower-cased; ``query`` values keep the
    ``parse_qs`` list shape so multi-valued parameters survive.
    """

    method: str
    target: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    @property
    def is_websocket_upgrade(self) -> bool:
        return (
            "upgrade" in self.headers.get("connection", "").lower()
            and self.headers.get("upgrade", "").lower() == "websocket"
        )

    def json(self) -> Any:
        """Decode the body as JSON, mapping failures to 400-able errors."""
        if not self.body:
            raise ProtocolError("request body is empty, expected JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc


async def read_http_request(
    reader: asyncio.StreamReader,
    *,
    max_body: int = MAX_BODY_BYTES,
) -> HttpRequest | None:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    Raises :class:`ProtocolError` for malformed requests (bad request
    line, oversize headers/body, non-numeric ``Content-Length``).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # peer closed between requests: normal keep-alive end
        raise ProtocolError("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("request head exceeds the header limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request head exceeds the header limit")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(f"bad Content-Length: {length_text!r}") from None
    if length < 0 or length > max_body:
        raise ProtocolError(f"unacceptable Content-Length: {length}")
    body = await reader.readexactly(length) if length else b""

    parsed = urlparse(target)
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=parsed.path.rstrip("/") or "/",
        query=parse_qs(parsed.query),
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = JSON_CONTENT_TYPE,
    keep_alive: bool = True,
    extra_headers: Mapping[str, str] | None = None,
) -> bytes:
    """Serialise one HTTP/1.1 response."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def render_json(
    status: int, payload: Any, *, keep_alive: bool = True
) -> bytes:
    """A JSON response in the same shape :mod:`repro.obs.server` emits."""
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return render_response(status, body, keep_alive=keep_alive)


# ----------------------------------------------------------------------
# HTTP client side (used by the load generator and the CLI)
# ----------------------------------------------------------------------

async def read_http_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """Parse one response: ``(status, headers, body)``."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
        raise ProtocolError("connection closed before a full response") from exc
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolError(f"malformed status line: {lines[0]!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def http_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    *,
    body: bytes | None = None,
    headers: Mapping[str, str] | None = None,
) -> tuple[int, dict[str, str], bytes]:
    """Issue one keep-alive request over an open connection."""
    payload = body or b""
    lines = [
        f"{method} {path} HTTP/1.1",
        "Host: fleet",
        f"Content-Length: {len(payload)}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
    await writer.drain()
    return await read_http_response(reader)


async def http_json(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    payload: Any | None = None,
) -> tuple[int, Any]:
    """JSON request/response helper: ``(status, decoded body)``."""
    body = None
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
    status, _headers, raw = await http_request(
        reader, writer, method, path, body=body
    )
    decoded: Any = None
    if raw:
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = raw.decode("latin-1")
    return status, decoded


# ----------------------------------------------------------------------
# WebSocket (RFC 6455)
# ----------------------------------------------------------------------

def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's key."""
    digest = hashlib.sha1((key + WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def render_ws_handshake(key: str) -> bytes:
    """The 101 response completing a WebSocket upgrade."""
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n\r\n"
    ).encode("latin-1")


def apply_ws_mask(payload: bytes, mask_key: bytes) -> bytes:
    """XOR ``payload`` with the 4-byte ``mask_key`` repeated (RFC 6455 5.3).

    Masking and unmasking are the same operation.  The XOR runs over
    the whole payload in one numpy call: frames carry ~175 KB chunks,
    and a per-byte Python loop held the event loop for tens of ms.
    """
    n = len(payload)
    key = np.frombuffer(mask_key * ((n + 3) // 4), dtype=np.uint8)[:n]
    return (np.frombuffer(payload, dtype=np.uint8) ^ key).tobytes()


def encode_ws_frame(
    payload: bytes,
    *,
    opcode: int = OP_TEXT,
    mask_key: bytes | None = None,
) -> bytes:
    """Encode one final (FIN=1) frame; clients must pass a 4-byte mask."""
    head = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask_key is not None else 0x00
    length = len(payload)
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += length.to_bytes(2, "big")
    else:
        head.append(mask_bit | 127)
        head += length.to_bytes(8, "big")
    if mask_key is None:
        return bytes(head) + payload
    if len(mask_key) != 4:
        raise ProtocolError("WebSocket mask key must be 4 bytes")
    head += mask_key
    return bytes(head) + apply_ws_mask(payload, mask_key)


def encode_ws_close(status: int, reason: str = "") -> bytes:
    """A server close frame: 2-byte ``status`` then a UTF-8 ``reason``.

    The reason is cut to fit the control-frame limit, on a character
    boundary.
    """
    text = reason.encode("utf-8")[:_MAX_CLOSE_REASON_BYTES]
    text = text.decode("utf-8", "ignore").encode("utf-8")
    return encode_ws_frame(status.to_bytes(2, "big") + text, opcode=OP_CLOSE)


async def read_ws_frame(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """Read one frame: ``(opcode, unmasked payload)``.

    Returns ``(OP_CLOSE, b"")`` when the peer closes the socket without
    a close frame, so session loops have a single exit condition.  A
    peer that closes partway through a frame, sets an RSV bit (no
    extension is ever negotiated) or uses a reserved opcode raises
    :class:`ProtocolError`.
    """
    try:
        head = await reader.readexactly(2)
    except asyncio.IncompleteReadError:
        return OP_CLOSE, b""
    fin = head[0] & 0x80
    opcode = head[0] & 0x0F
    if head[0] & 0x70:
        raise ProtocolError("WebSocket RSV bits set without an extension")
    if opcode not in _DEFINED_OPCODES:
        raise ProtocolError(f"reserved WebSocket opcode 0x{opcode:X}")
    if not fin or opcode == OP_CONT:
        raise ProtocolError("fragmented WebSocket frames are not supported")
    masked = head[1] & 0x80
    length = head[1] & 0x7F
    try:
        if length == 126:
            length = int.from_bytes(await reader.readexactly(2), "big")
        elif length == 127:
            length = int.from_bytes(await reader.readexactly(8), "big")
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"WebSocket frame too large: {length} bytes")
        mask_key = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    if masked:
        payload = apply_ws_mask(payload, mask_key)
    return opcode, payload


def client_handshake_request(path: str, key: str) -> bytes:
    """The upgrade request a connecting vehicle sends."""
    return (
        f"GET {path} HTTP/1.1\r\n"
        "Host: fleet\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\n"
        "Sec-WebSocket-Version: 13\r\n\r\n"
    ).encode("latin-1")


async def client_ws_connect(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    path: str,
    *,
    key_seed: int = 0,
) -> None:
    """Perform the client side of the upgrade, verifying the accept key.

    The nonce is derived from ``key_seed`` rather than OS entropy: the
    key only guards against misbehaving proxies, and a deterministic
    client keeps load-generator runs reproducible.
    """
    nonce = hashlib.sha256(f"vprofile-fleet-{key_seed}".encode()).digest()[:16]
    key = base64.b64encode(nonce).decode("latin-1")
    writer.write(client_handshake_request(path, key))
    await writer.drain()
    status, headers, _body = await read_http_response(reader)
    if status != 101:
        raise ProtocolError(f"WebSocket upgrade refused with status {status}")
    if headers.get("sec-websocket-accept") != websocket_accept(key):
        raise ProtocolError("WebSocket accept key mismatch")


__all__ = [
    "HttpRequest",
    "JSON_CONTENT_TYPE",
    "MAX_BODY_BYTES",
    "MAX_FRAME_BYTES",
    "MAX_HEADER_BYTES",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_CONT",
    "OP_PING",
    "OP_PONG",
    "OP_TEXT",
    "ProtocolError",
    "STATUS_PHRASES",
    "WS_CLOSE_PROTOCOL_ERROR",
    "WS_GUID",
    "apply_ws_mask",
    "client_handshake_request",
    "client_ws_connect",
    "encode_ws_close",
    "encode_ws_frame",
    "http_json",
    "http_request",
    "read_http_request",
    "read_http_response",
    "read_ws_frame",
    "render_json",
    "render_response",
    "render_ws_handshake",
    "websocket_accept",
]
