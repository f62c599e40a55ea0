"""Length-prefixed framing, pluggable codecs, and the two transports.

A message is a ``(kind, payload)`` tuple encoded as ``4-byte big-endian
length || body``.  What the body *is* depends on the codec the transport was
built with:

* :class:`PickleCodec` — pickle bytes.  The default of
  :class:`PipeTransport` only: the trusted seam between the coordinator and
  the shard workers it spawned, which never leaves a multiprocessing pipe.
* ``wire.JsonWireCodec`` — the versioned tagged-JSON envelope
  (``{"v": 1, "kind": ..., "payload": ...}``).  Used on the client/server
  socket seam, where peers are untrusted: decoding never executes bytes.
  :class:`SocketTransport` has no default codec, so pickle can only reach a
  socket when a caller passes it by name.

Both transports enforce :data:`MAX_FRAME_BYTES` *before* allocating a body,
so a hostile length header cannot trigger a multi-GiB allocation.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Optional, Tuple

#: Frame header: unsigned 32-bit big-endian payload length.
_HEADER = struct.Struct(">I")

#: Refuse absurd frames instead of attempting a multi-GiB allocation when a
#: corrupt or hostile peer sends a bogus length header.
MAX_FRAME_BYTES = 1 << 30


class TransportError(ConnectionError):
    """The peer went away (closed pipe/socket, dead process, reset, timeout)."""


class UnknownHandleError(KeyError):
    """A persistent-server request named a handle (or data version) the
    server does not hold.

    Defined here — not in the server module — because the *type name* is
    the wire contract: server-side exceptions cross as ``(type, message,
    traceback)`` and the client recovers (re-registers, re-ships) exactly
    when the type is this one, never by matching message prose.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class DeltaMismatchError(ValueError):
    """An ``apply_delta`` request did not reproduce the claimed content hash.

    Like :class:`UnknownHandleError`, the type name is the wire contract:
    the client falls back to the full register/load dance exactly when the
    server raises this — the delta path is an optimization, never a
    correctness dependency.
    """


class AuthenticationError(PermissionError):
    """The connection did not present the server's auth token."""


class ProtocolVersionError(ConnectionError):
    """The peer speaks a different wire-format version (or none at all)."""


class HandleBusyError(RuntimeError):
    """The handle is mid-batch and the bounded wait expired; retry later."""


class QuotaExceededError(RuntimeError):
    """One client has too many requests queued on a single handle."""


class ServerBusyError(RuntimeError):
    """A handle's request queue is at capacity; back off and retry."""


class ServerDrainingError(RuntimeError):
    """The server is draining for shutdown and no longer accepts work."""


class PickleCodec:
    """Executable codec for the trusted coordinator/worker seam only."""

    name = "pickle"

    @staticmethod
    def encode(message: object) -> bytes:
        return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def decode(body: bytes) -> object:
        return pickle.loads(body)


_PICKLE_CODEC = PickleCodec()


def encode_frame(message: object, codec=None) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    payload = (codec or _PICKLE_CODEC).encode(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {len(payload)} bytes exceeds limit")
    return _HEADER.pack(len(payload)) + payload


def decode_frame(frame: bytes, codec=None) -> object:
    """Inverse of :func:`encode_frame` (validates the embedded length)."""
    if len(frame) < _HEADER.size:
        raise TransportError(f"truncated frame: {len(frame)} bytes")
    (length,) = _HEADER.unpack_from(frame)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {length} bytes exceeds limit")
    body = frame[_HEADER.size :]
    if length != len(body):
        raise TransportError(
            f"frame length header says {length} bytes, got {len(body)}"
        )
    return (codec or _PICKLE_CODEC).decode(body)


class PipeTransport:
    """Frames over a :mod:`multiprocessing` pipe connection.

    The pipe already preserves message boundaries, so the frame travels as
    one ``send_bytes`` payload; the embedded length prefix keeps the bytes
    identical to what the socket transport would carry.
    """

    def __init__(self, connection, codec=None):
        self._connection = connection
        self._codec = codec or _PICKLE_CODEC
        #: Size of the most recently received frame (header + body); the
        #: server uses it as an honest measure of payload memory footprint.
        self.last_recv_bytes = 0

    def send(self, message: object) -> None:
        try:
            self._connection.send_bytes(encode_frame(message, self._codec))
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise TransportError(f"pipe send failed: {exc}") from exc

    def recv(self) -> object:
        try:
            # maxlength bounds the allocation *before* any bytes land; the
            # header check in decode_frame alone would run after
            # Connection.recv_bytes() has already materialised the buffer.
            # MAX_FRAME_BYTES is read at call time so tests can shrink it.
            frame = self._connection.recv_bytes(MAX_FRAME_BYTES + _HEADER.size)
        except (EOFError, OSError, ValueError) as exc:
            raise TransportError(f"pipe closed: {exc}") from exc
        self.last_recv_bytes = len(frame)
        return decode_frame(frame, self._codec)

    def close(self) -> None:
        try:
            self._connection.close()
        except OSError:
            pass


class SocketTransport:
    """Frames over a stream socket: the client/server seam.

    ``codec`` is required: a socket peer may be anyone, so there is no
    executable default.
    """

    def __init__(self, sock: socket.socket, codec):
        self._socket = sock
        self._codec = codec
        self.last_recv_bytes = 0
        # Batch requests are single frames; latency beats throughput here.
        try:
            self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # e.g. AF_UNIX sockets

    def send(self, message: object) -> None:
        try:
            self._socket.sendall(encode_frame(message, self._codec))
        except socket.timeout as exc:
            raise TransportError(f"socket send timed out: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"socket send failed: {exc}") from exc

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._socket.recv(min(remaining, 1 << 20))
            except socket.timeout as exc:
                raise TransportError(f"socket recv timed out: {exc}") from exc
            except OSError as exc:
                raise TransportError(f"socket recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("socket closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> object:
        header = self._recv_exact(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise TransportError(f"frame of {length} bytes exceeds limit")
        self.last_recv_bytes = _HEADER.size + length
        return decode_frame(header + self._recv_exact(length), self._codec)

    def set_timeout(self, value: Optional[float]) -> None:
        """Adjust the socket deadline (None = block indefinitely)."""
        try:
            self._socket.settimeout(value)
        except OSError:
            pass

    def close(self) -> None:
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:
            pass


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` into a connectable pair."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)


def connect(
    address: str,
    timeout: Optional[float] = None,
    request_timeout: Optional[float] = None,
    *,
    codec,
) -> SocketTransport:
    """Open a socket transport to a listening peer (``host:port``).

    ``timeout`` bounds the TCP connect; ``request_timeout`` stays on the
    socket afterwards so a hung peer surfaces as :class:`TransportError`
    instead of blocking forever (``None`` preserves the old blocking
    behaviour).
    """
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(request_timeout)
    return SocketTransport(sock, codec=codec)

