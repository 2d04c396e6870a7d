"""JSON-lines wire format shared by every socket seam in the repo.

One message per line, each line one JSON object -- the framing the
service layer (:mod:`repro.service.server`) introduced and the
distributed shard queue (:mod:`repro.distributed.coordinator` /
``worker``) now speaks too.  This module is the single owner of that
framing so the two stacks cannot drift: :func:`encode_line` /
:func:`decode_line` are the codec, :func:`pack` / :func:`unpack` carry
Python payloads (shard tasks, :class:`VerificationResult`\\ s, compiled
initializers) that have no natural JSON form as base64 pickles inside
a JSON field, and :class:`LineChannel` wraps a blocking socket for the
synchronous endpoints (the worker agent, tests, ``nc``-style tools).
:data:`LINE_LIMIT` bounds a line on every endpoint of both stacks.

Dependency-free by design: both sides of every connection are this
repository, but nothing here assumes more than a byte stream.
"""

from __future__ import annotations

import base64
import json
import pickle
import select
import socket
import threading
import time
from typing import Any, Dict, Optional

__all__ = [
    "ChannelTimeout",
    "DEFAULT_WORK_PORT",
    "LINE_LIMIT",
    "LineChannel",
    "LineTooLong",
    "decode_line",
    "encode_line",
    "pack",
    "unpack",
]

#: Default port of the distributed shard coordinator (the job service
#: uses 7421; keeping them distinct lets one host run both).
DEFAULT_WORK_PORT = 7422

#: The longest line, in bytes before its newline, that any endpoint
#: reads: :class:`LineChannel` (the coordinator, the worker and the
#: blocking service client), the service server and
#: :class:`~repro.service.AsyncServiceClient` (asyncio's
#: ``StreamReader`` limit; its default, 64 KiB, is a 400-vector
#: 10 x 16-bit sort).  64 MiB carries a sort request of some 300,000
#: such vectors, which one in-process batch takes seconds to sort,
#: while still bounding what one connection can make its reader buffer.
LINE_LIMIT = 64 << 20

#: Sentinel distinguishing "no per-call timeout given" from an explicit
#: ``timeout=None`` (block forever).
_UNSET = object()


class LineTooLong(ValueError):
    """A line longer than :data:`LINE_LIMIT` bytes arrived.

    :meth:`LineChannel.recv` drops what it had buffered of the line, so
    the rest of it cannot be told from the next one: end the connection.
    """

    def __init__(self, limit: int):
        super().__init__(f"line longer than {limit} bytes")
        self.limit = limit


class ChannelTimeout(OSError):
    """No complete line arrived within the allotted read window.

    Raised by :meth:`LineChannel.recv` *instead of blocking forever* on
    a half-open socket (peer vanished without FIN/RST -- the failure
    mode a SIGKILLed host or a dropped NAT mapping produces).  The
    channel stays usable: any bytes of a partial line already received
    are kept buffered, so a later ``recv`` resumes exactly where this
    one stopped -- no message is torn by timing out.
    """


def encode_line(obj: Dict[str, Any]) -> bytes:
    """One message as one newline-terminated JSON line."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line; raises ``ValueError`` on malformed input."""
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(msg, dict):
        raise ValueError(
            f"message must be a JSON object, got {type(msg).__name__}"
        )
    return msg


def pack(obj: Any) -> str:
    """Pickle ``obj`` into a JSON-safe ascii string (base64)."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack(data: str) -> Any:
    """Inverse of :func:`pack`."""
    return pickle.loads(base64.b64decode(data.encode("ascii")))


class LineChannel:
    """A blocking socket speaking one JSON object per line.

    Thread model: any thread may :meth:`send` (writes are serialized by
    an internal lock -- the worker's heartbeat thread and result
    callbacks interleave safely with its main loop), but only one
    thread may :meth:`recv`/:meth:`request` at a time.  The protocols
    built on this keep response-matching trivial by construction: only
    the main loop sends ops that expect a reply.

    Reads are buffered in this object (not a ``makefile`` reader), so a
    read *timeout* is safe: ``read_timeout`` (or a per-call
    ``timeout=``) bounds how long :meth:`recv` waits for a complete
    line before raising :class:`ChannelTimeout`, and a partial line is
    retained across the timeout.  Timeouts are implemented with
    ``select`` rather than ``settimeout`` so a concurrent ``send``
    never inherits a read deadline.
    """

    def __init__(
        self, sock: socket.socket, read_timeout: Optional[float] = None
    ):
        sock.settimeout(None)  # reads are select-bounded, writes blocking
        self._sock = sock
        self._buf = bytearray()
        # Bytes at the head of _buf already searched for a newline, so a
        # long line is scanned once, not once per received chunk.
        self._scanned = 0
        self._wlock = threading.Lock()
        self._closed = False
        self.read_timeout = read_timeout

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
    ) -> "LineChannel":
        """Dial out; ``timeout`` bounds the connect, ``read_timeout``
        becomes the channel's default recv window."""
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock, read_timeout=read_timeout)

    def send(self, obj: Dict[str, Any]) -> None:
        self.send_raw(encode_line(obj))

    def send_raw(self, data: bytes) -> None:
        """Write raw bytes (the chaos harness's truncation seam)."""
        with self._wlock:
            self._sock.sendall(data)

    def _pop_line(self) -> Optional[Dict[str, Any]]:
        """Decode and remove the first complete buffered line, if any.

        Raises :class:`LineTooLong`, with the buffer dropped, on a line
        longer than :data:`LINE_LIMIT`, or once more than that many
        bytes are buffered with no newline among them.
        """
        while True:
            nl = self._buf.find(b"\n", self._scanned)
            if (len(self._buf) if nl < 0 else nl) > LINE_LIMIT:
                self._buf.clear()
                self._scanned = 0
                raise LineTooLong(LINE_LIMIT)
            if nl < 0:
                self._scanned = len(self._buf)
                return None
            line = bytes(self._buf[: nl + 1])
            del self._buf[: nl + 1]
            self._scanned = 0
            if line.strip():
                return decode_line(line)

    def recv(self, timeout: Any = _UNSET) -> Optional[Dict[str, Any]]:
        """Next message, or ``None`` on orderly EOF.

        ``timeout`` overrides the channel's ``read_timeout`` for this
        call (``None`` = block forever); expiry raises
        :class:`ChannelTimeout` with any partial line kept buffered.  A
        line longer than :data:`LINE_LIMIT` raises :class:`LineTooLong`
        as soon as more than that many bytes of it are buffered.
        """
        effective = self.read_timeout if timeout is _UNSET else timeout
        deadline = (
            None if effective is None else time.monotonic() + effective
        )
        while True:
            msg = self._pop_line()
            if msg is not None:
                return msg
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ChannelTimeout(
                        f"no complete line within {effective}s"
                    )
                try:
                    ready, _, _ = select.select([self._sock], [], [], remaining)
                except (OSError, ValueError):
                    # Socket closed under us (close() from another
                    # thread): orderly end of channel.
                    return None
                if not ready:
                    raise ChannelTimeout(
                        f"no complete line within {effective}s"
                    )
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                if self._closed:
                    return None
                raise
            if not chunk:
                return None  # EOF (a torn trailing partial line is dropped)
            self._buf.extend(chunk)

    def request(
        self, obj: Dict[str, Any], timeout: Any = _UNSET
    ) -> Dict[str, Any]:
        """Send one message and block for its reply (EOF is an error)."""
        self.send(obj)
        reply = self.recv(timeout=timeout)
        if reply is None:
            raise ConnectionError("connection closed while awaiting reply")
        return reply

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Shut the socket down FIRST: it unblocks any thread sitting in
        # recv()/select (the coordinator closes channels whose handler
        # thread is mid-read).
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "LineChannel":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
