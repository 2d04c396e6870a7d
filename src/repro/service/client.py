"""Clients for the JSON-lines service protocol.

:class:`AsyncServiceClient` speaks the protocol natively inside an
event loop; :class:`ServiceClient` is the blocking client, used by the
``submit``/``status`` CLI subcommands and any synchronous scripting.
It runs no event loop: each op is one line sent and read over a
:class:`~repro.distributed.wire.LineChannel`, the blocking JSON-lines
socket the distributed worker speaks, with ``TCP_NODELAY`` set as
asyncio's transports set it.

A client holds one connection and runs one op at a time on it; open
more clients for pipelining.  Both clients raise :class:`ServiceError`
when the server answers ``{"ok": false}``, sends a line that is not a
JSON object, or closes the connection (one check, :func:`_reply`).
Both read lines up to :data:`~repro.service.LINE_LIMIT` bytes, as the
server does, and raise :class:`ServiceError` naming the bound on a
longer one.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, AsyncIterator, Dict, Iterator, Optional, Union

from ..distributed.wire import (
    LINE_LIMIT, LineChannel, LineTooLong, decode_line, encode_line,
)
from . import DEFAULT_HOST, DEFAULT_PORT
from .jobs import Request, SortRequest, VerifyRequest, request_from_dict

__all__ = ["AsyncServiceClient", "ServiceClient", "ServiceError"]

RequestLike = Union[Request, Dict[str, Any]]


class ServiceError(RuntimeError):
    """The server reported a failure (or the connection dropped)."""


def _as_request_dict(request: RequestLike) -> Dict[str, Any]:
    if isinstance(request, (VerifyRequest, SortRequest)):
        return request.to_dict()
    if isinstance(request, dict):
        # Validate client-side too: catches typos before a round-trip.
        return request_from_dict(request).to_dict()
    raise TypeError(
        f"request must be a VerifyRequest, SortRequest, or dict, "
        f"got {type(request).__name__}"
    )


def _reply(msg: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Both clients' response check: ``msg`` is the next decoded line,
    or None at end of stream."""
    if msg is None:
        raise ServiceError("connection closed by server")
    if not msg.get("ok"):
        raise ServiceError(msg.get("error", "unknown server error"))
    return msg


def _stream_event(msg: Dict[str, Any]) -> Dict[str, Any]:
    event = msg.get("event")
    if not isinstance(event, dict):
        raise ServiceError(f"malformed stream frame: {msg!r}")
    return event


class AsyncServiceClient:
    """Asyncio client: ``async with AsyncServiceClient(port=p) as c: ...``"""

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "AsyncServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=LINE_LIMIT
        )
        return self

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc: Any) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    async def _send(self, payload: Dict[str, Any]) -> None:
        if self._writer is None:
            await self.connect()
        assert self._writer is not None
        self._writer.write(encode_line(payload))
        await self._writer.drain()

    async def _recv(self) -> Dict[str, Any]:
        assert self._reader is not None, "not connected"
        try:
            line = await self._reader.readline()
        except ValueError:  # the reader's limit
            raise ServiceError(
                f"response line longer than {LINE_LIMIT} bytes"
            ) from None
        try:
            msg = decode_line(line) if line else None
        except ValueError as exc:
            raise ServiceError(f"malformed response: {exc}") from None
        return _reply(msg)

    async def call(self, **payload: Any) -> Dict[str, Any]:
        await self._send(payload)
        return await self._recv()

    # ------------------------------------------------------------------
    async def ping(self) -> bool:
        return bool((await self.call(op="ping")).get("pong"))

    async def submit(self, request: RequestLike) -> str:
        """Submit a job; returns its id immediately."""
        response = await self.call(
            op="submit", request=_as_request_dict(request)
        )
        return response["id"]

    async def status(self, job_id: str) -> Dict[str, Any]:
        return await self.call(op="status", id=job_id)

    async def result(self, job_id: str) -> Dict[str, Any]:
        """Block until the job is terminal; returns state + payload."""
        return await self.call(op="result", id=job_id)

    async def cancel(self, job_id: str) -> bool:
        return bool((await self.call(op="cancel", id=job_id)).get("cancelled"))

    async def jobs(self) -> Dict[str, Any]:
        return await self.call(op="list")

    async def stream(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Yield the job's events (progress/failure/state) through ``done``."""
        await self._send({"op": "stream", "id": job_id})
        while True:
            event = _stream_event(await self._recv())
            yield event
            if event.get("event") == "done":
                return


class ServiceClient:
    """Blocking client: same surface as :class:`AsyncServiceClient`.

    Connects on :meth:`connect` (or ``with``), else on the first op.
    It runs no event loop, so it also works inside one (where it blocks
    the loop for each round trip).
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self.host = host
        self.port = port
        self._channel: Optional[LineChannel] = None

    def connect(self) -> "ServiceClient":
        if self._channel is None:
            # create_connection closes its socket when the dial fails.
            sock = socket.create_connection((self.host, self.port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._channel = LineChannel(sock)
        return self

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _send(self, payload: Dict[str, Any]) -> None:
        self.connect()
        self._channel.send(payload)

    def _recv(self) -> Dict[str, Any]:
        assert self._channel is not None, "not connected"
        try:
            msg = self._channel.recv()
        except LineTooLong as exc:
            # The rest of the line would read as the next response.
            self.close()
            raise ServiceError(
                f"response line longer than {exc.limit} bytes"
            ) from None
        except ValueError as exc:
            raise ServiceError(f"malformed response: {exc}") from None
        return _reply(msg)

    def call(self, **payload: Any) -> Dict[str, Any]:
        self._send(payload)
        return self._recv()

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.call(op="ping").get("pong"))

    def submit(self, request: RequestLike) -> str:
        """Submit a job; returns its id immediately."""
        return self.call(op="submit", request=_as_request_dict(request))["id"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.call(op="status", id=job_id)

    def result(self, job_id: str) -> Dict[str, Any]:
        """Block until the job is terminal; returns state + payload."""
        return self.call(op="result", id=job_id)

    def cancel(self, job_id: str) -> bool:
        return bool(self.call(op="cancel", id=job_id).get("cancelled"))

    def jobs(self) -> Dict[str, Any]:
        return self.call(op="list")

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield the job's events (progress/failure/state) through ``done``."""
        self._send({"op": "stream", "id": job_id})
        while True:
            event = _stream_event(self._recv())
            yield event
            if event.get("event") == "done":
                return

    def wait_for(self, job_id: str) -> Dict[str, Any]:
        """Block until the job is terminal; returns state + payload.

        One ``result`` round trip: the server answers it only once the
        job is done, failed or cancelled (stream the job's events with
        :meth:`stream` to follow its progress instead).
        """
        return self.result(job_id)
