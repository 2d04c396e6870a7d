"""Clients for the JSON-lines service protocol.

:class:`AsyncServiceClient` speaks the protocol natively inside an
event loop; :class:`ServiceClient` is the blocking wrapper (it owns a
private event loop), used by the ``submit``/``status`` CLI subcommands
and any synchronous scripting.

A client holds one connection and runs one op at a time on it; open
more clients for pipelining.  Both clients raise :class:`ServiceError`
when the server answers ``{"ok": false}``.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Dict, Iterator, Optional, Union

from ..distributed.wire import decode_line, encode_line
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


class AsyncServiceClient:
    """Asyncio client: ``async with AsyncServiceClient(port=p) as c: ...``"""

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "AsyncServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
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
        line = await self._reader.readline()
        if not line:
            raise ServiceError("connection closed by server")
        try:
            msg = decode_line(line)
        except ValueError as exc:
            raise ServiceError(f"malformed response: {exc}") from None
        if not msg.get("ok"):
            raise ServiceError(msg.get("error", "unknown server error"))
        return msg

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
            msg = await self._recv()
            event = msg.get("event")
            if not isinstance(event, dict):
                raise ServiceError(f"malformed stream frame: {msg!r}")
            yield event
            if event.get("event") == "done":
                return


class ServiceClient:
    """Blocking wrapper: same surface, runs a private event loop.

    Safe anywhere *except* inside a running event loop (use
    :class:`AsyncServiceClient` there).
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self._loop = asyncio.new_event_loop()
        self._client = AsyncServiceClient(host, port)

    def _run(self, coro: Any) -> Any:
        return self._loop.run_until_complete(coro)

    def connect(self) -> "ServiceClient":
        try:
            self._run(self._client.connect())
        except BaseException:
            # `with ServiceClient(...) as c` never reaches __exit__ when
            # connect fails -- release the private loop (its selector fd)
            # here instead of leaking one per retry.
            self._loop.close()
            raise
        return self

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._run(self._client.aclose())
        finally:
            self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return self._run(self._client.ping())

    def submit(self, request: RequestLike) -> str:
        return self._run(self._client.submit(request))

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._run(self._client.status(job_id))

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._run(self._client.result(job_id))

    def cancel(self, job_id: str) -> bool:
        return self._run(self._client.cancel(job_id))

    def jobs(self) -> Dict[str, Any]:
        return self._run(self._client.jobs())

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        agen = self._client.stream(job_id)
        while True:
            try:
                yield self._run(agen.__anext__())
            except StopAsyncIteration:
                return

    def wait_for(self, job_id: str) -> Dict[str, Any]:
        """Block until the job is terminal; returns state + payload.

        One ``result`` round trip: the server answers it only once the
        job is done, failed or cancelled (stream the job's events with
        :meth:`stream` to follow its progress instead).
        """
        return self.result(job_id)
