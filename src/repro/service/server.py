"""Dependency-free JSON-lines-over-TCP front-end for the JobManager.

One request per line, one (or, for ``stream``, many) response lines
back -- a protocol a shell script, ``nc``, or any language can speak.
Requests are JSON objects with an ``op`` field:

======== ============================================ ==================
op       request fields                               response
======== ============================================ ==================
ping     --                                           ``{"ok", "pong"}``
submit   ``request``: typed request dict (``kind``:   ``{"ok", "id",
         ``verify``/``sort`` + its fields)            "state"}``
status   ``id``                                       job status dict
result   ``id`` (blocks until the job is terminal)    ``{"ok", "id",
                                                      "state", "error",
                                                      "result"}``
stream   ``id``                                       one ``{"ok",
                                                      "event"}`` line
                                                      per event, ending
                                                      with the ``done``
                                                      event
cancel   ``id``                                       ``{"ok",
                                                      "cancelled"}``
list     --                                           ``{"ok", "jobs",
                                                      "stats"}``
======== ============================================ ==================

Every response carries ``"ok"``; failures are ``{"ok": false,
"error": msg}`` and leave the connection usable, except a line longer
than :data:`~repro.service.LINE_LIMIT` bytes, which is answered so and
ends the connection.  A connection handles one op at a time (pipeline
by opening more connections -- they're cheap, and every connection
shares the one JobManager).

This socket seam is where cross-host sharding (ROADMAP) will plug in:
the shard tasks dispatched by the manager are already picklable and
self-describing, so a remote work-queue executor only needs transport.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

# One wire format for every socket in the repo: the JSON-lines framing
# lives in repro.distributed.wire (shared with the shard coordinator),
# re-exported here for existing importers.
from ..distributed.wire import decode_line, encode_line  # noqa: F401
from . import DEFAULT_HOST, DEFAULT_PORT, LINE_LIMIT
from .jobs import JobManager, request_from_dict

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ReproServer", "encode_line"]


class ReproServer:
    """Serve a :class:`~repro.service.jobs.JobManager` over TCP.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  Use as an async context manager in tests::

        async with ReproServer(JobManager(jobs=2), port=0) as server:
            ... connect to ("127.0.0.1", server.port) ...
    """

    def __init__(
        self,
        manager: Optional[JobManager] = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ):
        self.manager = manager if manager is not None else JobManager()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "ReproServer":
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=LINE_LIMIT
        )
        # Resolve the actual port for port=0 requests.
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.aclose()

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the limit: the rest of the line cannot be told
                    # from the next one, so answer and end the stream.
                    # What the client still sends is read and dropped
                    # until it closes: closing on unread bytes would
                    # reset the connection and lose the answer.
                    writer.write(encode_line({
                        "ok": False,
                        "error": f"line longer than {LINE_LIMIT} bytes",
                    }))
                    writer.write_eof()
                    while await reader.read(1 << 16):
                        pass
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    await self._dispatch(line, writer)
                except (ValueError, KeyError, TypeError) as exc:
                    # Protocol-level problem: report it, keep the
                    # connection; the client may well send a valid op
                    # next.
                    writer.write(
                        encode_line({"ok": False, "error": _error_text(exc)})
                    )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
                # Loop teardown can cancel a handler mid-close; the
                # connection is going away either way.
            ):
                pass

    async def _dispatch(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        msg = decode_line(line)  # shared framing; raises ValueError
        op = msg.get("op")
        handler = {
            "ping": self._op_ping,
            "submit": self._op_submit,
            "status": self._op_status,
            "result": self._op_result,
            "stream": self._op_stream,
            "cancel": self._op_cancel,
            "list": self._op_list,
        }.get(op)
        if handler is None:
            raise ValueError(
                f"unknown op {op!r}; available: cancel, list, ping, result, "
                f"status, stream, submit"
            )
        await handler(msg, writer)

    @staticmethod
    def _job_id(msg: Dict[str, Any]) -> str:
        job_id = msg.get("id")
        if not isinstance(job_id, str) or not job_id:
            raise ValueError(f"op {msg.get('op')!r} needs a job 'id'")
        return job_id

    async def _op_ping(self, msg, writer) -> None:
        writer.write(encode_line({"ok": True, "pong": True}))

    async def _op_submit(self, msg, writer) -> None:
        request = request_from_dict(msg.get("request"))
        job = self.manager.submit(request)
        writer.write(
            encode_line({"ok": True, "id": job.id, "state": job.state.value})
        )

    async def _op_status(self, msg, writer) -> None:
        job = self.manager.get(self._job_id(msg))
        writer.write(encode_line({"ok": True, **job.status()}))

    async def _op_result(self, msg, writer) -> None:
        job = await self.manager.wait(self._job_id(msg))
        writer.write(
            encode_line(
                {
                    "ok": True,
                    "id": job.id,
                    "state": job.state.value,
                    "error": job.error,
                    "progress": job.progress.to_dict(),
                    "result": job.result_payload(),
                }
            )
        )

    async def _op_stream(self, msg, writer) -> None:
        job_id = self._job_id(msg)
        async for event in self.manager.stream(job_id):
            writer.write(encode_line({"ok": True, "event": event}))
            await writer.drain()

    async def _op_cancel(self, msg, writer) -> None:
        cancelled = self.manager.cancel(self._job_id(msg))
        writer.write(encode_line({"ok": True, "cancelled": cancelled}))

    async def _op_list(self, msg, writer) -> None:
        writer.write(
            encode_line(
                {
                    "ok": True,
                    "jobs": self.manager.list_jobs(),
                    "stats": self.manager.stats(),
                }
            )
        )


def _error_text(exc: BaseException) -> str:
    # KeyError reprs its argument; unwrap so clients see the message.
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)
