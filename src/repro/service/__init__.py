"""Job-oriented async service layer over the verification engine.

The public API of the reproduction, redesigned around *jobs*: typed
requests (:class:`VerifyRequest`, :class:`SortRequest`) are submitted
to a :class:`JobManager`, which drives the sharded sweeps through
asyncio with per-shard progress, an ``async for`` failure stream, and
cooperative cancellation.  :class:`ReproServer` exposes the manager
over a dependency-free JSON-lines TCP protocol;
:class:`AsyncServiceClient` / :class:`ServiceClient` speak it.

Entry points::

    python -m repro serve --port 7421 --jobs 2      # run the service
    python -m repro submit verify --width 8          # client round-trip
    python -m repro status <job-id>

or programmatically::

    manager = JobManager(jobs=4)
    job = manager.submit(VerifyRequest(width=10))
    async for event in manager.stream(job.id):
        ...

The names below resolve on first use (PEP 562), so importing one
submodule -- ``repro.service.jobs`` on the CLI's ``verify`` path --
does not load the server, the client or the socket layer under them.
"""

from .. import _lazy_exports

#: Where the service listens unless told otherwise (``serve``/``submit``).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7421

_EXPORTS = {
    "AsyncServiceClient": "client",
    "Job": "jobs",
    "JobManager": "jobs",
    "JobState": "jobs",
    "MAX_VERIFY_WIDTH": "jobs",
    "ReproServer": "server",
    "ServiceClient": "client",
    "ServiceError": "client",
    "SortRequest": "jobs",
    "VerifyRequest": "jobs",
    "request_from_dict": "jobs",
}

__all__ = sorted([*_EXPORTS, "DEFAULT_HOST", "DEFAULT_PORT"])

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
