"""Job-oriented async front-end over the sharded verification engine.

The public API redesign: instead of blocking on
:func:`~repro.verify.parallel.verify_two_sort_sharded` or
:func:`~repro.networks.simulate.sort_strings_batch`, clients *submit*
typed requests to a :class:`JobManager` and get back a :class:`Job`
they can poll, stream, and cancel while other jobs run concurrently.

Layering:

* :class:`VerifyRequest` / :class:`SortRequest` are the typed,
  JSON-round-trippable request dataclasses.  Their ``run()`` method is
  the one synchronous code path -- the CLI calls it directly, the
  JobManager calls it on a worker thread -- so a served job and a
  one-shot CLI run are the same computation by construction.
* :class:`JobManager` drives ``run()`` shard-by-shard through asyncio:
  the blocking sweep is offloaded to a thread pool, per-shard progress
  re-enters the event loop via ``call_soon_threadsafe``, and
  cancellation is a ``threading.Event`` the sweep polls between shards
  (:class:`~repro.verify.parallel.SweepCancelled`).  A sort job is one
  shard: it polls the event once, before its batch runs.
* Progress, failures, and state changes are published as event dicts,
  buffered per job (late subscribers replay from the start) and fanned
  out to any number of ``async for`` consumers.

The manager owns a :class:`~repro.store.memory.MemoryStore` LRU, so
re-verifying an unedited circuit skips clean shards; the hit/miss
counters are part of :meth:`JobManager.stats`.

The CLI's ``verify`` and ``sort`` import this module for the request
types alone, so the job machinery's heavy dependencies -- asyncio,
the thread pool, uuid, and the store -- are imported by the methods
that use them, not at module level.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    AsyncIterator,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from ..backends import known_backend_names
from ..core.two_sort import build_two_sort
from ..networks.simulate import ENGINES, sort_shaped_batch
from ..networks.topologies import best_known
from ..verify.exhaustive import VerificationResult
from ..verify.parallel import (
    SweepCancelled,
    available_executors,
    verify_two_sort_sharded,
)

if TYPE_CHECKING:
    from ..store.base import ResultStore

__all__ = [
    "Job",
    "JobManager",
    "JobState",
    "MAX_VERIFY_WIDTH",
    "SortRequest",
    "VerifyRequest",
    "request_from_dict",
]

#: Exhaustive verification stays tractable up to B=13 (268M pairs);
#: beyond that 4^B outgrows any single job.
MAX_VERIFY_WIDTH = 13

#: ``on_shard`` as seen by requests (done, total, shard payload).
OnShard = Callable[[int, int, Any], None]
ShouldStop = Callable[[], bool]


@dataclass(frozen=True)
class VerifyRequest:
    """Exhaustively verify 2-sort(``width``) against the closure spec.

    The service twin of ``python -m repro verify``: same parameters,
    same semantics (``jobs=0`` means one worker per core), same result.

    ``checkpoint`` names a durable shard journal
    (:class:`repro.store.JournalStore`, keyed per whole-circuit shard)
    on the *executing* host: shards already journaled there are
    skipped, fresh ones are appended as they complete, so a killed job
    resubmitted with the same checkpoint resumes instead of restarting.

    ``store`` names a unified result store (a
    :func:`repro.store.open_store` spec, e.g. ``sqlite:results.db``) on
    the executing host.  Unlike a checkpoint it keys results per
    output-cone *region*, so re-verifying after a circuit edit only
    executes the shards of the cones the edit touched, and every
    completed sweep appends an audit record.  Mutually exclusive with
    ``checkpoint``.
    """

    width: int
    jobs: int = 1
    shard_size: Optional[int] = None
    executor: Optional[str] = None
    backend: Optional[str] = None
    checkpoint: Optional[str] = None
    store: Optional[str] = None

    kind: ClassVar[str] = "verify"

    def validate(self) -> None:
        if not 1 <= self.width <= MAX_VERIFY_WIDTH:
            raise ValueError(
                f"width must be in 1..{MAX_VERIFY_WIDTH}, got {self.width} "
                f"(beyond B={MAX_VERIFY_WIDTH} the 4^B pair domain outgrows "
                f"exhaustive verification)"
            )
        if self.checkpoint is not None and (
            not isinstance(self.checkpoint, str) or not self.checkpoint
        ):
            raise ValueError(
                "checkpoint must be a non-empty journal path"
            )
        if self.store is not None and (
            not isinstance(self.store, str) or not self.store
        ):
            raise ValueError("store must be a non-empty store spec")
        if self.store is not None and self.checkpoint is not None:
            raise ValueError(
                "checkpoint and store are mutually exclusive "
                "(a checkpoint is the journal store; pass one or the other)"
            )
        if self.jobs is not None and self.jobs < 0:
            raise ValueError(
                f"jobs must be >= 0 (0 = one worker per core), got {self.jobs}"
            )
        if self.shard_size is not None and self.shard_size <= 0:
            raise ValueError(
                f"shard_size must be a positive lane count, "
                f"got {self.shard_size}"
            )
        if self.executor is not None and (
            self.executor not in available_executors()
        ):
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"available: {available_executors()}"
            )
        names = known_backend_names()
        if self.backend is not None and self.backend not in names:
            raise ValueError(
                f"unknown plane backend {self.backend!r}; "
                f"available: {', '.join(names)}"
            )

    def describe(self) -> str:
        return f"verify 2-sort({self.width})"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "width": self.width}
        if self.jobs != 1:
            out["jobs"] = self.jobs
        for name in ("shard_size", "executor", "backend", "checkpoint", "store"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def run(
        self,
        on_shard: Optional[OnShard] = None,
        should_stop: Optional[ShouldStop] = None,
        cache: Optional[ResultStore] = None,
        store: Optional[ResultStore] = None,
    ) -> VerificationResult:
        """The single synchronous code path (CLI, service, and tests).

        ``store`` is an already-open :class:`repro.store.base.ResultStore`
        handle (the CLI opens ``--store`` itself so it can report the
        handle's counters afterwards); when it is None but the request
        carries a ``store`` spec, the store is opened -- and closed --
        here.  A caller-provided ``cache`` (the server-wide memory
        store) is layered behind the per-request store or checkpoint
        journal so jobs on one server still share warm results.
        """
        self.validate()
        circuit = build_two_sort(self.width)
        opened = None
        journal = None
        if store is None and self.store is not None:
            from ..store import open_store

            store = opened = open_store(self.store)
        if self.checkpoint is not None:
            from ..store import JournalStore, StackedStore

            journal = JournalStore(self.checkpoint)
            cache = StackedStore(journal, cache)
        if store is not None and cache is not None:
            from ..store import StackedStore

            store = StackedStore(store, cache)
            cache = None
        try:
            return verify_two_sort_sharded(
                circuit,
                self.width,
                jobs=self.jobs or None,
                shard_size=self.shard_size,
                executor=self.executor,
                backend=self.backend,
                on_shard=on_shard,
                should_stop=should_stop,
                cache=cache,
                store=store,
            )
        finally:
            if journal is not None:
                journal.close()
            if opened is not None:
                opened.close()

    def result_to_dict(self, result: VerificationResult) -> Dict[str, Any]:
        return result.to_dict()


@dataclass(frozen=True)
class SortRequest:
    """Sort batches of valid Gray-code words through the paper's network.

    ``vectors`` carries words as plain strings (the JSON interchange
    form, ``'m'`` reading as ``M``); each inner tuple is one measurement
    vector.  All vectors must have the same channel count and word
    width, at least one bit.  The batch runs in the executing process;
    a sort takes no ``jobs``, ``shard_size`` or ``executor``.
    """

    vectors: Tuple[Tuple[str, ...], ...]
    engine: str = "compiled"

    kind: ClassVar[str] = "sort"

    @classmethod
    def single(cls, values: List[str], **kwargs: Any) -> "SortRequest":
        """One measurement vector (the CLI ``sort`` form)."""
        return cls(vectors=(tuple(values),), **kwargs)

    def validate(self) -> None:
        """Check the request's shape; a ValueError names the problem.

        The checks run once per request object, however many entry
        points call this (the wire decoder, :meth:`JobManager.submit`,
        :meth:`run`): the request is frozen, so a pass stays a pass.
        This is the one walk over the words for shape; a pass records
        their width, which :meth:`run` hands to the sort.
        """
        if "_width" in self.__dict__:
            return
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown simulation engine {self.engine!r}; "
                f"available: {sorted(ENGINES)}"
            )
        if not self.vectors:
            raise ValueError("sort request needs at least one vector")
        channels = set(map(len, self.vectors))
        if len(channels) != 1:
            raise ValueError(
                f"all vectors must have the same channel count, got {sorted(channels)}"
            )
        words = list(itertools.chain.from_iterable(self.vectors))
        if set(map(type, words)) != {str}:
            # Only a batch with a non-`str` type walks the words, to
            # name the first one that is not a string.
            for s in words:
                if not isinstance(s, str):
                    # A JSON number would lose a Gray word's leading zeros.
                    raise ValueError(
                        f"words must be strings over 0/1/M, got "
                        f"{type(s).__name__} {s!r}"
                    )
        widths = set(map(len, words))
        if len(widths) > 1:
            raise ValueError("all inputs must share one width")
        if widths == {0}:
            raise ValueError("words must be at least one bit wide")
        # Past the frozen __setattr__; no dataclass field, so equality,
        # hashing and to_dict() never see it.  An int, not the words:
        # a finished job keeps one copy of them, in ``vectors``.
        self.__dict__["_width"] = next(iter(widths), 0)

    def describe(self) -> str:
        n = len(self.vectors)
        ch = len(self.vectors[0]) if self.vectors else 0
        return f"sort {n} vector(s) x {ch} channel(s)"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "vectors": [list(v) for v in self.vectors],
            "engine": self.engine,
        }

    def run(
        self,
        on_shard: Optional[OnShard] = None,
        should_stop: Optional[ShouldStop] = None,
    ) -> List[List[str]]:
        """Sort every vector; identical to the CLI ``sort`` semantics.

        The shape is checked by :meth:`validate` (once per request, so
        a request the wire decoder or :class:`JobManager` already checked
        is not walked again), and the batch runs in this process as one
        :func:`~repro.networks.simulate.sort_shaped_batch` call with the
        width that check found, so the words are not walked for shape a
        second time.  It reads and writes the bit planes straight from
        and into the joined strings and checks every word against the
        valid strings on the planes it packs (a bad word raises what
        :func:`~repro.graycode.valid.validate` raises for the first
        one).  The result is rows of word strings (``M`` upper-case); no
        :class:`~repro.ternary.word.Word` or
        :class:`~repro.circuits.compiled.TritVec` is built.

        The hooks are those :class:`JobManager` passes every request: a
        true ``should_stop()`` before the sort raises
        :class:`~repro.verify.parallel.SweepCancelled`, and the sorted
        batch is reported as one shard, ``on_shard(1, 1, rows)``.
        """
        self.validate()
        if should_stop is not None and should_stop():
            raise SweepCancelled([])
        network = best_known(len(self.vectors[0]))
        rows = sort_shaped_batch(
            network, self.vectors, self.__dict__["_width"], self.engine
        )
        if on_shard is not None:
            on_shard(1, 1, rows)
        return rows

    def result_to_dict(self, result: List[List[str]]) -> Dict[str, Any]:
        return {"vectors": result}


Request = Union[VerifyRequest, SortRequest]

_REQUEST_KINDS: Dict[str, type] = {
    VerifyRequest.kind: VerifyRequest,
    SortRequest.kind: SortRequest,
}


def request_from_dict(data: Dict[str, Any]) -> Request:
    """Rebuild a typed request from its wire form (strict on fields)."""
    if not isinstance(data, dict):
        raise ValueError(f"request must be a JSON object, got {type(data).__name__}")
    data = dict(data)
    kind = data.pop("kind", None)
    try:
        cls = _REQUEST_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown request kind {kind!r}; available: {sorted(_REQUEST_KINDS)}"
        ) from None
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise ValueError(
            f"unknown {kind} request field(s): {sorted(unknown)}"
        )
    if cls is SortRequest and "vectors" in data:
        vectors = data["vectors"]
        # A flat ["0110", ...] would iterate char-by-char into width-1
        # words and "succeed" with garbage -- demand the nested shape.
        if not isinstance(vectors, (list, tuple)) or any(
            not isinstance(v, (list, tuple)) for v in vectors
        ):
            raise ValueError(
                "vectors must be a list of lists of strings "
                "(one inner list per measurement vector)"
            )
        data["vectors"] = tuple(tuple(v) for v in vectors)
    request = cls(**data)
    request.validate()
    return request


# ----------------------------------------------------------------------
# Job lifecycle
# ----------------------------------------------------------------------
class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: Event-history bounds: a running B=13 sweep publishes ~2.6k progress
#: events, so the running cap never bites normal jobs; after a job
#: finishes only a short tail (always including ``done``) is kept, so
#: retained terminal jobs cost O(1) memory each.
EVENTS_KEEP_RUNNING = 8192
EVENTS_KEEP_TERMINAL = 32


@dataclass
class JobProgress:
    """Cumulative per-shard counters, updated as shards finish."""

    shards_done: int = 0
    shards_total: int = 0
    checked: int = 0
    failure_count: int = 0
    items_done: int = 0  # sort jobs: vectors sorted so far

    def to_dict(self) -> Dict[str, int]:
        # Flat int fields: a shallow copy is what asdict's deep copy gives.
        return dict(self.__dict__)


class Job:
    """One submitted request and everything observable about it.

    Created by :meth:`JobManager.submit`; not constructed directly.
    All mutation happens on the manager's event loop, so readers on
    that loop see a consistent snapshot.
    """

    def __init__(self, job_id: str, request: Request):
        import asyncio

        self.id = job_id
        self.request = request
        self.state = JobState.QUEUED
        self.progress = JobProgress()
        self.result: Any = None
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: Ordered event history; late stream subscribers replay it.
        #: Bounded: the oldest events are compacted away past
        #: ``EVENTS_KEEP_RUNNING`` (and down to ``EVENTS_KEEP_TERMINAL``
        #: once the job finishes); ``events_dropped`` counts them so
        #: streamers can skip forward instead of misindexing.
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self._cancel = threading.Event()
        self._done = asyncio.Event()
        self._changed = asyncio.Event()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def status(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.request.kind,
            "request": self.request.to_dict(),
            "state": self.state.value,
            "progress": self.progress.to_dict(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
        }

    def result_payload(self) -> Optional[Dict[str, Any]]:
        if self.result is None:
            return None
        return self.request.result_to_dict(self.result)


class JobManager:
    """Submits, schedules, observes, and cancels jobs on one event loop.

    ``jobs`` bounds how many submitted jobs *run* concurrently (the
    rest wait in queue order); each running job occupies one thread of
    an internal pool.  A verify job may itself fan out over process or
    remote workers via its request's ``jobs``/``executor`` fields; a
    sort job runs on its thread.  Constructed and used from within a
    running event loop.
    """

    def __init__(
        self,
        jobs: int = 2,
        cache_size: int = 8192,
        keep_finished: int = 256,
        store: Optional[ResultStore] = None,
    ):
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

        from ..store import MemoryStore, StackedStore

        self.max_jobs = max(1, jobs)
        #: Terminal jobs retained for status/result queries; beyond
        #: this the oldest are evicted so a long-lived server doesn't
        #: accumulate every result and event history forever.
        self.keep_finished = max(1, keep_finished)
        #: The server-wide result store every verify job consults.  By
        #: default an in-process LRU; with ``store`` (an open
        #: :class:`~repro.store.base.ResultStore`, e.g. ``serve
        #: --store``) a durable backend fronted by that LRU, so results
        #: survive restarts.  Jobs reach it as ``cache=``, keyed per
        #: whole-circuit shard, so ``verify --store`` runs against the
        #: same path, which key output cones, share none of it.
        memory = MemoryStore(maxsize=cache_size)
        self.store: ResultStore = (
            memory if store is None else StackedStore(store, memory)
        )
        self._jobs: Dict[str, Job] = {}
        self._sem = asyncio.Semaphore(self.max_jobs)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_jobs, thread_name_prefix="repro-job"
        )
        self._tasks: set = set()
        self._seq = itertools.count(1)

    # -- accounting ----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        by_state: Dict[str, int] = {}
        for job in self._jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        return {
            "jobs": by_state,
            "max_jobs": self.max_jobs,
            "cache": self.store.stats(),
            # The uniform observability block (same shape as the CLI's
            # `verify --json` store section), including audit counters.
            "store": dict(
                self.store.counters(), runs=len(self.store.runs())
            ),
        }

    # -- submission / lookup -------------------------------------------
    def submit(self, request: Request) -> Job:
        """Validate, enqueue, and start driving a request; returns its Job."""
        import asyncio
        import uuid

        request.validate()  # fail fast, before a job exists
        job_id = f"j{next(self._seq):04d}-{uuid.uuid4().hex[:6]}"
        job = Job(job_id, request)
        self._jobs[job.id] = job
        self._publish(job, {"event": "state", "state": JobState.QUEUED.value})
        task = asyncio.get_running_loop().create_task(self._drive(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def list_jobs(self) -> List[Dict[str, Any]]:
        return [job.status() for job in self._jobs.values()]

    async def wait(self, job_id: str) -> Job:
        job = self.get(job_id)
        await job._done.wait()
        return job

    def cancel(self, job_id: str) -> bool:
        """Request cooperative cancellation; True if the job could still stop.

        A queued job is finalised immediately; a running one stops at
        the next shard boundary.  Terminal jobs return False.
        """
        job = self.get(job_id)
        if job.terminal:
            return False
        job._cancel.set()
        if job.state is JobState.QUEUED:
            self._finish(job, JobState.CANCELLED)
        return True

    # -- event stream --------------------------------------------------
    async def stream(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Replay a job's event history, then follow it live to the end.

        Yields event dicts in publish order and returns after the
        terminal ``done`` event -- the ``async for`` failure/progress
        stream.  Any number of consumers may stream one job.  Event
        history is bounded (:data:`EVENTS_KEEP_RUNNING` /
        :data:`EVENTS_KEEP_TERMINAL`), so a consumer that subscribes
        very late or falls far behind skips the compacted-away prefix;
        the terminal event is always delivered.
        """
        job = self.get(job_id)
        pos = 0  # absolute event index (compaction-aware)
        while True:
            base = job.events_dropped
            if pos < base:
                pos = base  # prefix compacted away; skip forward
            if pos - base < len(job.events):
                event = job.events[pos - base]
                pos += 1
                yield event
                if event.get("event") == "done":
                    return
                continue
            # No await between the length check and clear(): publishes
            # only happen on this loop, so no event can slip past.
            job._changed.clear()
            await job._changed.wait()

    # -- internals -----------------------------------------------------
    def _publish(self, job: Job, event: Dict[str, Any]) -> None:
        event = dict(event)
        event["id"] = job.id
        event["ts"] = time.time()
        job.events.append(event)
        if len(job.events) > EVENTS_KEEP_RUNNING:
            self._compact_events(job, EVENTS_KEEP_RUNNING)
        job._changed.set()

    @staticmethod
    def _compact_events(job: Job, keep: int) -> None:
        excess = len(job.events) - keep
        if excess > 0:
            del job.events[:excess]
            job.events_dropped += excess

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        job.finished = time.time()
        event: Dict[str, Any] = {
            "event": "done",
            "state": state.value,
            "progress": job.progress.to_dict(),
        }
        if job.error is not None:
            event["error"] = job.error
        self._publish(job, event)
        job._done.set()
        # Terminal jobs keep only a short event tail (ending in `done`),
        # so the retained-job window is O(1) memory per job.
        self._compact_events(job, EVENTS_KEEP_TERMINAL)
        self._evict_finished()

    def _evict_finished(self) -> None:
        """Drop the oldest terminal jobs past the retention bound."""
        terminal = [j for j in self._jobs.values() if j.terminal]
        for job in terminal[: max(0, len(terminal) - self.keep_finished)]:
            del self._jobs[job.id]

    def _on_shard(self, job: Job, done: int, total: int, payload: Any) -> None:
        """Runs on the event loop (scheduled from the job's thread)."""
        progress = job.progress
        progress.shards_done = done
        progress.shards_total = total
        if isinstance(payload, VerificationResult):
            progress.checked += payload.checked
            progress.failure_count += payload.failure_count
            for message in payload.failures:
                self._publish(job, {"event": "failure", "message": message})
        else:
            progress.items_done += len(payload)
        self._publish(job, {"event": "progress", **progress.to_dict()})

    async def _drive(self, job: Job) -> None:
        import asyncio

        async with self._sem:
            if job.terminal or job._cancel.is_set():
                if not job.terminal:
                    self._finish(job, JobState.CANCELLED)
                return
            loop = asyncio.get_running_loop()
            job.state = JobState.RUNNING
            job.started = time.time()
            self._publish(
                job, {"event": "state", "state": JobState.RUNNING.value}
            )

            def on_shard(done: int, total: int, payload: Any) -> None:
                loop.call_soon_threadsafe(
                    self._on_shard, job, done, total, payload
                )

            body = partial(
                job.request.run,
                on_shard=on_shard,
                should_stop=job._cancel.is_set,
            )
            if isinstance(job.request, VerifyRequest):
                body = partial(body, cache=self.store)
            try:
                result = await loop.run_in_executor(self._pool, body)
            except SweepCancelled:
                self._finish(job, JobState.CANCELLED)
            except Exception as exc:  # surfaced to the client, not the loop
                job.error = f"{type(exc).__name__}: {exc}"
                self._finish(job, JobState.FAILED)
            else:
                job.result = result
                if isinstance(result, VerificationResult) and job.started:
                    result.elapsed = time.time() - job.started
                self._finish(job, JobState.DONE)

    async def aclose(self) -> None:
        """Cancel whatever is still running and release the thread pool."""
        import asyncio

        for job in self._jobs.values():
            if not job.terminal:
                job._cancel.set()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._pool.shutdown(wait=True)
