"""Work-queue coordinator: lease shards to workers, merge in order.

The cross-host half of the ROADMAP's scaling story.  A
:class:`ShardCoordinator` owns a queue of shard tasks (the same
picklable units :func:`repro.verify.parallel.run_sharded` dispatches to
local pools), listens on a TCP port, and *leases* tasks to whatever
:mod:`repro.distributed.worker` agents connect -- so one sweep spans as
many hosts as care to attach, with no configuration beyond the
coordinator's address.

Failure model
-------------
Work is never lost and never double-merged:

* every leased task carries a deadline; a worker refreshes its leases
  with heartbeats (and implicitly with any message it sends).  A lease
  that expires -- worker wedged, network gone -- is re-queued at the
  front of the pending queue;
* a dropped connection (crash, ``kill -9``) re-queues that worker's
  leases immediately;
* results are recorded first-write-wins per task index, so a slow
  worker completing an already re-run shard is counted as ``late`` (or
  ``duplicate``) and ignored rather than merged twice.

Determinism
-----------
Results arrive in whatever order workers finish, but
:meth:`BatchHandle.collect` releases them strictly in task order --
the contract every local executor already obeys -- so the merged
:class:`~repro.verify.exhaustive.VerificationResult` is byte-identical
to a serial run no matter how many workers, how they race, or how
often shards were re-leased.

Threading: the coordinator is plain threads + one lock (no asyncio),
so it can be driven from synchronous callers -- the CLI, the service
layer's job threads -- without loop plumbing.  Connection handlers,
the lease reaper, and submitting threads all synchronize on
``self._lock``; per-batch completion is signalled through a condition
on that same lock.

Security: like ``multiprocessing``, the protocol moves pickles between
machines that trust each other.  Bind to an interface reachable only
by your own cluster.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..verify.parallel import SweepCancelled
from .wire import DEFAULT_WORK_PORT, LineChannel, pack, unpack

__all__ = ["BatchHandle", "ShardCoordinator"]

#: Terminal batches retained (as summary dicts) for stats after their
#: submitter collected them; the batches themselves -- task pickles and
#: results -- are freed at retirement so a long-lived coordinator
#: (``serve --listen``) does not accumulate every sweep it ever ran.
HISTORY_KEEP = 64


class _Worker:
    """Connection-scoped record of one attached worker agent."""

    __slots__ = (
        "id", "name", "last_seen", "results", "channel",
        "range_size", "lease_rpcs", "tasks_leased", "last_lease_time",
    )

    def __init__(self, worker_id: str, name: str, channel):
        self.id = worker_id
        self.name = name
        self.last_seen = time.monotonic()
        self.results = 0
        self.channel = channel
        #: Adaptive shard-range width for this worker: starts at one
        #: task per "next" RPC, doubles when the previous range was
        #: fully completed quickly, halves when one of its leases
        #: expires -- amortizing RPC cost without over-committing work
        #: to a slow or flaky worker.
        self.range_size = 1
        self.lease_rpcs = 0
        self.tasks_leased = 0
        self.last_lease_time: Optional[float] = None


class _Batch:
    """One submitted task list and its progress."""

    __slots__ = (
        "id", "worker_fn", "init", "epoch", "tasks", "pending", "leases",
        "results", "error", "cancelled", "requeued", "late", "duplicates",
        "payload_sent",
    )

    def __init__(self, batch_id, worker_fn, init, epoch, tasks):
        self.id = batch_id
        self.worker_fn = worker_fn  # packed
        self.init = init  # packed (initializer, initargs)
        self.epoch: Dict[str, Any] = epoch
        self.tasks: List[str] = tasks  # packed, one per index
        self.pending: deque = deque(range(len(tasks)))
        #: index -> (worker_id, monotonic deadline)
        self.leases: Dict[int, Tuple[str, float]] = {}
        self.results: Dict[int, Any] = {}
        self.error: Optional[str] = None
        self.cancelled = False
        self.requeued = 0
        self.late = 0
        self.duplicates = 0
        #: workers that already received the worker_fn/init payload
        self.payload_sent: set = set()

    @property
    def done(self) -> bool:
        return len(self.results) == len(self.tasks)

    def requeue_lease(self, index: int) -> None:
        del self.leases[index]
        if index not in self.results and not self.cancelled:
            self.pending.appendleft(index)
            self.requeued += 1


class BatchHandle:
    """The submitting side's view of one batch (returned by ``submit``)."""

    def __init__(self, coordinator: "ShardCoordinator", batch: _Batch):
        self._coordinator = coordinator
        self._batch = batch

    @property
    def id(self) -> str:
        return self._batch.id

    def cancel(self) -> None:
        self._coordinator._cancel_batch(self._batch)

    def collect(
        self,
        on_result: Optional[Callable[[int, Any], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        poll: float = 0.2,
    ) -> List[Any]:
        """Block until every task has a result; stream them in order.

        ``on_result(i, result)`` fires in strict task order as soon as
        result ``i`` *and all before it* exist -- out-of-order arrivals
        are buffered, which is what keeps distributed merges
        deterministic.  ``should_stop()`` is polled at least every
        ``poll`` seconds; a true return cancels the batch (pending
        tasks dropped, in-flight results ignored) and raises
        :class:`~repro.verify.parallel.SweepCancelled` with the ordered
        prefix completed so far.  A worker-side failure or coordinator
        shutdown raises ``RuntimeError``.

        However collect ends, the batch is *retired*: its task and
        result storage is freed and only a summary dict survives in
        :meth:`ShardCoordinator.stats`.
        """
        batch = self._batch
        cond = self._coordinator._cond
        out: List[Any] = []
        total = len(batch.tasks)
        try:
            while True:
                fresh: List[Any] = []
                with cond:
                    if batch.error is not None:
                        raise RuntimeError(
                            f"distributed batch {batch.id} failed: "
                            f"{batch.error}"
                        )
                    while len(out) + len(fresh) < total:
                        i = len(out) + len(fresh)
                        if i not in batch.results:
                            break
                        fresh.append(batch.results[i])
                    complete = len(out) + len(fresh) == total
                    if not complete and not fresh:
                        cond.wait(timeout=poll)
                # Hooks run outside the lock: on_result may call back
                # into arbitrary code (the service layer schedules loop
                # work).
                for result in fresh:
                    out.append(result)
                    if on_result is not None:
                        on_result(len(out) - 1, result)
                if should_stop is not None and should_stop():
                    self.cancel()
                    raise SweepCancelled(out)
                if len(out) == total:
                    return out
        finally:
            self._coordinator._retire_batch(batch)


class ShardCoordinator:
    """Serve a shard work queue to remote workers over TCP.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  ``lease_timeout`` is how long a worker may sit on
    a leased shard without any message before it is re-queued; workers
    are told to heartbeat at a third of that.

    Usage::

        coord = ShardCoordinator(port=7422).start()
        handle = coord.submit(worker_fn, tasks, initializer=..., initargs=...)
        results = handle.collect()          # blocks; ordered
        coord.close()

    Callers normally never touch this directly: the ``"distributed"``
    executor (:mod:`repro.distributed.executor`) wraps ``submit`` +
    ``collect`` behind the ordinary
    :func:`~repro.verify.parallel.run_sharded` interface.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_WORK_PORT,
        lease_timeout: float = 30.0,
        wait_delay: float = 0.25,
        max_range: int = 32,
    ):
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.wait_delay = wait_delay
        #: Ceiling on the adaptive per-worker shard-range width
        #: (``max_range=1`` degrades to the one-task-per-RPC protocol).
        self.max_range = max(1, max_range)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._batches: "Dict[str, _Batch]" = {}
        #: Summaries of retired batches, bounded (stats continuity).
        self._history: deque = deque(maxlen=HISTORY_KEEP)
        self._workers: Dict[str, _Worker] = {}
        self._batch_seq = itertools.count(1)
        self._worker_seq = itertools.count(1)
        # Batch IDs carry a per-coordinator nonce so a worker replaying
        # a result from before a coordinator *restart* hits "unknown
        # batch" (safely discarded) instead of colliding with a fresh
        # batch that reused the same sequence number.
        self._nonce = _short_hash(f"{os.getpid()}:{time.time_ns()}")[:6]
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._closing = False
        self.requeued_total = 0
        #: "next" RPCs answered with a task range / tasks handed out --
        #: their ratio is the range-lease amortization factor the bench
        #: tracks.
        self.lease_rpcs_total = 0
        self.tasks_leased_total = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardCoordinator":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        for target, name in (
            (self._accept_loop, "repro-coord-accept"),
            (self._reaper_loop, "repro-coord-reaper"),
        ):
            t = threading.Thread(target=target, name=name, daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def close(self) -> None:
        """Stop serving: fail unfinished batches, say bye to workers."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            for batch in self._batches.values():
                if not batch.done and batch.error is None:
                    batch.error = "coordinator closed"
            workers = list(self._workers.values())
            self._cond.notify_all()
        for worker in workers:
            try:
                worker.channel.send({"ok": True, "kind": "bye"})
            except OSError:
                pass
            worker.channel.close()
        self._close_listener()

    def kill(self) -> None:
        """Abrupt death -- the SIGKILL equivalent for chaos tests.

        Every socket vanishes with no goodbye: workers see their
        connection drop mid-conversation, exactly what a crashed host
        looks like, and must fall back to their reconnect supervisor.
        Unlike :meth:`close` no batch is failed gracefully -- state is
        simply abandoned, as it would be in a dead process.
        """
        with self._cond:
            self._closing = True
            workers = list(self._workers.values())
            self._cond.notify_all()
        self._close_listener()
        for worker in workers:
            worker.channel.close()

    def _close_listener(self) -> None:
        """Close the listener *and* reap the accept thread.

        ``close()`` alone leaves the accept thread blocked in
        ``accept()`` on the dead fd; if a later socket in this process
        reuses that fd number (say, a restarted coordinator binding the
        same port), the zombie thread steals its connections.  A
        ``shutdown`` wakes the blocked ``accept`` immediately so the
        thread exits before the fd can be recycled.
        """
        if self._listener is None:
            return
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        accept_thread = self._threads[0] if self._threads else None
        if (
            accept_thread is not None
            and accept_thread is not threading.current_thread()
        ):
            accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ShardCoordinator":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit(
        self,
        worker: Callable[[Any], Any],
        tasks: List[Any],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
        epoch: Optional[Dict[str, Any]] = None,
    ) -> BatchHandle:
        """Queue ``tasks`` for remote execution; returns a handle.

        ``worker``/``initializer`` must be picklable by reference
        (module-level functions -- the same constraint local process
        pools impose).  ``epoch`` is the
        :class:`~repro.verify.exhaustive.SweepEpoch` dict describing
        the shared setup; workers use it to reuse compiled circuits
        across batches and to validate circuit identity.
        """
        init_packed = pack((initializer, initargs))
        if epoch is None:
            # Opaque fallback: batches with identical setup payloads
            # still share a worker-side epoch (keyed on the pickle).
            epoch = {"kind": "opaque", "setup_id": _short_hash(init_packed)}
        batch = _Batch(
            batch_id=f"b{next(self._batch_seq):04d}-{self._nonce}",
            worker_fn=pack(worker),
            init=init_packed,
            epoch=epoch,
            tasks=[pack(t) for t in tasks],
        )
        with self._cond:
            if self._closing:
                raise RuntimeError("coordinator is closed")
            self._batches[batch.id] = batch
            if not tasks:
                self._cond.notify_all()
        return BatchHandle(self, batch)

    def stats(self) -> Dict[str, Any]:
        """Queue/lease/worker counters (also served as a wire op)."""
        with self._lock:
            return {
                "host": self.host,
                "port": self.port,
                "lease_timeout": self.lease_timeout,
                "max_range": self.max_range,
                "requeued_total": self.requeued_total,
                "lease_rpcs_total": self.lease_rpcs_total,
                "tasks_leased_total": self.tasks_leased_total,
                "workers": [
                    {
                        "id": w.id,
                        "name": w.name,
                        "results": w.results,
                        "range_size": w.range_size,
                        "lease_rpcs": w.lease_rpcs,
                        "tasks_leased": w.tasks_leased,
                        "leases": sum(
                            1
                            for b in self._batches.values()
                            for (wid, _) in b.leases.values()
                            if wid == w.id
                        ),
                    }
                    for w in self._workers.values()
                ],
                "batches": list(self._history)
                + [self._batch_summary(b) for b in self._batches.values()],
            }

    @staticmethod
    def _batch_summary(b: _Batch) -> Dict[str, Any]:
        return {
            "id": b.id,
            "epoch": b.epoch,
            "tasks": len(b.tasks),
            "pending": len(b.pending),
            "leased": len(b.leases),
            "done": len(b.results),
            "requeued": b.requeued,
            "late": b.late,
            "duplicates": b.duplicates,
            "cancelled": b.cancelled,
            "error": b.error,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cancel_batch(self, batch: _Batch) -> None:
        with self._cond:
            batch.cancelled = True
            batch.pending.clear()
            batch.leases.clear()
            self._cond.notify_all()

    def _retire_batch(self, batch: _Batch) -> None:
        """Forget a collected batch, keeping only its stats summary.

        Late results for a retired batch are ignored (the submitter is
        gone), so the coordinator's live state is bounded by in-flight
        work, not by every sweep it ever served."""
        with self._cond:
            if self._batches.pop(batch.id, None) is not None:
                self._history.append(self._batch_summary(batch))

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closing:
                    conn.close()
                    return
            t = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-coord-conn",
                daemon=True,
            )
            t.start()

    def _reaper_loop(self) -> None:
        """Re-queue leases whose deadline passed (wedged/silent worker)."""
        while True:
            time.sleep(max(0.05, self.lease_timeout / 4))
            with self._cond:
                if self._closing:
                    return
                now = time.monotonic()
                expired = 0
                for batch in self._batches.values():
                    for index, (wid, deadline) in list(batch.leases.items()):
                        if deadline < now:
                            # Expiry is evidence the worker bit off more
                            # than it chews: shrink its range grant.
                            holder = self._workers.get(wid)
                            if holder is not None:
                                holder.range_size = max(
                                    1, holder.range_size // 2
                                )
                            batch.requeue_lease(index)
                            expired += 1
                if expired:
                    self.requeued_total += expired
                    self._cond.notify_all()

    def _serve_connection(self, conn: socket.socket) -> None:
        channel = LineChannel(conn)
        worker: Optional[_Worker] = None
        try:
            while True:
                msg = channel.recv()
                if msg is None:
                    return
                op = msg.get("op")
                if op == "hello":
                    worker = self._register_worker(msg, channel)
                    channel.send(
                        {
                            "ok": True,
                            "worker_id": worker.id,
                            "lease_timeout": self.lease_timeout,
                            "heartbeat": self.lease_timeout / 3,
                            "wait_delay": self.wait_delay,
                        }
                    )
                elif op == "stats":
                    channel.send({"ok": True, "stats": self.stats()})
                elif op == "batch_info":
                    channel.send(self._batch_info(msg))
                elif worker is None:
                    channel.send(
                        {"ok": False, "error": f"op {op!r} before hello"}
                    )
                elif op == "next":
                    channel.send(self._lease_next(worker))
                elif op == "result":
                    self._record_result(worker, msg)
                elif op == "error":
                    self._record_error(worker, msg)
                elif op == "heartbeat":
                    self._touch(worker)
                elif op == "goodbye":
                    return
                else:
                    channel.send({"ok": False, "error": f"unknown op {op!r}"})
        except (ValueError, KeyError, TypeError, ConnectionError, OSError):
            # Malformed line/fields or dropped transport: the finally
            # clause re-queues this worker's leases either way.
            return
        finally:
            channel.close()
            if worker is not None:
                self._drop_worker(worker)

    def _register_worker(self, msg: Dict[str, Any], channel) -> _Worker:
        with self._lock:
            worker = _Worker(
                worker_id=f"w{next(self._worker_seq):03d}",
                name=str(msg.get("name") or "worker"),
                channel=channel,
            )
            self._workers[worker.id] = worker
            return worker

    def _drop_worker(self, worker: _Worker) -> None:
        """Forget a worker and re-queue everything it still leased."""
        with self._cond:
            self._workers.pop(worker.id, None)
            requeued = 0
            for batch in self._batches.values():
                for index, (wid, _deadline) in list(batch.leases.items()):
                    if wid == worker.id:
                        batch.requeue_lease(index)
                        requeued += 1
            if requeued:
                self.requeued_total += requeued
                self._cond.notify_all()

    def _touch(self, worker: _Worker) -> None:
        """Any sign of life refreshes every lease the worker holds."""
        with self._lock:
            worker.last_seen = time.monotonic()
            deadline = worker.last_seen + self.lease_timeout
            for batch in self._batches.values():
                for index, (wid, _old) in list(batch.leases.items()):
                    if wid == worker.id:
                        batch.leases[index] = (wid, deadline)

    def _worker_lease_count_locked(self, worker_id: str) -> int:
        return sum(
            1
            for b in self._batches.values()
            for (wid, _) in b.leases.values()
            if wid == worker_id
        )

    def _lease_next(self, worker: _Worker) -> Dict[str, Any]:
        """Lease a contiguous run of pending tasks to ``worker``.

        One "next" RPC grants up to ``worker.range_size`` tasks from the
        front of the pending queue -- contiguous in queue order, so an
        undisturbed sweep hands each worker ascending shard runs.  The
        grant is capped by a fairness share (ceil(pending / workers)) so
        a grown range cannot starve newly attached workers.  Every task
        in the range gets its *own* lease entry: results stream back per
        index (partial-range reporting), and a mid-range death only
        re-queues the unreported tail.
        """
        with self._lock:
            now = time.monotonic()
            worker.last_seen = now
            worker.lease_rpcs += 1
            self.lease_rpcs_total += 1
            if self._closing:
                return {"ok": True, "kind": "bye"}
            for batch in self._batches.values():
                if batch.error is not None or batch.cancelled or not batch.pending:
                    continue
                # Grow the range when the worker drained its previous
                # grant fast (no lease still open, back within a
                # quarter lease): the per-RPC overhead is then the
                # dominant cost and doubling amortizes it.
                if (
                    worker.last_lease_time is not None
                    and now - worker.last_lease_time < self.lease_timeout / 4
                    and self._worker_lease_count_locked(worker.id) == 0
                ):
                    worker.range_size = min(
                        self.max_range, worker.range_size * 2
                    )
                share = -(-len(batch.pending) // max(1, len(self._workers)))
                count = min(
                    worker.range_size, len(batch.pending), max(1, share)
                )
                deadline = now + self.lease_timeout
                items: List[List[Any]] = []
                for _ in range(count):
                    index = batch.pending.popleft()
                    batch.leases[index] = (worker.id, deadline)
                    items.append([index, batch.tasks[index]])
                worker.last_lease_time = now
                worker.tasks_leased += count
                self.tasks_leased_total += count
                reply: Dict[str, Any] = {
                    "ok": True,
                    "kind": "task",
                    "batch": batch.id,
                    "items": items,
                    "epoch": batch.epoch,
                }
                if worker.id not in batch.payload_sent:
                    batch.payload_sent.add(worker.id)
                    reply["payload"] = {
                        "worker_fn": batch.worker_fn,
                        "init": batch.init,
                    }
                return reply
            return {"ok": True, "kind": "wait", "delay": self.wait_delay}

    def _batch_info(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Re-serve a batch's setup payload (worker pruned or missed it)."""
        with self._lock:
            batch = self._batches.get(str(msg.get("batch")))
            if batch is None:
                return {
                    "ok": False,
                    "error": f"unknown batch {msg.get('batch')!r}",
                }
            return {
                "ok": True,
                "batch": batch.id,
                "epoch": batch.epoch,
                "payload": {"worker_fn": batch.worker_fn, "init": batch.init},
            }

    def _record_result(self, worker: _Worker, msg: Dict[str, Any]) -> None:
        with self._cond:
            worker.last_seen = time.monotonic()
            worker.results += 1
            # A result mid-range is as good as a heartbeat: refresh the
            # deadlines of everything else this worker still holds.
            deadline = worker.last_seen + self.lease_timeout
            for b in self._batches.values():
                for index, (wid, _old) in list(b.leases.items()):
                    if wid == worker.id:
                        b.leases[index] = (wid, deadline)
            batch = self._batches.get(str(msg.get("batch")))
            if batch is None or batch.cancelled:
                return
            index = int(msg["index"])
            if not 0 <= index < len(batch.tasks):
                return  # never a shard of this batch; don't unpickle it
            if index in batch.results:
                batch.leases.pop(index, None)
                batch.duplicates += 1  # an expired lease was re-run first
                return
        # Validated against a live batch; unpack outside the lock
        # (results can be sizeable pickles).
        value = unpack(msg["result"])
        with self._cond:
            if batch.cancelled or index in batch.results:
                if index in batch.results:
                    batch.duplicates += 1
                batch.leases.pop(index, None)
                return
            lease = batch.leases.pop(index, None)
            if lease is None:
                batch.late += 1  # expired, but the original got here first
                try:
                    batch.pending.remove(index)
                except ValueError:
                    pass
            batch.results[index] = value
            self._cond.notify_all()

    def _record_error(self, worker: _Worker, msg: Dict[str, Any]) -> None:
        with self._cond:
            worker.last_seen = time.monotonic()
            batch = self._batches.get(str(msg.get("batch")))
            if batch is None:
                return
            if batch.error is None:
                batch.error = (
                    f"worker {worker.id} ({worker.name}) on task "
                    f"{msg.get('index')}: {msg.get('error')}"
                )
            batch.pending.clear()
            self._cond.notify_all()


def _short_hash(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
