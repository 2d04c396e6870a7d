"""Worker agent: pull leased shards from a coordinator and run them.

``python -m repro worker --connect HOST:PORT`` starts one
:class:`ShardWorker`.  It dials *out* to the coordinator (so worker
boxes need no open ports) and then pulls task *ranges* one lease at a
time, running each task inline in the agent process.  One agent runs
one task at a time, so a host contributes N cores by running N
workers: the coordinator caps each grant at a per-worker share of the
pending queue, which spreads a sweep over all of them.

The worker picks no plane backend: a sweep's initargs name the one it
resolved, and everything else runs ``bigint``.

**Epochs.**  Tasks arrive tagged with their
:class:`~repro.verify.exhaustive.SweepEpoch`: the ``(circuit, backend,
width)`` setup every shard of one sweep shares.  The worker keys its
compile state on the epoch, so the circuit is unpickled and validated
(its :meth:`~repro.circuits.netlist.Circuit.content_hash` must match
the coordinator's -- a mismatch refuses the batch rather than merging
wrong results) once per epoch, and compiled once however many shards
of that sweep it executes: the epoch's initializer runs again only
when the agent switches to it from another sweep's tasks.

**Result stores.**  When the coordinator's sweep runs against a
shareable :class:`~repro.store.base.ResultStore` (``verify --store
sqlite:PATH``), the store's *spec* rides the epoch's initargs exactly
like the backend name: the worker-side initializer opens its own
handle (:func:`repro.store.shared_store`) and the region task worker
consults the store -- get, then claim -- *before executing* a leased
range, so a range whose results already exist (from a previous run,
another worker, or another host on a shared path) completes without
any plane work, and two workers racing one key never double-execute.

**Liveness.**  A daemon thread heartbeats at the interval the
coordinator announces, refreshing this worker's leases; every reply
wait is bounded (:class:`~repro.distributed.wire.ChannelTimeout`), so
a half-open socket -- peer SIGKILLed, NAT entry dropped -- can never
wedge the agent: a timeout while the heartbeat thread is still
delivering is retried, a timeout past the lease deadline (or with a
dead heartbeat) declares the connection lost.

**Self-healing.**  The agent is *supervised*: a lost connection (and
an initially absent coordinator -- startup order does not matter) is
redialed with jittered exponential backoff, up to ``retry_max``
consecutive failures.  Results whose send failed are kept in a replay
buffer and re-sent after reconnecting; the coordinator's
first-write-wins accounting (plus restart-unique batch IDs) makes a
replay either land exactly once or be safely discarded.  The agent
exits when the coordinator says ``bye``, ``stop`` is set, or the
retry budget is exhausted (``ConnectionError``).
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..circuits.netlist import Circuit
from .wire import (
    DEFAULT_WORK_PORT,
    ChannelTimeout,
    LineChannel,
    pack,
    unpack,
)

__all__ = ["ShardWorker"]

#: Epochs kept live per agent; a long-running worker serving many
#: distinct sweeps releases the least-recently-used setup instead of
#: accumulating one per sweep ever seen.
MAX_LIVE_EPOCHS = 4
#: Per-batch routing entries retained (batches complete without any
#: notice to workers, so old entries are pruned by recency).
MAX_BATCH_ROUTES = 64


class _EpochState:
    """Worker-side setup shared by every task of one epoch."""

    __slots__ = ("key", "initializer", "initargs")

    def __init__(self, key: str, initializer, initargs):
        self.key = key
        self.initializer = initializer
        self.initargs = initargs


class _EpochMismatch(RuntimeError):
    """The unpickled circuit is not the one the coordinator described."""


class _ConnectionLost(ConnectionError):
    """This session's transport died; the supervisor should redial."""


def _epoch_key(meta: Dict[str, Any]) -> str:
    return json.dumps(meta, sort_keys=True, separators=(",", ":"))


class ShardWorker:
    """One supervised worker agent (see module docstring).

    ``throttle`` sleeps that many seconds after each completed task --
    a load-shaping knob, and what tests use to hold a lease open long
    enough to kill the worker mid-sweep; it must be finite and >= 0
    (``ValueError`` otherwise: a sleep that raises after every task
    would re-lease the same range forever).  ``stop`` (an optional
    ``threading.Event`` passed to :meth:`run`) makes in-process agents
    shut down cleanly: the goodbye re-queues any leased-but-unfinished
    shards immediately.

    Reconnection knobs: ``retry_max`` bounds *consecutive* failed
    connect attempts (a successful session resets the count);
    ``backoff_base`` and ``backoff_max`` shape the jittered exponential
    delay between attempts (``retry_max=0`` restores fail-fast dialing
    for tests and impatient scripts).  ``seed`` pins the jitter for
    reproducible chaos runs; ``channel_wrapper`` is the fault-injection
    seam (:class:`repro.testing.chaos.FlakyChannel`) -- it wraps every
    freshly connected channel, heartbeats included.
    """

    def __init__(
        self,
        host: str,
        port: int = DEFAULT_WORK_PORT,
        name: Optional[str] = None,
        throttle: float = 0.0,
        retry_max: int = 10,
        backoff_base: float = 0.5,
        backoff_max: float = 15.0,
        connect_timeout: float = 5.0,
        seed: Optional[int] = None,
        channel_wrapper: Optional[Callable[[LineChannel], Any]] = None,
    ):
        if not (math.isfinite(throttle) and throttle >= 0):
            raise ValueError(
                f"throttle must be a finite delay >= 0 seconds, got "
                f"{throttle!r}"
            )
        self.host = host
        self.port = port
        self.name = name or f"worker@{host}"
        self.throttle = throttle
        self.retry_max = max(0, retry_max)
        self.backoff_base = max(0.0, backoff_base)
        self.backoff_max = max(self.backoff_base, backoff_max)
        self.connect_timeout = connect_timeout
        self.channel_wrapper = channel_wrapper
        self.completed = 0
        #: Sessions established after the first (telemetry for tests).
        self.reconnects = 0
        #: Buffered results re-sent after a reconnect.
        self.replayed = 0
        self._rng = random.Random(seed)
        self._epochs: "OrderedDict[str, _EpochState]" = OrderedDict()
        self._batch_epoch: "OrderedDict[str, str]" = OrderedDict()
        self._batch_fn: Dict[str, Callable[[Any], Any]] = {}
        self._active_key: Optional[str] = None
        self._replay: List[Dict[str, Any]] = []
        self._replay_lock = threading.Lock()
        # Session liveness, refreshed by the heartbeat thread; defaults
        # cover the window before the first hello reply.
        self._heartbeat = 2.0
        self._lease_timeout = 15.0
        self._hb_last = 0.0
        self._hb_dead = False
        self._greeted = False

    # ------------------------------------------------------------------
    def run(self, stop: Optional[threading.Event] = None) -> int:
        """Serve (and keep re-dialing) until the coordinator says bye,
        ``stop`` is set, or ``retry_max`` consecutive connects fail.

        Returns the number of task results this agent sent; raises
        ``ConnectionError`` when the retry budget is exhausted.
        """
        attempts = 0
        connected_before = False
        while not self._stop_requested(stop):
            try:
                channel = LineChannel.connect(
                    self.host, self.port, timeout=self.connect_timeout
                )
            except OSError as exc:
                attempts += 1
                if attempts > self.retry_max:
                    raise ConnectionError(
                        f"coordinator at {self.host}:{self.port} "
                        f"unreachable after {attempts} connect "
                        f"attempt(s): {exc}"
                    ) from exc
                if self._sleep(self._backoff_delay(attempts), stop):
                    break
                continue
            if connected_before:
                self.reconnects += 1
            connected_before = True
            self._greeted = False
            try:
                orderly = self._session(channel, stop)
            finally:
                try:
                    channel.send({"op": "goodbye"})
                except OSError:
                    pass
                channel.close()
            if orderly:
                break
            if self._greeted:
                # A real conversation happened: the budget counts
                # *consecutive* failures, so it refills here.
                attempts = 0
            else:
                # Connected but never got a hello-ok (e.g. a proxy
                # whose upstream is down accepts then hangs up):
                # counts against the budget and backs off, or this
                # would be a tight redial loop.
                attempts += 1
                if attempts > self.retry_max:
                    raise ConnectionError(
                        f"coordinator at {self.host}:{self.port} "
                        f"unreachable after {attempts} connect "
                        f"attempt(s): connected but the handshake "
                        f"never completed"
                    )
                if self._sleep(self._backoff_delay(attempts), stop):
                    break
        return self.completed

    @staticmethod
    def _sleep(delay: float, stop: Optional[threading.Event]) -> bool:
        """Sleep ``delay`` seconds; True if ``stop`` fired meanwhile."""
        if stop is not None:
            return stop.wait(delay)
        time.sleep(delay)
        return False

    def _backoff_delay(self, attempts: int) -> float:
        """Jittered exponential backoff for connect attempt ``attempts``."""
        base = min(
            self.backoff_max, self.backoff_base * (2 ** (attempts - 1))
        )
        return base * (0.5 + self._rng.random() * 0.5)

    @staticmethod
    def _stop_requested(stop: Optional[threading.Event]) -> bool:
        return stop is not None and stop.is_set()

    # ------------------------------------------------------------------
    def _session(
        self, channel: LineChannel, stop: Optional[threading.Event]
    ) -> bool:
        """One connected conversation; True = orderly end (don't redial)."""
        if self.channel_wrapper is not None:
            channel = self.channel_wrapper(channel)
        # Batch routing never survives a session: batch IDs are unique
        # per coordinator incarnation, so entries from the previous
        # connection can only be garbage here.  (Epoch compile state is
        # content-addressed and carries over untouched.)
        self._batch_fn.clear()
        self._batch_epoch.clear()
        self._hb_dead = False
        self._hb_last = time.monotonic()
        try:
            hello = self._request(channel, {"op": "hello", "name": self.name})
        except (ConnectionError, OSError, ValueError):
            return False
        if not hello.get("ok"):
            raise RuntimeError(f"coordinator refused hello: {hello}")
        self._greeted = True
        self._heartbeat = float(hello.get("heartbeat") or 5.0)
        self._lease_timeout = float(hello.get("lease_timeout") or 30.0)
        hb_stop = threading.Event()
        hb = threading.Thread(
            target=self._heartbeat_loop,
            args=(channel, self._heartbeat, hb_stop),
            name="repro-worker-heartbeat",
            daemon=True,
        )
        hb.start()
        try:
            self._flush_replay(channel)
            return self._serve(channel, stop)
        except (ConnectionError, OSError, ValueError):
            return False
        finally:
            hb_stop.set()

    def _request(
        self, channel: LineChannel, msg: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Send one op and await its reply, never blocking forever.

        The coordinator answers every op immediately, so waiting is
        only ever transport trouble.  Each recv is a short bounded
        slice: a timeout while the heartbeat thread still delivers is
        retried (satellite of the half-open-socket fix -- live peer,
        slow wire), but once the total wait passes the lease deadline
        (or the heartbeat has died) the connection is declared lost so
        the supervisor can redial.
        """
        try:
            channel.send(msg)
        except OSError as exc:
            raise _ConnectionLost(f"send failed: {exc}") from exc
        deadline = time.monotonic() + max(
            self._lease_timeout, 4 * self._heartbeat
        )
        slice_s = min(max(self._heartbeat, 0.2), 1.0)
        while True:
            try:
                reply = channel.recv(timeout=slice_s)
            except ChannelTimeout:
                if self._hb_dead or time.monotonic() > deadline:
                    raise _ConnectionLost(
                        "no reply within the lease window (half-open "
                        "connection)"
                    ) from None
                continue
            except OSError as exc:
                raise _ConnectionLost(f"recv failed: {exc}") from exc
            if reply is None:
                raise _ConnectionLost("connection closed by coordinator")
            return reply

    # ------------------------------------------------------------------
    def _serve(
        self, channel: LineChannel, stop: Optional[threading.Event]
    ) -> bool:
        while not self._stop_requested(stop):
            reply = self._request(channel, {"op": "next"})
            kind = reply.get("kind")
            if kind == "bye" or not reply.get("ok"):
                return True
            if kind == "wait":
                self._sleep(float(reply.get("delay") or 0.25), stop)
            else:
                self._execute(channel, reply, stop)
        return True

    def _execute(
        self,
        channel: LineChannel,
        reply: Dict[str, Any],
        stop: Optional[threading.Event],
    ) -> None:
        batch = str(reply["batch"])
        items = reply["items"]
        first_index = int(items[0][0])
        try:
            epoch, worker_fn = self._resolve_epoch(channel, batch, reply)
            tasks = [(int(i), unpack(t)) for i, t in items]
        except _ConnectionLost:
            raise
        except Exception as exc:
            self._send_error(channel, batch, first_index, exc)
            return
        try:
            if self._active_key != epoch.key:
                if epoch.initializer is not None:
                    epoch.initializer(*epoch.initargs)
                self._active_key = epoch.key
        except Exception as exc:
            self._send_error(channel, batch, first_index, exc)
            return
        for index, task in tasks:
            if self._stop_requested(stop):
                # Abandon the unexecuted tail: the goodbye (or the
                # lease deadline) re-queues it -- partial-range
                # reporting means everything already sent counts.
                return
            try:
                result = worker_fn(task)
            except Exception as exc:
                self._send_error(channel, batch, index, exc)
                return
            if self.throttle:
                time.sleep(self.throttle)
            self._post_result(channel, batch, index, pack(result))

    # ------------------------------------------------------------------
    # Result / error delivery (replay-buffered)
    # ------------------------------------------------------------------
    def _post_result(
        self, channel, batch: str, index: int, packed: str
    ) -> None:
        msg = {"op": "result", "batch": batch, "index": index,
               "result": packed}
        try:
            channel.send(msg)
        except OSError as exc:
            # Keep the computed result: it is replayed on the next
            # session (first-write-wins upstream makes that idempotent,
            # and restart-unique batch IDs make it safe to discard).
            with self._replay_lock:
                self._replay.append(msg)
            raise _ConnectionLost(f"result send failed: {exc}") from exc
        self.completed += 1

    def _flush_replay(self, channel) -> None:
        with self._replay_lock:
            msgs, self._replay = self._replay, []
        if not msgs:
            return
        for k, msg in enumerate(msgs):
            try:
                channel.send(msg)
            except OSError as exc:
                with self._replay_lock:
                    self._replay = msgs[k:] + self._replay
                raise _ConnectionLost(
                    f"replay send failed: {exc}"
                ) from exc
            self.completed += 1
            self.replayed += 1

    def _send_error(self, channel, batch: str, index: int, exc) -> None:
        # Errors are not replay-buffered: if the send is lost the lease
        # expires and the shard re-runs (re-raising) on a live
        # connection, so the failure still surfaces.
        try:
            channel.send(
                {
                    "op": "error",
                    "batch": batch,
                    "index": index,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
        except OSError as send_exc:
            raise _ConnectionLost(
                f"error send failed: {send_exc}"
            ) from send_exc

    # ------------------------------------------------------------------
    def _resolve_epoch(
        self, channel: LineChannel, batch: str, reply: Dict[str, Any]
    ) -> Tuple[_EpochState, Callable[[Any], Any]]:
        """Find (or build, once) the setup shared by this task's sweep."""
        meta = reply.get("epoch") or {}
        payload = reply.get("payload")
        if payload is None and not (
            self._batch_epoch.get(batch) in self._epochs
            and batch in self._batch_fn
        ):
            # The coordinator sends the setup payload once per worker
            # per batch; if this agent has since pruned it (or never
            # saw it), ask again rather than failing the batch.
            info = self._request(channel, {"op": "batch_info", "batch": batch})
            if not info.get("ok"):
                raise RuntimeError(
                    f"coordinator has no setup for batch {batch!r}: "
                    f"{info.get('error')}"
                )
            payload = info["payload"]
            meta = info.get("epoch") or meta
        key = _epoch_key(meta)
        if payload is not None:
            self._batch_fn[batch] = unpack(payload["worker_fn"])
            if key not in self._epochs:
                initializer, initargs = unpack(payload["init"])
                self._validate_epoch(meta, initargs)
                self._epochs[key] = _EpochState(key, initializer, initargs)
                self._prune_epochs(keep=key)
            self._batch_epoch[batch] = key
            while len(self._batch_epoch) > MAX_BATCH_ROUTES:
                old, _ = self._batch_epoch.popitem(last=False)
                self._batch_fn.pop(old, None)
        epoch_key = self._batch_epoch[batch]
        self._epochs.move_to_end(epoch_key)
        self._batch_epoch.move_to_end(batch)
        return self._epochs[epoch_key], self._batch_fn[batch]

    def _prune_epochs(self, keep: str) -> None:
        """Release least-recently-used epochs.

        Never touches ``keep`` (the epoch just installed) or the
        active setup.
        """
        for key in list(self._epochs):
            if len(self._epochs) <= MAX_LIVE_EPOCHS:
                return
            if key not in (keep, self._active_key):
                del self._epochs[key]

    @staticmethod
    def _validate_epoch(meta: Dict[str, Any], initargs: Tuple) -> None:
        expected = meta.get("circuit_hash")
        if not expected:
            return
        circuits = [a for a in initargs if isinstance(a, Circuit)]
        if not circuits:
            raise _EpochMismatch(
                f"epoch names circuit {meta.get('circuit_name')!r} "
                f"({expected}) but the setup payload carries no circuit"
            )
        got = circuits[0].content_hash()
        if got != expected:
            raise _EpochMismatch(
                f"circuit content hash mismatch: coordinator sweeps "
                f"{meta.get('circuit_name')!r} {expected}, worker "
                f"deserialized {circuits[0].name!r} {got}"
            )

    def _heartbeat_loop(self, channel, interval: float, stop) -> None:
        while not stop.wait(interval):
            try:
                channel.send({"op": "heartbeat"})
                self._hb_last = time.monotonic()
            except OSError:
                self._hb_dead = True
                return
