"""Fault-tolerance suite: checkpoints, reconnect, leases, chaos.

Three layers of test, matching the three layers of machinery:

* unit tests for the sweep checkpoint, a
  :class:`repro.store.JournalStore` (torn lines, first-write-wins,
  append-only idempotence), and the chaos primitives (seeded schedules
  are deterministic);
* in-process cluster tests: interrupted sweeps resume with zero
  recompute, workers dial before the coordinator exists and survive
  its abrupt death, scripted clients pin the exact ``late`` /
  ``duplicates`` / ``requeued`` accounting, range leases amortize RPCs;
* the acceptance scene: a real B=8 ``python -m repro verify`` run
  under a ChaosProxy, its coordinator SIGKILLed mid-sweep and both
  workers SIGKILLed, resumed with ``--resume`` -- final report
  byte-identical to serial, no journaled shard recomputed.
"""

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.core.two_sort import build_two_sort
from repro.distributed import (
    LineChannel,
    ShardCoordinator,
    ShardWorker,
    pack,
    use_coordinator,
)
from repro.distributed import wire
from repro.distributed.wire import ChannelTimeout, LineTooLong, encode_line
from repro.store import JournalStore, MemoryStore, StackedStore
from repro.testing import ChaosProxy, FaultSchedule, FlakyChannel
from repro.verify.exhaustive import SweepEpoch, VerificationResult
from repro.verify.parallel import SweepCancelled, verify_two_sort_sharded

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def _triple(task):
    return 3 * task


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _result(checked=5, failures=()):
    r = VerificationResult(checked=checked)
    for m in failures:
        r.record(m)
    return r


# ----------------------------------------------------------------------
# The journal itself
# ----------------------------------------------------------------------
class TestSweepCheckpoint:
    def test_roundtrip_across_reopen(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        key = ("two-sort", "abc123", "bigint", 4, 0, 10)
        with JournalStore(path, fsync=False) as journal:
            assert journal.get(key) is None
            journal.put(key, _result(7, ["f1", "f2"]))
        with JournalStore(path, fsync=False) as journal:
            back = journal.get(key)
        assert back is not None
        assert back.checked == 7
        assert back.failures == ["f1", "f2"]
        assert back.failure_count == 2
        assert back.elapsed is None  # shard results never carry timing

    def test_results_roundtrip_byte_identically(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        original = _result(9, [f"fail {i}" for i in range(25)])  # truncated
        with JournalStore(path, fsync=False) as journal:
            journal.put(("k",), original)
        with JournalStore(path, fsync=False) as journal:
            back = journal.get(("k",))
        assert back.to_json() == original.to_json()
        assert back.truncated

    def test_torn_trailing_line_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with JournalStore(path, fsync=False) as journal:
            journal.put(("a",), _result(1))
            journal.put(("b",), _result(2))
        # Simulate SIGKILL mid-append: cut the final record in half.
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) - len(data.splitlines()[-1]) // 2 - 1])
        with JournalStore(path, fsync=False) as journal:
            assert journal.get(("a",)) is not None
            assert journal.get(("b",)) is None  # the torn one
            assert journal.torn == 1
            # ... and the shard can be re-journaled on the rerun.
            journal.put(("b",), _result(2))
            assert len(journal) == 2

    def test_duplicate_records_first_write_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with JournalStore(path, fsync=False) as journal:
            journal.put(("k",), _result(1))
        # A second writer (or a replayed journal) appends the same key.
        record = {
            "type": "result",
            "key": ["k"],
            "result": {
                "checked": 999, "failure_count": 0,
                "failures": [], "truncated": False,
            },
        }
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        with JournalStore(path, fsync=False) as journal:
            assert journal.duplicates == 1
            assert journal.get(("k",)).checked == 1  # first write won

    def test_put_existing_key_does_not_grow_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with JournalStore(path, fsync=False) as journal:
            journal.put(("k",), _result(1))
            size = os.path.getsize(path)
            journal.put(("k",), _result(42))
            assert os.path.getsize(path) == size  # append-only, idempotent
            assert journal.get(("k",)).checked == 1

    def test_record_epoch_once_and_self_describing(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        epoch = SweepEpoch(
            kind="verify-two-sort", circuit_name="two-sort",
            circuit_hash="deadbeef", width=6, backend="bigint",
        )
        with JournalStore(path, fsync=False) as journal:
            journal.record_epoch(epoch, shards=17, shard_size=4080)
            journal.record_epoch(epoch, shards=17, shard_size=4080)
            assert os.path.getsize(path) == len(Path(path).read_bytes())
            assert Path(path).read_text().count('"type":"epoch"') == 1
        with JournalStore(path, fsync=False) as journal:
            assert journal.epochs() == [epoch]
            assert journal.stats()["epochs"] == 1

    def test_fingerprint_is_stable_and_discriminating(self):
        a = SweepEpoch("verify-two-sort", "two-sort", "h1", 6, None)
        b = SweepEpoch("verify-two-sort", "two-sort", "h1", 6, None)
        c = SweepEpoch("verify-two-sort", "two-sort", "h2", 6, None)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_stacked_cache_backfills_both_ways(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        memory = MemoryStore()
        with JournalStore(path, fsync=False) as journal:
            stack = StackedStore(journal, memory)
            stack.put(("a",), _result(1))
            # Journal hit warms memory.
            memory2 = MemoryStore()
            stack2 = StackedStore(journal, memory2)
            assert stack2.get(("a",)).checked == 1
            assert memory2.get(("a",)) is not None
            # Memory-only hit becomes durable.
            memory.put(("b",), _result(2))
            assert stack.get(("b",)).checked == 2
            assert journal.get(("b",)) is not None


# ----------------------------------------------------------------------
# Interrupted sweep, resumed: zero recompute, identical bytes
# ----------------------------------------------------------------------
class TestResume:
    def test_cancel_then_resume_is_byte_identical_with_zero_recompute(
        self, tmp_path, monkeypatch
    ):
        import repro.verify.parallel as parallel

        circuit = build_two_sort(6)
        reference = verify_two_sort_sharded(
            circuit, 6, jobs=1, executor="serial", shard_size=200
        )
        path = str(tmp_path / "sweep.jsonl")

        executed = []
        real_worker = parallel._verify_shard_worker
        monkeypatch.setattr(
            parallel, "_verify_shard_worker",
            lambda task: executed.append(task) or real_worker(task),
        )

        done = []
        journal = JournalStore(path, fsync=False)
        try:
            with pytest.raises(SweepCancelled):
                verify_two_sort_sharded(
                    circuit, 6, jobs=1, executor="serial", shard_size=200,
                    cache=journal,
                    on_shard=lambda d, t, r: done.append(d),
                    should_stop=lambda: len(done) >= 5,
                )
        finally:
            journal.close()
        first_run = len(executed)
        assert first_run >= 5
        with JournalStore(path, fsync=False) as peek:
            checkpointed = len(peek)
            assert checkpointed == first_run  # every executed shard durable
            assert len(peek.epochs()) == 1  # journal knows its sweep

        executed.clear()
        journal = JournalStore(path, fsync=False)
        try:
            resumed = verify_two_sort_sharded(
                circuit, 6, jobs=1, executor="serial", shard_size=200,
                cache=journal,
            )
            total = len(journal)
        finally:
            journal.close()
        # Zero already-checkpointed shards recomputed:
        assert len(executed) == total - checkpointed
        assert resumed.to_json() == reference.to_json()
        # A third run touches nothing at all.
        executed.clear()
        with JournalStore(path, fsync=False) as journal:
            third = verify_two_sort_sharded(
                circuit, 6, jobs=1, executor="serial", shard_size=200,
                cache=journal,
            )
        assert executed == []
        assert third.to_json() == reference.to_json()

    def test_service_verify_request_journals_and_resumes(self, tmp_path):
        from repro.service.jobs import VerifyRequest

        path = str(tmp_path / "svc.jsonl")
        first = VerifyRequest(
            width=5, jobs=1, shard_size=200, executor="serial",
            checkpoint=path,
        ).run()
        assert os.path.exists(path)
        again = VerifyRequest(
            width=5, jobs=1, shard_size=200, executor="serial",
            checkpoint=path,
        ).run()
        first.elapsed = again.elapsed = None
        assert again.to_json() == first.to_json()

    def test_verify_request_rejects_bad_checkpoint(self):
        from repro.service.jobs import VerifyRequest

        with pytest.raises(ValueError, match="checkpoint"):
            VerifyRequest(width=4, checkpoint="").validate()
        with pytest.raises(ValueError, match="checkpoint"):
            VerifyRequest(width=4, checkpoint=7).validate()


# ----------------------------------------------------------------------
# Worker supervision: backoff, startup order, coordinator death
# ----------------------------------------------------------------------
class TestWorkerReconnect:
    def test_worker_started_before_coordinator_still_serves(self):
        port = _free_port()
        stop = threading.Event()
        worker = ShardWorker(
            "127.0.0.1", port, retry_max=100, backoff_base=0.05, seed=1
        )
        thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
        thread.start()
        time.sleep(0.3)  # let it fail a few dials first
        coordinator = ShardCoordinator(host="127.0.0.1", port=port).start()
        try:
            with use_coordinator(coordinator):
                from repro.verify.parallel import run_sharded

                out = run_sharded(
                    _triple, list(range(8)), jobs=1, executor="distributed"
                )
            assert out == [3 * t for t in range(8)]
        finally:
            stop.set()
            coordinator.close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("throttle", [-1.0, float("nan"), float("inf")])
    def test_throttle_that_cannot_sleep_is_refused(self, throttle):
        """``time.sleep`` raising after each shard read as a lost
        connection, so the agent redialed and re-leased the same range
        forever."""
        with pytest.raises(ValueError, match="throttle"):
            ShardWorker("127.0.0.1", 1, throttle=throttle)

    def test_retry_budget_exhaustion_raises_connection_error(self):
        port = _free_port()  # nothing listens here
        worker = ShardWorker(
            "127.0.0.1", port, retry_max=2, backoff_base=0.01, seed=1
        )
        with pytest.raises(ConnectionError, match="3 connect attempt"):
            worker.run()

    def test_retry_max_zero_fails_fast(self):
        port = _free_port()
        worker = ShardWorker("127.0.0.1", port, retry_max=0)
        start = time.monotonic()
        with pytest.raises(ConnectionError, match="unreachable"):
            worker.run()
        assert time.monotonic() - start < 2.0

    def test_backoff_is_jittered_exponential_and_capped(self):
        worker = ShardWorker(
            "127.0.0.1", 1, backoff_base=0.5, backoff_max=15.0, seed=42
        )
        delays = [worker._backoff_delay(n) for n in range(1, 12)]
        for n, delay in enumerate(delays, start=1):
            ceiling = min(15.0, 0.5 * 2 ** (n - 1))
            assert ceiling * 0.5 <= delay <= ceiling
        assert max(delays) <= 15.0
        # Same seed, same jitter: chaos runs are reproducible.
        again = ShardWorker(
            "127.0.0.1", 1, backoff_base=0.5, backoff_max=15.0, seed=42
        )
        assert [again._backoff_delay(n) for n in range(1, 12)] == delays

    def test_backoff_knobs_are_finite_positive_and_capped(self):
        """An inf base overflowed time.sleep, a nan one slept not at
        all, and a base above backoff_max raised the cap to itself."""
        for bad in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="backoff_base"):
                ShardWorker("127.0.0.1", 1, backoff_base=bad)
            with pytest.raises(ValueError, match="backoff_max"):
                ShardWorker("127.0.0.1", 1, backoff_max=bad)
        worker = ShardWorker("127.0.0.1", 1, backoff_base=1e308, seed=7)
        delays = [worker._backoff_delay(n) for n in (1, 2, 3, 5000)]
        assert all(7.5 <= d <= 15.0 for d in delays), delays

    def test_worker_survives_abrupt_coordinator_death_and_restart(self):
        """SIGKILL-equivalent: the listener and every connection die
        without a goodbye; the worker must back off, redial, and serve
        the *next* coordinator incarnation on the same port."""
        from repro.verify.parallel import run_sharded

        port = _free_port()
        first = ShardCoordinator(host="127.0.0.1", port=port).start()
        stop = threading.Event()
        worker = ShardWorker(
            "127.0.0.1", port, retry_max=200, backoff_base=0.05, seed=3
        )
        thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
        thread.start()
        second = None
        try:
            with use_coordinator(first):
                assert run_sharded(
                    _triple, [1, 2], jobs=1, executor="distributed"
                ) == [3, 6]
            # Abrupt death: no bye, sockets just vanish.
            first.kill()
            time.sleep(0.2)
            second = ShardCoordinator(host="127.0.0.1", port=port).start()
            with use_coordinator(second):
                assert run_sharded(
                    _triple, [5], jobs=1, executor="distributed"
                ) == [15]
            assert worker.reconnects >= 1
        finally:
            stop.set()
            if second is not None:
                second.close()
            first.close()
            thread.join(timeout=10)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# Exact lease accounting under scripted churn
# ----------------------------------------------------------------------
class TestLeaseAccounting:
    @contextmanager
    def _scripted(self, lease_timeout=0.5):
        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, lease_timeout=lease_timeout
        ).start()
        clients = []

        def client(name):
            channel = LineChannel.connect("127.0.0.1", coordinator.port)
            clients.append(channel)
            hello = channel.request({"op": "hello", "name": name, "slots": 1})
            assert hello["ok"]
            return channel

        try:
            yield coordinator, client
        finally:
            for channel in clients:
                channel.close()
            coordinator.close()

    def _collect_async(self, handle):
        out = {}

        def run():
            out["results"] = handle.collect()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, out

    def test_late_result_after_expiry_counts_late_once(self):
        """Lease expires (requeued=1), then the original worker's
        result lands *before* any re-run: merged once, late=1, and the
        re-queued copy is withdrawn from pending."""
        with self._scripted(lease_timeout=0.4) as (coordinator, client):
            handle = coordinator.submit(_triple, [7])
            thread, out = self._collect_async(handle)
            slow = client("slow")
            reply = slow.request({"op": "next"})
            assert reply["kind"] == "task"
            index = reply["items"][0][0]
            assert _wait_until(
                lambda: coordinator.stats()["requeued_total"] >= 1, 10
            ), "lease never expired"
            slow.send({
                "op": "result", "batch": reply["batch"],
                "index": index, "result": pack(21),
            })
            thread.join(timeout=10)
            assert out["results"] == [21]
            batch = coordinator.stats()["batches"][-1]
            assert batch["requeued"] == 1
            assert batch["late"] == 1
            assert batch["duplicates"] == 0
            assert batch["done"] == batch["tasks"] == 1

    def test_rerun_then_stale_result_counts_duplicate_once(self):
        """Lease expires, a second worker re-runs the shard and reports
        first; the original's stale result is discarded as
        duplicates=1, never double-merged.  A second task keeps the
        batch alive until the stale result has been accounted."""
        with self._scripted(lease_timeout=0.4) as (coordinator, client):
            handle = coordinator.submit(_triple, [7, 8])
            thread, out = self._collect_async(handle)
            slow = client("slow")
            reply = slow.request({"op": "next"})
            assert reply["kind"] == "task"
            index = reply["items"][0][0]
            assert _wait_until(
                lambda: coordinator.stats()["requeued_total"] >= 1, 10
            )
            fast = client("fast")
            re_reply = fast.request({"op": "next"})
            assert re_reply["kind"] == "task"
            assert re_reply["items"][0][0] == index  # the re-queued shard
            fast.send({
                "op": "result", "batch": re_reply["batch"],
                "index": index, "result": pack(21),
            })
            # First arrival wins, and the two sockets are not ordered
            # against each other: let the re-run land before the stale
            # original arrives (while the batch is still live).
            assert _wait_until(
                lambda: coordinator.stats()["batches"][-1]["done"] == 1, 10
            )
            slow.send({
                "op": "result", "batch": reply["batch"],
                "index": index, "result": pack(999),
            })
            assert _wait_until(
                lambda: coordinator.stats()["batches"][-1]["duplicates"] == 1,
                10,
            ), "stale result was not accounted as a duplicate"
            # Finish the batch: fast takes and completes the other task.
            tail = fast.request({"op": "next"})
            assert tail["kind"] == "task"
            for tail_index, _task in tail["items"]:
                fast.send({
                    "op": "result", "batch": tail["batch"],
                    "index": tail_index, "result": pack(24),
                })
            thread.join(timeout=10)
            assert out["results"] == [21, 24]  # 999 never merged
            batch = coordinator.stats()["batches"][-1]
            assert batch["requeued"] == 1
            assert batch["duplicates"] == 1
            assert batch["late"] == 0

    def test_result_for_unknown_batch_is_discarded(self):
        """A replay from before a coordinator restart carries a batch
        id with the *old* nonce: unknown here, safely ignored."""
        with self._scripted() as (coordinator, client):
            channel = client("ghost")
            channel.send({
                "op": "result", "batch": "b0001-deadbe",
                "index": 0, "result": pack(1),
            })
            channel.send({"op": "heartbeat"})
            time.sleep(0.1)
            # Coordinator is still alive and serving.
            assert client("probe").request({"op": "next"})["kind"] == "wait"

    def test_batch_ids_unique_across_incarnations(self):
        a = ShardCoordinator(host="127.0.0.1", port=0).start()
        b = ShardCoordinator(host="127.0.0.1", port=0).start()
        try:
            ha = a.submit(_triple, [1])
            hb = b.submit(_triple, [1])
            assert ha.id != hb.id  # same sequence number, different nonce
            assert ha.id.split("-")[0] == hb.id.split("-")[0] == "b0001"
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Range leases
# ----------------------------------------------------------------------
class TestRangeLeases:
    def _sweep(self, max_range, tasks=64):
        from repro.verify.parallel import run_sharded

        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, max_range=max_range
        ).start()
        stop = threading.Event()
        worker = ShardWorker("127.0.0.1", coordinator.port, seed=1)
        thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
        thread.start()
        try:
            with use_coordinator(coordinator):
                out = run_sharded(
                    _triple, list(range(tasks)), jobs=1,
                    executor="distributed",
                )
            assert out == [3 * t for t in range(tasks)]
            return coordinator.stats()
        finally:
            stop.set()
            coordinator.close()
            thread.join(timeout=10)

    def test_ranges_amortize_lease_rpcs(self):
        stats = self._sweep(max_range=32)
        assert stats["tasks_leased_total"] == 64
        # Adaptive doubling: far fewer "next" round-trips than tasks.
        assert stats["lease_rpcs_total"] < 40
        assert stats["max_range"] == 32

    def test_max_range_one_degrades_to_task_per_rpc(self):
        stats = self._sweep(max_range=1)
        assert stats["tasks_leased_total"] == 64
        # One task per granting RPC, plus possibly trailing "wait"s.
        assert stats["lease_rpcs_total"] >= 64

    def test_partial_range_death_requeues_only_unreported_tail(self):
        """A client leases a range, reports a prefix, dies: only the
        tail re-queues, and the final merge is still complete."""
        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, lease_timeout=5.0, max_range=8
        ).start()
        try:
            handle = coordinator.submit(_triple, list(range(8)))
            out = {}

            def run():
                out["results"] = handle.collect()

            collector = threading.Thread(target=run, daemon=True)
            collector.start()
            doomed = LineChannel.connect("127.0.0.1", coordinator.port)
            doomed.request({"op": "hello", "name": "doomed", "slots": 1})
            reply = doomed.request({"op": "next"})
            # Warm the range up: complete the first grant(s) promptly
            # until a multi-task range arrives.
            while len(reply["items"]) == 1:
                index = reply["items"][0][0]
                doomed.send({
                    "op": "result", "batch": reply["batch"],
                    "index": index, "result": pack(3 * index),
                })
                reply = doomed.request({"op": "next"})
                assert reply["kind"] == "task"
            granted = [i for i, _ in reply["items"]]
            assert len(granted) >= 2
            # Report just the first of the range, then die.
            doomed.send({
                "op": "result", "batch": reply["batch"],
                "index": granted[0], "result": pack(3 * granted[0]),
            })
            time.sleep(0.1)
            doomed.close()

            stop = threading.Event()
            survivor = ShardWorker(
                "127.0.0.1", coordinator.port, name="survivor", seed=2
            )
            wt = threading.Thread(
                target=survivor.run, args=(stop,), daemon=True
            )
            wt.start()
            collector.join(timeout=20)
            assert out["results"] == [3 * t for t in range(8)]
            batch = coordinator.stats()["batches"][-1]
            # Only the unreported tail of the dead range re-queued.
            assert batch["requeued"] == len(granted) - 1
            assert batch["duplicates"] == 0
            stop.set()
        finally:
            coordinator.close()

    def test_fast_completion_grows_then_expiry_shrinks_the_range(self):
        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, lease_timeout=2.0, max_range=8
        ).start()
        try:
            handle = coordinator.submit(_triple, list(range(16)))
            channel = LineChannel.connect("127.0.0.1", coordinator.port)
            channel.request({"op": "hello", "name": "greedy", "slots": 1})
            reply = channel.request({"op": "next"})
            assert len(reply["items"]) == 1  # ranges start conservative
            index = reply["items"][0][0]
            channel.send({
                "op": "result", "batch": reply["batch"],
                "index": index, "result": pack(3 * index),
            })
            # Prompt re-ask after a fully drained grant: range doubles.
            grown = channel.request({"op": "next"})
            assert grown["kind"] == "task"
            assert len(grown["items"]) == 2
            assert coordinator.stats()["workers"][0]["range_size"] == 2
            # Now sit on the grant until the leases expire: halves back.
            assert _wait_until(
                lambda: coordinator.stats()["requeued_total"] >= 2, 15
            ), "held leases never expired"
            assert coordinator.stats()["workers"][0]["range_size"] == 1
            channel.close()
            handle.cancel()
        finally:
            coordinator.close()


# ----------------------------------------------------------------------
# Wire timeouts (the half-open-socket satellite)
# ----------------------------------------------------------------------
class TestBoundedRecv:
    def _pair(self):
        a, b = socket.socketpair()
        return LineChannel(a), b

    def test_recv_times_out_instead_of_blocking_forever(self):
        channel, peer = self._pair()
        start = time.monotonic()
        with pytest.raises(ChannelTimeout):
            channel.recv(timeout=0.2)
        assert time.monotonic() - start < 2.0
        channel.close()
        peer.close()

    def test_partial_line_survives_a_timeout(self):
        """A timeout mid-line must not lose the buffered prefix --
        the next recv completes the message intact."""
        channel, peer = self._pair()
        line = encode_line({"op": "result", "value": "x" * 100})
        peer.sendall(line[:30])
        with pytest.raises(ChannelTimeout):
            channel.recv(timeout=0.1)
        peer.sendall(line[30:])
        msg = channel.recv(timeout=1.0)
        assert msg == {"op": "result", "value": "x" * 100}
        channel.close()
        peer.close()

    def test_long_line_is_scanned_once(self):
        """A line arriving in many reads is searched for its newline
        once per byte, not once per read from its start; the bytes
        after it stay buffered for the next recv."""

        class Counted(bytearray):
            scanned = 0

            def find(self, sub, start=0, *args):
                Counted.scanned += len(self) - start
                return super().find(sub, start, *args)

        channel, peer = self._pair()
        channel._buf = Counted()
        line = encode_line({"ok": True, "pad": "x" * 100_000})
        pieces = 20
        step = len(line) // pieces
        for i in range(pieces - 1):
            peer.sendall(line[i * step : (i + 1) * step])
            with pytest.raises(ChannelTimeout):
                channel.recv(timeout=0.01)
        peer.sendall(line[(pieces - 1) * step :] + encode_line({"ok": 1}))
        assert channel.recv(timeout=1.0) == {"ok": True, "pad": "x" * 100_000}
        assert Counted.scanned <= 2 * len(line)
        assert channel.recv(timeout=1.0) == {"ok": 1}
        channel.close()
        peer.close()

    def test_line_of_the_bound_decodes_one_byte_more_raises(
        self, monkeypatch
    ):
        monkeypatch.setattr(wire, "LINE_LIMIT", 4096)
        channel, peer = self._pair()
        pad = "x" * (4096 + 1 - len(encode_line({"pad": ""})))
        fits = encode_line({"pad": pad})
        assert len(fits) == 4096 + 1  # the bound, then the newline
        peer.sendall(fits)
        assert channel.recv(timeout=1.0) == {"pad": pad}
        # One byte more (JSON whitespace), arriving in one read with
        # the line after it.
        peer.sendall(b" " + fits + encode_line({"ok": 1}))
        with pytest.raises(ValueError, match="line longer than 4096 bytes"):
            channel.recv(timeout=1.0)
        assert len(channel._buf) == 0
        channel.close()
        peer.close()

    def test_unterminated_line_stops_at_the_bound(self, monkeypatch):
        """A peer sending bytes and no newline makes the channel buffer
        at most the bound, then raise, not wait for the rest."""
        monkeypatch.setattr(wire, "LINE_LIMIT", 4096)
        channel, peer = self._pair()
        peer.sendall(b"y" * 4096)
        with pytest.raises(ChannelTimeout):
            channel.recv(timeout=0.1)
        assert len(channel._buf) == 4096
        peer.sendall(b"y")
        with pytest.raises(LineTooLong) as got:
            channel.recv(timeout=1.0)
        assert got.value.limit == 4096
        assert len(channel._buf) == 0
        channel.close()
        peer.close()

    def test_default_recv_still_blocks(self):
        channel, peer = self._pair()
        got = {}

        def recv():
            got["msg"] = channel.recv()

        thread = threading.Thread(target=recv, daemon=True)
        thread.start()
        time.sleep(0.1)
        assert thread.is_alive()  # no spurious timeout without one
        peer.sendall(encode_line({"ok": True}))
        thread.join(timeout=5)
        assert got["msg"] == {"ok": True}
        channel.close()
        peer.close()


# ----------------------------------------------------------------------
# Chaos primitives and chaotic sweeps
# ----------------------------------------------------------------------
class TestChaosHarness:
    def test_fault_schedule_is_deterministic(self):
        kw = dict(seed=9, drop_rate=0.2, delay_rate=0.2, truncate_rate=0.1)
        one = FaultSchedule(**kw)
        two = FaultSchedule(**kw)
        seq1 = [one.next_fault() for _ in range(200)]
        seq2 = [two.next_fault() for _ in range(200)]
        assert seq1 == seq2
        assert set(seq1) > {None}  # faults actually fire
        assert sum(one.counts.values()) == 200

    def test_sweep_survives_flaky_channels(self):
        """Every worker session runs through a FlakyChannel that
        truncates-and-kills sends on schedule; the sweep must still be
        byte-identical to serial."""
        circuit = build_two_sort(5)
        serial = verify_two_sort_sharded(
            circuit, 5, jobs=1, executor="serial", shard_size=200
        )
        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, lease_timeout=5.0
        ).start()
        schedule = FaultSchedule(seed=13, truncate_rate=0.05, delay_rate=0.1,
                                 delay_s=0.005)
        stop = threading.Event()
        worker = ShardWorker(
            "127.0.0.1", coordinator.port,
            retry_max=500, backoff_base=0.02, seed=5,
            channel_wrapper=lambda ch: FlakyChannel(ch, schedule),
        )
        thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
        thread.start()
        try:
            with use_coordinator(coordinator):
                chaotic = verify_two_sort_sharded(
                    circuit, 5, executor="distributed", shard_size=200
                )
            assert chaotic.to_json() == serial.to_json()
            assert schedule.counts["truncate"] >= 1  # chaos actually bit
        finally:
            stop.set()
            coordinator.close()
            thread.join(timeout=15)

    def test_proxy_relays_and_kills_deterministically(self):
        """ChaosProxy forwards an entire sweep through a MITM that
        kills connections after a byte budget; workers reconnect
        through it and the result stays byte-identical."""
        circuit = build_two_sort(5)
        serial = verify_two_sort_sharded(
            circuit, 5, jobs=1, executor="serial", shard_size=100
        )
        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, lease_timeout=5.0
        ).start()
        proxy = ChaosProxy(
            "127.0.0.1", coordinator.port, seed=21,
            kill_after_bytes=120_000, delay_rate=0.05, delay_s=0.002,
        ).start()
        stop = threading.Event()
        worker = ShardWorker(
            "127.0.0.1", proxy.port,
            retry_max=500, backoff_base=0.02, seed=8,
        )
        thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
        thread.start()
        try:
            with use_coordinator(coordinator):
                chaotic = verify_two_sort_sharded(
                    circuit, 5, executor="distributed", shard_size=100
                )
            assert chaotic.to_json() == serial.to_json()
            assert proxy.stats["connections"] >= 1
            assert proxy.stats["bytes"] > 0
        finally:
            stop.set()
            coordinator.close()
            proxy.close()
            thread.join(timeout=15)

    def test_proxy_refuses_cleanly_while_upstream_down(self):
        dead_port = _free_port()
        proxy = ChaosProxy("127.0.0.1", dead_port).start()
        try:
            with pytest.raises(OSError):
                channel = LineChannel.connect("127.0.0.1", proxy.port)
                # The proxy accepts then closes; the failure may arrive
                # on first use rather than connect.
                channel.send({"op": "hello"})
                if channel.recv(timeout=2.0) is None:
                    raise ConnectionError("closed")
            assert _wait_until(lambda: proxy.stats["refused"] >= 1, 5)
        finally:
            proxy.close()


# ----------------------------------------------------------------------
# The acceptance scene: B=8 under chaos, SIGKILL + --resume
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    SHARD_SIZE = 511 * 8  # 64 shards at B=8

    def _spawn_worker(self, connect, name, env, throttle=0.05):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", connect, "--name", name,
                "--throttle", str(throttle),
                "--retry-max", "500", "--backoff-base", "0.1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _journal_results(self, path):
        if not os.path.exists(path):
            return 0
        count = 0
        with open(path, "rb") as fh:
            for line in fh:
                try:
                    if json.loads(line).get("type") == "result":
                        count += 1
                except ValueError:
                    pass
        return count

    def test_b8_sigkill_coordinator_and_workers_resume_byte_identical(
        self, tmp_path
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        journal = str(tmp_path / "b8.jsonl")
        port = _free_port()

        # Serial reference, same CLI surface (text output is the
        # byte-for-byte comparison object; --json embeds timing).
        serial = subprocess.run(
            [
                sys.executable, "-m", "repro", "verify", "--width", "8",
                "--shard-size", str(self.SHARD_SIZE),
            ],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert serial.returncode == 0, serial.stderr

        # One chaos proxy spans both coordinator incarnations: worker
        # connections churn after a byte budget, replies get delayed.
        proxy = ChaosProxy(
            "127.0.0.1", port, seed=17,
            kill_after_bytes=400_000, delay_rate=0.02, delay_s=0.005,
        ).start()
        via_proxy = f"127.0.0.1:{proxy.port}"

        def run_verify(extra):
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "verify",
                    "--width", "8", "--shard-size", str(self.SHARD_SIZE),
                    "--executor", "distributed",
                    "--listen", f"127.0.0.1:{port}",
                ] + extra,
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )

        workers = []
        doomed = run_verify(["--checkpoint", journal])
        try:
            workers = [
                self._spawn_worker(via_proxy, "w1", env),
                self._spawn_worker(via_proxy, "w2", env),
            ]
            # Let real progress reach disk, then kill everything the
            # hard way: coordinator first, then both workers.
            assert _wait_until(
                lambda: self._journal_results(journal) >= 8, timeout=120
            ), "no checkpointed progress before the kill"
            os.kill(doomed.pid, signal.SIGKILL)
            doomed.wait(timeout=15)
            for proc in workers:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=15)

            on_file = self._journal_results(journal)
            assert on_file >= 8
            # Fresh workers dial the (still dead) coordinator address
            # through the proxy first -- startup order is free.
            workers = [
                self._spawn_worker(via_proxy, "w3", env, throttle=0.0),
                self._spawn_worker(via_proxy, "w4", env, throttle=0.0),
            ]
            time.sleep(0.5)
            resumed = run_verify(["--resume", journal])
            out, err = resumed.communicate(timeout=300)
            assert resumed.returncode == 0, err
            # The operator sees what resume skipped...
            assert f"{on_file} shard result(s) on file" in err
            # ...and the report is byte-identical to the serial CLI run.
            assert out == serial.stdout

            # Zero already-checkpointed shards recomputed: the resumed
            # run's workers executed exactly the remainder.
            executed = 0
            for proc in workers:
                proc.wait(timeout=60)
                stderr = proc.stderr.read()
                assert proc.returncode == 0, stderr
                done = [
                    int(line.split()[2])
                    for line in stderr.splitlines()
                    if line.startswith("worker done:")
                ]
                assert len(done) == 1, stderr
                executed += done[0]
            total = self._journal_results(journal)
            assert executed == total - on_file

            # The journal is complete, self-describing, and free of
            # duplicate shard records.
            with JournalStore(journal, fsync=False) as final:
                assert len(final) == total
                assert final.duplicates == 0
                assert final.torn == 0
                assert len(final.epochs()) == 1
                keys = final.keys()
                assert len(set(keys)) == len(keys)
        finally:
            proxy.close()
            for proc in [doomed] + workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
