"""Tests for repro.distributed (cross-host shard execution).

The in-process tests run a real ShardCoordinator on an ephemeral
localhost port with ShardWorker agents on threads -- the same code
paths as cross-host deployment, minus the network.  The kill test
drives actual ``python -m repro worker`` subprocesses and SIGKILLs one
mid-lease.
"""

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
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.circuits.netlist import Circuit
from repro.core.two_sort import build_two_sort
from repro.distributed import (
    LineChannel,
    ShardCoordinator,
    ShardWorker,
    decode_line,
    encode_line,
    pack,
    unpack,
    use_coordinator,
)
from repro.verify.exhaustive import SweepEpoch, VerificationResult, pair_shards
from repro.verify.parallel import (
    SweepCancelled,
    available_executors,
    run_sharded,
    verify_two_sort_sharded,
)

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


# ----------------------------------------------------------------------
# Module-level task functions (picklable by reference, like pool tasks)
# ----------------------------------------------------------------------
def _triple(task):
    return 3 * task


def _boom(task):
    raise ValueError(f"boom on {task}")


def _slow_triple(task):
    time.sleep(0.05)
    return 3 * task


@contextmanager
def _cluster(workers=2, lease_timeout=5.0, start_workers=True, **worker_kwargs):
    """A coordinator (ephemeral port) plus in-process worker threads."""
    coordinator = ShardCoordinator(
        host="127.0.0.1", port=0, lease_timeout=lease_timeout
    ).start()
    stop = threading.Event()
    agents = [
        ShardWorker(
            "127.0.0.1", coordinator.port, name=f"w{i}", **worker_kwargs
        )
        for i in range(workers)
    ]
    threads = [
        threading.Thread(target=a.run, args=(stop,), daemon=True)
        for a in agents
    ]
    if start_workers:
        for t in threads:
            t.start()
    try:
        with use_coordinator(coordinator):
            yield coordinator, agents
    finally:
        stop.set()
        coordinator.close()
        for t in threads:
            if t.is_alive() or start_workers:
                t.join(timeout=10)


def _wait_until(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWire:
    def test_encode_decode_roundtrip(self):
        msg = {"op": "next", "n": 3, "nested": {"a": [1, 2]}}
        assert decode_line(encode_line(msg)) == msg

    def test_one_message_per_line(self):
        assert encode_line({"a": 1}).endswith(b"\n")
        assert b"\n" not in encode_line({"a": "x"})[:-1]

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            decode_line(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            decode_line(b"[1,2]\n")

    def test_pack_unpack_roundtrip(self):
        result = VerificationResult(checked=7)
        result.record("x")
        back = unpack(pack(result))
        assert back.checked == 7 and back.failures == ["x"]
        assert unpack(pack((_triple, (1, 2)))) == (_triple, (1, 2))

    def test_service_server_shares_the_framing(self):
        from repro.service import server

        assert server.encode_line is encode_line


# ----------------------------------------------------------------------
# Circuit.content_hash
# ----------------------------------------------------------------------
class TestContentHash:
    def test_stable_across_rebuilds(self):
        assert (
            build_two_sort(4).content_hash() == build_two_sort(4).content_hash()
        )

    def test_differs_across_widths(self):
        assert (
            build_two_sort(3).content_hash() != build_two_sort(4).content_hash()
        )

    def test_changes_on_structural_edit(self):
        circuit = build_two_sort(3)
        before = circuit.content_hash()
        from repro.circuits.gates import INV

        circuit.add_gate(INV, [circuit.inputs[0]])
        assert circuit.content_hash() != before

    def test_cached_per_version(self):
        circuit = build_two_sort(3)
        assert circuit.content_hash() is circuit.content_hash()

    def test_survives_pickling(self):
        import pickle

        circuit = build_two_sort(4)
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone.content_hash() == circuit.content_hash()

    def test_no_delimiter_injection_through_net_names(self):
        """Net names containing the old join characters must not let
        two different wirings hash identically (fields are
        length-prefixed)."""
        from repro.circuits.gates import AND2

        def make(first, second):
            c = Circuit("x")
            for net in ("x", "x,y", "y,x", "y"):
                c.add_input(net)
            c.add_output(c.add_gate(AND2, [first, second]))
            return c

        # Same declared inputs; a naive ","-join would feed ",x,y,x"
        # for both gate input lists.
        assert (
            make("x,y", "x").content_hash()
            != make("x", "y,x").content_hash()
        )

    def test_lazy_package_import(self):
        """Importing the shared wire format (as the service layer does)
        must not drag in the coordinator/worker machinery."""
        import subprocess
        import sys

        code = (
            "import sys; import repro.service.client; "
            "mods = sorted(m for m in sys.modules "
            "if m.startswith('repro.distributed')); "
            "assert mods == ['repro.distributed', "
            "'repro.distributed.wire'], mods"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        # The package front door is lazy: it loads no socket layer at all.
        code = (
            "import sys; import repro.service; "
            "mods = [m for m in sys.modules "
            "if m.startswith('repro.distributed')]; "
            "assert mods == [], mods"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_same_name_and_version_different_structure_differ(self):
        """The collision the old (name, version) cache key allowed:
        equal mutation counts on structurally different netlists."""
        from repro.circuits.gates import AND2, OR2

        def make(kind):
            c = Circuit("x")
            a = c.add_input()
            b = c.add_input()
            c.add_output(c.add_gate(kind, [a, b]))
            return c

        c1, c2 = make(AND2), make(OR2)
        assert c1.name == c2.name and c1.version == c2.version
        assert c1.content_hash() != c2.content_hash()


# ----------------------------------------------------------------------
# Coordinator + workers over localhost
# ----------------------------------------------------------------------
class TestDistributedExecution:
    def test_registered_executor(self):
        assert "distributed" in available_executors()

    def test_requires_a_coordinator(self):
        with pytest.raises(RuntimeError, match="--listen|coordinator"):
            run_sharded(_triple, [1, 2], jobs=1, executor="distributed")

    def test_generic_tasks_two_workers(self):
        with _cluster(workers=2):
            out = run_sharded(
                _triple, list(range(12)), jobs=1, executor="distributed"
            )
        assert out == [3 * t for t in range(12)]

    def test_two_workers_byte_identical_to_serial(self):
        """The acceptance contract at B=7: coordinator + 2 workers ==
        the serial executor, via to_json()."""
        circuit = build_two_sort(7)
        serial = verify_two_sort_sharded(
            circuit, 7, jobs=1, executor="serial", shard_size=255 * 16
        )
        with _cluster(workers=2) as (coordinator, agents):
            distributed = verify_two_sort_sharded(
                circuit, 7, executor="distributed", shard_size=255 * 16
            )
        assert distributed.to_json() == serial.to_json()
        # Both agents actually contributed under one sweep.
        assert all(a.completed >= 1 for a in agents)

    def test_worker_pool_runs_sorts_and_sweeps(self):
        """One inline agent switches from a batch with no initializer
        (a sharded sort: its worker is ``sort_strings_batch`` bound to
        the network) to one with an initializer (the sweep's compile
        setup).  Both equal the serial results."""
        from repro.networks.simulate import sort_strings_batch
        from repro.networks.topologies import best_known
        from repro.verify.random_valid import ValidStringSource

        source = ValidStringSource(4, meta_rate=0.5, seed=5)
        vectors = [[str(w) for w in source.sample_vector(4)] for _ in range(9)]
        circuit = build_two_sort(4)
        serial = verify_two_sort_sharded(
            circuit, 4, jobs=1, executor="serial", shard_size=100
        )
        with _cluster(workers=1) as (coordinator, agents):
            rows = sort_strings_batch(
                best_known(4), vectors, executor="distributed", shard_size=3
            )
            swept = verify_two_sort_sharded(
                circuit, 4, executor="distributed", shard_size=100
            )
        assert rows == sort_strings_batch(best_known(4), vectors)
        assert swept.to_json() == serial.to_json()
        assert agents[0].completed == 3 + len(pair_shards(4, 100))

    def test_on_result_streams_in_task_order(self):
        seen = []
        with _cluster(workers=2):
            out = run_sharded(
                _triple,
                list(range(16)),
                jobs=1,
                executor="distributed",
                on_result=lambda i, r: seen.append((i, r)),
            )
        assert out == [3 * t for t in range(16)]
        assert seen == [(i, 3 * i) for i in range(16)]  # strict order

    def test_should_stop_cancels_with_ordered_partial(self):
        seen = []
        with _cluster(workers=1, throttle=0.02) as (coordinator, _):
            with pytest.raises(SweepCancelled) as info:
                run_sharded(
                    _triple,
                    list(range(50)),
                    jobs=1,
                    executor="distributed",
                    on_result=lambda i, r: seen.append(r),
                    should_stop=lambda: len(seen) >= 3,
                )
            assert info.value.results == seen
            assert seen == [3 * t for t in range(len(seen))]
            assert len(seen) >= 3
            batch = coordinator.stats()["batches"][0]
            assert batch["cancelled"] and batch["pending"] == 0

    def test_worker_error_fails_the_batch(self):
        with _cluster(workers=1):
            with pytest.raises(RuntimeError, match="boom on"):
                run_sharded(_boom, [1, 2, 3], jobs=1, executor="distributed")

    def test_verify_progress_hooks_and_cache(self):
        """The service-layer seams (on_shard, cache) work unchanged
        through the distributed executor."""
        from repro.store import MemoryStore

        circuit = build_two_sort(5)
        cache = MemoryStore()
        snapshots = []
        with _cluster(workers=2):
            first = verify_two_sort_sharded(
                circuit, 5, executor="distributed", shard_size=200,
                cache=cache,
                on_shard=lambda done, total, r: snapshots.append((done, total)),
            )
            second = verify_two_sort_sharded(
                circuit, 5, executor="distributed", shard_size=200,
                cache=cache,
            )
        assert first.to_json() == second.to_json()
        assert first.checked == 3969
        dones = [d for d, _ in snapshots]
        assert dones == list(range(1, len(snapshots) + 1))
        assert cache.hits == len(snapshots)  # second run fully cached

    def test_collected_batches_are_retired(self):
        """A long-running coordinator must not accumulate finished
        batches: collect() frees the batch, stats keep a summary."""
        with _cluster(workers=1) as (coordinator, _):
            for _ in range(3):
                run_sharded(
                    _triple, list(range(4)), jobs=1, executor="distributed"
                )
            assert coordinator._batches == {}  # all retired
            summaries = coordinator.stats()["batches"]
            assert len(summaries) == 3
            assert all(s["done"] == s["tasks"] == 4 for s in summaries)

    def test_epoch_compiled_once_across_batches(self):
        """Two sweeps of the same (circuit, backend, width) share one
        worker-side epoch -- the compile-once contract."""
        circuit = build_two_sort(4)
        with _cluster(workers=1) as (coordinator, agents):
            for _ in range(2):
                verify_two_sort_sharded(
                    circuit, 4, executor="distributed", shard_size=100
                )
            assert _wait_until(lambda: len(agents[0]._epochs) >= 1, 5)
            assert len(agents[0]._epochs) == 1

    def test_epoch_hash_mismatch_refuses_batch(self):
        """A worker that deserializes a different circuit than the
        epoch describes must refuse rather than merge wrong results."""
        from repro.verify.parallel import _init_verify_worker, _verify_shard_worker

        circuit = build_two_sort(4)
        lying_epoch = SweepEpoch(
            kind="verify-two-sort",
            circuit_name=circuit.name,
            circuit_hash="0badc0ffee0badc0",  # not the real hash
            width=4,
            backend=None,
        )
        with _cluster(workers=1) as (coordinator, _):
            handle = coordinator.submit(
                _verify_shard_worker,
                [(4, 0, 10)],
                initializer=_init_verify_worker,
                initargs=(circuit, None),
                epoch=lying_epoch.to_dict(),
            )
            with pytest.raises(RuntimeError, match="hash mismatch"):
                handle.collect()


class TestFailureRecovery:
    def test_dropped_connection_requeues_leases(self):
        """A worker that dies holding a lease (abrupt close) loses the
        shard back to the queue; the sweep still matches serial."""
        circuit = build_two_sort(5)
        serial = verify_two_sort_sharded(
            circuit, 5, jobs=1, executor="serial", shard_size=200
        )
        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, lease_timeout=10.0
        ).start()
        out = {}

        def sweep():
            with use_coordinator(coordinator):
                out["result"] = verify_two_sort_sharded(
                    circuit, 5, executor="distributed", shard_size=200
                )

        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        # Doomed client: lease one shard, die without returning it.
        doomed = LineChannel.connect("127.0.0.1", coordinator.port)
        doomed.request({"op": "hello", "name": "doomed", "slots": 1})
        reply = doomed.request({"op": "next"})
        assert reply["kind"] == "task"
        doomed.close()

        stop = threading.Event()
        survivor = ShardWorker("127.0.0.1", coordinator.port, name="survivor")
        wt = threading.Thread(target=survivor.run, args=(stop,), daemon=True)
        wt.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "sweep wedged after worker death"
        assert out["result"].to_json() == serial.to_json()
        stats = coordinator.stats()
        assert stats["requeued_total"] >= 1
        batch = stats["batches"][0]
        assert batch["done"] == batch["tasks"]  # nothing lost
        assert batch["duplicates"] == 0  # nothing double-merged
        stop.set()
        coordinator.close()
        wt.join(timeout=10)

    def test_silent_worker_lease_expires_and_requeues(self):
        """A connected-but-wedged worker (no heartbeat) forfeits its
        lease at the deadline."""
        circuit = build_two_sort(4)
        serial = verify_two_sort_sharded(
            circuit, 4, jobs=1, executor="serial", shard_size=100
        )
        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, lease_timeout=0.4
        ).start()
        out = {}

        def sweep():
            with use_coordinator(coordinator):
                out["result"] = verify_two_sort_sharded(
                    circuit, 4, executor="distributed", shard_size=100
                )

        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        silent = LineChannel.connect("127.0.0.1", coordinator.port)
        silent.request({"op": "hello", "name": "silent", "slots": 1})
        assert silent.request({"op": "next"})["kind"] == "task"
        # ... and now say nothing: no heartbeat, no result.
        stop = threading.Event()
        survivor = ShardWorker("127.0.0.1", coordinator.port, name="survivor")
        wt = threading.Thread(target=survivor.run, args=(stop,), daemon=True)
        wt.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "sweep wedged behind an expired lease"
        assert out["result"].to_json() == serial.to_json()
        assert coordinator.stats()["requeued_total"] >= 1
        silent.close()
        stop.set()
        coordinator.close()
        wt.join(timeout=10)

    def test_kill_worker_process_mid_sweep_b8(self):
        """The acceptance criterion: a B=8 sweep over >= 2 worker
        *processes* stays byte-identical to serial after one worker is
        SIGKILLed mid-sweep (its leased shards re-queued, none lost or
        double-merged)."""
        circuit = build_two_sort(8)
        serial = verify_two_sort_sharded(
            circuit, 8, jobs=1, executor="serial", shard_size=511 * 8
        )
        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, lease_timeout=10.0
        ).start()
        out = {}

        def sweep():
            with use_coordinator(coordinator):
                out["result"] = verify_two_sort_sharded(
                    circuit, 8, executor="distributed", shard_size=511 * 8
                )

        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")

        def spawn(name, throttle):
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--connect", f"127.0.0.1:{coordinator.port}",
                    "--name", name, "--throttle", str(throttle),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

        doomed = spawn("doomed", throttle=0.10)
        steady = spawn("steady", throttle=0.01)
        try:
            # Wait until the doomed worker demonstrably holds work,
            # then kill it without ceremony.
            def doomed_busy():
                for w in coordinator.stats()["workers"]:
                    if w["name"] == "doomed" and w["results"] >= 1 and w["leases"] >= 1:
                        return True
                return False

            assert _wait_until(doomed_busy, timeout=60), (
                "doomed worker never took work"
            )
            os.kill(doomed.pid, signal.SIGKILL)
            doomed.wait(timeout=10)
            thread.join(timeout=120)
            assert not thread.is_alive(), "sweep wedged after SIGKILL"
        finally:
            for proc in (doomed, steady):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            stats = coordinator.stats()
            coordinator.close()
            thread.join(timeout=10)
        assert out["result"].to_json() == serial.to_json()
        assert out["result"].checked == 261121
        assert stats["requeued_total"] >= 1
        batch = stats["batches"][0]
        assert batch["done"] == batch["tasks"]
        assert batch["duplicates"] == 0


# ----------------------------------------------------------------------
# Determinism of the in-order merge
# ----------------------------------------------------------------------
class TestMergeOrderInvariance:
    @given(
        shards=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.lists(st.text("ab", min_size=1, max_size=3), max_size=4),
            ),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_arrival_order_never_changes_the_merge(self, shards, seed):
        """Results arriving in any order merge identically, because
        the coordinator buffers and releases them by shard index --
        the exact algorithm BatchHandle.collect runs."""
        import random

        results = []
        for checked, messages in shards:
            r = VerificationResult(checked=checked)
            for m in messages:
                r.record(m)
            results.append(r)
        reference = VerificationResult.merge(results)

        arrival = list(range(len(results)))
        random.Random(seed).shuffle(arrival)
        # Re-enact the reorder buffer: record in arrival order, release
        # the contiguous prefix as it becomes available.
        buffered = {}
        released = []
        for index in arrival:
            buffered[index] = results[index]
            while len(released) in buffered:
                released.append(buffered[len(released)])
        assert released == results  # every arrival order converges
        merged = VerificationResult.merge(released)
        assert merged.to_json() == reference.to_json()
        # And even an *unordered* merge can never change the counts,
        # only the capped failure listing.
        unordered = VerificationResult.merge([results[i] for i in arrival])
        assert unordered.checked == reference.checked
        assert unordered.failure_count == reference.failure_count
        assert unordered.ok == reference.ok


# ----------------------------------------------------------------------
# Content-hash cache keys
# ----------------------------------------------------------------------
class TestContentHashCacheKeys:
    def test_rebuilt_identical_circuit_hits(self):
        from repro.store import MemoryStore

        cache = MemoryStore()
        verify_two_sort_sharded(
            build_two_sort(4), 4, jobs=1, shard_size=100, cache=cache
        )
        misses = cache.misses
        assert cache.hits == 0
        result = verify_two_sort_sharded(
            build_two_sort(4), 4, jobs=1, shard_size=100, cache=cache
        )
        assert result.ok and result.checked == 961
        assert cache.hits == misses  # fully answered from cache
        assert cache.misses == misses

    def test_cache_keys_carry_the_content_hash(self):
        """Shard keys identify the netlist by structure digest, so two
        circuits sharing (name, version) -- possible with the old
        mutation-counter key -- can never collide."""
        from repro.store import MemoryStore

        circuit = build_two_sort(3)
        keys = []

        class Spy(MemoryStore):
            def get(self, key):
                keys.append(key)
                return None

        verify_two_sort_sharded(circuit, 3, jobs=1, shard_size=50, cache=Spy())
        assert keys
        assert all(circuit.content_hash() in key for key in keys)

    def test_edited_circuit_misses_cleanly(self):
        from repro.circuits.gates import BUF
        from repro.store import MemoryStore

        cache = MemoryStore()
        circuit = build_two_sort(3)
        verify_two_sort_sharded(circuit, 3, jobs=1, shard_size=50, cache=cache)
        # A structural edit that keeps the 2-sort shape (and, with the
        # old key, would have changed version exactly like any rebuild).
        circuit._outputs[0] = circuit.add_gate(BUF, [circuit.outputs[0]])
        verify_two_sort_sharded(circuit, 3, jobs=1, shard_size=50, cache=cache)
        assert cache.hits == 0  # every shard re-ran
