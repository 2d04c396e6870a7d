"""Tests for repro.service: jobs, manager, shard cache, server, clients.

The event-loop tests run through ``asyncio.run`` (no pytest-asyncio
dependency).  Timing-sensitive cancellation tests throttle the shard
workers via a registered executor instead of sleeping and hoping.
"""

import asyncio
import threading
import time

import pytest

from repro.service import (
    AsyncServiceClient,
    JobManager,
    JobState,
    ReproServer,
    ServiceClient,
    ServiceError,
    SortRequest,
    VerifyRequest,
    request_from_dict,
)
from repro.circuits.compiled import CompiledCircuit, TritVec
from repro.store import MemoryStore
from repro.verify.exhaustive import verify_two_sort_circuit
from repro.verify.parallel import _EXECUTORS, _serial_executor, register_executor
from repro.core.two_sort import build_two_sort
from repro.networks.simulate import ENGINES, sort_words
from repro.networks.topologies import best_known
from repro.graycode.valid import validate
from repro.ternary.word import Word
from repro.verify.random_valid import ValidStringSource


def pairs(width):
    return ((1 << (width + 1)) - 1) ** 2


@pytest.fixture
def throttled_executor():
    """A serial executor that takes >=15ms per shard: cancellation tests
    get a wide, deterministic window between shards."""

    def throttled(worker, tasks, jobs=1, initializer=None, initargs=(),
                  on_result=None, should_stop=None, epoch=None):
        def slow_worker(task):
            time.sleep(0.015)
            return worker(task)

        return _serial_executor(
            slow_worker, tasks, jobs, initializer, initargs,
            on_result, should_stop, epoch,
        )

    register_executor("throttled", throttled)
    try:
        yield "throttled"
    finally:
        del _EXECUTORS["throttled"]


def _sort_vectors(n, channels=10, width=6, lowercase=False, seed=3):
    """``n`` seeded vectors of ``channels`` valid word strings."""
    source = ValidStringSource(width, meta_rate=0.4, seed=seed)
    rows = []
    for _ in range(n):
        row = [str(w) for w in source.sample_vector(channels)]
        if lowercase:
            row = [s.lower() if i % 2 else s for i, s in enumerate(row)]
        rows.append(tuple(row))
    return tuple(rows)


# ----------------------------------------------------------------------
# Request dataclasses
# ----------------------------------------------------------------------
class TestRequests:
    def test_verify_round_trip(self):
        req = VerifyRequest(width=8, jobs=2, backend="native")
        back = request_from_dict(req.to_dict())
        assert back == req

    def test_sort_round_trip(self):
        req = SortRequest(vectors=(("0110", "0010"),), engine="compiled")
        back = request_from_dict(req.to_dict())
        assert back == req

    @pytest.mark.parametrize("width", [0, -3, 14, 99])
    def test_verify_rejects_bad_width(self, width):
        with pytest.raises(ValueError, match="width must be in 1..13"):
            VerifyRequest(width=width).validate()

    def test_verify_rejects_negative_jobs(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            VerifyRequest(width=4, jobs=-1).validate()

    def test_verify_rejects_bad_shard_size(self):
        with pytest.raises(ValueError, match="shard_size must be"):
            VerifyRequest(width=4, shard_size=0).validate()

    def test_verify_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown plane backend"):
            VerifyRequest(width=4, backend="gpu").validate()

    def test_verify_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            VerifyRequest(width=4, executor="quantum").validate()

    def test_sort_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown simulation engine"):
            SortRequest.single(["01", "00"], engine="warp").validate()

    def test_sort_request_has_no_backend(self):
        """A sort names no plane backend, so the wire form refuses one
        like any other unknown field."""
        with pytest.raises(ValueError, match=r"unknown sort request field"):
            request_from_dict({
                "kind": "sort", "vectors": [["0110", "0010"]],
                "engine": "compiled", "backend": "native",
            })

    @pytest.mark.parametrize(
        "field, value", [("jobs", 2), ("shard_size", 4), ("executor", "serial")]
    )
    def test_sort_request_has_no_sharding(self, field, value):
        """A batch sort runs where it is served: the wire form refuses a
        sharding field like any other unknown field."""
        with pytest.raises(
            ValueError, match=rf"unknown sort request field\(s\): \['{field}'\]"
        ):
            request_from_dict({
                "kind": "sort", "vectors": [["0110", "0010"]], field: value,
            })

    def test_sort_rejects_mixed_widths(self):
        with pytest.raises(ValueError, match="share one width"):
            SortRequest.single(["01", "011"]).validate()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_sort_rejects_zero_width_words(self, engine):
        with pytest.raises(ValueError, match="at least one bit"):
            SortRequest.single(["", ""], engine=engine).validate()
        with pytest.raises(ValueError, match="at least one bit"):
            SortRequest.single(["", ""], engine=engine).run()

    def test_sort_rejects_non_string_words(self):
        """JSON numbers are not Gray words: 10 must not sort as "10"."""
        with pytest.raises(ValueError, match="must be strings"):
            request_from_dict({"kind": "sort", "vectors": [[10, 11]]})
        with pytest.raises(ValueError, match="must be strings"):
            SortRequest(vectors=(("0110", 10),)).validate()

    def test_sort_run_builds_no_words(self, monkeypatch):
        """A sort request goes from strings to planes and back: no Word
        is constructed and no TritVec is packed, run or decoded."""
        request = SortRequest(vectors=_sort_vectors(64))
        expect = request.run()
        calls = dict.fromkeys(
            ["Word", "from_trits", "run_tritvecs", "to_trits"], 0
        )

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Word, "__init__", counted("Word", Word.__init__))
        for owner, name in [
            (TritVec, "from_trits"),
            (CompiledCircuit, "run_tritvecs"),
            (TritVec, "to_trits"),
        ]:
            monkeypatch.setattr(
                owner, name, counted(name, getattr(owner, name))
            )
        assert request.run() == expect
        assert set(calls.values()) == {0}
        Word("01")
        assert calls["Word"] == 1  # the counter itself works

    def test_sort_run_matches_word_path_with_lowercase_m(self):
        vectors = _sort_vectors(40, lowercase=True)
        assert any("m" in s for v in vectors for s in v)
        network = best_known(len(vectors[0]))
        expect = [
            [str(w) for w in sort_words(network, [Word(s) for s in v],
                                        engine="circuit")]
            for v in vectors
        ]
        rows = SortRequest(vectors=vectors).run()
        assert rows == expect
        assert all(type(s) is str for row in rows for s in row)

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            request_from_dict({"kind": "mine", "width": 4})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown verify request field"):
            request_from_dict({"kind": "verify", "width": 4, "depth": 1})

    def test_from_dict_rejects_flat_vector_list(self):
        """A flat ["0110", ...] must not be split into width-1 words."""
        with pytest.raises(ValueError, match="list of lists"):
            request_from_dict(
                {"kind": "sort", "vectors": ["0110", "0010"]}
            )

    def test_verify_run_matches_engine(self):
        """request.run() is the same computation as the direct sweep."""
        direct = verify_two_sort_circuit(build_two_sort(5), 5)
        via_request = VerifyRequest(width=5).run()
        assert via_request.checked == direct.checked == pairs(5)
        assert via_request.ok and direct.ok

    def test_sort_run_matches_reference(self):
        values = ["0110", "0M10", "0010", "1000"]
        words = [validate(Word(s)) for s in values]
        expect = sort_words(best_known(4), words, engine="fsm")
        rows = SortRequest.single(values).run()
        assert rows == [expect]

    @pytest.mark.parametrize(
        "bad", ["0MM0", "M0M0", "01x0", "0 10", "01١0", "0,10"]
    )
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_sort_run_names_the_first_bad_word(self, bad, where):
        """One bad word anywhere in the batch fails the request with
        exactly what the per-word ``validate`` loop raises."""
        rows = [list(v) for v in _sort_vectors(9, channels=4, width=4)]
        j, c = {"first": (0, 0), "middle": (4, 2), "last": (8, 3)}[where]
        rows[j][c] = bad
        request = SortRequest(vectors=tuple(map(tuple, rows)))
        request.validate()  # shape and width are fine
        with pytest.raises(ValueError) as expect:
            for row in rows:
                for s in row:
                    validate(s)
        with pytest.raises(ValueError) as got:
            request.run()
        assert type(got.value) is type(expect.value)
        assert str(got.value) == str(expect.value)


# ----------------------------------------------------------------------
# Shard cache (the manager's MemoryStore LRU)
# ----------------------------------------------------------------------
class TestShardCache:
    def test_hit_miss_counters(self):
        cache = MemoryStore(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction(self):
        cache = MemoryStore(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_disabled_cache_never_stores(self):
        cache = MemoryStore(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_put_existing_key_refreshes_without_double_counting(self):
        """Regression: re-putting a present key must update the value,
        refresh its LRU recency, and never count as a second entry
        toward maxsize.  The distributed path re-puts keys whenever an
        expired lease is re-run, so getting this wrong would evict live
        entries (or serve the stale value)."""
        cache = MemoryStore(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + replace, still 2 entries
        assert len(cache) == 2
        assert cache.get("a") == 10  # new value, not the stale one
        cache.put("c", 3)  # must evict b (LRU), not a (just refreshed)
        assert cache.get("b") is None
        assert cache.get("a") == 10 and cache.get("c") == 3
        assert len(cache) == 2

    def test_put_existing_key_at_capacity_evicts_nothing(self):
        cache = MemoryStore(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("b", 20)
        assert len(cache) == 2
        assert cache.get("a") == 1 and cache.get("b") == 20

    def test_stats_shape(self):
        stats = MemoryStore(maxsize=8).stats()
        # The unified store protocol adds backend/puts/runs counters on
        # top of the historical shape.
        assert {"entries", "maxsize", "hits", "misses"} <= set(stats)
        assert stats["backend"] == "memory"


# ----------------------------------------------------------------------
# Job lifecycle on one manager
# ----------------------------------------------------------------------
class TestJobLifecycle:
    def test_submit_runs_to_done(self):
        async def go():
            manager = JobManager(jobs=1)
            try:
                job = manager.submit(VerifyRequest(width=5))
                assert job.state is JobState.QUEUED
                await manager.wait(job.id)
                return job
            finally:
                await manager.aclose()

        job = asyncio.run(go())
        assert job.state is JobState.DONE
        assert job.result.checked == pairs(5)
        assert job.progress.shards_done == job.progress.shards_total >= 1
        assert job.progress.checked == pairs(5)
        assert job.started is not None and job.finished is not None
        kinds = [e["event"] for e in job.events]
        assert kinds[0] == "state" and kinds[-1] == "done"
        assert "progress" in kinds

    def test_submit_validates_before_queueing(self):
        async def go():
            manager = JobManager(jobs=1)
            try:
                with pytest.raises(ValueError, match="width"):
                    manager.submit(VerifyRequest(width=99))
                assert manager.list_jobs() == []
            finally:
                await manager.aclose()

        asyncio.run(go())

    def test_sort_job_progress_per_shard(self, monkeypatch):
        """A sort job is one shard, whatever the plane budget: it runs in
        the job's thread, through no executor, and publishes one
        progress event (items, not pairs)."""
        from repro.backends import PlaneBackend

        def no_executor(worker, tasks, **_):
            raise AssertionError("a sort job reached the executor registry")

        for name in list(_EXECUTORS):
            monkeypatch.setitem(_EXECUTORS, name, no_executor)
        monkeypatch.setattr(PlaneBackend, "preferred_shard_lanes", 8)
        vectors = _sort_vectors(100, channels=4)

        async def go():
            manager = JobManager(jobs=1)
            try:
                job = manager.submit(SortRequest(vectors=vectors))
                events = [e async for e in manager.stream(job.id)]
                return job, events
            finally:
                await manager.aclose()

        job, events = asyncio.run(go())
        assert job.state is JobState.DONE, job.error
        assert job.result == SortRequest(vectors=vectors).run()
        progress = [e for e in events if e["event"] == "progress"]
        assert [
            (p["shards_done"], p["shards_total"], p["items_done"])
            for p in progress
        ] == [(1, 1, 100)]

    def test_small_sort_job_is_one_shard(self):
        """A 256-vector sort is one shard: it runs all comparator
        programs once, not per 64."""
        vectors = _sort_vectors(256)

        async def go():
            manager = JobManager(jobs=1)
            try:
                job = manager.submit(SortRequest(vectors=vectors))
                events = [e async for e in manager.stream(job.id)]
                return job, events
            finally:
                await manager.aclose()

        job, events = asyncio.run(go())
        assert job.state is JobState.DONE
        progress = [e for e in events if e["event"] == "progress"]
        assert len(progress) == 1
        assert progress[0]["shards_total"] == 1
        assert progress[0]["items_done"] == 256

    def test_verify_failure_events(self, monkeypatch):
        """Failures recorded by shards surface as stream events."""
        import repro.service.jobs as jobs
        from repro.verify.exhaustive import VerificationResult

        def fake_verify(circuit, width, on_shard=None, should_stop=None,
                        cache=None, **kwargs):
            for i in range(1, 3):
                r = VerificationResult(checked=10)
                r.record(f"bad pair {i}")
                if on_shard:
                    on_shard(i, 2, r)
            merged = VerificationResult.merge(
                [VerificationResult(checked=10, failure_count=1,
                                    failures=[f"bad pair {i}"])
                 for i in (1, 2)]
            )
            return merged

        monkeypatch.setattr(jobs, "verify_two_sort_sharded", fake_verify)
        monkeypatch.setattr(jobs, "build_two_sort", lambda width: None)

        async def go():
            manager = JobManager(jobs=1)
            try:
                job = manager.submit(VerifyRequest(width=4))
                events = [e async for e in manager.stream(job.id)]
                return job, events
            finally:
                await manager.aclose()

        job, events = asyncio.run(go())
        assert job.state is JobState.DONE
        failures = [e["message"] for e in events if e["event"] == "failure"]
        assert failures == ["bad pair 1", "bad pair 2"]
        assert job.progress.failure_count == 2

    def test_two_concurrent_jobs_one_manager(self):
        async def go():
            manager = JobManager(jobs=2)
            try:
                a = manager.submit(VerifyRequest(width=5))
                b = manager.submit(VerifyRequest(width=4))
                ja, jb = await asyncio.gather(
                    manager.wait(a.id), manager.wait(b.id)
                )
                return ja, jb, manager.stats()
            finally:
                await manager.aclose()

        ja, jb, stats = asyncio.run(go())
        assert ja.state is JobState.DONE and jb.state is JobState.DONE
        assert ja.result.checked == pairs(5)
        assert jb.result.checked == pairs(4)
        assert stats["jobs"] == {"done": 2}

    def test_queue_respects_concurrency_limit(self, throttled_executor):
        """With jobs=1, the second submission stays queued until the
        first finishes -- and both still complete correctly."""
        async def go():
            manager = JobManager(jobs=1)
            try:
                a = manager.submit(
                    VerifyRequest(width=4, executor=throttled_executor,
                                  shard_size=100)
                )
                b = manager.submit(VerifyRequest(width=4))
                # While a runs (throttled), b must still be queued.
                await asyncio.sleep(0.02)
                state_mid = b.state
                await asyncio.gather(manager.wait(a.id), manager.wait(b.id))
                return a, b, state_mid
            finally:
                await manager.aclose()

        a, b, state_mid = asyncio.run(go())
        assert state_mid is JobState.QUEUED
        assert a.state is JobState.DONE and b.state is JobState.DONE
        assert a.result.checked == b.result.checked == pairs(4)

    def test_unknown_job_raises(self):
        async def go():
            manager = JobManager(jobs=1)
            try:
                with pytest.raises(KeyError, match="unknown job"):
                    manager.get("nope")
            finally:
                await manager.aclose()

        asyncio.run(go())


class TestCancellation:
    def test_cancel_mid_run(self, throttled_executor):
        async def go():
            manager = JobManager(jobs=1)
            try:
                job = manager.submit(
                    VerifyRequest(width=5, shard_size=200,
                                  executor=throttled_executor)
                )
                seen = 0
                async for event in manager.stream(job.id):
                    if event["event"] == "progress":
                        seen += 1
                        if seen == 2:
                            assert manager.cancel(job.id)
                    if event["event"] == "done":
                        final = event
                return job, final
            finally:
                await manager.aclose()

        job, final = asyncio.run(go())
        assert job.state is JobState.CANCELLED
        assert final["state"] == "cancelled"
        # Stopped before completing all shards, but after the 2 seen.
        assert 2 <= job.progress.shards_done < job.progress.shards_total
        assert job.result is None

    def test_cancel_queued_job_is_immediate(self, throttled_executor):
        async def go():
            manager = JobManager(jobs=1)
            try:
                running = manager.submit(
                    VerifyRequest(width=4, executor=throttled_executor,
                                  shard_size=100)
                )
                queued = manager.submit(VerifyRequest(width=4))
                assert manager.cancel(queued.id)
                assert queued.state is JobState.CANCELLED  # no waiting
                await manager.wait(running.id)
                return running, queued
            finally:
                await manager.aclose()

        running, queued = asyncio.run(go())
        assert running.state is JobState.DONE
        assert queued.state is JobState.CANCELLED
        assert queued.progress.shards_done == 0

    def test_cancel_terminal_job_returns_false(self):
        async def go():
            manager = JobManager(jobs=1)
            try:
                job = manager.submit(VerifyRequest(width=3))
                await manager.wait(job.id)
                return manager.cancel(job.id), job
            finally:
                await manager.aclose()

        cancelled, job = asyncio.run(go())
        assert cancelled is False
        assert job.state is JobState.DONE


class TestManagerCache:
    def test_reverify_hits_cache(self):
        async def go():
            manager = JobManager(jobs=1)
            try:
                first = manager.submit(VerifyRequest(width=5))
                await manager.wait(first.id)
                misses_after_first = manager.store.misses
                hits_after_first = manager.store.hits
                second = manager.submit(VerifyRequest(width=5))
                await manager.wait(second.id)
                return (first, second, misses_after_first,
                        hits_after_first, manager)
            finally:
                await manager.aclose()

        first, second, misses1, hits1, manager = asyncio.run(go())
        shards = first.progress.shards_total
        assert shards >= 1
        assert misses1 == shards and hits1 == 0
        assert manager.store.hits == shards  # second run: all hits
        assert manager.store.misses == shards  # no new misses
        # Identical outcome, full progress reported from cache.
        assert second.result.checked == first.result.checked == pairs(5)
        assert second.progress.shards_done == shards
        assert manager.stats()["cache"]["entries"] == shards

    def test_different_width_misses(self):
        async def go():
            manager = JobManager(jobs=1)
            try:
                a = manager.submit(VerifyRequest(width=4))
                await manager.wait(a.id)
                b = manager.submit(VerifyRequest(width=5))
                await manager.wait(b.id)
                return manager.store.hits
            finally:
                await manager.aclose()

        assert asyncio.run(go()) == 0

    def test_finished_jobs_are_evicted_beyond_retention(self):
        async def go():
            manager = JobManager(jobs=1, keep_finished=2)
            try:
                ids = []
                for _ in range(4):
                    job = manager.submit(VerifyRequest(width=3))
                    await manager.wait(job.id)
                    ids.append(job.id)
                return ids, manager
            finally:
                await manager.aclose()

        ids, manager = asyncio.run(go())
        kept = [j["id"] for j in manager.list_jobs()]
        assert kept == ids[-2:]  # oldest terminal jobs evicted
        with pytest.raises(KeyError):
            manager.get(ids[0])

    def test_terminal_event_history_is_compacted(self):
        """Finished jobs keep only a short event tail (bounded memory),
        and a late subscriber still receives the terminal event."""
        from repro.service.jobs import EVENTS_KEEP_TERMINAL

        async def go():
            manager = JobManager(jobs=1)
            try:
                # shard_size=31 -> one g-row per shard = 31 shards at
                # width 4: 31 progress + 2 state + done = 34 > the
                # 32-event terminal tail cap.
                job = manager.submit(VerifyRequest(width=4, shard_size=31))
                await manager.wait(job.id)
                late = [e async for e in manager.stream(job.id)]
                return job, late
            finally:
                await manager.aclose()

        job, late = asyncio.run(go())
        assert len(job.events) <= EVENTS_KEEP_TERMINAL
        assert job.events_dropped > 0
        assert job.events[-1]["event"] == "done"
        # Late subscriber skips the compacted prefix, gets the tail.
        assert late == job.events
        assert late[-1]["event"] == "done"

    def test_process_executor_usable_from_job_threads(self):
        """Process pools launched by service jobs must not fork a
        multithreaded server process (deadlock risk) -- they spawn.
        End-to-end: a jobs=2 process-executor verify through the
        manager's worker threads completes with correct counts."""
        async def go():
            manager = JobManager(jobs=1)
            try:
                job = manager.submit(
                    VerifyRequest(width=4, jobs=2, executor="process")
                )
                await manager.wait(job.id)
                return job
            finally:
                await manager.aclose()

        job = asyncio.run(go())
        assert job.state is JobState.DONE, job.error
        assert job.result.checked == pairs(4)


# ----------------------------------------------------------------------
# Server + clients over a real socket
# ----------------------------------------------------------------------
class TestServerRoundTrip:
    def test_verify_b8_matches_direct_run(self):
        """Acceptance: a B=8 job through the TCP server returns counts +
        failures identical to the direct engine run, with at least two
        intermediate progress snapshots, strictly increasing."""
        direct = verify_two_sort_circuit(build_two_sort(8), 8)

        async def go():
            async with ReproServer(JobManager(jobs=2), port=0) as server:
                async with AsyncServiceClient(port=server.port) as client:
                    job_id = await client.submit(VerifyRequest(width=8))
                    events = [e async for e in client.stream(job_id)]
                    result = await client.result(job_id)
                    return events, result

        events, result = asyncio.run(go())
        assert result["state"] == "done"
        payload = result["result"]
        assert payload["checked"] == direct.checked == pairs(8)
        assert payload["failure_count"] == direct.failure_count == 0
        assert payload["failures"] == direct.failures == []
        snapshots = [
            e for e in events if e["event"] == "progress"
        ]
        intermediate = [
            s for s in snapshots if s["shards_done"] < s["shards_total"]
        ]
        assert len(intermediate) >= 2
        done_counts = [s["shards_done"] for s in snapshots]
        assert done_counts == sorted(set(done_counts))  # strictly increasing
        assert done_counts[-1] == snapshots[-1]["shards_total"]

    def test_cancel_over_socket(self, throttled_executor):
        async def go():
            async with ReproServer(JobManager(jobs=1), port=0) as server:
                async with AsyncServiceClient(port=server.port) as client, \
                        AsyncServiceClient(port=server.port) as side:
                    job_id = await client.submit(
                        VerifyRequest(width=5, shard_size=200,
                                      executor=throttled_executor)
                    )
                    seen = 0
                    final = None
                    async for event in client.stream(job_id):
                        if event["event"] == "progress":
                            seen += 1
                            if seen == 2:
                                assert await side.cancel(job_id)
                        if event["event"] == "done":
                            final = event
                    status = await side.status(job_id)
                    return final, status

        final, status = asyncio.run(go())
        assert final["state"] == "cancelled"
        assert status["state"] == "cancelled"
        progress = status["progress"]
        assert 2 <= progress["shards_done"] < progress["shards_total"]

    def test_sort_job_over_socket(self):
        async def go():
            async with ReproServer(JobManager(jobs=1), port=0) as server:
                async with AsyncServiceClient(port=server.port) as client:
                    job_id = await client.submit(
                        SortRequest(vectors=(("0110", "0M10", "0010"),))
                    )
                    return await client.result(job_id)

        result = asyncio.run(go())
        assert result["state"] == "done"
        assert result["result"]["vectors"] == [["0010", "0M10", "0110"]]

    def test_protocol_errors_keep_connection(self):
        async def go():
            async with ReproServer(JobManager(jobs=1), port=0) as server:
                async with AsyncServiceClient(port=server.port) as client:
                    errors = []
                    for payload in (
                        {"op": "warp"},
                        {"op": "submit", "request": {"kind": "verify",
                                                     "width": 99}},
                        {"op": "status", "id": "nope"},
                        {"op": "status"},
                    ):
                        try:
                            await client.call(**payload)
                        except ServiceError as exc:
                            errors.append(str(exc))
                    # Connection still healthy after four rejections.
                    pong = await client.ping()
                    return errors, pong

        errors, pong = asyncio.run(go())
        assert len(errors) == 4 and pong
        assert "unknown op" in errors[0]
        assert "width" in errors[1]
        assert "unknown job" in errors[2]
        assert "needs a job 'id'" in errors[3]

    def test_wire_rejects_zero_width_and_non_string_words(self):
        """Both sort validations answer ``{"ok": false}`` on the wire and
        create no job."""
        async def go():
            async with ReproServer(JobManager(jobs=1), port=0) as server:
                async with AsyncServiceClient(port=server.port) as client:
                    errors = []
                    for vectors in ([["", ""]], [[10, 11]]):
                        try:
                            await client.call(
                                op="submit",
                                request={"kind": "sort", "vectors": vectors},
                            )
                        except ServiceError as exc:
                            errors.append(str(exc))
                    return errors, await client.jobs()

        errors, listing = asyncio.run(go())
        assert len(errors) == 2
        assert "at least one bit" in errors[0]
        assert "must be strings" in errors[1]
        assert listing["jobs"] == []

    def test_list_reports_jobs_and_cache(self):
        async def go():
            async with ReproServer(JobManager(jobs=1), port=0) as server:
                async with AsyncServiceClient(port=server.port) as client:
                    job_id = await client.submit(VerifyRequest(width=4))
                    await client.result(job_id)
                    return await client.jobs()

        listing = asyncio.run(go())
        assert len(listing["jobs"]) == 1
        assert listing["jobs"][0]["state"] == "done"
        assert listing["stats"]["cache"]["misses"] >= 1


class TestSyncClient:
    """The blocking wrapper drives a server running on another thread --
    the shape every synchronous script (and the CLI) uses."""

    @pytest.fixture
    def live_server(self):
        ready = threading.Event()
        stop = {}
        info = {}

        def serve():
            async def body():
                stop["event"] = asyncio.Event()
                stop["loop"] = asyncio.get_running_loop()
                async with ReproServer(JobManager(jobs=2), port=0) as server:
                    info["port"] = server.port
                    ready.set()
                    await stop["event"].wait()

            asyncio.run(body())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(10), "server thread never came up"
        try:
            yield info["port"]
        finally:
            stop["loop"].call_soon_threadsafe(stop["event"].set)
            thread.join(10)

    def test_round_trip(self, live_server):
        with ServiceClient(port=live_server) as client:
            assert client.ping()
            # Four ranges: a default B=6 plan is one.
            job_id = client.submit(VerifyRequest(width=6, shard_size=32 * 127))
            events = list(client.stream(job_id))
            response = client.result(job_id)
        assert response["state"] == "done"
        assert response["result"]["checked"] == pairs(6)
        progress = [e for e in events if e["event"] == "progress"]
        assert len(progress) >= 2
        done_counts = [p["shards_done"] for p in progress]
        assert done_counts == sorted(set(done_counts))

    def test_status_and_wait_for(self, live_server):
        with ServiceClient(port=live_server) as client:
            job_id = client.submit(VerifyRequest(width=4))
            status = client.status(job_id)
            assert status["id"] == job_id
            assert status["state"] in {"queued", "running", "done"}
            response = client.wait_for(job_id)
        assert response["state"] == "done"

    def test_wait_for_is_one_result_round_trip(
        self, live_server, throttled_executor
    ):
        """``wait_for`` sends exactly one op and returns what streaming
        to the end and then asking for the result returns, for done,
        failed and cancelled jobs."""
        with ServiceClient(port=live_server) as client:
            sent = []
            send = client._client._send

            async def spy(payload):
                sent.append(payload["op"])
                await send(payload)

            client._client._send = spy
            vectors = _sort_vectors(8, channels=4, width=4)
            bad = (("0MM0",) + vectors[0][1:],) + vectors[1:]
            slow = VerifyRequest(width=6, shard_size=64,
                                 executor=throttled_executor)
            jobs = {
                "done": client.submit(SortRequest(vectors=vectors)),
                "failed": client.submit(SortRequest(vectors=bad)),
                "cancelled": client.submit(slow),
            }
            assert client.cancel(jobs["cancelled"])
            responses = {}
            for state, job_id in jobs.items():
                sent.clear()
                responses[state] = client.wait_for(job_id)
                assert sent == ["result"]
                assert responses[state]["state"] == state
                for _ in client.stream(job_id):
                    pass
                assert client.result(job_id) == responses[state]
        assert responses["done"]["result"]["vectors"] == (
            SortRequest(vectors=vectors).run()
        )
        assert responses["failed"]["error"].startswith("InvalidStringError")

    def test_failed_connect_releases_event_loop(self):
        """`with ServiceClient(...)` against a dead server must not leak
        the private event loop when __enter__ raises."""
        client = ServiceClient(port=1)  # nothing listens on port 1
        with pytest.raises(OSError):
            client.connect()
        assert client._loop.is_closed()
        client.close()  # idempotent on the closed loop
