"""Tests for repro.verify.parallel (sharded parallel verification)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.circuits.netlist import Circuit
from repro.core.two_sort import build_two_sort
from repro.store import MemoryStore
from repro.verify.exhaustive import (
    VerificationResult,
    pair_shards,
    verify_two_sort_circuit,
)
from repro.verify.parallel import (
    _EXECUTORS,
    available_executors,
    register_executor,
    run_sharded,
    verify_two_sort_sharded,
)


def _broken_two_sort(width):
    """A 2-sort with swapped max/min busses (fails on every unequal pair)."""
    good = build_two_sort(width)
    broken = Circuit("broken")
    ins = [broken.add_input(n) for n in good.inputs]
    outs = broken.instantiate(good, ins)
    broken.add_outputs(outs[width:] + outs[:width])
    return broken


class TestPairShards:
    def test_cover_full_string_domain(self):
        width = 5
        S = (1 << (width + 1)) - 1
        for shard_size in (None, 100, S, 10 * S):
            shards = pair_shards(width, shard_size)
            flat = [i for lo, hi in shards for i in range(lo, hi)]
            assert flat == list(range(S))

    def test_small_shard_size_gives_many_shards(self):
        width = 4
        S = (1 << (width + 1)) - 1
        assert len(pair_shards(width, S)) == S  # one g-row per shard


class TestExecutorRegistry:
    def test_builtin_executors_present(self):
        assert {"serial", "process"} <= set(available_executors())

    def test_unknown_executor_rejected(self):
        with pytest.raises(KeyError, match="unknown executor"):
            run_sharded(lambda t: t, [1, 2], jobs=2, executor="quantum")

    def test_register_executor_hook(self):
        calls = []

        def recording(worker, tasks, jobs, initializer=None, initargs=(),
                      on_result=None, should_stop=None, epoch=None):
            calls.append((len(tasks), jobs))
            if initializer is not None:
                initializer(*initargs)
            return [worker(t) for t in tasks]

        register_executor("recording", recording)
        try:
            out = run_sharded(lambda t: t * 2, [1, 2, 3], jobs=5,
                              executor="recording")
            assert out == [2, 4, 6]
            assert calls == [(3, 5)]
        finally:
            from repro.verify.parallel import _EXECUTORS

            del _EXECUTORS["recording"]

    def test_results_in_task_order(self):
        out = run_sharded(lambda t: -t, list(range(20)), jobs=1)
        assert out == [-t for t in range(20)]

    @pytest.mark.parametrize("backend", ["bigint", "native"])
    def test_one_range_plan_starts_no_pool(self, backend, monkeypatch):
        """With no executor named, a pool is picked only when it would
        get more than one worker: ``min(jobs, tasks) > 1``.  The audit
        row names the executor that rule picks for the sweep's plan."""

        class PoolStarted(Exception):
            pass

        def no_pool(worker, tasks, **_):
            raise PoolStarted(len(tasks))

        monkeypatch.setitem(_EXECUTORS, "process", no_pool)
        circuit = build_two_sort(6)
        budget = get_backend(backend).preferred_shard_lanes
        assert len(pair_shards(6, budget)) == 1
        store = MemoryStore()
        result = verify_two_sort_sharded(
            circuit, 6, jobs=2, backend=backend, store=store
        )
        assert result.ok and result.checked == 127 * 127
        assert [run.executor for run in store.runs()] == ["serial"]
        assert run_sharded(lambda t: t + 1, [1], jobs=4) == [2]
        # Two ranges on two jobs still reach the pool.
        with pytest.raises(PoolStarted):
            verify_two_sort_sharded(
                circuit, 6, jobs=2, backend=backend, shard_size=127 * 64
            )
        with pytest.raises(PoolStarted):
            run_sharded(lambda t: t, [1, 2], jobs=2)


class TestMerge:
    def test_merge_sums_and_caps(self):
        parts = []
        for k in range(3):
            r = VerificationResult()
            r.checked = 10
            for i in range(15):
                r.record(f"shard{k}-{i}")
            parts.append(r)
        merged = VerificationResult.merge(parts)
        assert merged.checked == 30
        assert merged.failure_count == 45
        assert len(merged.failures) == 20
        # deterministic shard order: shard0 messages first
        assert merged.failures[0] == "shard0-0"
        assert merged.failures[-1] == "shard1-4"


class TestShardedVerification:
    def test_serial_matches_single_process(self):
        circuit = build_two_sort(4)
        base = verify_two_sort_circuit(circuit, 4)
        sharded = verify_two_sort_sharded(circuit, 4, jobs=1, shard_size=100)
        assert (sharded.checked, sharded.failure_count) == (
            base.checked,
            base.failure_count,
        )
        assert base.ok and sharded.ok

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_identical_counts_across_job_counts(self, jobs):
        """The acceptance contract: --jobs N never changes the result."""
        circuit = build_two_sort(5)
        result = verify_two_sort_sharded(
            circuit, 5, jobs=jobs, executor="process"
        )
        assert result.ok
        assert result.checked == ((1 << 6) - 1) ** 2  # 3969

    def test_process_pool_catches_failures(self):
        broken = _broken_two_sort(3)
        base = verify_two_sort_circuit(broken, 3)
        sharded = verify_two_sort_sharded(
            broken, 3, jobs=2, shard_size=30, executor="process"
        )
        assert not sharded.ok
        assert sharded.failure_count == base.failure_count
        assert sharded.checked == base.checked

    def test_failure_report_deterministic(self):
        broken = _broken_two_sort(3)
        a = verify_two_sort_sharded(broken, 3, jobs=2, shard_size=30,
                                    executor="process")
        b = verify_two_sort_sharded(broken, 3, jobs=4, shard_size=30,
                                    executor="process")
        c = verify_two_sort_sharded(broken, 3, jobs=2, shard_size=30,
                                    executor="serial")
        assert a.failures == b.failures == c.failures

    def test_shape_checked_before_dispatch(self):
        with pytest.raises(ValueError, match="needs 8 inputs"):
            verify_two_sort_sharded(build_two_sort(3), 4, jobs=2)

    def test_jobs_zero_means_all_cores(self):
        """jobs=0 follows the CLI convention (all cores), not 1 worker."""
        result = verify_two_sort_sharded(build_two_sort(4), 4, jobs=0)
        assert result.ok and result.checked == 961

    def test_run_sharded_jobs_zero(self):
        out = run_sharded(lambda t: t + 1, [1, 2, 3], jobs=0,
                          executor="serial")
        assert out == [2, 3, 4]

    def test_huge_shard_size_clamped(self):
        """A giant --shard-size must not collapse the sweep into one
        memory-hungry mega-shard beyond the hard lane ceiling."""
        from repro.verify.exhaustive import _MAX_SHARD_LANES

        width = 4
        S = (1 << (width + 1)) - 1
        shards = pair_shards(width, 10**12)
        assert all((hi - lo) * S <= _MAX_SHARD_LANES for lo, hi in shards)
        result = verify_two_sort_sharded(
            build_two_sort(width), width, jobs=1, shard_size=10**12
        )
        assert result.ok and result.checked == S * S


class TestStreamingAndCancellation:
    """run_sharded's on_result/should_stop hooks: the seam the async
    service layer (repro.service) is built on."""

    def test_serial_on_result_fires_in_order(self):
        seen = []
        out = run_sharded(
            lambda t: t * 10, [1, 2, 3], jobs=1, executor="serial",
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert out == [10, 20, 30]
        assert seen == [(0, 10), (1, 20), (2, 30)]

    def test_process_on_result_fires_in_order(self):
        seen = []
        out = run_sharded(
            _double, list(range(6)), jobs=2, executor="process",
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert out == [2 * t for t in range(6)]
        assert seen == [(i, 2 * i) for i in range(6)]

    def test_serial_should_stop_raises_with_partial(self):
        from repro.verify.parallel import SweepCancelled

        stop_after = 3
        done = []

        def worker(t):
            done.append(t)
            return t

        with pytest.raises(SweepCancelled) as info:
            run_sharded(
                worker, list(range(10)), jobs=1, executor="serial",
                should_stop=lambda: len(done) >= stop_after,
            )
        assert info.value.results == [0, 1, 2]
        assert done == [0, 1, 2]  # tasks 3..9 never ran

    def test_process_should_stop_raises_with_partial(self):
        from repro.verify.parallel import SweepCancelled

        seen = []

        with pytest.raises(SweepCancelled) as info:
            run_sharded(
                _double, list(range(8)), jobs=2, executor="process",
                on_result=lambda i, r: seen.append(r),
                should_stop=lambda: len(seen) >= 2,
            )
        assert info.value.results == seen == [0, 2]

    def test_verify_on_shard_progress_complete(self):
        snapshots = []
        result = verify_two_sort_sharded(
            build_two_sort(4), 4, jobs=1, shard_size=100,
            on_shard=lambda done, total, res: snapshots.append(
                (done, total, res.checked)
            ),
        )
        assert result.ok and result.checked == 961
        dones = [d for d, _, _ in snapshots]
        totals = {t for _, t, _ in snapshots}
        assert dones == list(range(1, len(snapshots) + 1))
        assert totals == {len(snapshots)}
        assert sum(c for _, _, c in snapshots) == result.checked

    def test_verify_should_stop_cancels_between_shards(self):
        from repro.verify.parallel import SweepCancelled

        snapshots = []
        with pytest.raises(SweepCancelled):
            verify_two_sort_sharded(
                build_two_sort(4), 4, jobs=1, shard_size=100,
                on_shard=lambda done, total, res: snapshots.append(done),
                should_stop=lambda: len(snapshots) >= 2,
            )
        assert snapshots == [1, 2]

    def test_bare_sweep_streams_nothing(self):
        """With no cache, store or hook the executor gets no on_result
        and no should_stop, so a process pool keeps its plain map."""
        from repro.store import MemoryStore
        from repro.verify.parallel import _EXECUTORS

        calls = []

        def recording(worker, tasks, jobs, initializer=None, initargs=(),
                      on_result=None, should_stop=None, epoch=None):
            calls.append((list(tasks), on_result, should_stop))
            initializer(*initargs)
            out = [worker(t) for t in tasks]
            for i, r in enumerate(out):
                if on_result is not None:
                    on_result(i, r)
            return out

        register_executor("recording", recording)
        try:
            bare = verify_two_sort_sharded(
                build_two_sort(4), 4, jobs=1, shard_size=100,
                executor="recording",
            )
            cached = verify_two_sort_sharded(
                build_two_sort(4), 4, jobs=1, shard_size=100,
                executor="recording", cache=MemoryStore(),
            )
        finally:
            del _EXECUTORS["recording"]
        assert bare.to_json() == cached.to_json()
        (tasks, on_result, should_stop), (_, cache_hook, _) = calls
        assert tasks == [(4,) + s for s in pair_shards(4, 100)]
        assert on_result is None and should_stop is None
        assert cache_hook is not None


class _KeyLog(MemoryStore):
    """A memory store that lists every key written to it."""

    def __init__(self):
        super().__init__()
        self.written = []

    def put(self, key, value):
        self.written.append(tuple(key))
        super().put(key, value)


class TestPlanIgnoresJobs:
    """A sweep's g-row ranges -- and so every key stored on them --
    depend on the width, the backend and ``shard_size`` alone: never on
    ``jobs``, the executor or the host's core count."""

    @pytest.mark.parametrize("backend", ["bigint", "native"])
    def test_ranges_are_the_budget_plan_for_any_jobs(
        self, backend, sweep_plan, monkeypatch
    ):
        # jobs=0 means one worker per core: pretend to be a big host.
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        budget = get_backend(backend).preferred_shard_lanes
        if backend == "native" and get_backend("native").built:
            assert budget == 1 << 18
        else:
            assert budget == 1 << 14
        for width in range(1, 13):
            for jobs in (1, 2, 4, 0):
                plan = sweep_plan(width, jobs=jobs, backend=backend)
                assert plan == pair_shards(width, budget), (width, jobs)

    def test_process_pool_writes_the_serial_keys(self):
        circuit = build_two_sort(6)
        keys = []
        for jobs, executor in ((1, "serial"), (2, "process")):
            store = _KeyLog()
            result = verify_two_sort_sharded(
                circuit, 6, jobs=jobs, executor=executor, store=store
            )
            assert result.ok
            keys.append(sorted(store.written))
        assert keys[0] == keys[1]
        assert len(keys[0]) == 12 * len(pair_shards(6))


def _double(t):
    return 2 * t


class TestProgressMonotonicity:
    """Hypothesis: for any width/shard size, on_shard reports strictly
    increasing done counts, a constant total, and exact coverage."""

    @given(
        width=st.integers(min_value=2, max_value=4),
        shard_size=st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=25, deadline=None)
    def test_progress_is_monotone_and_exact(self, width, shard_size):
        snapshots = []
        result = verify_two_sort_sharded(
            build_two_sort(width), width, jobs=1, shard_size=shard_size,
            on_shard=lambda done, total, res: snapshots.append((done, total)),
        )
        S = (1 << (width + 1)) - 1
        assert result.ok and result.checked == S * S
        dones = [d for d, _ in snapshots]
        assert dones == list(range(1, len(snapshots) + 1))  # strict +1 steps
        assert {t for _, t in snapshots} == {len(snapshots)}
        assert dones[-1] == len(snapshots)
