"""Tests for the unified verification store (repro.store).

Covers the ResultStore backend contract (memory / journal / sqlite /
stacked), per-region hashing and cone extraction, region-granularity
incremental re-verification, cross-process no-double-execute against a
shared SQLite store, the audit trail, and the CLI surface
(``verify --store``, ``store log``).
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.__main__ import main
from repro.circuits.gates import INV
from repro.core.two_sort import build_two_sort
from repro.store import (
    JournalStore,
    MemoryStore,
    SqliteStore,
    StackedStore,
    open_store,
    result_digest,
)
from repro.store.base import RunRecord, consult
from repro.verify import parallel
from repro.verify.exhaustive import (
    SweepEpoch,
    VerificationResult,
    pair_shards,
    verify_two_sort_circuit,
)
from repro.verify.parallel import verify_two_sort_sharded


def pairs(width):
    return ((1 << (width + 1)) - 1) ** 2


def sample_result():
    r = VerificationResult(checked=123)
    r.record("(gg, hh): got x/y, want a/b")
    return r


def sample_run(digest="d" * 16):
    return RunRecord(
        circuit="c",
        circuit_hash="h" * 16,
        backend="bigint",
        executor="serial",
        width=5,
        shards=8,
        checked=3969,
        failure_count=0,
        ok=True,
        result_digest=digest,
        mode="regions",
        host="testhost",
        pid=1234,
        timestamp=1700000000.0,
    )


def make_edit(circuit, output_index):
    """A double-INV splice on one output: changes exactly one region
    digest while keeping the circuit functionally identical."""
    edited = circuit.copy()
    root = edited.outputs[output_index]
    n1 = edited.add_gate(INV, [root], output="__edit_inv0")
    n2 = edited.add_gate(INV, [n1], output="__edit_inv1")
    edited.replace_output(output_index, n2)
    return edited


def make_broken(circuit, output_index):
    """A single INV splice: a real bug confined to one output cone."""
    bad = circuit.copy()
    n = bad.add_gate(INV, [bad.outputs[output_index]], output="__bad_inv")
    bad.replace_output(output_index, n)
    return bad


# ----------------------------------------------------------------------
# Backend contract
# ----------------------------------------------------------------------
class TestBackendContract:
    @pytest.fixture(params=["memory", "journal", "sqlite"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            yield MemoryStore()
        elif request.param == "journal":
            with JournalStore(str(tmp_path / "s.jsonl"), fsync=False) as s:
                yield s
        else:
            with SqliteStore(str(tmp_path / "s.db")) as s:
                yield s

    def test_result_roundtrip(self, store):
        key = ("c", "h" * 16, "bigint", 5, 0, 8)
        assert store.get(key) is None
        want = sample_result()
        store.put(key, want)
        got = store.get(key)
        assert isinstance(got, VerificationResult)
        assert got.to_json() == want.to_json()

    def test_plain_value_roundtrip(self, store):
        key = ("c", "r" * 16, "bigint", 5, "r", 3, 0, 8)
        store.put(key, {"lanes": 504, "mismatches": 0})
        assert store.get(key) == {"lanes": 504, "mismatches": 0}

    def test_replay_semantics(self, store):
        # Durable backends are first-write-wins (replays from another
        # worker must be idempotent); the memory backend is an LRU
        # *cache*, where re-put replaces (pinned by
        # tests/test_service.py::TestShardCache).
        # Either way a re-put never errors.
        key = ("c", "h", "bigint", 5, 0, 8)
        store.put(key, {"lanes": 1, "mismatches": 0})
        store.put(key, {"lanes": 2, "mismatches": 9})
        want = 2 if store.backend_name == "memory" else 1
        assert store.get(key)["lanes"] == want

    def test_counters(self, store):
        key = ("k",)
        store.get(key)
        store.put(key, {"lanes": 1, "mismatches": 0})
        store.get(key)
        c = store.counters()
        assert c["hits"] == 1 and c["misses"] == 1 and c["puts"] == 1
        assert c["backend"] == store.backend_name

    def test_epochs_dedup(self, store):
        epoch = SweepEpoch(
            kind="verify-two-sort", circuit_name="c",
            circuit_hash="h" * 16, width=5, backend=None,
        )
        store.record_epoch(epoch, shards=8, shard_size=504)
        store.record_epoch(epoch, shards=8, shard_size=504)
        assert len(store.epochs()) == 1
        assert store.epochs()[0].fingerprint() == epoch.fingerprint()

    def test_run_records(self, store):
        store.record_run(sample_run("a" * 16))
        store.record_run(sample_run("b" * 16))
        runs = store.runs()
        assert [r.result_digest for r in runs] == ["a" * 16, "b" * 16]
        assert runs[0].mode == "regions" and runs[0].ok
        newest = store.runs(limit=1)
        assert [r.result_digest for r in newest] == ["b" * 16]

    def test_claim_default_granted(self, store):
        # Non-shareable backends always grant; sqlite grants the first.
        assert store.claim(("k",)) is True


class TestPersistence:
    """What survives close + reopen (the durable backends)."""

    @pytest.mark.parametrize("backend", ["journal", "sqlite"])
    def test_reopen_sees_everything(self, backend, tmp_path):
        path = str(tmp_path / ("p.jsonl" if backend == "journal" else "p.db"))
        opener = JournalStore if backend == "journal" else SqliteStore
        with opener(path) as store:
            store.put(("k", 1), sample_result())
            store.put(("k", 2), {"lanes": 7, "mismatches": 0})
            store.record_run(sample_run())
        with opener(path) as store:
            assert store.get(("k", 1)).to_json() == sample_result().to_json()
            assert store.get(("k", 2)) == {"lanes": 7, "mismatches": 0}
            assert len(store.runs()) == 1
            assert store.runs()[0].host == "testhost"

    def test_sqlite_claim_ttl(self, tmp_path):
        path = str(tmp_path / "c.db")
        with SqliteStore(path) as a, SqliteStore(path) as b:
            assert a.claim(("k",), ttl=60.0) is True
            # A live claim blocks other handles...
            assert b.claim(("k",), ttl=60.0) is False
            # ...a put by the claimant releases it...
            a.put(("k",), {"lanes": 1, "mismatches": 0})
            # ...and the value is visible, so waiters take the result.
            assert b.get(("k",)) == {"lanes": 1, "mismatches": 0}
            # An expired claim is reclaimable (ttl in the past).
            assert a.claim(("x",), ttl=0.0) is True
            assert b.claim(("x",), ttl=0.0) is True

    def test_wait_for_executes_once_per_key(self, tmp_path):
        with SqliteStore(str(tmp_path / "w.db")) as store:
            calls = []

            def execute(won):
                calls.append(1)
                return [{"lanes": 5, "mismatches": 0} for _ in won]

            (v1,) = consult(store, [("k",)], execute)
            store.put(("k",), v1)  # the caller stores what it computed
            (v2,) = consult(store, [("k",)], execute)
            assert v1 == v2 == {"lanes": 5, "mismatches": 0}
            assert len(calls) == 1


class TestStacked:
    def test_backfill_and_write_through(self, tmp_path):
        front = MemoryStore()
        back = MemoryStore()
        stack = StackedStore(front, back)
        back.put(("k",), {"lanes": 1, "mismatches": 0})
        assert stack.get(("k",)) == {"lanes": 1, "mismatches": 0}
        # The hit was backfilled into the front layer.
        assert front.get(("k",)) == {"lanes": 1, "mismatches": 0}
        stack.put(("j",), {"lanes": 2, "mismatches": 0})
        assert front.get(("j",)) is not None and back.get(("j",)) is not None

    def test_share_spec_comes_from_shareable_layer(self, tmp_path):
        db = SqliteStore(str(tmp_path / "s.db"))
        stack = StackedStore(db, MemoryStore())
        assert stack.shareable
        assert stack.share_spec() == db.spec
        assert StackedStore(MemoryStore()).share_spec() is None
        db.close()

    def test_close_leaves_layers_open(self, tmp_path):
        db = SqliteStore(str(tmp_path / "s.db"))
        StackedStore(db, MemoryStore()).close()
        db.put(("k",), {"lanes": 1, "mismatches": 0})  # still usable
        db.close()


class TestOpenStore:
    def test_spec_forms(self, tmp_path, monkeypatch):
        assert isinstance(open_store("memory"), MemoryStore)
        assert open_store("memory:4").maxsize == 4
        for spec in ("memory:0", "memory:-3"):  # a size <= 0 stores nothing
            store = open_store(spec)
            store.put(("k",), 1)
            assert store.get(("k",)) is None
        j = open_store(f"journal:{tmp_path}/a.log")
        assert isinstance(j, JournalStore)
        j.close()
        with open_store(f"sqlite:{tmp_path}/a.db") as s:
            assert isinstance(s, SqliteStore)
        # Bare paths pick the backend by suffix.
        with open_store(str(tmp_path / "b.jsonl")) as s:
            assert isinstance(s, JournalStore)
        with open_store(str(tmp_path / "b.db")) as s:
            assert isinstance(s, SqliteStore)
        # A prefix that names no backend is part of a bare path.
        monkeypatch.chdir(tmp_path)
        with open_store("foo:bar.db") as s:
            assert isinstance(s, SqliteStore)
        assert (tmp_path / "foo:bar.db").is_file()

    def test_bad_spec(self):
        for spec in ("", "journal:", "sqlite:", "journal", "memory:x"):
            with pytest.raises(ValueError):
                open_store(spec)


# ----------------------------------------------------------------------
# Per-region hashing and cone extraction
# ----------------------------------------------------------------------
class TestRegionHashing:
    def test_rebuilt_circuit_hashes_identically(self):
        a = build_two_sort(5)
        b = build_two_sort(5)
        assert a.region_hashes() == b.region_hashes()
        assert a.copy().region_hashes() == a.region_hashes()

    def test_regions_are_distinct(self):
        hashes = build_two_sort(5).region_hashes()
        assert len(hashes) == 10 and len(set(hashes)) == 10

    def test_edit_invalidates_only_its_cone(self):
        circuit = build_two_sort(5)
        before = circuit.region_hashes()
        edited = make_edit(circuit, 3)
        after = edited.region_hashes()
        changed = [i for i in range(10) if after[i] != before[i]]
        assert changed == [3]
        # The whole-circuit hash does change (it is a different netlist).
        assert edited.content_hash() != circuit.content_hash()

    def test_extract_cone_preserves_inputs_and_output(self):
        circuit = build_two_sort(4)
        cone = circuit.extract_cone(2)
        assert cone.inputs == circuit.inputs
        assert cone.outputs == (circuit.outputs[2],)
        assert len(cone.gates) < len(circuit.gates)

    def test_edited_circuit_still_verifies(self):
        edited = make_edit(build_two_sort(4), 1)
        assert verify_two_sort_circuit(edited, 4).ok


# ----------------------------------------------------------------------
# Region-granularity sweeps
# ----------------------------------------------------------------------
@pytest.fixture
def count_executions(monkeypatch):
    """Count actual region-shard computations through the module seam.

    A task is one g-row range over several cones, so each call records
    one ``((width, g_lo, g_hi), cone)`` entry per cone it computes.
    """
    executed = []
    real = parallel._execute_region_shard
    monkeypatch.setattr(
        parallel,
        "_execute_region_shard",
        lambda task: (
            executed.extend((task[:3], o) for o in task[3]), real(task)
        )[1],
    )
    return executed


class TestRegionSweep:
    def test_clean_sweep_matches_plain(self, tmp_path, count_executions):
        circuit = build_two_sort(5)
        plain = verify_two_sort_sharded(circuit, 5, jobs=1, shard_size=63 * 8)
        with SqliteStore(str(tmp_path / "s.db")) as store:
            cold = verify_two_sort_sharded(
                circuit, 5, jobs=1, shard_size=63 * 8, store=store
            )
            n_cold = len(count_executions)
            assert cold.to_json() == plain.to_json()
            assert n_cold == 8 * 10  # every (range, cone) computed once
            count_executions.clear()
            warm = verify_two_sort_sharded(
                circuit, 5, jobs=1, shard_size=63 * 8, store=store
            )
            assert warm.to_json() == plain.to_json()
            assert len(count_executions) == 0  # nothing re-executed

    def test_failing_sweep_report_is_byte_identical(self, tmp_path):
        bad = make_broken(build_two_sort(5), 2)
        want = verify_two_sort_circuit(bad, 5)
        assert not want.ok
        with SqliteStore(str(tmp_path / "s.db")) as store:
            got = verify_two_sort_sharded(
                bad, 5, jobs=1, shard_size=63 * 8, store=store
            )
            assert got.to_json() == want.to_json()
            # Warm rerun: same bytes again, from the store.
            again = verify_two_sort_sharded(
                bad, 5, jobs=1, shard_size=63 * 8, store=store
            )
            assert again.to_json() == want.to_json()

    def test_audit_trail_records_each_sweep(self, tmp_path):
        circuit = build_two_sort(5)
        with SqliteStore(str(tmp_path / "s.db")) as store:
            verify_two_sort_sharded(circuit, 5, jobs=1, store=store)
            verify_two_sort_sharded(circuit, 5, jobs=1, store=store)
            runs = store.runs()
            assert len(runs) == 2
            assert runs[0].result_digest == runs[1].result_digest
            assert all(r.mode == "regions" and r.ok for r in runs)
            assert runs[0].circuit_hash == circuit.content_hash()

    @pytest.mark.parametrize("granularity", ["cache", "store"])
    def test_no_backend_and_bigint_share_one_epoch(self, tmp_path, granularity):
        """``backend=None`` means bigint: both sweeps write one epoch
        record naming it, and the second reads the first's keys."""
        circuit = build_two_sort(5)
        with JournalStore(str(tmp_path / "j.jsonl"), fsync=False) as journal:
            verify_two_sort_sharded(circuit, 5, jobs=1, **{granularity: journal})
            keys = journal.keys()
            assert keys and all("bigint" in key for key in keys)
            verify_two_sort_sharded(
                circuit, 5, jobs=1, backend="bigint", **{granularity: journal}
            )
            assert journal.keys() == keys
            assert [e.backend for e in journal.epochs()] == ["bigint"]
            assert journal.stats()["epochs"] == 1

    def test_cache_granularity_records_audit_too(self, tmp_path):
        store = MemoryStore()
        result = verify_two_sort_sharded(
            build_two_sort(4), 4, jobs=1, cache=store
        )
        runs = store.runs()
        assert len(runs) == 1 and runs[0].mode == "shards"
        assert runs[0].result_digest == result_digest(result)

    def test_incremental_b8_reexecutes_only_the_cone(
        self, tmp_path, count_executions
    ):
        """The acceptance bar: a one-gate edit at B=8 against a warm
        store re-executes only the edited cone's shards -- at least 5x
        fewer than the cold sweep -- with a byte-identical report."""
        width = 8
        circuit = build_two_sort(width)
        plain = verify_two_sort_sharded(circuit, width, jobs=1)
        n_regions = 2 * width
        with SqliteStore(str(tmp_path / "b8.db")) as store:
            cold = verify_two_sort_sharded(
                circuit, width, jobs=1, store=store
            )
            n_cold = len(count_executions)
            shards = len(pair_shards(
                width, parallel._default_pair_shard_size(width, 1)
            ))
            assert n_cold == shards * n_regions
            assert cold.to_json() == plain.to_json()

            count_executions.clear()
            edited = make_edit(circuit, 3)
            incremental = verify_two_sort_sharded(
                edited, width, jobs=1, store=store
            )
            n_inc = len(count_executions)
            assert incremental.to_json() == plain.to_json()
            assert n_inc == shards  # exactly the edited cone's shards
            assert n_cold >= 5 * n_inc
            assert {task[1] for task in count_executions} == {3}

    def test_region_sweep_process_pool(self, tmp_path):
        """jobs>1: the store spec rides initargs; workers consult it."""
        circuit = build_two_sort(5)
        plain = verify_two_sort_sharded(circuit, 5, jobs=1, shard_size=63 * 4)
        with SqliteStore(str(tmp_path / "p.db")) as store:
            r1 = verify_two_sort_sharded(
                circuit, 5, jobs=2, shard_size=63 * 4, store=store
            )
            r2 = verify_two_sort_sharded(
                circuit, 5, jobs=2, shard_size=63 * 4, store=store
            )
        assert r1.to_json() == r2.to_json() == plain.to_json()

    def test_journal_backend_region_sweep(self, tmp_path, count_executions):
        circuit = build_two_sort(4)
        plain = verify_two_sort_sharded(circuit, 4, jobs=1)
        path = str(tmp_path / "j.jsonl")
        with JournalStore(path, fsync=False) as store:
            r1 = verify_two_sort_sharded(circuit, 4, jobs=1, store=store)
        count_executions.clear()
        with JournalStore(path, fsync=False) as store:  # reopen = resume
            r2 = verify_two_sort_sharded(circuit, 4, jobs=1, store=store)
        assert r1.to_json() == r2.to_json() == plain.to_json()
        assert len(count_executions) == 0


# ----------------------------------------------------------------------
# Two processes, one SQLite store: no double execution, no corruption
# ----------------------------------------------------------------------
_SWEEP_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from repro.core.two_sort import build_two_sort
    from repro.store import SqliteStore
    from repro.verify import parallel
    from repro.verify.parallel import verify_two_sort_sharded

    db, counter_path, barrier_path = sys.argv[1], sys.argv[2], sys.argv[3]

    real = parallel._execute_region_shard
    def counting(task):
        # One line per (range, cone) pair the task computes.
        with open(counter_path, "a") as fh:
            fh.write("x\\n" * len(task[3]))
        return real(task)
    parallel._execute_region_shard = counting

    # Crude start barrier so both processes sweep concurrently.
    import os, time
    with open(barrier_path + "." + str(os.getpid()), "w"):
        pass
    deadline = time.time() + 10
    while time.time() < deadline:
        ready = [f for f in os.listdir(os.path.dirname(barrier_path))
                 if os.path.basename(barrier_path) in f]
        if len(ready) >= 2:
            break
        time.sleep(0.01)

    circuit = build_two_sort(5)
    with SqliteStore(db) as store:
        result = verify_two_sort_sharded(
            circuit, 5, jobs=1, shard_size=63 * 8, store=store
        )
    print(json.dumps({"report": result.to_json()}))
    """
)


class TestTwoProcessSqlite:
    def test_concurrent_sweeps_never_double_execute(self, tmp_path):
        db = str(tmp_path / "shared.db")
        counter = str(tmp_path / "executions.log")
        barrier = str(tmp_path / "barrier")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _SWEEP_SCRIPT, db, counter, barrier],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                text=True,
            )
            for _ in range(2)
        ]
        outs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outs.append(json.loads(out.strip().splitlines()[-1]))
        # Identical merged reports from both processes...
        assert outs[0]["report"] == outs[1]["report"]
        plain = verify_two_sort_sharded(
            build_two_sort(5), 5, jobs=1, shard_size=63 * 8
        )
        assert outs[0]["report"] == plain.to_json()
        # ...and every (range, cone) task was executed exactly once
        # *in total* across both processes: 8 ranges x 10 cones.
        with open(counter) as fh:
            executions = sum(1 for _ in fh)
        assert executions == 8 * 10
        # The shared store is intact and fully populated.
        with SqliteStore(db) as store:
            assert len(store) == 80
            assert len(store.runs()) == 2


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
class TestServiceStore:
    def test_request_store_field_roundtrip(self):
        from repro.service.jobs import VerifyRequest, request_from_dict

        req = VerifyRequest(width=4, store="sqlite:/tmp/x.db")
        data = req.to_dict()
        assert data["store"] == "sqlite:/tmp/x.db"
        assert request_from_dict(data) == req

    def test_store_and_checkpoint_are_exclusive(self):
        from repro.service.jobs import VerifyRequest

        with pytest.raises(ValueError, match="mutually exclusive"):
            VerifyRequest(
                width=4, store="s.db", checkpoint="c.jsonl"
            ).validate()

    def test_request_run_with_store_spec(self, tmp_path):
        from repro.service.jobs import VerifyRequest

        db = str(tmp_path / "svc.db")
        req = VerifyRequest(width=4, store=db)
        first = req.run()
        second = req.run()
        assert first.to_json() == second.to_json()
        with SqliteStore(db) as store:
            assert len(store.runs()) == 2

    def test_manager_stats_include_store_block(self):
        from repro.service.jobs import JobManager

        # Constructing a manager needs no running loop for stats().
        import asyncio

        async def go():
            manager = JobManager(jobs=1)
            try:
                stats = manager.stats()
                assert stats["store"]["backend"] == "memory"
                assert {"hits", "misses", "puts", "runs"} <= set(
                    stats["store"]
                )
                # The server LRU's own block, which service clients read.
                assert {"entries", "maxsize", "hits", "misses"} <= set(
                    stats["cache"]
                )
                assert stats["cache"]["backend"] == "memory"
            finally:
                await manager.aclose()

        asyncio.run(go())


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliStore:
    def test_verify_store_warm_run_executes_nothing(
        self, tmp_path, capsys, count_executions
    ):
        db = str(tmp_path / "cli.db")
        assert main(["verify", "--width", "5", "--store", db]) == 0
        first = capsys.readouterr()
        assert len(count_executions) > 0
        count_executions.clear()
        assert main(["verify", "--width", "5", "--store", db]) == 0
        second = capsys.readouterr()
        assert len(count_executions) == 0
        # stdout is byte-identical across cold and warm runs; the store
        # summary goes to stderr.
        assert first.out == second.out
        assert "miss(es)" in first.err and "hit(s)" in second.err

    def test_verify_store_json_block(self, tmp_path, capsys):
        db = str(tmp_path / "cli.db")
        assert main(["verify", "--width", "4", "--store", db, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["store"]["backend"] == "sqlite"
        assert cold["store"]["misses"] > 0 and cold["store"]["puts"] > 0
        assert main(["verify", "--width", "4", "--store", db, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["store"]["misses"] == 0 and warm["store"]["puts"] == 0
        assert warm["store"]["hits"] > 0
        assert warm["checked"] == cold["checked"] == pairs(4)

    def test_plain_json_has_no_store_block(self, capsys):
        assert main(["verify", "--width", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "store" not in payload

    def test_store_log(self, tmp_path, capsys):
        db = str(tmp_path / "log.db")
        assert main(["verify", "--width", "4", "--store", db]) == 0
        assert main(["verify", "--width", "4", "--store", db]) == 0
        capsys.readouterr()
        assert main(["store", "log", "--store", db]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert all("mode=regions" in line and "OK" in line for line in out)
        assert main(["store", "log", "--store", db, "--json",
                     "--limit", "1"]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 1
        assert records[0]["width"] == 4 and records[0]["ok"] is True

    def test_store_log_digests_match_across_runs(self, tmp_path, capsys):
        db = str(tmp_path / "dig.db")
        assert main(["verify", "--width", "4", "--store", db]) == 0
        assert main(["verify", "--width", "4", "--store", db]) == 0
        capsys.readouterr()
        assert main(["store", "log", "--store", db, "--json"]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        digests = {r["result_digest"] for r in records}
        assert len(records) == 2 and len(digests) == 1

    def test_store_excludes_checkpoint(self, tmp_path, capsys):
        assert main([
            "verify", "--width", "4",
            "--store", str(tmp_path / "a.db"),
            "--checkpoint", str(tmp_path / "b.jsonl"),
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_journal_store_via_suffix(self, tmp_path, capsys,
                                      count_executions):
        path = str(tmp_path / "j.jsonl")
        assert main(["verify", "--width", "4", "--store", path]) == 0
        count_executions.clear()
        assert main(["verify", "--width", "4", "--store", path]) == 0
        assert len(count_executions) == 0
        with JournalStore(path, fsync=False) as store:
            assert len(store.runs()) == 2
