"""One store round and one kernel call per g-row range.

A region sweep reads every key in one ``get_many``, runs one task per
g-row range over that range's pending cones (one ``run_pair_shard``
call), and writes each range's values once with ``put_many`` from the
sweep's own store handle.  Workers holding a shared sqlite spec re-check
and claim a range's keys in one transaction and write nothing.  These
tests pin that shape, the batched store protocol under it, the claim
race it closes, and the store counters users see, which must read
exactly as they did when every (range, cone) pair was its own task.
"""

import json

import pytest

from repro.__main__ import main
from repro.circuits.compiled import CompiledCircuit
from repro.circuits.gates import INV
from repro.circuits.netlist import Circuit
from repro.core.two_sort import build_two_sort
from repro.store import JournalStore, MemoryStore, SqliteStore, StackedStore
from repro.store import base as store_base
from repro.store.base import consult
from repro.verify import parallel
from repro.verify.exhaustive import pair_shards
from repro.verify.parallel import verify_two_sort_sharded

B5_SHARD = 63 * 8  # 8 ranges of 2-sort(5)


def make_edit(circuit, output_index):
    edited = circuit.copy()
    root = edited.outputs[output_index]
    n1 = edited.add_gate(INV, [root], output="__rounds_inv0")
    n2 = edited.add_gate(INV, [n1], output="__rounds_inv1")
    edited.replace_output(output_index, n2)
    return edited


def value(n):
    return {"lanes": n, "mismatches": 0}


# ----------------------------------------------------------------------
# The batched protocol on every backend
# ----------------------------------------------------------------------
class TestBatchedContract:
    @pytest.fixture(params=["memory", "journal", "sqlite", "stacked"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            yield MemoryStore()
        elif request.param == "journal":
            with JournalStore(str(tmp_path / "s.jsonl"), fsync=False) as s:
                yield s
        elif request.param == "sqlite":
            with SqliteStore(str(tmp_path / "s.db")) as s:
                yield s
        else:
            with SqliteStore(str(tmp_path / "s.db")) as s:
                yield StackedStore(s, MemoryStore())

    def test_many_matches_single_key_calls(self, store):
        keys = [("k", i) for i in range(5)]
        assert store.get_many(keys) == [None] * 5
        store.put_many([(keys[1], value(1)), (keys[3], value(3))])
        assert store.get_many(keys) == [
            None, value(1), None, value(3), None
        ]
        assert store.get(keys[3]) == value(3)
        c = store.counters()
        # Counters count keys, batched or not.
        assert (c["hits"], c["misses"], c["puts"]) == (3, 8, 2)

    def test_empty_batches(self, store):
        assert store.get_many([]) == []
        assert store.claim_many([]) == []
        store.put_many([])
        assert store.counters()["puts"] == 0

    def test_claim_many_grants_fresh_keys(self, store):
        assert store.claim_many([("a",), ("b",)]) == [True, True]


class TestSqliteBatches:
    def test_batches_wider_than_one_statement(self, tmp_path):
        keys = [("wide", i) for i in range(1234)]
        with SqliteStore(str(tmp_path / "w.db")) as store:
            store.put_many([(k, value(i)) for i, k in enumerate(keys)])
            assert len(store) == 1234
            got = store.get_many(keys + [("missing",)])
            assert got[:-1] == [value(i) for i in range(1234)]
            assert got[-1] is None
            assert store.claim_many(keys[:3] + [("new",)]) == [
                False, False, False, True
            ]

    def test_put_many_releases_claims(self, tmp_path):
        path = str(tmp_path / "c.db")
        with SqliteStore(path) as a, SqliteStore(path) as b:
            assert a.claim_many([("x",), ("y",)]) == [True, True]
            assert b.claim_many([("x",), ("y",)]) == [False, False]
            a.put_many([(("x",), value(1)), (("y",), value(2))])
            assert a.stats()["claims"] == 0
            assert b.get_many([("x",), ("y",)]) == [value(1), value(2)]

    def test_key_text_is_the_json_array(self):
        """Stored key texts stay exactly ``json.dumps`` of the key, so
        stores written before the fast path still hit."""
        from repro.store.sqlite_store import _key_text

        keys = [
            ("c", "0123abcd" * 2, "native", 7, "r", 13, 0, 64),
            ("two_sort7", "h", "bigint", 7, 0, 255),
            ('q"uote\\slash\n', "\u00e9\u2603\U0001f600", -3, 2 ** 70),
            (True, False, None, 1.5, float("inf"), -0),
            (),
        ]
        for key in keys:
            assert _key_text(key) == json.dumps(
                list(key), separators=(",", ":"), sort_keys=False
            )


# ----------------------------------------------------------------------
# The claim race: a put between another handle's miss and its claim
# ----------------------------------------------------------------------
class TestClaimRace:
    def test_claim_refuses_a_key_finished_after_the_miss(self, tmp_path):
        """Sequenced, no sleeps: A misses, B claims and finishes the
        key, then A's claim must be refused -- granting it would run a
        finished key again (the double execution two concurrent sweeps
        could hit)."""
        path = str(tmp_path / "race.db")
        key = ("c", "h", "bigint", 5, "r", 3, 0, 8)
        with SqliteStore(path) as a, SqliteStore(path) as b:
            assert a.get(key) is None
            assert b.claim(key) is True
            b.put(key, value(504))
            assert a.claim(key) is False
            assert a.get(key) == value(504)

    def test_claim_many_refuses_only_finished_keys(self, tmp_path):
        path = str(tmp_path / "race.db")
        with SqliteStore(path) as a, SqliteStore(path) as b:
            keys = [("k", i) for i in range(3)]
            assert a.get_many(keys) == [None, None, None]
            b.put(keys[1], value(1))
            assert a.claim_many(keys) == [True, False, True]

    def test_expired_claim_on_a_finished_key_stays_refused(self, tmp_path):
        with SqliteStore(str(tmp_path / "e.db")) as store:
            store.put(("k",), value(1))
            assert store.claim(("k",), ttl=0.0) is False


# ----------------------------------------------------------------------
# The batched consult
# ----------------------------------------------------------------------
class TestConsult:
    def test_computes_only_missing_keys_and_writes_nothing(self, tmp_path):
        with SqliteStore(str(tmp_path / "s.db")) as store:
            store.put(("k", 1), value(10))
            calls = []

            def execute(indices):
                calls.append(list(indices))
                return [value(i) for i in indices]

            got = consult(store, [("k", 0), ("k", 1), ("k", 2)], execute)
            assert got == [value(0), value(10), value(2)]
            assert calls == [[0, 2]]  # one call for the won keys
            assert store.get_many([("k", 0), ("k", 2)]) == [None, None]

    def test_waits_for_a_live_claim_then_reads(self, tmp_path, monkeypatch):
        """Another handle holds the key: the consult polls, and once
        that handle stores the value it is read, never computed."""
        path = str(tmp_path / "s.db")
        with SqliteStore(path) as mine, SqliteStore(path) as other:
            assert other.claim(("k",)) is True
            polls = []

            def finish_elsewhere(_seconds):
                polls.append(1)
                other.put(("k",), value(7))

            monkeypatch.setattr(store_base.time, "sleep", finish_elsewhere)

            def execute(indices):
                raise AssertionError("a claimed key was executed")

            assert consult(mine, [("k",)], execute) == [value(7)]
            assert len(polls) == 1

    def test_takes_over_an_expired_claim(self, tmp_path):
        path = str(tmp_path / "s.db")
        with SqliteStore(path) as mine, SqliteStore(path) as other:
            assert other.claim(("k",)) is True
            got = consult(
                mine, [("k",)], lambda idx: [value(3)], ttl=0.0
            )
            assert got == [value(3)]


# ----------------------------------------------------------------------
# Store counters read as before
# ----------------------------------------------------------------------
class TestCounterPins:
    def test_two_sort5_cold_warm_edit(self, tmp_path):
        circuit = build_two_sort(5)
        with SqliteStore(str(tmp_path / "pins.db")) as store:
            seen = []
            for target in (circuit, circuit, make_edit(circuit, 3)):
                before = store.counters()
                result = verify_two_sort_sharded(
                    target, 5, jobs=1, shard_size=B5_SHARD, store=store
                )
                assert result.ok
                after = store.counters()
                seen.append(tuple(
                    after[k] - before[k] for k in ("hits", "misses", "puts")
                ))
        assert seen == [(0, 80, 80), (80, 0, 0), (72, 8, 8)]

    def test_cli_width7_summary(self, tmp_path, capsys):
        from repro.backends import get_backend, resolve_backend_name

        # 4 ranges x 14 cones with the C kernel; the bigint fallback on
        # a host without a compiler sizes its shards differently.
        backend = resolve_backend_name("auto")
        n = 14 * len(pair_shards(
            7, parallel._default_pair_shard_size(7, 1, backend)
        ))
        if get_backend("native").built:
            assert n == 56
        db = str(tmp_path / "cli7.db")
        assert main(["verify", "--width", "7", "--store", db]) == 0
        cold = capsys.readouterr()
        assert main(["verify", "--width", "7", "--store", db]) == 0
        warm = capsys.readouterr()
        assert f"0 hit(s), {n} miss(es), {n} new result(s)" in cold.err
        assert f"{n} hit(s), 0 miss(es), 0 new result(s)" in warm.err
        assert cold.out == warm.out


# ----------------------------------------------------------------------
# Execution shape
# ----------------------------------------------------------------------
@pytest.fixture
def shape(monkeypatch):
    """Spies: region tasks, kernel calls, cone extractions, writes."""
    log = {"tasks": [], "kernel": [], "extract": [], "writes": []}
    real_task = parallel._execute_region_shard
    real_run = CompiledCircuit.run_pair_shard
    real_extract = Circuit.extract_cones
    real_put_many = SqliteStore.put_many

    def task(t):
        log["tasks"].append(t)
        return real_task(t)

    def run(self, width, masks, g_lo, g_hi, pairs, counts=None):
        log["kernel"].append((self.name, g_lo, g_hi, len(pairs)))
        return real_run(self, width, masks, g_lo, g_hi, pairs, counts=counts)

    def extract(self, indices):
        log["extract"].append(tuple(indices))
        return real_extract(self, indices)

    def put_many(self, items):
        items = list(items)
        log["writes"].append((self, [k for k, _v in items]))
        return real_put_many(self, items)

    monkeypatch.setattr(parallel, "_execute_region_shard", task)
    monkeypatch.setattr(CompiledCircuit, "run_pair_shard", run)
    monkeypatch.setattr(Circuit, "extract_cones", extract)
    monkeypatch.setattr(SqliteStore, "put_many", put_many)
    return log


class TestExecutionShape:
    @pytest.mark.parametrize("backend", ["bigint", "native"])
    def test_cold_sweep_runs_the_full_program_once_per_range(
        self, tmp_path, shape, backend
    ):
        circuit = build_two_sort(5)
        ranges = pair_shards(5, B5_SHARD)
        with SqliteStore(str(tmp_path / "c.db")) as store:
            verify_two_sort_sharded(
                circuit, 5, jobs=1, shard_size=B5_SHARD, store=store,
                backend=backend,
            )
            assert [t[1:3] for t in shape["tasks"]] == ranges
            assert all(t[3] == tuple(range(10)) for t in shape["tasks"])
            # One kernel call per range, over all ten outputs, and no
            # cone program is extracted.
            assert [k[1:] for k in shape["kernel"]] == [
                (lo, hi, 10) for lo, hi in ranges
            ]
            assert shape["extract"] == []
            # Each range is written once, by the sweep's own handle.
            assert [w[0] for w in shape["writes"]] == [store] * len(ranges)
            written = [k for _s, ks in shape["writes"] for k in ks]
            assert len(written) == len(set(written)) == 80

    def test_one_cone_edit_runs_that_cone_once_per_range(
        self, tmp_path, shape
    ):
        circuit = build_two_sort(5)
        ranges = pair_shards(5, B5_SHARD)
        with SqliteStore(str(tmp_path / "e.db")) as store:
            verify_two_sort_sharded(
                circuit, 5, jobs=1, shard_size=B5_SHARD, store=store
            )
            for entries in shape.values():
                entries.clear()
            verify_two_sort_sharded(
                make_edit(circuit, 3), 5, jobs=1, shard_size=B5_SHARD,
                store=store,
            )
            assert [t[1:] for t in shape["tasks"]] == [
                (lo, hi, (3,)) for lo, hi in ranges
            ]
            assert [k[1:] for k in shape["kernel"]] == [
                (lo, hi, 1) for lo, hi in ranges
            ]
            assert shape["extract"] == [(3,)]  # compiled once per sweep
            assert [len(ks) for s, ks in shape["writes"]] == [1] * 8
            assert all(s is store for s, _ks in shape["writes"])

    def test_warm_sweep_executes_and_writes_nothing(self, tmp_path, shape):
        circuit = build_two_sort(4)
        with SqliteStore(str(tmp_path / "w.db")) as store:
            verify_two_sort_sharded(circuit, 4, jobs=1, store=store)
            for entries in shape.values():
                entries.clear()
            verify_two_sort_sharded(circuit, 4, jobs=1, store=store)
        assert shape == {"tasks": [], "kernel": [], "extract": [], "writes": []}

    def test_worker_handle_writes_nothing(self, tmp_path):
        """The worker's own handle on the shared spec only claims; the
        sweep's handle stores every value, once."""
        from repro.store import shared_store

        circuit = build_two_sort(5)
        with SqliteStore(str(tmp_path / "h.db")) as store:
            verify_two_sort_sharded(
                circuit, 5, jobs=1, shard_size=B5_SHARD, store=store
            )
            worker = shared_store(store.spec)
            assert worker is not store
            # It claimed every key (the claim is the re-check), read
            # none back and stored none.
            assert (worker.hits, worker.misses, worker.puts) == (0, 0, 0)
            assert store.puts == 80
            assert worker.stats()["claims"] == 0  # all released

    def test_partially_warm_ranges_check_only_their_missing_cones(
        self, tmp_path, shape
    ):
        circuit = build_two_sort(5)
        ranges = pair_shards(5, B5_SHARD)
        with SqliteStore(str(tmp_path / "p.db")) as store:
            verify_two_sort_sharded(
                circuit, 5, jobs=1, shard_size=B5_SHARD, store=store
            )
            # Forget two keys of range 2 and one of range 5.
            hashes = circuit.region_hashes()
            drop = [(2, 0), (2, 7), (5, 4)]
            with store._lock:
                for i, o in drop:
                    key = parallel._region_key(
                        circuit.name, hashes[o], "bigint", 5, o, *ranges[i]
                    )
                    store._conn.execute(
                        "DELETE FROM results WHERE key = ?",
                        (json.dumps(list(key), separators=(",", ":")),),
                    )
            for entries in shape.values():
                entries.clear()
            result = verify_two_sort_sharded(
                circuit, 5, jobs=1, shard_size=B5_SHARD, store=store
            )
            assert result.ok
            assert [t[1:] for t in shape["tasks"]] == [
                ranges[2] + ((0, 7),), ranges[5] + ((4,),)
            ]
            assert sorted(shape["extract"]) == [(0, 7), (4,)]
