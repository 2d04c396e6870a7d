"""Tests for word-level network simulation (repro.networks.simulate)."""

import random

import pytest

from repro.backends import PlaneBackend
from repro.graycode.rgc import gray_encode
from repro.graycode.valid import rank
from repro.networks.properties import check_mc_sort, is_sorted_by_rank, outputs_all_valid
from repro.networks.simulate import (
    ENGINES,
    sort_strings_batch,
    sort_words,
    sort_words_batch,
)
from repro.networks.topologies import (
    SORT4,
    SORT7,
    SORT10_SIZE,
    batcher_odd_even,
    best_known,
)
from repro.ternary.trit import Trit
from repro.ternary.word import Word
from repro.verify.random_valid import ValidStringSource


class TestEngines:
    def test_engine_registry(self):
        assert set(ENGINES) == {"closure", "fsm", "rank", "circuit", "compiled"}

    def test_unknown_engine(self):
        with pytest.raises(KeyError, match="unknown simulation engine"):
            sort_words(SORT4, [Word("00")] * 4, engine="abacus")

    @pytest.mark.parametrize(
        "engine", ["closure", "fsm", "rank", "circuit", "compiled"]
    )
    def test_engines_sort_stable(self, engine):
        width = 3
        words = [gray_encode(v, width) for v in (6, 1, 4, 0)]
        out = sort_words(SORT4, words, engine=engine)
        assert [rank(w) for w in out] == sorted(rank(w) for w in words)

    @pytest.mark.parametrize("engine", ["closure", "fsm", "circuit", "compiled"])
    def test_engines_agree_on_metastable(self, engine):
        width = 4
        source = ValidStringSource(width, meta_rate=0.6, seed=7)
        for _ in range(15):
            words = source.sample_vector(4)
            baseline = sort_words(SORT4, words, engine="rank")
            assert sort_words(SORT4, words, engine=engine) == baseline


class TestSortWordsBatch:
    def test_batch_matches_per_vector_rank(self):
        width = 4
        source = ValidStringSource(width, meta_rate=0.5, seed=13)
        vectors = [source.sample_vector(4) for _ in range(40)]
        batch = sort_words_batch(SORT4, vectors)
        assert batch == [sort_words(SORT4, v, engine="rank") for v in vectors]

    def test_batch_matches_gate_level_engine(self):
        width = 3
        source = ValidStringSource(width, meta_rate=0.6, seed=21)
        vectors = [source.sample_vector(SORT7.channels) for _ in range(12)]
        batch = sort_words_batch(SORT7, vectors, engine="compiled")
        per_vec = [sort_words(SORT7, v, engine="circuit") for v in vectors]
        assert batch == per_vec

    def test_non_compiled_engine_falls_back(self):
        width = 3
        source = ValidStringSource(width, meta_rate=0.4, seed=5)
        vectors = [source.sample_vector(4) for _ in range(6)]
        batch = sort_words_batch(SORT4, vectors, engine="fsm")
        assert batch == [sort_words(SORT4, v, engine="fsm") for v in vectors]

    def test_empty_batch(self):
        assert sort_words_batch(SORT4, []) == []

    def test_unknown_engine_uniform_error(self):
        """Regression: an unknown engine with an *empty* batch used to
        return [] instead of raising like sort_words does."""
        with pytest.raises(KeyError, match="unknown simulation engine"):
            sort_words_batch(SORT4, [], engine="abacus")
        with pytest.raises(KeyError, match="unknown simulation engine"):
            sort_words_batch(SORT4, [[Word("00")] * 4], engine="abacus")

    def test_channel_count_checked(self):
        with pytest.raises(ValueError, match="expects 4 values"):
            sort_words_batch(SORT4, [[Word("00")] * 3])

    def test_mixed_widths_rejected(self):
        bad = [[Word("00"), Word("01"), Word("000"), Word("11")]]
        with pytest.raises(ValueError, match="width"):
            sort_words_batch(SORT4, bad)


class TestSortWordsBatchSharded:
    def _workload(self, n, width=4, channels=None, seed=3):
        channels = channels or SORT4.channels
        source = ValidStringSource(width, meta_rate=0.5, seed=seed)
        return [source.sample_vector(channels) for _ in range(n)]

    def test_process_shards_match_serial(self):
        vectors = self._workload(24)
        serial = sort_words_batch(SORT4, vectors)
        sharded = sort_words_batch(SORT4, vectors, jobs=2, shard_size=5)
        assert sharded == serial

    def test_serial_executor_shards_match(self):
        vectors = self._workload(17)
        serial = sort_words_batch(SORT4, vectors)
        for shard_size in (1, 3, 100):
            assert (
                sort_words_batch(
                    SORT4,
                    vectors,
                    jobs=3,
                    shard_size=shard_size,
                    executor="serial",
                )
                == serial
            )

    def test_sharded_non_compiled_engine(self):
        vectors = self._workload(9)
        serial = sort_words_batch(SORT4, vectors, engine="fsm")
        sharded = sort_words_batch(
            SORT4, vectors, engine="fsm", jobs=2, shard_size=4,
            executor="serial",
        )
        assert sharded == serial

    def test_jobs_one_stays_single_process(self):
        vectors = self._workload(5)
        assert sort_words_batch(SORT4, vectors, jobs=1) == sort_words_batch(
            SORT4, vectors
        )

    def test_sharded_rejects_mixed_widths_like_serial(self):
        """The sharded path must reject exactly what the serial path
        rejects, independent of where shard boundaries fall."""
        mixed = self._workload(4, width=2) + self._workload(4, width=3)
        with pytest.raises(ValueError, match="width"):
            sort_words_batch(SORT4, mixed)
        with pytest.raises(ValueError, match="width"):
            sort_words_batch(SORT4, mixed, jobs=2, shard_size=4)

    def test_sharded_unknown_executor(self):
        with pytest.raises(KeyError, match="unknown executor"):
            sort_words_batch(
                SORT4, self._workload(4), jobs=2, executor="quantum"
            )

    def test_executor_validated_regardless_of_batch_size(self):
        """A bad executor name must raise even for 0- or 1-vector
        batches -- validation must not depend on batch size."""
        for n in (0, 1):
            with pytest.raises(KeyError, match="unknown executor"):
                sort_words_batch(
                    SORT4, self._workload(n), jobs=2, executor="quantum"
                )

    def test_executor_alone_routes_through_registry(self):
        vectors = self._workload(6)
        out = sort_words_batch(SORT4, vectors, executor="serial")
        assert out == sort_words_batch(SORT4, vectors)


def _string_workload(n, width=4, seed=17, channels=SORT7.channels):
    """Seeded rows of valid word strings (SORT7's by default), about
    half their ``M``s as ``m``."""
    source = ValidStringSource(width, meta_rate=0.5, seed=seed)
    rng = random.Random(seed)
    return [
        [
            str(w).replace("M", "m") if rng.random() < 0.5 else str(w)
            for w in source.sample_vector(channels)
        ]
        for _ in range(n)
    ]


def _per_vector(vectors, engine="circuit"):
    """The reference: ``sort_words`` one vector at a time, as strings."""
    return [
        [str(w) for w in sort_words(SORT7, map(Word, v), engine=engine)]
        for v in vectors
    ]


class TestSortStringsBatch:
    """The string entry point, the ``Word`` facade over it and the
    per-vector gate-level engine agree row for row.

    A sort names no plane backend; the ``plane_backend`` parametrization
    stays only so that these test ids stay stable, and both halves run
    the same sort."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("shard_size", [None, 1, 7])
    def test_agrees_with_word_paths(self, plane_backend, executor, shard_size):
        vectors = _string_workload(23)
        assert any("m" in s for v in vectors for s in v)
        expect = _per_vector(vectors)
        kwargs = dict(jobs=2, shard_size=shard_size, executor=executor)
        assert sort_strings_batch(SORT7, vectors, **kwargs) == expect
        words = sort_words_batch(
            SORT7, [[Word(s) for s in v] for v in vectors], **kwargs
        )
        assert all(type(w) is Word for row in words for w in row)
        assert [[str(w) for w in row] for row in words] == expect

    @pytest.mark.parametrize(
        "sharding", [{}, {"jobs": 1, "shard_size": 64}],
        ids=["serial", "shards64"],
    )
    @pytest.mark.parametrize("width", [1, 5, 16])
    @pytest.mark.parametrize(
        "network", [SORT4, SORT7, best_known(10)],
        ids=["SORT4", "SORT7", "best10"],
    )
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 257])
    def test_serial_path_agrees(
        self, plane_backend, n, network, width, sharding
    ):
        """The strided codec matches the rank-order sort across 64-lane
        word edges, at every width, with ``m`` in the input."""
        vectors = _string_workload(
            n, width=width, seed=n + width, channels=network.channels
        )
        assert any("m" in s for v in vectors for s in v) or n == 1
        expect = [sorted((s.upper() for s in v), key=rank) for v in vectors]
        assert sort_strings_batch(network, vectors, **sharding) == expect

    @pytest.mark.parametrize("bad", ["x", " ", "١"])
    def test_bad_character_raises_the_trit_error(self, plane_backend, bad):
        vectors = _string_workload(70)
        vectors[66][3] = vectors[66][3][:2] + bad + vectors[66][3][3:]
        with pytest.raises(ValueError) as expect:
            Trit.from_char(bad)
        with pytest.raises(ValueError) as got:
            sort_strings_batch(SORT7, vectors)
        assert str(got.value) == str(expect.value)

    def test_non_compiled_engine(self):
        vectors = _string_workload(9, seed=8)
        expect = _per_vector(vectors, engine="fsm")
        assert sort_strings_batch(SORT7, vectors, engine="fsm") == expect
        assert sort_strings_batch(
            SORT7, vectors, engine="fsm", shard_size=4, executor="serial"
        ) == expect

    def test_empty_and_shape_checks(self):
        assert sort_strings_batch(SORT4, []) == []
        with pytest.raises(ValueError, match="expects 4 values"):
            sort_strings_batch(SORT4, [["00"] * 3])
        with pytest.raises(ValueError, match="width"):
            sort_strings_batch(SORT4, [["00", "01", "000", "11"]])

    def test_word_facade_on_shard_gets_words(self):
        vectors = [[Word(s) for s in v] for v in _string_workload(5)]
        seen = []
        sort_words_batch(
            SORT7, vectors, shard_size=2,
            on_shard=lambda done, total, rows: seen.append(rows),
        )
        assert [len(rows) for rows in seen] == [2, 2, 1]
        assert all(type(w) is Word for rows in seen for r in rows for w in r)


class TestSortShardSize:
    """A default compiled-engine shard grows toward the int-plane budget
    (``PlaneBackend.preferred_shard_lanes`` vectors)
    but never past an even split over the workers; past the budget, ~4
    shards per worker."""

    @staticmethod
    def _totals(vectors, **kwargs):
        totals = []
        sort_strings_batch(
            SORT7, vectors, executor="serial",
            on_shard=lambda done, total, rows: totals.append(total),
            **kwargs,
        )
        return set(totals)

    def test_small_batch_is_one_shard(self):
        assert self._totals(_string_workload(256), jobs=1) == {1}

    def test_past_the_budget_four_shards_per_worker(self, monkeypatch):
        monkeypatch.setattr(PlaneBackend, "preferred_shard_lanes", 8)
        vectors = _string_workload(100)
        assert self._totals(vectors, jobs=1) == {4}
        monkeypatch.setattr(PlaneBackend, "preferred_shard_lanes", 64)
        assert self._totals(vectors, jobs=1) == {2}

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_every_worker_gets_a_shard(self, jobs):
        # 1,000 vectors are far below the 16,384-lane int-plane budget; the
        # budget must not leave workers idle.
        vectors = _string_workload(1000)
        assert self._totals(vectors, jobs=jobs) == {jobs}

    def test_explicit_shard_size_wins(self):
        assert self._totals(_string_workload(10), shard_size=3) == {4}

    def test_non_compiled_engines_keep_four_per_worker(self):
        vectors = _string_workload(12)
        assert self._totals(vectors, jobs=1, engine="rank") == {4}


class TestMcSortContract:
    @pytest.mark.parametrize("net", [SORT4, SORT7, SORT10_SIZE])
    def test_contract_on_random_vectors(self, net):
        width = 4
        source = ValidStringSource(width, meta_rate=0.5, seed=net.channels)
        for _ in range(10):
            words = source.sample_vector(net.channels)
            out = sort_words(net, words, engine="fsm")
            assert check_mc_sort(words, out) == []

    def test_batcher_with_mc_elements(self):
        width = 3
        net = batcher_odd_even(6)
        source = ValidStringSource(width, meta_rate=0.5, seed=99)
        for _ in range(10):
            words = source.sample_vector(6)
            out = sort_words(net, words, engine="closure")
            assert outputs_all_valid(out)
            assert is_sorted_by_rank(out)


class TestPropertyHelpers:
    def test_is_sorted_by_rank(self):
        assert is_sorted_by_rank([Word("00"), Word("0M"), Word("0M"), Word("01")])
        assert not is_sorted_by_rank([Word("01"), Word("00")])

    def test_check_mc_sort_detects_width_change(self):
        probs = check_mc_sort([Word("00")], [Word("00"), Word("01")])
        assert any("channel count" in p for p in probs)

    def test_check_mc_sort_detects_invalid_output(self):
        probs = check_mc_sort([Word("00"), Word("01")], [Word("MM"), Word("01")])
        assert any("not a valid string" in p for p in probs)

    def test_check_mc_sort_detects_unsorted(self):
        probs = check_mc_sort([Word("00"), Word("01")], [Word("01"), Word("00")])
        assert any("not ascending" in p for p in probs)

    def test_check_mc_sort_detects_rank_change(self):
        probs = check_mc_sort([Word("00"), Word("01")], [Word("00"), Word("11")])
        assert any("rank multiset" in p for p in probs)
