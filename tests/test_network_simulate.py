"""Tests for word-level network simulation (repro.networks.simulate)."""

import random
from functools import partial

import pytest

from repro.circuits.compiled import CompiledCircuit
from repro.graycode.rgc import gray_encode
from repro.graycode.valid import InvalidStringError, rank, validate_all
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
from repro.verify.parallel import run_sharded
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


def _in_slices(vectors, size):
    """``vectors`` cut into consecutive slices of ``size`` (``None``:
    one slice), as a caller that sorts a batch piecewise cuts it."""
    if size is None:
        return [vectors]
    return [vectors[i : i + size] for i in range(0, len(vectors), size)]


class TestSortStringsBatch:
    """The string entry point, the ``Word`` facade over it and the
    per-vector gate-level engine agree row for row.

    A sort names no plane backend; the ``plane_backend`` parametrization
    stays only so that these test ids stay stable, and both halves run
    the same sort.  A batch sort runs in the calling process; the
    ``shard_size`` and ``sharding`` axes cut the batch into slices
    sorted by separate calls, whose rows must not depend on the cut."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("shard_size", [None, 1, 7])
    def test_agrees_with_word_paths(self, plane_backend, executor, shard_size):
        """``executor`` runs the slices through the generic
        :func:`run_sharded`, which takes any module-level worker."""
        vectors = _string_workload(23)
        assert any("m" in s for v in vectors for s in v)
        expect = _per_vector(vectors)
        assert sort_strings_batch(SORT7, vectors) == expect
        slices = run_sharded(
            partial(sort_strings_batch, SORT7),
            _in_slices(vectors, shard_size),
            jobs=2,
            executor=executor,
        )
        assert [row for rows in slices for row in rows] == expect
        words = sort_words_batch(
            SORT7, [[Word(s) for s in v] for v in vectors]
        )
        assert all(type(w) is Word for row in words for w in row)
        assert [[str(w) for w in row] for row in words] == expect

    @pytest.mark.parametrize(
        "sharding", [None, 64], ids=["serial", "shards64"]
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
        got = [
            row
            for part in _in_slices(vectors, sharding)
            for row in sort_strings_batch(network, part)
        ]
        assert got == expect

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

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_mixed_widths_rejected_on_every_engine(self, engine):
        """Regression: only ``compiled`` checked widths; ``rank``
        returned ``[['000', '00', '01', '11']]`` as if sorted and
        ``circuit`` named a netlist input (``h3``)."""
        bad = ["00", "01", "000", "11"]
        message = "all words in a batch must share one width"
        with pytest.raises(ValueError, match=message):
            sort_strings_batch(SORT4, [bad], engine=engine)
        with pytest.raises(ValueError, match=message):
            sort_words(SORT4, map(Word, bad), engine=engine)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_invalid_word_rejected_on_every_engine(self, engine):
        """Regression: only ``rank`` rejected an invalid word; the other
        four engines returned ``[['00M0', '0MM0', 'MMM0', '1000']]``.
        A zero-width batch gets one message on every engine (``compiled``
        named the 2-sort width, ``rank`` and ``fsm`` returned it)."""
        with pytest.raises(
            InvalidStringError, match=r"^Word\('MM00'\) is not a valid string$"
        ):
            sort_strings_batch(
                SORT4, [["MM00", "0110", "0010", "1000"]], engine=engine
            )
        with pytest.raises(
            ValueError, match="^words must be at least one bit wide$"
        ):
            sort_strings_batch(SORT4, [[""] * 4], engine=engine)

    def test_empty_and_shape_checks(self):
        assert sort_strings_batch(SORT4, []) == []
        with pytest.raises(ValueError, match="expects 4 values"):
            sort_strings_batch(SORT4, [["00"] * 3])
        with pytest.raises(ValueError, match="width"):
            sort_strings_batch(SORT4, [["00", "01", "000", "11"]])


#: The layer-packing matrix's networks: the fixed 4-, 7- and 10-channel
#: ones and Batcher networks from no comparator up to 8 in a layer.
_PACKED_NETWORKS = [SORT4, SORT7, SORT10_SIZE] + [
    batcher_odd_even(c) for c in (1, 2, 3, 5, 12, 16)
]


def _valid_rows(n, width, channels, seed):
    """``n`` seeded rows of valid word strings, built straight from the
    Gray code (``ValidStringSource`` builds Words, too slow for this
    matrix): a codeword, or half the time the superposition of it and
    its successor, whose one differing bit reads ``M`` or ``m``."""
    rng = random.Random(seed)

    def word():
        x = rng.randrange(1 << width)
        text = format(x ^ (x >> 1), f"0{width}b")
        if x + 1 < 1 << width and rng.random() < 0.5:
            i = width - (x ^ (x + 1) ^ ((x ^ (x + 1)) >> 1)).bit_length()
            text = text[:i] + rng.choice("Mm") + text[i + 1 :]
        return text

    rows = [[word() for _ in range(channels)] for _ in range(n)]
    validate_all([s for row in rows for s in row])
    return rows


def _edge_rows(n):
    """The first and the last row of a batch."""
    return sorted({0, n - 1})


class TestLayerPacking:
    """A compiled batch sort packs one word per lane and runs each layer
    as one pass over all of them, each comparator's ``h`` input its
    ``hi`` word shifted down onto its ``lo`` lane.  Every row equals the
    rank order (what the ``rank`` engine computes; 63-65 rows cross a
    64-lane word, and so do words at every channel count here), and the
    first and last rows equal the per-vector ``rank`` and gate-level
    ``circuit`` engines."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 256])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 16])
    @pytest.mark.parametrize(
        "network", _PACKED_NETWORKS, ids=[n.name for n in _PACKED_NETWORKS]
    )
    def test_matches_per_vector_engines(self, network, width, n):
        vectors = _valid_rows(n, width, network.channels, seed=7 * n + width)
        assert any("m" in s for v in vectors for s in v) or n < 63
        got = sort_strings_batch(network, vectors)
        assert got == [
            sorted((s.upper() for s in v), key=rank) for v in vectors
        ]
        edges = [vectors[j] for j in _edge_rows(n)]
        for engine in ("rank", "circuit"):
            assert [got[j] for j in _edge_rows(n)] == sort_strings_batch(
                network, edges, engine=engine
            ), engine

    @pytest.mark.parametrize("n", [1, 63, 65, 256])
    @pytest.mark.parametrize(
        "network", [SORT10_SIZE, batcher_odd_even(16)], ids=["10", "16"]
    )
    def test_layers_split_across_passes(self, monkeypatch, network, n):
        """A batch over the words-per-pass cap runs in passes of whole
        vectors, every layer once per pass over all of its words; the
        rows do not change, on a pass boundary or away from it."""
        import repro.networks.simulate as simulate

        cap = 25  # 250 and 400 lanes a pass: not a whole 64-lane word
        vectors = _valid_rows(n, 3, network.channels, seed=n)
        runs = []
        real = CompiledCircuit.run_outputs

        def counted(self, planes, lanes):
            runs.append(lanes)
            return real(self, planes, lanes)

        monkeypatch.setattr(simulate, "_PASS_VECTORS", cap)
        monkeypatch.setattr(CompiledCircuit, "run_outputs", counted)
        got = sort_strings_batch(network, vectors)
        assert got == [
            sorted((s.upper() for s in v), key=rank) for v in vectors
        ]
        assert runs == [
            min(cap, n - at) * network.channels
            for at in range(0, n, cap)
            for _ in network.layers
        ]
        edges = sorted(
            {j for at in range(0, n, cap) for j in (at - 1, at) if j >= 0}
            | {n - 1}
        )
        for engine in ("rank", "circuit"):
            assert [got[j] for j in edges] == sort_strings_batch(
                network, [vectors[j] for j in edges], engine=engine
            ), engine

    def test_sort10_runs_one_pass_per_layer(self, monkeypatch):
        """SORT10_SIZE's 29 comparators (layers of 5, 4, 3, 4, 4, 4, 3,
        2) take 8 program runs on 256 vectors of 16-bit words."""
        from repro.backends.base import PlaneBackend

        runs = []
        real = PlaneBackend.run_ops

        def counted(self, ops, planes):
            runs.append(len(ops))
            return real(self, ops, planes)

        vectors = _string_workload(256, width=16, channels=10)
        monkeypatch.setattr(PlaneBackend, "run_ops", counted)
        sort_strings_batch(SORT10_SIZE, vectors)
        assert runs == [314] * 8


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
