"""Tests for repro.graycode.valid -- S^B_rg and the Table 2 order."""

import itertools

import pytest

from repro.graycode.rgc import gray_decode, gray_encode
from repro.circuits.compiled import planes_from_str
from repro.graycode.valid import (
    InvalidStringError,
    all_valid,
    all_valid_strings,
    count_valid_strings,
    from_rank,
    invalid_lanes,
    is_valid,
    make_valid,
    rank,
    try_rank,
    validate,
    validate_all,
    value_interval,
)
from repro.networks.simulate import sort_strings_batch
from repro.networks.topologies import SORT4
from repro.ternary.word import Word
from repro.verify.random_valid import ValidStringSource


class TestTable2:
    """The 4-bit valid-input table of the paper, verbatim."""

    EXPECTED = [
        "0000", "000M", "0001", "00M1", "0011", "001M", "0010", "0M10",
        "0110", "011M", "0111", "01M1", "0101", "010M", "0100", "M100",
        "1100", "110M", "1101", "11M1", "1111", "111M", "1110", "1M10",
        "1010", "101M", "1011", "10M1", "1001", "100M", "1000",
    ]

    def test_enumeration_matches_table2(self):
        assert [str(w) for w in all_valid_strings(4)] == self.EXPECTED

    def test_count(self):
        assert count_valid_strings(4) == 31
        assert len(all_valid_strings(4)) == 31

    def test_counts_per_width(self):
        for width in (1, 2, 3, 5, 6):
            assert len(all_valid_strings(width)) == (1 << (width + 1)) - 1


class TestMembership:
    def test_all_codewords_are_valid(self):
        for x in range(16):
            assert is_valid(gray_encode(x, 4))

    def test_adjacent_superpositions_are_valid(self):
        for x in range(15):
            assert is_valid(make_valid(x, 4, metastable=True))

    def test_two_ms_invalid(self):
        assert not is_valid(Word("0MM0"))

    def test_non_adjacent_m_invalid(self):
        # 0M01: resolutions 0001 (1) and 0101 (6) -- not adjacent.
        assert not is_valid(Word("0M01"))

    def test_mm_only_string_invalid(self):
        assert not is_valid(Word("MM"))

    def test_single_bit_m_is_valid(self):
        # width 1: M = rg(0) * rg(1) is a valid string.
        assert is_valid(Word("M"))


class TestRankOrder:
    def test_rank_round_trip(self):
        for width in (1, 2, 3, 4):
            for r in range(count_valid_strings(width)):
                assert rank(from_rank(r, width)) == r

    def test_stable_rank_is_twice_value(self):
        assert rank(gray_encode(5, 4)) == 10

    def test_superposed_rank_is_odd(self):
        assert rank(make_valid(5, 4, metastable=True)) == 11

    def test_rank_rejects_invalid(self):
        with pytest.raises(InvalidStringError):
            rank(Word("0MM0"))

    def test_try_rank_returns_none(self):
        assert try_rank(Word("MM")) is None

    def test_from_rank_bounds(self):
        with pytest.raises(ValueError):
            from_rank(-1, 3)
        with pytest.raises(ValueError):
            from_rank(15, 3)

    def test_order_is_table2_order(self):
        """Ascending rank must walk Table 2 top to bottom."""
        words = all_valid_strings(4)
        assert sorted(words, key=rank) == list(words)


class TestValueInterval:
    def test_stable_interval_is_point(self):
        assert value_interval(gray_encode(3, 4)) == (3, 3)

    def test_superposed_interval_spans_two(self):
        assert value_interval(Word("0M10")) == (3, 4)

    def test_paper_example_0M10(self):
        """0M10 = rg(3) * rg(4) (between values 3 and 4)."""
        assert Word("0010") * Word("0110") == Word("0M10")
        assert value_interval(Word("0M10")) == (3, 4)


class TestMakeValidate:
    def test_make_valid_range_check(self):
        with pytest.raises(ValueError):
            make_valid(3, 2, metastable=True)  # rg(4) doesn't exist

    def test_validate_passthrough(self):
        w = Word("011M")
        assert validate(w) is w

    def test_validate_raises(self):
        with pytest.raises(InvalidStringError):
            validate(Word("M0M0"))


class TestObservation24:
    def test_substrings_of_valid_are_valid(self):
        """Observation 2.4: g_{i,j} of a valid string is valid."""
        for w in all_valid_strings(5):
            for i in range(1, 6):
                for j in range(i, 6):
                    assert is_valid(w.substring(i, j)), (w, i, j)


def _reference_try_rank(w: Word):
    """The per-trit ``Word`` walk ``try_rank`` used before its string form."""
    meta = w.metastable_positions()
    if len(meta) > 1:
        return None
    if not meta:
        return 2 * gray_decode(w)
    pos = meta[0]
    a = gray_decode(w.replace_bit(pos, 0))
    b = gray_decode(w.replace_bit(pos, 1))
    if abs(a - b) != 1:
        return None
    return 2 * min(a, b) + 1


class TestStringForm:
    """``try_rank`` (and ``is_valid``/``rank``/``validate`` through it)
    decodes the string form; a ``Word`` goes through ``str(w)``."""

    @pytest.mark.parametrize("width", range(1, 9))
    def test_matches_word_walk_on_every_string(self, width):
        for chars in itertools.product("01Mm", repeat=width):
            s = "".join(chars)
            expect = _reference_try_rank(Word(s))
            assert try_rank(s) == expect, s
            assert try_rank(Word(s)) == expect, s
            assert all_valid([s]) is (expect is not None), s

    def test_empty_string_ranks_like_empty_word(self):
        assert try_rank("") == try_rank(Word("")) == 0

    @pytest.mark.parametrize("bad", ["01x0", "0 1", "1_0", "0b10", " 01", "012"])
    def test_bad_characters_raise_the_word_error(self, bad):
        with pytest.raises(ValueError) as expect:
            Word(bad)
        for fn in (try_rank, is_valid, rank, validate):
            with pytest.raises(ValueError) as got:
                fn(bad)
            assert type(got.value) is type(expect.value)
            assert str(got.value) == str(expect.value)

    @pytest.mark.parametrize("s", ["0MM0", "0m01", "mm", "M0M0"])
    def test_invalid_string_message_names_the_word(self, s):
        for fn in (rank, validate):
            with pytest.raises(InvalidStringError) as got:
                fn(s)
            assert str(got.value) == f"{Word(s)!r} is not a valid string"

    def test_validate_returns_the_string_unchanged(self):
        assert validate("0m10") == "0m10"
        assert rank("0m10") == rank(Word("0M10")) == 7
        assert value_interval("0m10") == (3, 4)


def _first_error(words):
    """What the per-word ``validate`` loop raises for ``words``."""
    try:
        for w in words:
            validate(w)
    except ValueError as exc:
        return exc
    raise AssertionError("no bad word in the batch")


#: Width-4 words :func:`validate_all` must reject with the per-word
#: error: invalid Gray words, bad characters (``١`` is a Unicode digit
#: ``int()`` reads as 1) and words holding the batch join separator,
#: whose halves are valid words.
BAD_WORDS = ["0MM0", "M0M0", "01x0", "0 10", "01١0", "0,10", "01,1"]


class TestBatchValidation:
    """``all_valid``/``validate_all`` check a batch in one pass and fall
    back to the per-word loop's exact error."""

    #: 620 words: "middle" and "last" fall in later 256-word matches.
    BATCH = [str(w) for w in all_valid_strings(4)] * 20

    def test_valid_batches_pass(self):
        assert all_valid(self.BATCH)
        assert all_valid([s.lower() for s in self.BATCH])
        assert all_valid([])
        validate_all(self.BATCH)
        validate_all([])

    @pytest.mark.parametrize("bad", BAD_WORDS)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_bad_word_raises_the_per_word_error(self, bad, where):
        batch = list(self.BATCH)
        at = {"first": 0, "middle": len(batch) // 2, "last": len(batch)}[where]
        batch.insert(at, bad)
        expect = _first_error(batch)
        assert not all_valid(batch)
        with pytest.raises(ValueError) as got:
            validate_all(batch)
        assert type(got.value) is type(expect)
        assert str(got.value) == str(expect)

    def test_first_bad_word_wins(self):
        batch = self.BATCH[:3] + ["0MM0"] + self.BATCH[3:] + ["01x0"]
        with pytest.raises(InvalidStringError, match="0MM0"):
            validate_all(batch)

    def test_separator_word_is_not_two_words(self):
        assert all_valid(["0", "1", "M"])
        assert not all_valid(["0", "1,M"])
        assert not all_valid(["0,1"])


class TestPlaneCheck:
    """``invalid_lanes`` decides ``S^B_rg`` on packed planes, and the
    batch sort that packs them raises the per-word loop's error."""

    @pytest.mark.parametrize("width", range(1, 9))
    def test_matches_is_valid_on_every_string(self, width):
        """Every string over ``0``, ``1``, ``M``, ``m`` as one batch,
        one word a lane (65,536 lanes at width 8)."""
        words = ["".join(c) for c in itertools.product("01Mm", repeat=width)]
        bad = invalid_lanes(planes_from_str("".join(words), width), width)
        assert bad >> len(words) == 0
        for j, w in enumerate(words):
            assert (bad >> j & 1) == (not is_valid(w)), w

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_each_word_of_a_lane_is_checked_alone(self, width):
        """Two words a lane: the rule restarts at each word, so a lane
        is bad iff one of its words is (``M`` then ``0`` across the word
        edge is two valid words)."""
        words = ["".join(c) for c in itertools.product("01M", repeat=width)]
        pairs = list(itertools.product(words, repeat=2))
        bad = invalid_lanes(
            planes_from_str("".join(a + b for a, b in pairs), 2 * width),
            width,
        )
        for j, (a, b) in enumerate(pairs):
            assert (bad >> j & 1) == (not (is_valid(a) and is_valid(b))), (a, b)

    @pytest.mark.parametrize("bad", BAD_WORDS)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_bad_word_in_any_lane_of_any_channel(self, bad, where):
        """A 130-vector SORT4 batch (lanes cross two 64-lane words)
        with one bad word raises what the per-word loop raises."""
        source = ValidStringSource(4, meta_rate=0.4, seed=4)
        rows = [[str(w) for w in source.sample_vector(4)] for _ in range(130)]
        j = {"first": 0, "middle": 65, "last": 129}[where]
        for c in range(4):
            batch = [list(row) for row in rows]
            batch[j][c] = bad
            expect = _first_error([s for row in batch for s in row])
            with pytest.raises(ValueError) as got:
                sort_strings_batch(SORT4, batch)
            assert type(got.value) is type(expect)
            assert str(got.value) == str(expect)
