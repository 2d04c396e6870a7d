"""Tests for the complete 2-sort(B) circuit (paper Fig. 5, Thm 5.1)."""

import math

import pytest

from repro.circuits.analysis import logic_depth, total_area
from repro.circuits.evaluate import evaluate_words
from repro.core.two_sort import build_two_sort, predicted_gate_count, split_outputs
from repro.graycode.ops import two_sort_closure
from repro.graycode.valid import all_valid_strings
from repro.verify.exhaustive import verify_two_sort_circuit


class TestGateCounts:
    """The '# Gates' column of Table 7, exactly."""

    @pytest.mark.parametrize(
        "width, published",
        [(2, 13), (4, 55), (8, 169), (16, 407)],
    )
    def test_published_gate_counts(self, width, published):
        assert build_two_sort(width).gate_count() == published
        assert predicted_gate_count(width) == published

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 6, 7, 9, 12, 24, 32])
    def test_prediction_matches_construction(self, width):
        assert build_two_sort(width).gate_count() == predicted_gate_count(width)

    def test_width_one_degenerates(self):
        c = build_two_sort(1)
        assert c.gate_count() == 2  # one OR + one AND

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            build_two_sort(0)
        with pytest.raises(ValueError):
            predicted_gate_count(0)


class TestAsymptotics:
    """Theorem 5.1: O(B) gates, O(log B) depth."""

    def test_linear_size(self):
        # gates(B)/B is bounded: asymptotically 10·(2 ops/bit) for the
        # PPC + 10 for the out cell + 1 inverter = 31 gates per bit.
        for width in (8, 16, 32, 64, 128, 512):
            assert predicted_gate_count(width) <= 31 * width

    def test_logarithmic_depth(self):
        for width in (4, 8, 16, 32, 64, 128):
            depth = logic_depth(build_two_sort(width))
            # ⋄̂/out cells are depth 3; PPC depth <= 2 log2; +1 inverter.
            assert depth <= 3 * (2 * math.ceil(math.log2(width)) - 1) + 4

    def test_depth_grows_slowly(self):
        # quadrupling B adds at most two PPC levels of 2 cells each
        # (2 x 2 x 3 gate levels).
        d16 = logic_depth(build_two_sort(16))
        d64 = logic_depth(build_two_sort(64))
        assert d64 - d16 <= 12

    def test_mc_safe_cells_only(self):
        for width in (2, 5, 16):
            assert build_two_sort(width).is_mc_safe()


class TestInterface:
    def test_port_ordering(self):
        c = build_two_sort(3)
        assert list(c.inputs) == ["g1", "g2", "g3", "h1", "h2", "h3"]
        assert len(c.outputs) == 6

    def test_split_outputs(self):
        mx, mn = split_outputs(list(range(8)), 4)
        assert mx == [0, 1, 2, 3] and mn == [4, 5, 6, 7]
        with pytest.raises(ValueError):
            split_outputs([1, 2, 3], 2)


class TestCorrectness:
    """Definition 2.8 on the full valid-string domain."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_exhaustive_equals_closure(self, width):
        result = verify_two_sort_circuit(build_two_sort(width), width)
        assert result.ok, result.failures[:3]
        assert result.checked == ((1 << (width + 1)) - 1) ** 2

    @pytest.mark.parametrize("width", [5, 6])
    def test_exhaustive_width5(self, width):
        """Equality on all 3,969 (B=5) and 16,129 (B=6) valid pairs,
        which implies the outputs are valid strings (containment)."""
        result = verify_two_sort_circuit(build_two_sort(width), width)
        assert result.ok, result.failures[:3]
        assert result.checked == ((1 << (width + 1)) - 1) ** 2

    def test_paper_examples(self):
        c = build_two_sort(4)
        from repro.ternary.word import Word

        out = evaluate_words(c, Word("1001"), Word("1000"))
        assert (str(out[:4]), str(out[4:])) == ("1000", "1001")
        out = evaluate_words(c, Word("0M10"), Word("0010"))
        assert (str(out[:4]), str(out[4:])) == ("0M10", "0010")
        out = evaluate_words(c, Word("0M10"), Word("0110"))
        assert (str(out[:4]), str(out[4:])) == ("0110", "0M10")


class TestSchedules:
    """Alternative prefix schedules are functionally identical."""

    @pytest.mark.parametrize("schedule", ["serial", "sklansky"])
    def test_schedule_equivalence(self, schedule):
        width = 4
        alt = build_two_sort(width, schedule=schedule)
        strings = all_valid_strings(width)
        lf = build_two_sort(width)
        for g in strings:
            for h in strings:
                assert evaluate_words(alt, g, h) == evaluate_words(lf, g, h)

    def test_unknown_schedule(self):
        with pytest.raises(KeyError):
            build_two_sort(4, schedule="nope")

    def test_serial_is_deeper_but_not_larger(self):
        lf = build_two_sort(16)
        serial = build_two_sort(16, schedule="serial")
        assert logic_depth(serial) > logic_depth(lf)
        assert serial.gate_count() <= lf.gate_count()

    def test_sklansky_not_deeper_but_larger(self):
        lf = build_two_sort(16)
        sk = build_two_sort(16, schedule="sklansky")
        assert logic_depth(sk) <= logic_depth(lf)
        assert sk.gate_count() > lf.gate_count()
