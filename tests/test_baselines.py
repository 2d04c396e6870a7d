"""Tests for the DATE 2017 reconstruction and the Bin-comp baseline."""

import pytest

from repro.baselines.bincomp import (
    PUBLISHED_BINCOMP_2SORT,
    build_bincomp_two_sort,
    predicted_bincomp_gate_count,
)
from repro.baselines.date17 import (
    PUBLISHED_DATE17_2SORT,
    build_date17_two_sort,
    predicted_date17_gate_count,
)
from repro.circuits.analysis import logic_depth
from repro.circuits.evaluate import evaluate_words
from repro.core.two_sort import predicted_gate_count
from repro.ternary.resolution import all_stable_words
from repro.ternary.word import Word
from repro.verify.exhaustive import verify_two_sort_circuit


class TestDate17Correctness:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_exhaustive_equals_closure(self, width):
        result = verify_two_sort_circuit(build_date17_two_sort(width), width)
        assert result.ok, result.failures[:3]

    def test_width5_exhaustive(self):
        result = verify_two_sort_circuit(build_date17_two_sort(5), 5)
        assert result.ok, result.failures[:3]

    def test_mc_safe_cells_only(self):
        for width in (2, 7, 16):
            assert build_date17_two_sort(width).is_mc_safe()


class TestDate17Complexity:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 16, 32])
    def test_prediction_matches_construction(self, width):
        assert (
            build_date17_two_sort(width).gate_count()
            == predicted_date17_gate_count(width)
        )

    def test_theta_b_log_b_growth(self):
        """f(2B)/f(B) -> 2·(log(2B)/log B) > 2: superlinear growth."""
        f = predicted_date17_gate_count
        assert f(64) > 2 * f(32)
        assert f(128) > 2 * f(64)

    def test_log_factor_vs_this_paper(self):
        """The paper's claim: [2] is a Θ(log B) factor larger."""
        for width in (16, 64, 256):
            ratio = predicted_date17_gate_count(width) / predicted_gate_count(width)
            assert ratio > 2.0
        # the ratio grows with B (the log factor)
        r16 = predicted_date17_gate_count(16) / predicted_gate_count(16)
        r256 = predicted_date17_gate_count(256) / predicted_gate_count(256)
        assert r256 > r16

    def test_same_ballpark_as_published(self):
        """Reconstruction within 12% of published gate counts for B >= 4.

        (B = 2 deviates more -- 48 vs 34 -- because the original
        presumably hand-optimised the two-bit base case, which our
        uniform recursion does not; see README.md, "Substitutions".)
        """
        for width, (gates, _, _) in PUBLISHED_DATE17_2SORT.items():
            if width < 4:
                continue
            mine = predicted_date17_gate_count(width)
            assert abs(mine - gates) / gates < 0.12, (width, mine, gates)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            build_date17_two_sort(0)
        with pytest.raises(ValueError):
            predicted_date17_gate_count(0)


class TestBincompStable:
    """Bin-comp is a correct sorter on stable binary inputs."""

    @pytest.mark.parametrize("style", ["ripple", "tree"])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_sorts_all_stable_pairs(self, width, style):
        c = build_bincomp_two_sort(width, style=style)
        for a in all_stable_words(width):
            for b in all_stable_words(width):
                out = evaluate_words(c, a, b)
                hi, lo = out[:width], out[width:]
                want_hi, want_lo = (a, b) if a.to_int() >= b.to_int() else (b, a)
                assert (hi, lo) == (want_hi, want_lo), (a, b, style)

    def test_auto_style_switches_at_8(self):
        assert "ripple" in build_bincomp_two_sort(8).name
        assert "tree" in build_bincomp_two_sort(16).name

    def test_tree_shallower_than_ripple_at_16(self):
        ripple = build_bincomp_two_sort(16, style="ripple")
        tree = build_bincomp_two_sort(16, style="tree")
        assert logic_depth(tree) < logic_depth(ripple)

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16])
    def test_prediction_matches_construction(self, width):
        assert (
            build_bincomp_two_sort(width).gate_count()
            == predicted_bincomp_gate_count(width)
        )

    def test_much_smaller_than_mc_designs(self):
        """The paper's Table 7 shape: Bin-comp ≪ MC designs in gates."""
        for width in (4, 8, 16):
            assert (
                predicted_bincomp_gate_count(width)
                < predicted_gate_count(width)
                < predicted_date17_gate_count(width)
            )

    def test_bad_style_rejected(self):
        with pytest.raises(ValueError):
            build_bincomp_two_sort(4, style="banana")
        with pytest.raises(ValueError):
            build_bincomp_two_sort(0)


class TestBincompNotContaining:
    """The reason the paper exists: binary comparators break on M."""

    def test_violates_containment(self):
        from repro.graycode.valid import is_valid

        c = build_bincomp_two_sort(4)
        # metastable bit in a: select signal goes M, poisoning outputs.
        a, b = Word("10M0"), Word("1000")
        out = evaluate_words(c, a, b)
        hi, lo = out[:4], out[4:]
        assert not (is_valid(hi) and is_valid(lo))

    def test_poisons_multiple_outputs(self):
        """One M input bit can infect many output bits (both words)."""
        c = build_bincomp_two_sort(4)
        out = evaluate_words(c, Word("M111"), Word("1000"))
        assert sum(1 for t in out if t.is_metastable) > 2

    def test_uses_non_mc_cells(self):
        assert not build_bincomp_two_sort(4).is_mc_safe()
