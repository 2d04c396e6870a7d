"""Tests for the value-level FSM decomposition (repro.core.functional)."""

import pytest

from repro.core.functional import prefix_states, two_sort_via_fsm
from repro.graycode.ops import two_sort_closure
from repro.graycode.valid import InvalidStringError, all_valid_strings
from repro.ternary.word import Word
from repro.verify.exhaustive import valid_pairs


class TestPrefixStates:
    def test_initial_state(self):
        states = prefix_states(Word("00"), Word("00"))
        assert states[0] == Word("00")

    def test_length(self):
        states = prefix_states(Word("0110"), Word("0100"))
        assert len(states) == 5

    def test_order_independence_on_valid(self):
        for g in all_valid_strings(4):
            for h in all_valid_strings(4):
                assert prefix_states(g, h, "serial") == prefix_states(
                    g, h, "ladner_fischer"
                ), (g, h)

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            prefix_states(Word("0"), Word("0"), order="quantum")

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            prefix_states(Word("01"), Word("0"))


class TestTwoSortViaFsm:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_agrees_with_closure_spec(self, width):
        disagree = [
            (g, h) for g, h in valid_pairs(width)
            if two_sort_via_fsm(g, h) != two_sort_closure(g, h)
        ]
        assert disagree == [], disagree[:3]

    def test_validity_check_enforced(self):
        with pytest.raises(InvalidStringError):
            two_sort_via_fsm(Word("MM"), Word("00"))

    def test_validity_check_can_be_skipped(self):
        # Without the check the function still runs (result unspecified).
        two_sort_via_fsm(Word("MM"), Word("00"), check_valid=False)

    def test_serial_and_lf_orders_agree(self):
        for g in all_valid_strings(3):
            for h in all_valid_strings(3):
                assert two_sort_via_fsm(g, h, order="serial") == two_sort_via_fsm(
                    g, h, order="ladner_fischer"
                )
