"""Tests for the parallel prefix framework (repro.ppc)."""

import itertools
import operator

import pytest

from repro.circuits.builder import and2, or2
from repro.circuits.compiled import compile_circuit
from repro.circuits.netlist import Circuit
from repro.circuits.analysis import logic_depth
from repro.ppc.circuit import build_ppc, build_serial, build_sklansky
from repro.ppc.prefix import (
    eq3_cost_pow2,
    eq3_delay_pow2,
    ladner_fischer_prefixes,
    lf_depth,
    lf_op_count,
    serial_prefixes,
)
from repro.ppc.schedules import SCHEDULES, get_schedule
from repro.verify.exhaustive import _tile


class TestValueLevelPrefixes:
    @pytest.mark.parametrize("n", list(range(1, 26)))
    def test_lf_equals_serial_for_addition(self, n):
        items = [i * 7 % 13 for i in range(n)]
        assert ladner_fischer_prefixes(items, operator.add) == serial_prefixes(
            items, operator.add
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_lf_with_string_concat(self, n):
        """Non-commutative associative op: order must be preserved."""
        items = [chr(ord("a") + i) for i in range(n)]
        want = ["".join(items[: i + 1]) for i in range(n)]
        assert ladner_fischer_prefixes(items, operator.add) == want

    def test_empty(self):
        assert ladner_fischer_prefixes([], operator.add) == []
        assert serial_prefixes([], operator.add) == []


class TestOpCounts:
    def test_key_values_for_table7(self):
        """C(1)=0, C(3)=2, C(7)=9, C(15)=24 drive the paper's gate counts."""
        assert lf_op_count(1) == 0
        assert lf_op_count(3) == 2
        assert lf_op_count(7) == 9
        assert lf_op_count(15) == 24

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_eq3_closed_form_powers_of_two(self, n):
        """Paper Eq. 3: cost(PPC(n)) = 2n - log2 n - 2 for powers of 2."""
        assert lf_op_count(n) == eq3_cost_pow2(n)

    def test_eq3_rejects_non_powers(self):
        with pytest.raises(ValueError):
            eq3_cost_pow2(6)
        with pytest.raises(ValueError):
            eq3_delay_pow2(0)

    def test_op_count_matches_actual_ops(self):
        """The formula counts exactly the ops the recursion performs."""
        for n in range(1, 33):
            counter = {"ops": 0}

            def op(a, b):
                counter["ops"] += 1
                return a + b

            ladner_fischer_prefixes(list(range(n)), op)
            assert counter["ops"] == lf_op_count(n), n

    def test_op_count_rejects_zero(self):
        with pytest.raises(ValueError):
            lf_op_count(0)


class TestDepth:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32])
    def test_depth_within_eq3_bound(self, n):
        """Measured LF depth never exceeds the 2⌈log2 n⌉ - 1 bound."""
        if n == 1:
            assert lf_depth(1) == 0
            return
        bound = 2 * (n - 1).bit_length() - 1
        assert 0 < lf_depth(n) <= bound

    def test_depth_is_logarithmic(self):
        assert lf_depth(1024) <= 19  # 2*10 - 1


class TestCircuitGenerators:
    def _count_circuit(self, builder, n, and_at=None):
        """Build an OR-prefix circuit; op number ``and_at`` (in build
        order) becomes an AND2, a one-gate fault."""
        c = Circuit("ppc")
        items = [(c.add_input(f"i{k}"),) for k in range(n)]
        built = itertools.count()

        def op(circuit, a, b):
            gate = and2 if next(built) == and_at else or2
            return (gate(circuit, a[0], b[0]),)

        outs = builder(c, items, op)
        c.add_outputs(net for (net,) in outs)
        return c

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 15, 16])
    def test_lf_circuit_gate_count(self, n):
        c = self._count_circuit(build_ppc, n)
        assert c.gate_count() == lf_op_count(n)

    @staticmethod
    def _or_prefix_mismatches(c, n):
        """Outputs of an n-input OR-prefix circuit that are wrong on any
        of the 2^n stable inputs, all run as one plane batch.

        Lane x carries bit k of x on input k, so input k's 1-plane is
        runs of 2^k zeros and 2^k ones; output k, the OR of inputs
        0..k, is 0 exactly on the lanes where x mod 2^(k+1) is 0.
        """
        lanes = 1 << n
        full = (1 << lanes) - 1
        ones = [
            _tile(((1 << (1 << k)) - 1) << (1 << k), 2 << k, lanes)
            for k in range(n)
        ]
        zeros = [_tile(1, 2 << k, lanes) for k in range(n)]
        program = compile_circuit(c)
        p0, p1 = program.run_planes([(full ^ one, one) for one in ones], lanes)
        return [
            k for k, slot in enumerate(program.output_slots)
            if (p0[slot], p1[slot]) != (zeros[k], full ^ zeros[k])
        ]

    @pytest.mark.parametrize("builder", [build_ppc, build_serial, build_sklansky])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 16])
    def test_all_schedules_compute_or_prefixes(self, builder, n):
        """Every stable input at once; at n = 16 the same check must
        also reject a one-gate OR2 -> AND2 fault."""
        c = self._count_circuit(builder, n)
        assert self._or_prefix_mismatches(c, n) == []
        if n == 16:  # every schedule builds at least 15 ops here
            mutant = self._count_circuit(builder, n, and_at=n // 2)
            assert self._or_prefix_mismatches(mutant, n)

    def test_serial_cost_and_depth(self):
        n = 9
        c = self._count_circuit(build_serial, n)
        assert c.gate_count() == n - 1
        assert logic_depth(c) == n - 1

    def test_sklansky_depth_optimal(self):
        import math

        n = 16
        c = self._count_circuit(build_sklansky, n)
        assert logic_depth(c) == math.ceil(math.log2(n))
        # pays with more gates than LF
        lf = self._count_circuit(build_ppc, n)
        assert c.gate_count() > lf.gate_count()


class TestScheduleRegistry:
    def test_lookup(self):
        assert get_schedule("ladner_fischer") is build_ppc
        assert set(SCHEDULES) == {"ladner_fischer", "serial", "sklansky"}

    def test_unknown_schedule(self):
        with pytest.raises(KeyError, match="unknown prefix schedule"):
            get_schedule("magic")
