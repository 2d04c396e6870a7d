"""Tests for repro.circuits (wire, gates, netlist structure)."""

import pytest

from repro.circuits.gates import AND2, CONST1, GateKind, INV, MUX2, OR2, XOR2
from repro.circuits.netlist import Circuit, CircuitError
from repro.circuits.wire import NameScope
from repro.ternary.trit import META, ONE, ZERO


class TestNameScope:
    def test_unique_names(self):
        scope = NameScope()
        assert scope.net("a") == "a0"
        assert scope.net("a") == "a1"
        assert scope.net("b") == "b0"

    def test_child_prefixing(self):
        scope = NameScope("top")
        child = scope.child("sub")
        assert child.net("x") == "top/sub0/x0"
        child2 = scope.child("sub")
        assert child2.net("x") == "top/sub1/x0"

    def test_nets_bulk(self):
        scope = NameScope()
        assert scope.nets("n", 3) == ["n0", "n1", "n2"]


class TestGateKinds:
    def test_arity_enforced_on_eval(self):
        with pytest.raises(ValueError):
            AND2(ONE)

    def test_gate_eval(self):
        assert AND2(ONE, META) is META
        assert OR2(ONE, META) is ONE
        assert INV(ZERO) is ONE

    def test_mc_safety_flags(self):
        assert AND2.mc_safe and OR2.mc_safe and INV.mc_safe
        assert not XOR2.mc_safe and not MUX2.mc_safe


class TestCircuitStructure:
    def test_build_and_introspect(self):
        c = Circuit("t")
        a = c.add_input("a")
        b = c.add_input("b")
        out = c.add_gate(AND2, [a, b])
        c.add_output(out)
        assert c.inputs == (a, b)
        assert c.outputs == (out,)
        assert c.gate_count() == 1
        assert c.gate_histogram() == {"AND2": 1}

    def test_duplicate_input_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_input("a")

    def test_multiple_drivers_rejected(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_gate(INV, [a], output="n")
        with pytest.raises(CircuitError):
            c.add_gate(INV, [a], output="n")

    def test_const_nets_shared(self):
        c = Circuit()
        assert c.const(ONE) == c.const(ONE)
        assert c.const(ONE) != c.const(ZERO)

    def test_minted_const_skips_a_driven_name(self):
        """Regression: ``const`` reused ``const10`` although a gate
        drove it, giving the net two drivers and no error."""
        c = Circuit("x")
        x = c.add_input("x")
        c.add_gate(INV, [x], output="const10")
        one = c.const(ONE)
        assert one == "const11"
        assert c.driver_of("const10").kind is INV
        assert c.const_nets == {"const11": ONE}
        copy = c.copy()
        assert copy.const(ONE) == "const11"  # shared, as in its source
        assert copy.add_gate(INV, [x], output="n") == "n"
        with pytest.raises(CircuitError, match="'const10' already driven"):
            copy.add_gate(INV, [x], output="const10")

    def test_minted_gate_and_input_names_skip_driven_names(self):
        """Regression: an auto-named gate after a gate the caller named
        ``inv0`` raised ``net 'inv0' already driven``."""
        c = Circuit()
        a = c.add_input("a")
        c.add_gate(INV, [a], output="inv0")
        c.add_gate(INV, [a], output="in0")
        c.add_input("inv2")
        assert c.add_gate(INV, [a]) == "inv1"
        assert c.add_gate(INV, [a]) == "inv3"
        assert c.add_input() == "in1"
        fresh = Circuit()  # names that collide with nothing do not move
        fresh_a = fresh.add_input()
        assert [fresh_a, fresh.add_gate(INV, [fresh_a]), fresh.const(ZERO)] == [
            "in0", "inv0", "const00",
        ]

    def test_const_meta_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().const(META)

    def test_arity_mismatch_rejected(self):
        c = Circuit()
        a = c.add_input("a")
        with pytest.raises(ValueError):
            c.add_gate(AND2, [a])

    def test_gate_count_excludes_consts(self):
        c = Circuit()
        one = c.const(ONE)
        a = c.add_input("a")
        c.add_output(c.add_gate(AND2, [a, one]))
        assert c.gate_count() == 1

    def test_fanout(self):
        c = Circuit()
        a = c.add_input("a")
        n1 = c.add_gate(INV, [a])
        n2 = c.add_gate(INV, [a])
        c.add_output(n1)
        c.add_output(n2)
        assert c.fanout()[a] == 2
        assert c.fanout()[n1] == 1

    def test_is_mc_safe(self):
        c = Circuit()
        a, b = c.add_input("a"), c.add_input("b")
        c.add_output(c.add_gate(AND2, [a, b]))
        assert c.is_mc_safe()
        c.add_output(c.add_gate(XOR2, [a, b]))
        assert not c.is_mc_safe()


class TestTopologicalOrder:
    def test_orders_dependencies(self):
        c = Circuit()
        a = c.add_input("a")
        # add gates in reverse dependency order via explicit nets
        c.add_gate(INV, ["mid"], output="out")
        c.add_gate(INV, [a], output="mid")
        c.add_output("out")
        order = [g.output for g in c.topological_gates()]
        assert order.index("mid") < order.index("out")

    def test_undriven_net_detected(self):
        c = Circuit()
        c.add_gate(INV, ["ghost"], output="out")
        c.add_output("out")
        with pytest.raises(CircuitError, match="undriven"):
            c.topological_gates()

    def test_cycle_detected(self):
        c = Circuit()
        c.add_gate(INV, ["b"], output="a")
        c.add_gate(INV, ["a"], output="b")
        with pytest.raises(CircuitError, match="cycle"):
            c.topological_gates()

    def test_undriven_output_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_output("nothing")
        with pytest.raises(CircuitError):
            c.topological_gates()


class TestInstantiate:
    def _half_adder(self):
        sub = Circuit("ha")
        a, b = sub.add_input("a"), sub.add_input("b")
        sub.add_output(sub.add_gate(XOR2, [a, b]))
        sub.add_output(sub.add_gate(AND2, [a, b]))
        return sub

    def test_instantiation_copies_gates(self):
        sub = self._half_adder()
        top = Circuit("top")
        x, y = top.add_input("x"), top.add_input("y")
        outs = top.instantiate(sub, [x, y])
        top.add_outputs(outs)
        assert top.gate_count() == 2
        # instantiate twice: independent copies
        outs2 = top.instantiate(sub, [x, y])
        top.add_outputs(outs2)
        assert top.gate_count() == 4

    def test_instantiation_arity_check(self):
        sub = self._half_adder()
        top = Circuit()
        x = top.add_input("x")
        with pytest.raises(CircuitError):
            top.instantiate(sub, [x])

    def test_instantiation_maps_constants(self):
        sub = Circuit("withconst")
        a = sub.add_input("a")
        sub.add_output(sub.add_gate(AND2, [a, sub.const(ONE)]))
        top = Circuit()
        x = top.add_input("x")
        outs = top.instantiate(sub, [x])
        top.add_outputs(outs)
        from repro.circuits.evaluate import evaluate_outputs

        assert evaluate_outputs(top, {x: META}) == (META,)
        assert evaluate_outputs(top, {x: ONE}) == (ONE,)
