"""Netlist digests and cone extraction against a field-by-field reference.

``Circuit.content_hash`` and ``Circuit.region_hashes`` build each
record's bytes once per circuit version and take cone membership from
one bitmask pass.  Stored results are keyed on these digests, so they
must equal, bit for bit, the original algorithm kept below: a SHA-256
fed one length-prefixed field at a time, with one backward walk per
output cone.  A store written before the change must stay warm after
it.
"""

import hashlib
import random

import pytest

from repro.circuits.gates import AND2, INV, OR2
from repro.circuits.netlist import Circuit, CircuitError
from repro.core.two_sort import build_two_sort
from repro.networks.build import build_sorting_circuit
from repro.networks.topologies import best_known
from repro.ternary.trit import Trit


# ----------------------------------------------------------------------
# The reference: field-by-field hashing, one backward walk per cone
# ----------------------------------------------------------------------
def _feeder(h):
    def feed(tag, *parts):
        h.update(tag)
        for part in parts:
            data = part.encode()
            h.update(len(data).to_bytes(4, "little"))
            h.update(data)

    return feed


def reference_content_hash(circuit):
    h = hashlib.sha256()
    feed = _feeder(h)
    for net in circuit.inputs:
        feed(b"i", net)
    for net, value in sorted(circuit.const_nets.items()):
        feed(b"c", net, value.to_char())
    for gate in circuit.gates:
        feed(b"g", gate.kind.name, str(len(gate.inputs)), *gate.inputs)
        feed(b">", gate.output)
    for net in circuit.outputs:
        feed(b"o", net)
    return h.hexdigest()[:16]


def reference_cone(circuit, output_index):
    root = circuit.outputs[output_index]
    seen = set()
    stack = [root]
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        gate = circuit.driver_of(net)
        if gate is not None:
            stack.extend(gate.inputs)
    gates = [g for g in circuit.gates if g.output in seen]
    consts = {n: v for n, v in circuit.const_nets.items() if n in seen}
    return gates, consts


def reference_region_hashes(circuit):
    digests = []
    for idx in range(len(circuit.outputs)):
        gates, consts = reference_cone(circuit, idx)
        h = hashlib.sha256()
        feed = _feeder(h)
        for net in circuit.inputs:
            feed(b"i", net)
        for net, value in sorted(consts.items()):
            feed(b"c", net, value.to_char())
        for gate in gates:
            feed(b"g", gate.kind.name, str(len(gate.inputs)), *gate.inputs)
            feed(b">", gate.output)
        feed(b"o", circuit.outputs[idx])
        digests.append(h.hexdigest()[:16])
    return tuple(digests)


# ----------------------------------------------------------------------
# Netlists: builders, constant ties and the benchmark's edit shapes
# ----------------------------------------------------------------------
def with_constant_ties(width):
    """2-sort(width) with CONST0/CONST1 nets tied into three outputs."""
    circuit = build_two_sort(width).copy()
    one, zero = circuit.const(Trit.ONE), circuit.const(Trit.ZERO)
    a = circuit.add_gate(AND2, [circuit.outputs[0], one], output="t_and1")
    b = circuit.add_gate(OR2, [circuit.outputs[-1], zero], output="t_or0")
    c = circuit.add_gate(AND2, [one, circuit.outputs[1]], output="t_and2")
    circuit.replace_output(0, a)
    circuit.replace_output(2 * width - 1, b)
    circuit.replace_output(1, c)
    return circuit


def double_inv_splice(base, site, k):
    """Two inverters in front of output ``site``; names carry ``k``."""
    out = base.copy()
    a = out.add_gate(INV, [out.outputs[site]], output=f"pb{k}a")
    b = out.add_gate(INV, [a], output=f"pb{k}b")
    out.replace_output(site, b)
    return out


def and_or_swap(base, site):
    """``base`` rebuilt with gate ``site`` swapped AND2 <-> OR2."""
    out = Circuit(name=base.name)
    for net in base.inputs:
        out.add_input(net=net)
    for gate in base.gates:
        kind = gate.kind
        if gate.output == site:
            kind = OR2 if kind is AND2 else AND2
        out.add_gate(kind, gate.inputs, output=gate.output)
    for net in base.outputs:
        out.add_output(net)
    return out


def edited_netlists():
    rng = random.Random(20180319)
    out = []
    for width in (3, 7):
        base = build_two_sort(width)
        if width == 7:
            # Hashed before it is copied, as a design loop does: the
            # copies start from the base's encoded gate records.
            base.region_hashes()
        for k in range(4):
            out.append(double_inv_splice(base, rng.randrange(2 * width), k))
        sites = [g.output for g in base.gates if g.kind in (AND2, OR2)]
        for site in rng.sample(sites, 3):
            out.append(and_or_swap(base, site))
        # Edits of edits, as a design loop stacks them.
        twice = double_inv_splice(out[-4], 0, 99)
        out.append(double_inv_splice(twice, 2 * width - 1, 100))
    return out


CIRCUITS = (
    [pytest.param(lambda w=w: build_two_sort(w), id=f"two_sort{w}")
     for w in range(1, 11)]
    + [pytest.param(
        lambda: build_sorting_circuit(best_known(10), 16), id="net10x16")]
    + [pytest.param(lambda w=w: with_constant_ties(w), id=f"consts{w}")
       for w in (1, 4, 7)]
)


def _assert_same_digests(circuit):
    assert circuit.content_hash() == reference_content_hash(circuit)
    assert circuit.region_hashes() == reference_region_hashes(circuit)


class TestDigestsMatchReference:
    @pytest.mark.parametrize("make", CIRCUITS)
    def test_builders(self, make):
        _assert_same_digests(make())

    def test_perfbench_style_edits(self):
        for circuit in edited_netlists():
            _assert_same_digests(circuit)

    def test_cache_follows_mutation(self):
        circuit = build_two_sort(4).copy()
        _assert_same_digests(circuit)
        a = circuit.add_gate(INV, [circuit.outputs[5]], output="m_a")
        b = circuit.add_gate(INV, [a], output="m_b")
        circuit.replace_output(5, b)
        _assert_same_digests(circuit)
        circuit.const(Trit.ONE)  # a constant no cone reads
        _assert_same_digests(circuit)

    def test_gates_added_before_their_fan_in(self):
        """Insertion order that is not topological still gets exact
        cones (the mask pass repeats until nothing changes)."""
        c = Circuit("late")
        x, y = c.add_inputs(2)
        c.add_gate(INV, ["n_late"], output="n_out")  # reads a later gate
        c.add_gate(AND2, [x, "n_mid"], output="n_late")
        c.add_gate(OR2, [x, y], output="n_mid")
        c.add_output("n_out")
        c.add_output("n_mid")
        _assert_same_digests(c)
        assert {g.output for g in c.extract_cone(0).gates} == {
            "n_out", "n_late", "n_mid"
        }

    def test_cyclic_netlist_hashes_like_the_reference(self):
        c = Circuit("loop")
        (x,) = c.add_inputs(1)
        c.add_gate(AND2, [x, "n_b"], output="n_a")
        c.add_gate(INV, ["n_a"], output="n_b")
        c.add_output("n_a")
        _assert_same_digests(c)


class TestExtractCones:
    @pytest.mark.parametrize("width", [1, 4, 7])
    def test_single_cone_matches_reference_walk(self, width):
        circuit = with_constant_ties(width)
        for o in range(2 * width):
            gates, consts = reference_cone(circuit, o)
            cone = circuit.extract_cone(o)
            assert cone.name == f"{circuit.name}#o{o}"
            assert cone.inputs == circuit.inputs
            assert cone.outputs == (circuit.outputs[o],)
            assert list(cone.gates) == gates
            assert cone.const_nets == consts

    def test_union_keeps_given_order(self):
        circuit = with_constant_ties(5)
        picks = [7, 0, 3]
        union = circuit.extract_cones(picks)
        assert union.outputs == tuple(circuit.outputs[o] for o in picks)
        want = set()
        for o in picks:
            want |= {g.output for g in reference_cone(circuit, o)[0]}
        # Gates keep the parent's insertion order.
        assert [g.output for g in union.gates] == [
            g.output for g in circuit.gates if g.output in want
        ]
        every = circuit.extract_cones(range(10))
        assert every.content_hash() == circuit.content_hash()

    def test_out_of_range(self):
        with pytest.raises(CircuitError, match="out of range"):
            build_two_sort(2).extract_cones([0, 4])
