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


# ----------------------------------------------------------------------
# Digests handed on by copy() and carried over by region_hashes()
# ----------------------------------------------------------------------
def _hashed(circuit):
    circuit.region_hashes()
    return circuit


def _reading_undriven(width=3):
    """2-sort(width) whose output 1 goes through a gate reading a net
    that nothing drives yet ("n_dangle")."""
    circuit = build_two_sort(width).copy()
    held = circuit.add_gate(
        AND2, [circuit.outputs[1], "n_dangle"], output="n_held"
    )
    circuit.replace_output(1, held)
    return circuit


class TestHandedOnDigests:
    """A copy starts from its source's digests and an edit digests
    again only the cones it touched; every result must still equal the
    reference walk."""

    @pytest.fixture
    def sha_calls(self, monkeypatch):
        """How many cone digests ``region_hashes`` computes."""
        import repro.circuits.netlist as netlist

        calls = []

        class Counting:
            @staticmethod
            def sha256(blob):
                calls.append(blob)
                return hashlib.sha256(blob)

        monkeypatch.setattr(netlist, "hashlib", Counting)
        return calls

    def test_splice_digests_only_its_cone(self, sha_calls):
        base = _hashed(build_two_sort(5))
        sha_calls.clear()
        copy = base.copy()
        assert copy.region_hashes() == base.region_hashes()
        assert sha_calls == []  # handed on, nothing computed
        edited = double_inv_splice(base, 3, 0)
        got = edited.region_hashes()
        assert len(sha_calls) == 1
        assert got == reference_region_hashes(edited)
        assert [o for o in range(10) if got[o] != base.region_hashes()[o]] == [3]

    def test_second_edit_of_a_copy_digests_only_its_cone(self, sha_calls):
        base = _hashed(build_two_sort(5))
        once = _hashed(double_inv_splice(base, 3, 0))
        sha_calls.clear()
        twice = double_inv_splice(once, 7, 1)
        assert twice.region_hashes() == reference_region_hashes(twice)
        assert len(sha_calls) == 1

    def test_new_gate_driving_a_net_a_cone_gate_reads(self):
        base = _hashed(_reading_undriven())
        edited = base.copy()
        edited.add_gate(OR2, [edited.inputs[0], edited.inputs[1]],
                        output="n_dangle")
        got = edited.region_hashes()
        assert got == reference_region_hashes(edited)
        # Same root, one new gate in its cone: only output 1 changed.
        assert [o for o in range(6) if got[o] != base.region_hashes()[o]] == [1]

    def test_replace_output_onto_an_existing_net(self):
        base = _hashed(build_two_sort(4))
        edited = base.copy()
        edited.replace_output(2, base.outputs[5])
        edited.replace_output(6, base.inputs[0])
        assert edited.region_hashes() == reference_region_hashes(edited)
        # ... and back onto the original root, with no gate added.
        edited.replace_output(2, base.outputs[2])
        assert edited.region_hashes() == reference_region_hashes(edited)

    @pytest.mark.parametrize("change", ["const", "input", "output"])
    def test_constants_inputs_outputs_added_after_the_copy(self, change):
        """None of these adds a gate or moves a root, yet each changes
        what a cone covers: the new constant takes the name a cone gate
        already reads, and a new input joins every digest."""
        base = build_two_sort(3).copy()
        # "const10" is the name a fresh circuit's const(ONE) mints.
        held = base.add_gate(
            AND2, [base.outputs[1], "const10"], output="n_held"
        )
        base.replace_output(1, held)
        _hashed(base)
        edited = base.copy()
        if change == "const":
            assert edited.const(Trit.ONE) == "const10"
        elif change == "input":
            edited.add_input(net="late_in")
        else:
            edited.add_output(base.outputs[0])
        got = edited.region_hashes()
        assert got == reference_region_hashes(edited)
        changed = [o for o in range(6) if got[o] != base.region_hashes()[o]]
        assert changed == {"const": [1], "input": list(range(6)),
                           "output": []}[change]

    def test_stale_source_hands_on_nothing(self):
        base = _hashed(build_two_sort(4).copy())
        # Edited after its digests: they are stale for its new version.
        a = base.add_gate(INV, [base.outputs[0]], output="s_a")
        base.replace_output(0, a)
        copy = base.copy()
        assert copy.region_hashes() == reference_region_hashes(copy)
        assert base.region_hashes() == reference_region_hashes(base)

    def test_copy_of_an_unhashed_circuit(self):
        copy = build_two_sort(4).copy().copy()
        copy.replace_output(1, copy.outputs[0])
        assert copy.region_hashes() == reference_region_hashes(copy)

    def test_pickled_copy(self):
        import pickle

        base = _hashed(build_two_sort(4))
        clone = pickle.loads(pickle.dumps(base.copy()))
        assert clone.region_hashes() == base.region_hashes()
        edited = double_inv_splice(clone, 5, 0)
        assert edited.region_hashes() == reference_region_hashes(edited)
        again = pickle.loads(pickle.dumps(edited))
        again.replace_output(0, again.outputs[7])
        assert again.region_hashes() == reference_region_hashes(again)

    def test_copy_shares_gates_and_counts_versions(self):
        base = with_constant_ties(3)
        copy = base.copy()
        assert all(a is b for a, b in zip(copy.gates, base.gates))
        assert copy.version == (
            len(base.inputs) + len(base.const_nets) + len(base.gates)
            + len(base.outputs)
        )
        assert copy.content_hash() == base.content_hash()
        # Independent: editing the copy leaves the source alone.
        before = base.gates
        copy.add_gate(INV, [copy.inputs[0]], output="only_in_copy")
        copy.add_input(net="late_in")
        copy.replace_output(0, "only_in_copy")
        assert base.gates == before and "late_in" not in base.inputs
        assert copy.driver_of("only_in_copy") is not None
        assert base.driver_of("only_in_copy") is None
        with pytest.raises(CircuitError, match="already driven"):
            copy.add_gate(INV, [copy.inputs[0]], output=base.gates[0].output)


def _random_step(rng, circuit, k):
    """One random edit of ``circuit`` (or a new circuit); returns it.

    Every net it names starts with ``e_``, which no builder uses.
    """
    nets = list(circuit.inputs) + [g.output for g in circuit.gates]
    o = rng.randrange(len(circuit.outputs))
    step = rng.randrange(12)
    if step == 0:
        return double_inv_splice(circuit, o, k)
    if step == 1:
        # A gate no cone reads, then maybe a cone root onto it.
        out = circuit.add_gate(
            rng.choice([AND2, OR2]), rng.sample(nets, 2), output=f"e_r{k}"
        )
        if rng.random() < 0.5:
            circuit.replace_output(o, out)
    elif step == 2:
        circuit.replace_output(o, rng.choice(nets))
    elif step == 3:
        # A gate that reads a net nothing drives yet...
        out = circuit.add_gate(
            AND2, [rng.choice(nets), f"e_u{k}"], output=f"e_h{k}"
        )
        circuit.replace_output(o, out)
    elif step == 4:
        # ... and, later, a driver for one of them.
        driven = {g.output for g in circuit.gates} | set(circuit.inputs)
        waiting = sorted({
            n for g in circuit.gates for n in g.inputs
            if n not in driven and n not in circuit.const_nets
        })
        if waiting:
            circuit.add_gate(
                INV, [rng.choice(nets)], output=rng.choice(waiting)
            )
    elif step == 5:
        tie = circuit.const(rng.choice([Trit.ZERO, Trit.ONE]))
        if rng.random() < 0.5:
            out = circuit.add_gate(OR2, [tie, rng.choice(nets)],
                                   output=f"e_t{k}")
            circuit.replace_output(o, out)
    elif step == 6:
        circuit.add_input(net=f"e_x{k}")
    elif step == 7:
        circuit.add_output(rng.choice(nets))
    elif step == 8:
        return circuit.copy()
    elif step == 9:
        import pickle

        return pickle.loads(pickle.dumps(circuit))
    elif step == 10:
        sites = [g.output for g in circuit.gates if g.kind in (AND2, OR2)]
        if sites and not circuit.const_nets:
            return and_or_swap(circuit, rng.choice(sites))
    else:
        circuit.add_gate(INV, [rng.choice(nets)], output=f"e_d{k}")
    return circuit


class TestRandomCopyEditSequences:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_step_equals_the_reference(self, seed):
        """100 random copy/edit sequences per seed: splices, gates on
        read-but-undriven nets, re-pointed outputs, constants, inputs
        and outputs added after a copy, copies of copies (hashed or
        not), pickled copies and rebuilds; digests are checked at
        random steps (so some copies are handed none) and at the end."""
        rng = random.Random(1000 + seed)
        for _ in range(100):
            width = rng.choice([2, 3, 4])
            circuit = rng.choice([build_two_sort, with_constant_ties])(width)
            if rng.random() < 0.7:
                circuit.region_hashes()
            for k in range(rng.randrange(1, 9)):
                circuit = _random_step(rng, circuit, k)
                if rng.random() < 0.5:
                    assert circuit.region_hashes() == (
                        reference_region_hashes(circuit)
                    )
            assert circuit.region_hashes() == reference_region_hashes(circuit)
            assert circuit.content_hash() == reference_content_hash(circuit)
