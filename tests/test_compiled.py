"""Tests for the bit-parallel two-plane engine (repro.circuits.compiled).

The load-bearing property is *exact equivalence* with the scalar
reference interpreter: the compiled program must reproduce strong-Kleene
gate semantics bit-for-bit on every input, stable or metastable.  The
suite checks this per gate kind (full ternary truth tables), per circuit
(exhaustive over all valid pairs at small widths, randomized M-laden
vectors at B = 10), and end-to-end through the batched sorting-network
path.
"""

import itertools
import random

import pytest

from repro.backends.base import OP_AND, OP_OR, OP_XOR, PlaneProgram
from repro.circuits.compiled import (
    CompiledCircuit,
    TritVec,
    compile_circuit,
    trit_from_planes,
)
from repro.circuits.evaluate import (
    evaluate,
    evaluate_all_resolutions,
    evaluate_interpreted,
    evaluate_words,
)
from repro.circuits.gates import ALL_GATE_KINDS, AND2, BUF, INV, OR2
from repro.circuits.netlist import Circuit, CircuitError
from repro.core.two_sort import build_two_sort
from repro.ternary.kleene import kleene_and, kleene_not, kleene_or, kleene_xor
from repro.ternary.trit import ALL_TRITS, META, ONE, ZERO, Trit
from repro.ternary.word import Word
from repro.verify.exhaustive import valid_pairs


class TestTritVec:
    def test_roundtrip(self):
        tv = TritVec.from_trits("01M10M")
        assert tv.to_str() == "01M10M"
        assert tv.to_word() == Word("01M10M")
        assert len(tv) == 6

    def test_getitem(self):
        tv = TritVec.from_trits("0M1")
        assert tv[0] is ZERO and tv[1] is META and tv[2] is ONE
        assert tv[-1] is ONE
        with pytest.raises(IndexError):
            tv[3]

    def test_broadcast(self):
        assert TritVec.broadcast("M", 5).to_str() == "MMMMM"
        assert TritVec.broadcast(0, 3).to_str() == "000"

    def test_metastable_lanes(self):
        assert TritVec.from_trits("0MM1M").metastable_lanes == 3

    def test_plane_validation(self):
        with pytest.raises(ValueError, match="encode a trit"):
            TritVec(2, 0b01, 0b00)  # lane 1 has empty resolution set

    def test_lane_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            TritVec.from_trits("01") & TritVec.from_trits("011")

    @pytest.mark.parametrize(
        "op,scalar",
        [
            (lambda a, b: a & b, kleene_and),
            (lambda a, b: a | b, kleene_or),
            (lambda a, b: a.xor(b), kleene_xor),
        ],
    )
    def test_binary_ops_match_kleene_tables(self, op, scalar):
        pairs = list(itertools.product(ALL_TRITS, repeat=2))
        a = TritVec.from_trits([p[0] for p in pairs])
        b = TritVec.from_trits([p[1] for p in pairs])
        assert op(a, b).to_trits() == [scalar(x, y) for x, y in pairs]

    def test_invert_matches_kleene_not(self):
        tv = TritVec.from_trits(ALL_TRITS)
        assert (~tv).to_trits() == [kleene_not(t) for t in ALL_TRITS]

    def test_immutable_and_hashable(self):
        tv = TritVec.from_trits("0M")
        with pytest.raises(AttributeError):
            tv.p0 = 0
        assert tv == TritVec.from_trits("0M")
        assert hash(tv) == hash(TritVec.from_trits("0M"))

    def test_planes_are_ints(self):
        tv = TritVec.from_trits("01M")
        assert type(tv.p0) is int and type(tv.p1) is int
        assert (tv.p0, tv.p1) == (0b101, 0b110)
        assert not hasattr(tv, "backend")

    @pytest.mark.parametrize(
        "bad", ["0b01", 1.0, None, b"\x01", [1]],
        ids=["str", "float", "None", "bytes", "list"],
    )
    def test_non_int_plane_raises_type_error(self, bad):
        with pytest.raises(TypeError, match="ints"):
            TritVec(2, bad, 0b11)
        with pytest.raises(TypeError, match="ints"):
            TritVec(2, 0b11, bad)

    @pytest.mark.parametrize("value", ["0", "1", "M"])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
    def test_equal_vectors_hash_equal_across_constructors(self, value, n):
        t = Trit.from_char(value)
        full = (1 << n) - 1
        built = [
            TritVec.broadcast(value, n),
            TritVec.from_trits(value * n),
            TritVec.from_trits([t] * n),
            TritVec(n, 0 if t is ONE else full, 0 if t is ZERO else full),
        ]
        for tv in built:
            assert tv == built[0] and hash(tv) == hash(built[0])
        assert len({*built}) == 1
        if n:
            assert TritVec.broadcast(ONE if t is ZERO else ZERO, n) != built[0]


def _pass_through_circuit():
    """One input, two outputs that both equal it: ``INV(INV(a))`` and
    ``AND2(a, a)``."""
    c = Circuit("pass_through")
    a = c.add_input("a")
    c.add_output(c.add_gate(INV, [c.add_gate(INV, [a])]))
    c.add_output(c.add_gate(AND2, [a, a]))
    return c


_PASS_THROUGH = _pass_through_circuit()


class TestTritVecStringCodec:
    """``from_trits(str)`` and ``to_str()`` run whole-string/whole-plane
    operations; they must equal the per-lane path (``from_trits`` of a
    ``Trit`` list, ``to_trits``), and the planes they build must run
    unchanged through a compiled program on every backend."""

    @staticmethod
    def _check(s, backend):
        per_lane = TritVec.from_trits([Trit.from_char(c) for c in s])
        packed = TritVec.from_trits(s)
        assert packed.n == per_lane.n == len(s)
        assert packed == per_lane, s
        expect = "".join(t.to_char() for t in per_lane.to_trits())
        assert packed.to_str() == per_lane.to_str() == expect, s
        program = compile_circuit(_PASS_THROUGH, backend)
        assert program.backend.name == backend
        for out in program.run_tritvecs([packed]):
            assert out == packed and out.to_str() == expect, s

    def test_every_short_string(self, plane_backend):
        for n in range(7):
            for chars in itertools.product("01M", repeat=n):
                self._check("".join(chars), plane_backend)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000, 4097])
    def test_random_lengths(self, plane_backend, n):
        rng = random.Random(n)
        for _ in range(3):
            self._check(
                "".join(rng.choice("01M") for _ in range(n)), plane_backend
            )

    def test_lowercase_m_and_empty(self, plane_backend):
        assert TritVec.from_trits("0m1M").to_str() == "0M1M"
        assert TritVec.from_trits("0m1M") == TritVec.from_trits(
            [ZERO, META, ONE, META]
        )
        self._check("0m1M", plane_backend)
        empty = TritVec.from_trits("")
        assert empty.n == 0 and empty.to_str() == "" and empty.to_trits() == []
        self._check("", plane_backend)

    @pytest.mark.parametrize("bad", ["01x", "0 1", "1_0", "0b1", "2"])
    def test_bad_character_raises_the_word_error(self, bad):
        with pytest.raises(ValueError) as expect:
            Word(bad)
        with pytest.raises(ValueError) as got:
            TritVec.from_trits(bad)
        assert str(got.value) == str(expect.value)


class TestGateKindEquivalence:
    """Every compilable gate kind: full ternary truth table, batch == scalar."""

    @pytest.mark.parametrize(
        "kind_name",
        [k for k, v in ALL_GATE_KINDS.items() if v.arity > 0],
    )
    def test_full_truth_table(self, kind_name):
        kind = ALL_GATE_KINDS[kind_name]
        c = Circuit(f"tt_{kind_name}")
        ins = c.add_inputs(kind.arity)
        c.add_output(c.add_gate(kind, ins))
        combos = list(itertools.product(ALL_TRITS, repeat=kind.arity))
        batch = compile_circuit(c).evaluate_batch(combos)
        expected = [Word([kind.evaluate(*combo)]) for combo in combos]
        assert batch == expected

    def test_constant_drivers(self):
        c = Circuit("consts")
        a = c.add_input("a")
        zero, one = c.const(ZERO), c.const(ONE)
        c.add_output(c.add_gate(OR2, [a, zero]))
        c.add_output(c.add_gate(AND2, [a, one]))
        batch = compile_circuit(c).evaluate_batch([[t] for t in ALL_TRITS])
        assert batch == [Word([t, t]) for t in ALL_TRITS]


class TestCircuitEquivalence:
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_exhaustive_valid_pairs(self, width):
        """All |S^B_rg|^2 valid pairs: batch == scalar interpreter."""
        circuit = build_two_sort(width)
        pairs = list(valid_pairs(width))
        batch = compile_circuit(circuit).evaluate_batch(
            [tuple(g) + tuple(h) for g, h in pairs]
        )
        for (g, h), out in zip(pairs, batch):
            flat = list(g) + list(h)
            ref = evaluate_interpreted(circuit, dict(zip(circuit.inputs, flat)))
            assert out == Word([ref[n] for n in circuit.outputs]), (g, h)

    def test_exhaustive_valid_pairs_b6(self):
        """B = 6: the full 127^2 pair domain in one batch vs the scalar
        interpreter (subsampled comparison would not prove equivalence)."""
        width = 6
        circuit = build_two_sort(width)
        pairs = list(valid_pairs(width))
        batch = compile_circuit(circuit).evaluate_batch(
            [tuple(g) + tuple(h) for g, h in pairs]
        )
        for (g, h), out in zip(pairs, batch):
            flat = list(g) + list(h)
            ref = evaluate_interpreted(circuit, dict(zip(circuit.inputs, flat)))
            assert out == Word([ref[n] for n in circuit.outputs]), (g, h)

    def test_randomized_metastable_inputs_b10(self):
        """B = 10, arbitrary {0,1,M} words (not just valid strings):
        heavily M-laden inputs exercise every plane interaction."""
        width = 10
        circuit = build_two_sort(width)
        rng = random.Random(2018)
        vectors = [
            [rng.choice(ALL_TRITS) for _ in range(2 * width)]
            for _ in range(200)
        ]
        batch = compile_circuit(circuit).evaluate_batch(vectors)
        for vec, out in zip(vectors, batch):
            ref = evaluate_interpreted(circuit, dict(zip(circuit.inputs, vec)))
            assert out == Word([ref[n] for n in circuit.outputs])

    def test_scalar_wrappers_match_interpreter(self):
        """evaluate() (width-1 compiled wrapper) returns the same net
        dictionary as the reference interpreter."""
        circuit = build_two_sort(3)
        rng = random.Random(7)
        for _ in range(20):
            assignment = {
                n: rng.choice(ALL_TRITS) for n in circuit.inputs
            }
            assert evaluate(circuit, assignment) == evaluate_interpreted(
                circuit, assignment
            )

    def test_all_resolutions_batched(self):
        """Batched closure simulation equals the textbook definition."""
        c = Circuit("glitchy")
        a = c.add_input("a")
        na = c.add_gate(INV, [a])
        xor = ALL_GATE_KINDS["XOR2"]
        c.add_output(c.add_gate(xor, [a, na]))
        assert evaluate_words(c, Word("M")) == Word("M")
        assert evaluate_all_resolutions(c, Word("M")) == Word("1")


def _mixed_netlist(seed, n_inputs=4, extra_gates=20):
    """A random netlist with every gate kind (XNOR, AOI/OAI, MUX and the
    CONST drivers among them), INV/BUF chains, constant nets, and
    outputs that include a primary input and both constants."""
    rng = random.Random(seed)
    c = Circuit(f"mixed{seed}")
    nets = c.add_inputs(n_inputs)
    consts = [c.const(ZERO), c.const(ONE)]
    nets += consts
    kinds = list(ALL_GATE_KINDS.values())
    kinds += [rng.choice(kinds) for _ in range(extra_gates)]
    rng.shuffle(kinds)
    for kind in kinds:
        net = c.add_gate(kind, [rng.choice(nets) for _ in range(kind.arity)])
        if kind in (INV, BUF):
            for _ in range(rng.randrange(4)):
                net = c.add_gate(rng.choice([INV, BUF]), [net])
        nets.append(net)
    c.add_outputs(rng.sample(nets[n_inputs + 2 :], 6))
    c.add_outputs([nets[rng.randrange(n_inputs)], *consts])
    return c


def _plane_mismatches(circuit, plane_program=None):
    """Nets on which the compiled program disagrees with the scalar
    interpreter, over all ``3**inputs`` assignments as lanes of one
    batch: every named net through ``run_planes``, every output through
    ``run_outputs``.  ``plane_program`` replaces the lowered program."""
    program = CompiledCircuit(circuit)
    if plane_program is not None:
        program.plane_program = plane_program
    combos = list(itertools.product(ALL_TRITS, repeat=len(circuit.inputs)))
    planes, lanes = program.encode_inputs(combos)
    p0, p1 = program.run_planes(planes, lanes)
    outs = program.run_outputs([p for pair in planes for p in pair], lanes)
    bad = set()
    for j, combo in enumerate(combos):
        ref = evaluate_interpreted(circuit, dict(zip(circuit.inputs, combo)))
        for net, slot in program.net_slot.items():
            got = trit_from_planes(p0[slot] >> j & 1, p1[slot] >> j & 1)
            if got != ref[net]:
                bad.add(net)
        for k, net in enumerate(circuit.outputs):
            can0, can1 = outs[2 * k] >> j & 1, outs[2 * k + 1] >> j & 1
            got = trit_from_planes(can0, can1)
            if got != ref[net]:
                bad.add(("output", k))
    return bad


class TestPlaneProgram:
    """The inverter-free plane program every Python run goes through
    (``lower_ops``), against the scalar interpreter net by net."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_netlists_match_interpreter(self, seed):
        circuit = _mixed_netlist(seed)
        program = compile_circuit(circuit)
        assert "plane_program" not in vars(program)  # built on first run
        assert _plane_mismatches(circuit) == set()
        # One op per AND and OR, four per XOR; INV and BUF are renames.
        kinds = [op[0] for op in program.ops]
        assert len(program.plane_program.ops) == (
            kinds.count(OP_AND) + kinds.count(OP_OR) + 4 * kinds.count(OP_XOR)
        )

    def test_rejects_an_and_or_swap(self):
        """Swapping one lowered AND op for its plane dual (an OR) shows
        up on that gate's net."""
        circuit = _mixed_netlist(3)
        a, b = circuit.inputs[:2]
        circuit.add_output(circuit.add_gate(AND2, [a, b], output="probe"))
        program = CompiledCircuit(circuit)
        d = program.net_slot["probe"]
        ops = list(program.plane_program.ops)
        k = next(i for i, op in enumerate(ops) if op[0] == 2 * d + 1)
        x, y, z, u, v, w = ops[k]
        ops[k] = (u, v, w, x, y, z)
        lowered = program.plane_program
        mutant = PlaneProgram(
            tuple(ops), lowered.n_planes, lowered.can0, lowered.can1
        )
        assert "probe" in _plane_mismatches(circuit, mutant)

    def test_inverter_chains_take_no_op(self):
        c = Circuit("chain")
        a = c.add_input("a")
        net = a
        for kind in (INV, BUF, INV, INV, BUF):
            net = c.add_gate(kind, [net])
        c.add_output(net)
        program = compile_circuit(c)
        assert program.plane_program.ops == ()
        assert program.evaluate_batch([[t] for t in ALL_TRITS]) == [
            Word([kleene_not(t)]) for t in ALL_TRITS
        ]


class TestCompileCache:
    def test_cache_hit(self):
        c = build_two_sort(2)
        assert compile_circuit(c) is compile_circuit(c)

    def test_cache_invalidated_on_mutation(self):
        c = Circuit("grow")
        a, b = c.add_input("a"), c.add_input("b")
        c.add_output(c.add_gate(AND2, [a, b]))
        first = compile_circuit(c)
        assert first.evaluate_batch([[ONE, ONE]]) == [Word("1")]
        c.add_output(c.add_gate(OR2, [a, b]))
        second = compile_circuit(c)
        assert second is not first
        assert second.evaluate_batch([[ONE, ZERO]]) == [Word("01")]

    def test_independent_circuits_not_shared(self):
        assert compile_circuit(build_two_sort(2)) is not compile_circuit(
            build_two_sort(2)
        )


class TestCompileErrors:
    def test_structural_errors_surface(self):
        c = Circuit("cyclic")
        c.add_gate(INV, ["b"], output="a")
        c.add_gate(INV, ["a"], output="b")
        with pytest.raises(CircuitError, match="cycle"):
            compile_circuit(c)

    def test_input_count_checked(self):
        program = compile_circuit(build_two_sort(2))
        with pytest.raises(ValueError, match="expected 4 input bits"):
            program.evaluate_batch([[ZERO, ONE]])

    def test_batch_width_one_equals_evaluate_words(self):
        circuit = build_two_sort(2)
        g, h = Word("0M"), Word("01")
        program = compile_circuit(circuit)
        assert program.evaluate_batch([tuple(g) + tuple(h)]) == [
            evaluate_words(circuit, g, h)
        ]
