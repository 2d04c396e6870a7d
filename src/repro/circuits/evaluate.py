"""Three-valued simulation of combinational netlists.

Evaluation assigns every net a :class:`~repro.ternary.trit.Trit` by a
single topological sweep.  Because every gate kind's evaluation function
is the metastable closure of its Boolean function (the paper's
computational model, Table 3), the sweep computes the circuit's
*worst-case* behaviour under metastability: an ``M`` on a net means the
corresponding physical node may be at an arbitrary intermediate or
oscillating voltage.

This matches the paper's modelling assumption that a combinational
circuit built from closure-respecting cells computes, on each output,
a value covered by the closure of its Boolean function -- and it is
exact (not conservative) for the tree-and-DAG structures used here.

Since the bit-parallel engine landed (:mod:`repro.circuits.compiled`),
the scalar entry points here are *width-1 wrappers* over the compiled
two-plane program: :func:`evaluate`, :func:`evaluate_outputs`, and
:func:`evaluate_words` compile the netlist once (cached per circuit)
and run it on a single-lane batch.  The original one-trit-per-net
interpreter survives as :func:`evaluate_interpreted` -- it is the
executable *reference semantics* that the compiled engine is tested
against, and the baseline the benchmarks measure speedups from.

Also provided: :func:`evaluate_all_resolutions`, the brute-force
semantics (simulate every stable resolution of the inputs Boolean-ly and
superpose), used by the verifier to show that circuit outputs always
*cover* the closure spec, and to detect when a design is strictly weaker
(i.e., outputs M where the closure would be stable).  All ``2**k``
resolutions now run as one compiled batch.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..ternary.resolution import resolutions
from ..ternary.trit import Trit
from ..ternary.word import Word
from .compiled import _TRIT_PLANES, compile_circuit, trit_from_planes
from .netlist import Circuit, NetId


def _check_assignment(
    circuit: Circuit, input_values: Mapping[NetId, Trit]
) -> None:
    """``input_values`` must cover exactly the primary inputs."""
    input_set = circuit.input_set
    missing = [n for n in circuit.inputs if n not in input_values]
    if missing:
        raise ValueError(f"missing values for inputs: {missing[:5]}")
    extra = [n for n in input_values if n not in input_set]
    if extra:
        raise ValueError(f"values given for non-input nets: {extra[:5]}")


def evaluate(circuit: Circuit, input_values: Mapping[NetId, Trit]) -> Dict[NetId, Trit]:
    """Simulate; returns the value of *every* net.

    ``input_values`` must cover exactly the primary inputs.  This is a
    width-1 wrapper over the compiled two-plane engine; results are
    bit-for-bit identical to :func:`evaluate_interpreted`.
    """
    _check_assignment(circuit, input_values)
    program = compile_circuit(circuit)
    planes = [
        _TRIT_PLANES[Trit.coerce(input_values[n])] for n in circuit.inputs
    ]
    p0, p1 = program.run_planes(planes, 1)
    return {
        net: trit_from_planes(p0[slot], p1[slot])
        for net, slot in program.net_slot.items()
    }


def evaluate_interpreted(
    circuit: Circuit, input_values: Mapping[NetId, Trit]
) -> Dict[NetId, Trit]:
    """Reference scalar interpreter: one trit per net, one gate at a time.

    Functionally identical to :func:`evaluate` but evaluates each gate's
    Kleene table directly instead of running the compiled bitwise
    program.  Kept as the independent ground truth for equivalence tests
    and as the "scalar" baseline in ``benchmarks/bench_engines.py``.
    """
    _check_assignment(circuit, input_values)
    values: Dict[NetId, Trit] = dict(input_values)
    for net, const in circuit.const_nets.items():
        values[net] = const
    for gate in circuit.topological_gates():
        values[gate.output] = gate.kind.evaluate(
            *(values[n] for n in gate.inputs)
        )
    return values


def evaluate_outputs(
    circuit: Circuit, input_values: Mapping[NetId, Trit]
) -> Tuple[Trit, ...]:
    """Simulate and project onto the primary outputs, in order."""
    _check_assignment(circuit, input_values)
    program = compile_circuit(circuit)
    batch = program.evaluate_batch([[input_values[n] for n in circuit.inputs]])
    return tuple(batch[0])


def evaluate_words(circuit: Circuit, *words: Word) -> Word:
    """Convenience wrapper: feed concatenated words, get outputs as a Word.

    The concatenation of ``words`` must match the circuit's input count;
    the full output vector is returned as a single :class:`Word` (callers
    slice it into fields).
    """
    flat: List[Trit] = [t for w in words for t in w]
    if len(flat) != len(circuit.inputs):
        raise ValueError(
            f"{circuit.name}: expected {len(circuit.inputs)} input bits, "
            f"got {len(flat)}"
        )
    return compile_circuit(circuit).evaluate_batch([flat])[0]


def evaluate_all_resolutions(circuit: Circuit, *words: Word) -> Word:
    """Superposition of Boolean simulations over all input resolutions.

    This is the metastable closure of the circuit's *Boolean* function
    applied to the given inputs -- the best any implementation of that
    Boolean function could do.  Comparing against :func:`evaluate_words`
    quantifies how far a concrete gate-level structure is from the
    closure ideal (Kleene simulation can only be equal or weaker, i.e.,
    produce M where the closure has a stable bit; the paper's designs are
    proven to achieve equality on valid inputs).

    All ``2**k`` resolutions (``k`` = number of M bits) are evaluated as
    one compiled batch, and the superposition is read straight off the
    output planes: an output bit can be 0 (resp. 1) iff *some* lane
    resolved it to 0 (resp. 1).
    """
    flat: List[Trit] = [t for w in words for t in w]
    if len(flat) != len(circuit.inputs):
        raise ValueError(
            f"{circuit.name}: expected {len(circuit.inputs)} input bits, "
            f"got {len(flat)}"
        )
    combined = Word(flat)
    program = compile_circuit(circuit)
    planes, n = program.encode_inputs(resolutions(combined))
    p0, p1 = program.run_planes(planes, n)
    return Word(trit_from_planes(p0[s], p1[s]) for s in program.output_slots)


def weaker_than_closure(circuit: Circuit, *words: Word) -> List[int]:
    """0-based output positions where simulation is strictly weaker (M vs
    stable) than the closure of the circuit's Boolean function."""
    sim = evaluate_words(circuit, *words)
    ideal = evaluate_all_resolutions(circuit, *words)
    return [
        i
        for i, (s, d) in enumerate(zip(sim, ideal))
        if s.is_metastable and d.is_stable
    ]
