"""Gate-level netlist framework with three-valued simulation.

Provides the circuit substrate the paper's designs are expressed in:
gate kinds with metastable-closure semantics (Table 3), flat netlists
with hierarchy-by-instantiation, topological three-valued simulation,
and cost analysis (gate count / area / critical-path delay) modelled on
the paper's NanGate 45 nm flow (Section 6).

Simulation runs on two interchangeable engines: the scalar reference
interpreter (:func:`evaluate_interpreted`) and the bit-parallel
two-plane compiler (:mod:`repro.circuits.compiled`), which batches
thousands of input vectors per gate visit; the public scalar API
(:func:`evaluate`, :func:`evaluate_words`) is a width-1 wrapper over
the compiled program.
"""

from .wire import NameScope, NetId
from .gates import (
    ALL_GATE_KINDS,
    AND2,
    AOI21,
    BUF,
    CONST0,
    CONST1,
    GateKind,
    INV,
    LOGIC_GATE_KINDS,
    MC_SAFE_KINDS,
    MUX2,
    NAND2,
    NOR2,
    OAI21,
    OR2,
    XNOR2,
    XOR2,
)
from .library import DEFAULT_LIBRARY, LAYOUT_OVERHEAD, NANGATE45, Cell, CellLibrary
from .netlist import Circuit, CircuitError, Gate
from .compiled import CompiledCircuit, TritVec, compile_circuit
from .evaluate import (
    evaluate,
    evaluate_all_resolutions,
    evaluate_interpreted,
    evaluate_outputs,
    evaluate_words,
    weaker_than_closure,
)
from .analysis import (
    CostReport,
    critical_path,
    critical_path_delay,
    logic_depth,
    report,
    total_area,
)
from .builder import (
    and2,
    and_tree,
    inv,
    mux_cell,
    mux_mc,
    mux_word_cell,
    mux_word_mc,
    or2,
    or_tree,
    xor_cell,
)
from .export import to_dot, to_verilog

__all__ = [
    "to_dot",
    "to_verilog",
    "NameScope",
    "NetId",
    "ALL_GATE_KINDS",
    "AND2",
    "AOI21",
    "BUF",
    "CONST0",
    "CONST1",
    "GateKind",
    "INV",
    "LOGIC_GATE_KINDS",
    "MC_SAFE_KINDS",
    "MUX2",
    "NAND2",
    "NOR2",
    "OAI21",
    "OR2",
    "XNOR2",
    "XOR2",
    "DEFAULT_LIBRARY",
    "LAYOUT_OVERHEAD",
    "NANGATE45",
    "Cell",
    "CellLibrary",
    "Circuit",
    "CircuitError",
    "CompiledCircuit",
    "Gate",
    "TritVec",
    "compile_circuit",
    "evaluate",
    "evaluate_all_resolutions",
    "evaluate_interpreted",
    "evaluate_outputs",
    "evaluate_words",
    "weaker_than_closure",
    "CostReport",
    "critical_path",
    "critical_path_delay",
    "logic_depth",
    "report",
    "total_area",
    "and2",
    "and_tree",
    "inv",
    "mux_cell",
    "mux_mc",
    "mux_word_cell",
    "mux_word_mc",
    "or2",
    "or_tree",
    "xor_cell",
]
