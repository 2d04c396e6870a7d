"""repro -- Optimal Metastability-Containing Sorting Networks.

A from-scratch Python reproduction of Bund, Lenzen & Medina,
*Optimal Metastability-Containing Sorting Networks* (DATE 2018,
arXiv:1801.07549): asymptotically optimal combinational circuits that
sort Gray-code measurements *without resolving metastability first*.

Quickstart
----------
>>> from repro import Word, build_two_sort, evaluate_words
>>> circuit = build_two_sort(4)            # the paper's 2-sort(4)
>>> out = evaluate_words(circuit, Word("0M10"), Word("0110"))
>>> str(out[:4]), str(out[4:])             # (max, min)
('0110', '0M10')

Layers (see DESIGN.md):

* :mod:`repro.ternary`   -- {0, 1, M} logic, resolution/superposition/closure
* :mod:`repro.graycode`  -- reflected Gray code, valid strings, ordered max/min
* :mod:`repro.circuits`  -- netlists, 3-valued simulation, cost models
* :mod:`repro.ppc`       -- Ladner-Fischer parallel prefix framework
* :mod:`repro.core`      -- the paper's 2-sort(B) construction
* :mod:`repro.baselines` -- DATE 2017 reconstruction and Bin-comp
* :mod:`repro.networks`  -- sorting-network topologies and composition
* :mod:`repro.analysis`  -- Table 7 / Table 8 / Figure 1 measurement
* :mod:`repro.verify`    -- exhaustive checkers and workload generators
"""

from .ternary import META, ONE, ZERO, Trit, Word, resolutions, superpose, word
from .graycode import (
    all_valid_strings,
    gray_decode,
    gray_encode,
    is_valid,
    make_valid,
    max_rg_closure,
    min_rg_closure,
    rank,
    two_sort_closure,
)
from .circuits import (
    Circuit,
    CompiledCircuit,
    CostReport,
    TritVec,
    compile_circuit,
    evaluate_words,
    logic_depth,
    report,
)
from .core import build_two_sort, predicted_gate_count, two_sort_via_fsm
from .baselines import build_bincomp_two_sort, build_date17_two_sort
from .networks import (
    SORT4,
    SORT7,
    SORT10_DEPTH,
    SORT10_SIZE,
    TABLE8_NETWORKS,
    SortingNetwork,
    batcher_odd_even,
    build_sorting_circuit,
    sort_strings_batch,
    sort_words,
    sort_words_batch,
)
from .analysis import measure_network, measure_two_sort, table7_rows, table8_rows
from .verify import (
    ValidStringSource,
    verify_random_pairs,
    verify_two_sort_circuit,
)

__version__ = "1.0.0"

__all__ = [
    "META",
    "ONE",
    "ZERO",
    "Trit",
    "Word",
    "resolutions",
    "superpose",
    "word",
    "all_valid_strings",
    "gray_decode",
    "gray_encode",
    "is_valid",
    "make_valid",
    "max_rg_closure",
    "min_rg_closure",
    "rank",
    "two_sort_closure",
    "Circuit",
    "CompiledCircuit",
    "CostReport",
    "TritVec",
    "compile_circuit",
    "evaluate_words",
    "logic_depth",
    "report",
    "build_two_sort",
    "predicted_gate_count",
    "two_sort_via_fsm",
    "build_bincomp_two_sort",
    "build_date17_two_sort",
    "SORT4",
    "SORT7",
    "SORT10_DEPTH",
    "SORT10_SIZE",
    "TABLE8_NETWORKS",
    "SortingNetwork",
    "batcher_odd_even",
    "build_sorting_circuit",
    "sort_strings_batch",
    "sort_words",
    "sort_words_batch",
    "measure_network",
    "measure_two_sort",
    "table7_rows",
    "table8_rows",
    "ValidStringSource",
    "verify_random_pairs",
    "verify_two_sort_circuit",
    "__version__",
]
