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

Layers (README.md, section "Substitutions", lists what stands in for
the paper's netlists and tools):

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

import importlib
import sys

__version__ = "1.0.0"

#: Every top-level export, by the layer that defines it.  A new export
#: goes here; nothing is imported until a name is first used (PEP 562),
#: so ``import repro`` -- the first step of ``python -m repro`` -- loads
#: no layer at all.
_LAYERS = {
    "ternary": (
        "META", "ONE", "ZERO", "Trit", "Word", "resolutions", "superpose",
        "word",
    ),
    "graycode": (
        "all_valid_strings", "gray_decode", "gray_encode", "is_valid",
        "make_valid", "max_rg_closure", "min_rg_closure", "rank",
        "two_sort_closure",
    ),
    "circuits": (
        "Circuit", "CompiledCircuit", "CostReport", "TritVec",
        "compile_circuit", "evaluate_words", "logic_depth", "report",
    ),
    "core": ("build_two_sort", "predicted_gate_count", "two_sort_via_fsm"),
    "baselines": ("build_bincomp_two_sort", "build_date17_two_sort"),
    "networks": (
        "SORT4", "SORT7", "SORT10_DEPTH", "SORT10_SIZE", "TABLE8_NETWORKS",
        "SortingNetwork", "batcher_odd_even", "build_sorting_circuit",
        "sort_strings_batch", "sort_words", "sort_words_batch",
    ),
    "analysis": (
        "measure_network", "measure_two_sort", "table7_rows", "table8_rows",
    ),
    "verify": (
        "ValidStringSource", "verify_random_pairs", "verify_two_sort_circuit",
    ),
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def _lazy_exports(package: str, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package namespace.

    ``exports`` maps each public name to the submodule of ``package``
    that defines it.  The first access imports that submodule and caches
    the value in the package namespace, so later lookups are plain
    attribute reads and ``__getattr__`` sees only unknown names.
    """

    def __getattr__(name: str):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f".{submodule}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
