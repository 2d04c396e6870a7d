"""Sorting networks: topologies, composition with 2-sort circuits, simulation.

Covers the system level of the paper (Section 1 and Table 8): optimal
n-channel networks instantiated with metastability-containing 2-sort
elements, plus generic constructions and correctness properties.
"""

from .comparator import Comparator, SortingNetwork, from_comparator_list
from .topologies import (
    SORT4,
    SORT7,
    SORT10_DEPTH,
    SORT10_SIZE,
    TABLE8_NETWORKS,
    batcher_odd_even,
    best_known,
    bitonic,
    insertion,
)
from .build import TWO_SORT_BUILDERS, build_sorting_circuit
from .simulate import ENGINES, sort_strings_batch, sort_words, sort_words_batch
from .properties import (
    check_mc_sort,
    is_sorted_by_rank,
    outputs_all_valid,
    sorts_binary,
    zero_one_counterexample,
)

__all__ = [
    "Comparator",
    "SortingNetwork",
    "from_comparator_list",
    "SORT4",
    "SORT7",
    "SORT10_DEPTH",
    "SORT10_SIZE",
    "TABLE8_NETWORKS",
    "batcher_odd_even",
    "best_known",
    "bitonic",
    "insertion",
    "TWO_SORT_BUILDERS",
    "build_sorting_circuit",
    "ENGINES",
    "sort_strings_batch",
    "sort_words",
    "sort_words_batch",
    "check_mc_sort",
    "is_sorted_by_rank",
    "outputs_all_valid",
    "sorts_binary",
    "zero_one_counterexample",
]
