"""Binary reflected Gray code, valid strings, and ordered max/min.

Implements Section 2 and Section 3 preliminaries of the paper: the code
``rg_B`` itself (Table 1), the valid-string input domain ``S^B_rg`` with
its total order (Table 2), and the behavioural specification of the
2-sort primitive (Definition 2.8).
"""

from .rgc import (
    all_codewords,
    first_difference,
    gray_decode,
    gray_encode,
    gray_encode_recursive,
    lemma_3_2_predicts,
    max_rg,
    min_rg,
    parity,
    successor_differs_at,
    two_sort_stable,
)
from .valid import (
    InvalidStringError,
    all_valid,
    all_valid_strings,
    count_valid_strings,
    from_rank,
    is_valid,
    make_valid,
    rank,
    try_rank,
    validate,
    validate_all,
    value_interval,
)
from .ops import (
    compare_valid,
    max_rg_closure,
    max_rg_order,
    min_rg_closure,
    min_rg_order,
    two_sort_closure,
    two_sort_order,
)

__all__ = [
    "all_codewords",
    "first_difference",
    "gray_decode",
    "gray_encode",
    "gray_encode_recursive",
    "lemma_3_2_predicts",
    "max_rg",
    "min_rg",
    "parity",
    "successor_differs_at",
    "two_sort_stable",
    "InvalidStringError",
    "all_valid",
    "all_valid_strings",
    "count_valid_strings",
    "from_rank",
    "is_valid",
    "make_valid",
    "rank",
    "try_rank",
    "validate",
    "validate_all",
    "value_interval",
    "compare_valid",
    "max_rg_closure",
    "max_rg_order",
    "min_rg_closure",
    "min_rg_order",
    "two_sort_closure",
    "two_sort_order",
]
