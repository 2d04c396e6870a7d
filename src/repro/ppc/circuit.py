"""Gate-level parallel prefix circuit generation (the paper's Fig. 4).

The generator is generic over the *operator implementation*: an
``OpBuilder`` callback receives the enclosing
:class:`~repro.circuits.netlist.Circuit` and two operand "items" (tuples
of nets, e.g. the 2-net FSM state signals) and must emit gates computing
``a OP b``, returning the result item.  The PPC template then wires
``⌊n/2⌋`` pair ops, a recursive PPC, and the even-output combine ops --
exactly the structure whose op count ``C(n)`` reproduces the paper's
gate counts (README.md, "Substitutions").
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from ..circuits.netlist import Circuit, NetId

#: An operand bundle flowing through the prefix network (e.g. 2 state nets).
Item = Tuple[NetId, ...]

#: Emits gates for one OP instance; returns the output item.
OpBuilder = Callable[[Circuit, Item, Item], Item]


def build_ppc(
    circuit: Circuit,
    items: Sequence[Item],
    op: OpBuilder,
) -> List[Item]:
    """Instantiate the Fig. 4 Ladner-Fischer prefix network.

    Returns items carrying ``π_i = δ_0 OP ... OP δ_i`` for every ``i``.
    The emitted structure uses exactly :func:`repro.ppc.prefix.lf_op_count`
    OP instances.
    """
    items = [tuple(it) for it in items]
    n = len(items)
    if n == 0:
        return []
    if n == 1:
        return [items[0]]

    paired: List[Item] = [
        op(circuit, items[2 * i], items[2 * i + 1]) for i in range(n // 2)
    ]
    if n % 2:
        paired.append(items[-1])

    inner = build_ppc(circuit, paired, op)

    out: List[Item] = [items[0]] * n
    for i, prefix in enumerate(inner):
        position = 2 * i + 1
        if position < n:
            out[position] = prefix
    if n % 2:
        out[n - 1] = inner[-1]
    for i in range(1, (n + 1) // 2):
        position = 2 * i
        if position <= n - 1 and (position != n - 1 or n % 2 == 0):
            out[position] = op(circuit, inner[i - 1], items[position])
    return out


def build_serial(
    circuit: Circuit,
    items: Sequence[Item],
    op: OpBuilder,
) -> List[Item]:
    """Serial (ripple) prefix chain: ``n-1`` ops, depth ``n-1``.

    The bit-serial structure of the ASYNC 2016 predecessor [12]; used by
    the ablation bench to show what PPC buys.
    """
    items = [tuple(it) for it in items]
    if not items:
        return []
    out = [items[0]]
    for item in items[1:]:
        out.append(op(circuit, out[-1], item))
    return out


def build_sklansky(
    circuit: Circuit,
    items: Sequence[Item],
    op: OpBuilder,
) -> List[Item]:
    """Sklansky (divide-and-conquer) prefix: depth ``⌈log2 n⌉``, about
    ``(n/2)·log2 n`` ops -- the depth-optimal/size-heavier corner.

    This is also (up to operator implementation) the prefix structure
    underlying the Θ(B log B) construction of the DATE 2017 baseline, so
    the ablation quantifies the paper's core saving.
    """
    items = [tuple(it) for it in items]
    n = len(items)
    if n == 0:
        return []
    if n == 1:
        return [items[0]]
    mid = (n + 1) // 2
    left = build_sklansky(circuit, items[:mid], op)
    right = build_sklansky(circuit, items[mid:], op)
    combined = [op(circuit, left[-1], r) for r in right]
    return left + combined
