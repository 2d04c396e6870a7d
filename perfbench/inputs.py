"""Seeded workload inputs, generated by the benchmark itself.

Nothing here calls ``repro.verify.random_valid`` or any other generator
of the program, so a change to the program cannot change a workload.
The only ``repro`` objects used are the netlist types the edits are
expressed in.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

Edit = Tuple[str, object]  # ("clean", output index) or ("fault", gate net)


def valid_word(rng: random.Random, width: int, meta_share: float) -> str:
    """One valid Gray-code string: ``rg(x)`` or ``rg(x) * rg(x+1)``.

    A metastable word is the codeword of ``x`` with the one bit that
    flips between ``x`` and ``x + 1`` replaced by ``M`` (MSB first).
    """
    x = rng.randrange((1 << width) - 1)
    gray = x ^ (x >> 1)
    bits = [str((gray >> (width - 1 - i)) & 1) for i in range(width)]
    if rng.random() < meta_share:
        nxt = (x + 1) ^ ((x + 1) >> 1)
        flip = (gray ^ nxt).bit_length() - 1
        bits[width - 1 - flip] = "M"
    return "".join(bits)


def sort_vectors(
    seed: int, count: int, channels: int, width: int, meta_share: float = 0.3
) -> List[List[str]]:
    rng = random.Random(seed)
    return [
        [valid_word(rng, width, meta_share) for _ in range(channels)]
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Design-loop edits
# ----------------------------------------------------------------------
def edit_plan(
    seed: int, n_outputs: int, pool: Sequence[str], fault_every: int
) -> Iterator[Edit]:
    """Endless seeded edit sequence: clean splices, every Nth a fault.

    Splice sites cycle through seeded shuffles of all outputs, and fault
    sites through seeded shuffles of ``pool``.  Cones differ in size, so
    drawing sites independently would let a seed skew the latency mix;
    cycling keeps every site equally represented, and a fault site
    repeats (and hits the store) only after all others were used.
    """
    rng = random.Random(seed)
    outputs: List[int] = []
    faults: List[str] = []
    k = 0
    while True:
        if pool and fault_every and k % fault_every == fault_every - 1:
            if not faults:
                faults = list(pool)
                rng.shuffle(faults)
            yield ("fault", faults.pop())
        else:
            if not outputs:
                outputs = list(range(n_outputs))
                rng.shuffle(outputs)
            yield ("clean", outputs.pop())
        k += 1


def apply_edit(base, edit: Edit, k: int):
    """The netlist ``base`` after one edit (``base`` is not changed).

    * ``clean``: splice two inverters in front of one primary output.
      The design stays correct, but that output's cone, and so its
      region digest, changes; net names carry ``k`` so every edit is new.
    * ``fault``: swap one AND2 for OR2 (or back), which breaks the design.
    """
    from repro.circuits.gates import AND2, INV, OR2
    from repro.circuits.netlist import Circuit

    kind, site = edit
    if kind == "clean":
        out = base.copy()
        a = out.add_gate(INV, [out.outputs[site]], output=f"pb{k}a")
        b = out.add_gate(INV, [a], output=f"pb{k}b")
        out.replace_output(site, b)
        return out
    if base.const_nets:
        raise ValueError("fault edits expect a netlist without constants")
    out = Circuit(name=base.name)
    for net in base.inputs:
        out.add_input(net=net)
    for gate in base.gates:
        gk = gate.kind
        if gate.output == site:
            gk = OR2 if gk is AND2 else AND2
        out.add_gate(gk, gate.inputs, output=gate.output)
    for net in base.outputs:
        out.add_output(net)
    return out


def fault_pool(base, width: int, size: int = 10) -> List[str]:
    """The ``size`` AND2/OR2 gates whose swap mismatches fewest lanes.

    A fault's cost is dominated by decoding each failing pair, and
    failing-pair counts differ by 100x between gates, so the loop draws
    faults only from the cheap end.  The estimate sums per-cone mismatch
    lanes (an upper bound on failing pairs) from the public region-shard
    check on the bigint backend, restricted to the cones the gate feeds.
    """
    from repro.backends import get_backend
    from repro.circuits.compiled import compile_circuit
    from repro.circuits.gates import AND2, OR2
    from repro.verify.exhaustive import verify_two_sort_region_shard

    be = get_backend("bigint")
    cones = [
        {g.output for g in base.extract_cone(o).gates}
        for o in range(len(base.outputs))
    ]
    rows_total = (1 << (width + 1)) - 1
    scored = []
    for gate in base.gates:
        if gate.kind not in (AND2, OR2):
            continue
        faulty = apply_edit(base, ("fault", gate.output), 0)
        lanes = 0
        for o, cone in enumerate(cones):
            if gate.output in cone:
                program = compile_circuit(faulty.extract_cone(o), be)
                lanes += verify_two_sort_region_shard(
                    program, width, o, 0, rows_total
                )["mismatches"]
        if lanes:
            scored.append((lanes, gate.output))
    scored.sort()
    return [net for _lanes, net in scored[:size]]
