"""The verification-shard engine over int planes: the Python reference.

Everything hot in this codebase runs on **planes** -- Python ints with
one bit per *lane* (batch vector), bit ``j`` = lane ``j``, two per net
(:mod:`repro.circuits.compiled`).  Every plane is **tail-masked**: bits
at lane indices ``>= lanes`` are zero.  A plane is an int everywhere
outside the C kernel, so callers use int operators on it directly.

A :class:`PlaneBackend` owns what still differs between backends: how
an exhaustive-verification shard runs, and how big a shard should be.

* **shard sizing** -- ``preferred_shard_lanes``, the lane budget a
  verification sweep fills with whole g-rows;
* **the shard** -- :meth:`~PlaneBackend.run_pair_shard` checks one
  g-row shard of the 2-sort pair product (pair product, op sweep,
  compare) in one call.  This class runs it in Python, from the
  structured-packing helpers (:meth:`~PlaneBackend.pair_shard_planes`,
  :meth:`~PlaneBackend.from_pattern`, :meth:`~PlaneBackend.expand_bits`,
  :meth:`~PlaneBackend.from_prefix_runs`) and the fused sweep-and-compare
  :meth:`~PlaneBackend.run_ops_select_diff`; this is the reference
  semantics, and ``native`` overrides it with one C kernel call
  (:mod:`repro.backends.native`);
* **the op sweep** -- :meth:`~PlaneBackend.run_ops`, the compiled
  program over plane slots with inline int operators, which batch
  simulation runs too (:meth:`CompiledCircuit.run_planes
  <repro.circuits.compiled.CompiledCircuit.run_planes>`);
* **mismatch lanes** -- :meth:`~PlaneBackend.iter_set_lanes`, for
  failure reports.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

__all__ = ["PlaneBackend"]

#: Compiled-program opcodes (used by repro.circuits.compiled to emit
#: programs and here to run them).
OP_AND = 0
OP_OR = 1
OP_INV = 2
OP_XOR = 3
OP_BUF = 4


def _popcount(plane: int) -> int:
    return bin(plane).count("1")


class PlaneBackend:
    """The reference verification-shard engine, over int planes.

    Instances are stateless (safe to share across threads/processes and
    to key compile caches on ``name``); all methods are pure functions
    of their arguments.
    """

    #: Registry name; also the compile-cache key component.
    name: str = "reference"
    #: Preferred lanes per int-plane batch: 2^14 lanes keep each plane
    #: ~2 KB, so a 2-sort program's slot file stays cache-resident
    #: (2-10x faster at B >= 8 than 2^22 lanes of 0.5 MB planes).  The
    #: class value is the default budget of
    #: :func:`~repro.verify.exhaustive.pair_shards`; a verification
    #: sweep fills its own backend's, which the native kernel widens to
    #: amortize each Python-to-C crossing.
    preferred_shard_lanes: int = 1 << 14

    # ------------------------------------------------------------------
    # Structured packing
    #
    # The exhaustive pair product (pair_shard_planes, run_pair_shard) is
    # built from three bit-layout shapes: a per-string pattern tiled
    # across g-row blocks, single bits smeared into row-wide runs, and a
    # block-triangular prefix mask.  These are the reference semantics;
    # the native backend generates the same bits inside its kernel
    # instead of building planes.
    # ------------------------------------------------------------------
    def from_pattern(self, value: int, period: int, lanes: int) -> int:
        """``value`` (a ``period``-bit pattern) tiled every ``period`` bits.

        Replicated ``ceil(lanes / period)`` times and tail-masked to
        ``lanes``.
        """
        reps = -(-lanes // period) if lanes else 0
        if not reps:
            return 0
        # 1 bit at the base of each block: replicates the pattern across
        # the whole plane with one multiply.
        rep = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
        return (value * rep) & ((1 << lanes) - 1)

    def expand_bits(self, value: int, run: int, lanes: int) -> int:
        """Bit ``k`` of ``value`` smeared into a ``run``-wide block.

        Block ``k`` covers bits ``[k * run, (k + 1) * run)``; the result
        is tail-masked to ``lanes``.
        """
        count = -(-lanes // run) if lanes else 0
        block = (1 << run) - 1
        out = 0
        for k in range(count):
            if (value >> k) & 1:
                out |= block << (k * run)
        return out & ((1 << lanes) - 1)

    def from_prefix_runs(self, first: int, period: int, lanes: int) -> int:
        """Row ``k`` (one ``period``-bit block) gets ``first + k`` low ones.

        The block-triangular select mask of the pair sweep; rows are
        clipped to ``period`` bits and the plane to ``lanes``.
        """
        count = -(-lanes // period) if lanes else 0
        out = 0
        for k in range(count):
            out |= ((1 << min(first + k, period)) - 1) << (k * period)
        return out & ((1 << lanes) - 1)

    def pair_shard_planes(
        self,
        masks: Tuple[Sequence[int], Sequence[int]],
        width: int,
        g_lo: int,
        g_hi: int,
    ) -> Tuple[Tuple[Tuple[int, int], ...], int]:
        """Input planes of one g-row shard of the 2-sort pair product.

        ``masks`` is ``(m0, m1)``: ``m0[b]`` (``m1[b]``) has bit ``i``
        set iff bit ``b`` of valid string ``i`` can resolve to 0 (1),
        over the ``S = 2**(width+1) - 1`` strings in ascending rank.  The
        shard covers ``gi`` in ``[g_lo, g_hi)`` against every ``hi``;
        lane ``(gi - g_lo) * S + hi``.  Returns the ``2 * width`` input
        plane pairs (g bits, then h bits) and the lane count.
        """
        m0, m1 = masks
        S = (1 << (width + 1)) - 1
        K = g_hi - g_lo
        lanes = K * S
        g_mask = (1 << K) - 1
        planes = []
        for b in range(width):  # g-side: spread bit gi into an S-wide block
            planes.append(
                (
                    self.expand_bits((m0[b] >> g_lo) & g_mask, S, lanes),
                    self.expand_bits((m1[b] >> g_lo) & g_mask, S, lanes),
                )
            )
        for b in range(width):  # h-side: per-string pattern, replicated
            planes.append(
                (
                    self.from_pattern(m0[b], S, lanes),
                    self.from_pattern(m1[b], S, lanes),
                )
            )
        return tuple(planes), lanes

    # ------------------------------------------------------------------
    # Lane addressing
    # ------------------------------------------------------------------
    def iter_set_lanes(self, a: int, lanes: int) -> Iterator[int]:
        """Ascending indices of set lanes (mismatch-lane extraction).

        A byte-walk over the plane's ``ceil(lanes/8)`` little-endian
        bytes -- O(1) per probed byte, and only failure reporting ever
        calls it.
        """
        raw = a.to_bytes((lanes + 7) >> 3, "little")
        for byte_index, byte in enumerate(raw):
            if byte:
                base = byte_index << 3
                for bit in range(8):
                    if byte & (1 << bit):
                        yield base + bit

    # ------------------------------------------------------------------
    # Compiled-program execution
    # ------------------------------------------------------------------
    def run_ops(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        p0: List[int],
        p1: List[int],
    ) -> None:
        """Execute a compiled op list over the slot planes, in place.

        ``ops`` entries are ``(opcode, dst, a, b)`` over slot indices
        (two-plane Kleene semantics, :mod:`repro.circuits.compiled`);
        input and constant slots of ``p0``/``p1`` are pre-filled, and
        every ``dst`` slot is written exactly once.  Inline int
        operators, no per-op call: this is the hot loop of batch
        simulation.
        """
        for op, d, a, b in ops:
            if op == OP_AND:
                p1[d] = p1[a] & p1[b]
                p0[d] = p0[a] | p0[b]
            elif op == OP_OR:
                p0[d] = p0[a] & p0[b]
                p1[d] = p1[a] | p1[b]
            elif op == OP_INV:
                p0[d] = p1[a]
                p1[d] = p0[a]
            elif op == OP_XOR:
                a0, a1, b0, b1 = p0[a], p1[a], p0[b], p1[b]
                p1[d] = (a0 & b1) | (a1 & b0)
                p0[d] = (a0 & b0) | (a1 & b1)
            else:  # OP_BUF
                p0[d] = p0[a]
                p1[d] = p1[a]

    def run_ops_select_diff(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        n_slots: int,
        inputs: Sequence[Tuple[int, int, int]],
        cmp: Sequence[Tuple[int, int, int]],
        sel: int,
        nsel: int,
        lanes: int,
        counts: Optional[List[int]] = None,
    ) -> Tuple[int, int]:
        """Run a program and reduce it to a mismatch plane in one step.

        ``inputs`` presets slots (``(slot, p0, p1)``); every other slot
        starts all-zero.  Each ``cmp`` triple ``(slot, a_slot, b_slot)``
        checks ``slot`` against the lane-wise mux of two other slots,

            ``expected = (sel & a_slot) | (nsel & b_slot)``

        on both planes (``nsel`` is the tail-masked complement of
        ``sel``).  The result is ``(diff, mismatches)`` where ``diff``
        ORs ``(got0 ^ exp0) | (got1 ^ exp1)`` over all triples and
        ``mismatches`` is its popcount -- the whole-shard compare of
        :mod:`repro.verify.exhaustive`, whose expected outputs are
        exactly ``sel``-muxes of the input planes.  When ``counts`` is
        given (one int per triple), each triple's own mismatch popcount
        is added to its entry.
        """
        p0 = [0] * n_slots
        p1 = [0] * n_slots
        for slot, a0, a1 in inputs:
            p0[slot] = a0
            p1[slot] = a1
        self.run_ops(ops, p0, p1)
        diff = 0
        for j, (slot, a, b) in enumerate(cmp):
            e0 = (sel & p0[a]) | (nsel & p0[b])
            e1 = (sel & p1[a]) | (nsel & p1[b])
            miss = (p0[slot] ^ e0) | (p1[slot] ^ e1)
            diff |= miss
            if counts is not None:
                counts[j] += _popcount(miss)
        return diff, _popcount(diff)

    def run_pair_shard(
        self,
        program: Any,
        cmp: Sequence[Tuple[int, int, int]],
        width: int,
        masks: Tuple[Sequence[int], Sequence[int]],
        g_lo: int,
        g_hi: int,
        counts: Optional[List[int]] = None,
    ) -> Tuple[int, int]:
        """Check one g-row shard of the 2-sort pair product in one step.

        ``program`` is a compiled program (``ops``, ``n_slots``,
        ``input_slots`` -- g bits then h bits -- and ``const_slots`` as
        ``(slot, can0, can1)``, :class:`repro.circuits.compiled.CompiledCircuit`);
        ``cmp`` holds :meth:`run_ops_select_diff` slot triples.  The
        inputs are the pair product of :meth:`pair_shard_planes`, and
        ``sel`` is set on lanes where ``rank(g) >= rank(h)`` -- strings
        are enumerated in ascending rank, so within the block of ``gi``
        these are the lanes ``hi <= gi``, a block-triangular prefix
        mask.  The Table 2 order max takes each bit from ``g`` on those
        lanes and from ``h`` elsewhere; the min is the complementary
        selection.  Returns ``(diff, mismatches)`` over the shard's
        ``(g_hi - g_lo) * S`` lanes; a ``counts`` list (one int per
        triple) also gets each compared output's mismatching lanes
        added, which is what lets one call check several output cones.

        This packs the planes through the structured-packing helpers
        and runs :meth:`run_ops_select_diff`; it is the reference
        semantics every override must match bit-for-bit.  The native
        kernel generates the pair product in place, so no input plane
        is ever built.
        """
        planes, lanes = self.pair_shard_planes(masks, width, g_lo, g_hi)
        full = (1 << lanes) - 1
        sel = self.from_prefix_runs(g_lo + 1, (1 << (width + 1)) - 1, lanes)
        inputs = [
            (slot, a0, a1) for slot, (a0, a1) in zip(program.input_slots, planes)
        ]
        for slot, can0, can1 in program.const_slots:
            inputs.append((slot, full if can0 else 0, full if can1 else 0))
        return self.run_ops_select_diff(
            program.ops,
            program.n_slots,
            inputs,
            cmp,
            sel,
            sel ^ full,
            lanes,
            counts=counts,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlaneBackend {self.name!r}>"
