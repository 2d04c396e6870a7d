"""The plane-backend interface: pluggable storage for two-plane batches.

Everything hot in this codebase runs on **planes** -- bitmaps with one
bit per *lane* (batch vector), two per net (:mod:`repro.circuits.compiled`).
A :class:`PlaneBackend` owns how planes are stored and run.  Both
shipped backends store a plane as one Python int
(:mod:`repro.backends.bigint`); ``native`` differs only in running the
exhaustive-verification shard in a C kernel
(:mod:`repro.backends.native`).

A backend owns four concerns:

* **allocation / packing** -- :meth:`~PlaneBackend.zeros`,
  :meth:`~PlaneBackend.ones`, :meth:`~PlaneBackend.from_int`,
  :meth:`~PlaneBackend.from_bytes`, and the inverse conversions
  (:meth:`~PlaneBackend.to_int`, :meth:`~PlaneBackend.to_bytes`, both
  little-endian in lane order so every backend round-trips through the
  same canonical byte form);
* **plane ops** -- the bitwise AND/OR/XOR/NOT that the two-plane Kleene
  connectives are built from (``band``/``bor``/``bxor``/``bnot``);
* **lane addressing** -- :meth:`~PlaneBackend.get_lane`,
  :meth:`~PlaneBackend.iter_set_lanes` (mismatch-lane extraction for
  failure reports), :meth:`~PlaneBackend.popcount`;
* **program execution** -- :meth:`~PlaneBackend.run_ops`, the compiled
  op sweep over plane slots.  This is *the* hot loop, so a backend
  specializes it (big-int: inline int operators) instead of paying a
  virtual call per gate.  :meth:`~PlaneBackend.run_pair_shard` is the
  whole verification shard (pair product, sweep, compare), which the
  native kernel runs in one call.

Invariant: every plane is **tail-masked** -- bits at lane indices
``>= lanes`` are zero.  Constructors enforce it, ``bnot`` re-masks, and
the structural ops (AND/OR/XOR) preserve it, so queries like
``popcount`` and ``iter_set_lanes`` never see garbage lanes.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Plane", "PlaneBackend"]

#: A backend-native plane object (an int on both shipped backends).
Plane = Any

#: Compiled-program opcodes (shared with repro.circuits.compiled; defined
#: here so backends can specialize run_ops without a circular import).
OP_AND = 0
OP_OR = 1
OP_INV = 2
OP_XOR = 3
OP_BUF = 4


class PlaneBackend(abc.ABC):
    """Strategy object for one plane representation.

    Subclasses are stateless (safe to share across threads/processes and
    to key compile caches on ``name``); all methods are pure functions
    of their arguments.  ``word_bits`` is the preferred lane-word
    granularity: shard planners align lane budgets to it so no shard
    ends mid-word (:func:`repro.verify.parallel._default_pair_shard_size`).
    """

    #: Registry name; also the compile-cache key component.
    name: str = "abstract"
    #: Preferred lane-word size in bits (bigint byte-walks at 8; the
    #: native kernel's shards end on 64-bit words).
    word_bits: int = 8
    #: Preferred lanes per verification shard: the batch size at which
    #: this representation's op sweep runs best (big ints like planes
    #: that keep the whole slot file cache-resident; the native kernel
    #: wants wide shards to amortize each Python-to-C crossing).
    preferred_shard_lanes: int = 1 << 14

    # ------------------------------------------------------------------
    # Allocation / packing
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def zeros(self, lanes: int) -> Plane:
        """The all-zero plane over ``lanes`` lanes."""

    @abc.abstractmethod
    def ones(self, lanes: int) -> Plane:
        """The all-ones (full mask) plane over ``lanes`` lanes."""

    @abc.abstractmethod
    def from_int(self, value: int, lanes: int) -> Plane:
        """Pack a non-negative int (bit ``j`` = lane ``j``) into a plane."""

    @abc.abstractmethod
    def from_bytes(self, data: bytes, lanes: int) -> Plane:
        """Pack little-endian lane bytes (``ceil(lanes/8)`` of them)."""

    def coerce(self, plane: Plane, lanes: int) -> Plane:
        """Accept a native plane as-is; convert a plain int.

        The compiled executor takes input planes from both int-space
        constructions (pair products, encoders) and native
        :class:`~repro.circuits.compiled.TritVec` planes; this is the
        single adapter between the two.
        """
        if isinstance(plane, int):
            return self.from_int(plane, lanes)
        return plane

    # ------------------------------------------------------------------
    # Structured packing
    #
    # The exhaustive pair product (pair_shard_planes, run_pair_shard) is
    # built from three bit-layout shapes: a per-string pattern tiled
    # across g-row blocks, single bits smeared into row-wide runs, and a
    # block-triangular prefix mask.  These defaults are the reference
    # semantics; the native backend generates the same bits inside its
    # kernel instead of building planes.
    # ------------------------------------------------------------------
    def from_pattern(self, value: int, period: int, lanes: int) -> Plane:
        """``value`` (a ``period``-bit pattern) tiled every ``period`` bits.

        Replicated ``ceil(lanes / period)`` times and tail-masked to
        ``lanes``.
        """
        reps = -(-lanes // period) if lanes else 0
        if not reps:
            return self.zeros(lanes)
        # 1 bit at the base of each block: replicates the pattern across
        # the whole plane with one multiply.
        rep = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
        return self.from_int(value * rep, lanes)

    def expand_bits(self, value: int, run: int, lanes: int) -> Plane:
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
        return self.from_int(out, lanes)

    def from_prefix_runs(self, first: int, period: int, lanes: int) -> Plane:
        """Row ``k`` (one ``period``-bit block) gets ``first + k`` low ones.

        The block-triangular select mask of the pair sweep; rows are
        clipped to ``period`` bits and the plane to ``lanes``.
        """
        count = -(-lanes // period) if lanes else 0
        out = 0
        for k in range(count):
            out |= ((1 << min(first + k, period)) - 1) << (k * period)
        return self.from_int(out, lanes)

    def pair_shard_planes(
        self,
        masks: Tuple[Sequence[int], Sequence[int]],
        width: int,
        g_lo: int,
        g_hi: int,
    ) -> Tuple[Tuple[Tuple[Plane, Plane], ...], int]:
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
    # Conversion
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def to_int(self, plane: Plane, lanes: int) -> int:
        """The plane as a Python int (bit ``j`` = lane ``j``)."""

    @abc.abstractmethod
    def to_bytes(self, plane: Plane, lanes: int) -> bytes:
        """Exactly ``ceil(lanes/8)`` little-endian lane bytes.

        The canonical form: equal planes on *any* backend produce equal
        byte strings, which is what cross-backend ``TritVec`` equality
        and hashing compare.
        """

    # ------------------------------------------------------------------
    # Bitwise plane ops
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def band(self, a: Plane, b: Plane) -> Plane:
        """Bitwise AND."""

    @abc.abstractmethod
    def bor(self, a: Plane, b: Plane) -> Plane:
        """Bitwise OR."""

    @abc.abstractmethod
    def bxor(self, a: Plane, b: Plane) -> Plane:
        """Bitwise XOR."""

    @abc.abstractmethod
    def bnot(self, a: Plane, lanes: int) -> Plane:
        """Bitwise complement, re-masked to ``lanes`` lanes."""

    # ------------------------------------------------------------------
    # Queries / lane addressing
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def eq(self, a: Plane, b: Plane) -> bool:
        """True iff the planes are bit-identical."""

    @abc.abstractmethod
    def any(self, a: Plane) -> bool:
        """True iff any lane bit is set."""

    @abc.abstractmethod
    def popcount(self, a: Plane) -> int:
        """Number of set lane bits."""

    @abc.abstractmethod
    def get_lane(self, a: Plane, lane: int) -> int:
        """Bit of one lane (0 or 1)."""

    def iter_set_lanes(self, a: Plane, lanes: int) -> Iterator[int]:
        """Ascending indices of set lanes (mismatch-lane extraction).

        Default: byte-walk over the canonical form -- O(1) per probed
        byte, and only failure reporting ever calls it.
        """
        raw = self.to_bytes(a, lanes)
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
        p0: List[Plane],
        p1: List[Plane],
    ) -> None:
        """Execute a compiled op list over the slot planes, in place.

        ``ops`` entries are ``(opcode, dst, a, b)`` over slot indices
        (two-plane Kleene semantics, :mod:`repro.circuits.compiled`);
        input and constant slots of ``p0``/``p1`` are pre-filled, every
        ``dst`` slot is written exactly once, and planes already stored
        in slots are never mutated (aliasing buffered copies is safe).

        This generic version is built from the primitive ops; concrete
        backends override it with a specialized loop.
        """
        band, bor, bxor = self.band, self.bor, self.bxor
        for op, d, a, b in ops:
            if op == OP_AND:
                p1[d] = band(p1[a], p1[b])
                p0[d] = bor(p0[a], p0[b])
            elif op == OP_OR:
                p0[d] = band(p0[a], p0[b])
                p1[d] = bor(p1[a], p1[b])
            elif op == OP_INV:
                p0[d] = p1[a]
                p1[d] = p0[a]
            elif op == OP_XOR:
                a0, a1, b0, b1 = p0[a], p1[a], p0[b], p1[b]
                p0[d] = bor(band(a0, b0), band(a1, b1))
                p1[d] = bor(band(a0, b1), band(a1, b0))
            else:  # OP_BUF
                p0[d] = p0[a]
                p1[d] = p1[a]

    def run_ops_select_diff(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        n_slots: int,
        inputs: Sequence[Tuple[int, Plane, Plane]],
        cmp: Sequence[Tuple[int, int, int]],
        sel: Plane,
        nsel: Plane,
        lanes: int,
        counts: Optional[List[int]] = None,
    ) -> Tuple[Plane, int]:
        """Run a program and reduce it to a mismatch plane in one step.

        ``inputs`` presets slots (``(slot, p0, p1)``, already
        backend-native); every other slot starts all-zero.  Each
        ``cmp`` triple ``(slot, a_slot, b_slot)`` checks ``slot``
        against the lane-wise mux of two other slots,

            ``expected = (sel & a_slot) | (nsel & b_slot)``

        on both planes (``nsel`` is the tail-masked complement of
        ``sel``).  The result is ``(diff, mismatches)`` where ``diff``
        ORs ``(got0 ^ exp0) | (got1 ^ exp1)`` over all triples and
        ``mismatches`` is its popcount -- the whole-shard compare of
        :mod:`repro.verify.exhaustive`, whose expected outputs are
        exactly ``sel``-muxes of the input planes.  When ``counts`` is
        given (one int per triple), each triple's own mismatch popcount
        is added to its entry.  Backends that execute programs natively
        can fuse the compare into the sweep so neither the intermediate
        slot planes nor the expected planes ever materialize; this
        generic version just runs :meth:`run_ops` and folds with the
        primitive ops, which is the reference semantics every override
        must match bit-for-bit.
        """
        zero = self.zeros(lanes)
        p0: List[Plane] = [zero] * n_slots
        p1: List[Plane] = [zero] * n_slots
        for slot, a0, a1 in inputs:
            p0[slot] = a0
            p1[slot] = a1
        self.run_ops(ops, p0, p1)
        band, bor, bxor = self.band, self.bor, self.bxor
        diff = self.zeros(lanes)
        for j, (slot, a, b) in enumerate(cmp):
            e0 = bor(band(sel, p0[a]), band(nsel, p0[b]))
            e1 = bor(band(sel, p1[a]), band(nsel, p1[b]))
            miss = bor(bxor(p0[slot], e0), bxor(p1[slot], e1))
            diff = bor(diff, miss)
            if counts is not None:
                counts[j] += self.popcount(miss)
        return diff, self.popcount(diff)

    def run_pair_shard(
        self,
        program: Any,
        cmp: Sequence[Tuple[int, int, int]],
        width: int,
        masks: Tuple[Sequence[int], Sequence[int]],
        g_lo: int,
        g_hi: int,
        counts: Optional[List[int]] = None,
    ) -> Tuple[Plane, int]:
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

        This default packs the planes through the structured-packing
        primitives and runs :meth:`run_ops_select_diff`; it is the
        reference semantics every override must match bit-for-bit.
        Backends that execute programs natively can generate the pair
        product in place, so no input plane is ever built.
        """
        planes, lanes = self.pair_shard_planes(masks, width, g_lo, g_hi)
        sel = self.from_prefix_runs(g_lo + 1, (1 << (width + 1)) - 1, lanes)
        inputs = [
            (slot, a0, a1) for slot, (a0, a1) in zip(program.input_slots, planes)
        ]
        if program.const_slots:
            zero, full = self.zeros(lanes), self.ones(lanes)
            for slot, can0, can1 in program.const_slots:
                inputs.append((slot, full if can0 else zero, full if can1 else zero))
        return self.run_ops_select_diff(
            program.ops,
            program.n_slots,
            inputs,
            cmp,
            sel,
            self.bnot(sel, lanes),
            lanes,
            counts=counts,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlaneBackend {self.name!r}>"
