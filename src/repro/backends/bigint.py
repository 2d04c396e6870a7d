"""Arbitrary-precision-int planes: the original (and default) backend.

A plane is one Python int; bit ``j`` is lane ``j``.  CPython big-int
bitwise ops run at C speed over 30-bit limbs, which is what gave the
compiled engine its first three orders of magnitude -- this module is
that representation extracted verbatim from ``repro.circuits.compiled``
so other layouts can be swapped in beside it.

Strengths: zero packing cost from the int-space plane constructions
(pair products are built with shifts and one big multiply), no per-op
call overhead in :meth:`BigIntBackend.run_ops` (inline operators, the
pre-refactor loop).  Weakness: every op walks the carry-normalized limb
array sequentially, and each op is a Python-level call.  The
``"native"`` backend is this class with the exhaustive-verification
shard moved into a C kernel (:mod:`repro.backends.native`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .base import OP_AND, OP_INV, OP_OR, OP_XOR, PlaneBackend

__all__ = ["BigIntBackend"]


class BigIntBackend(PlaneBackend):
    """Planes as Python ints (bit ``j`` = lane ``j``)."""

    name = "bigint"
    #: Big ints have no lane-word structure; decode byte-walks at 8.
    word_bits = 8

    # ------------------------------------------------------------------
    # Allocation / packing
    # ------------------------------------------------------------------
    def zeros(self, lanes: int) -> int:
        return 0

    def ones(self, lanes: int) -> int:
        return (1 << lanes) - 1

    def from_int(self, value: int, lanes: int) -> int:
        return value & ((1 << lanes) - 1)

    def from_bytes(self, data: bytes, lanes: int) -> int:
        # Tail-masked like every constructor (base.py invariant).
        return int.from_bytes(data, "little") & ((1 << lanes) - 1)

    def coerce(self, plane: int, lanes: int) -> int:
        if not isinstance(plane, int):
            raise TypeError(
                f"{self.name} backend got a {type(plane).__name__} plane"
            )
        return plane

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_int(self, plane: int, lanes: int) -> int:
        return plane

    def to_bytes(self, plane: int, lanes: int) -> bytes:
        return plane.to_bytes((lanes + 7) >> 3, "little")

    # ------------------------------------------------------------------
    # Bitwise plane ops
    # ------------------------------------------------------------------
    def band(self, a: int, b: int) -> int:
        return a & b

    def bor(self, a: int, b: int) -> int:
        return a | b

    def bxor(self, a: int, b: int) -> int:
        return a ^ b

    def bnot(self, a: int, lanes: int) -> int:
        return a ^ ((1 << lanes) - 1)

    # ------------------------------------------------------------------
    # Queries / lane addressing
    # ------------------------------------------------------------------
    def eq(self, a: int, b: int) -> bool:
        return a == b

    def any(self, a: int) -> bool:
        return a != 0

    def popcount(self, a: int) -> int:
        return bin(a).count("1")

    def get_lane(self, a: int, lane: int) -> int:
        return (a >> lane) & 1

    # ------------------------------------------------------------------
    # Compiled-program execution
    # ------------------------------------------------------------------
    def run_ops(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        p0: List[int],
        p1: List[int],
    ) -> None:
        # The pre-backend inline loop, kept free of per-op call overhead:
        # this is the hot path behind the headline benchmark numbers.
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
