"""Bit-parallel batch simulation: two-plane compiled netlist programs.

The scalar simulator in :mod:`repro.circuits.evaluate` visits every gate
once *per input vector*, paying Python's interpretation overhead per
trit.  This module applies classic **bit-slicing** from logic simulation
to the three-valued domain: a batch of ``n`` ternary values occupying
one net is packed into **two bit-planes** whose bit (lane) ``j``
describes vector ``j``:

* plane ``p0``: bit set iff the net *can resolve to 0* in vector ``j``,
* plane ``p1``: bit set iff the net *can resolve to 1* in vector ``j``.

So ``0 = (1, 0)``, ``1 = (0, 1)``, and ``M = (1, 1)`` -- the encoding of
a trit is exactly its resolution set (Definition 2.5).  Under this
encoding the strong-Kleene connectives of the paper's gate model
(Table 3) become plain bitwise operations evaluated for *all* vectors
at once, at C speed:

* ``AND``:  ``c1 = a1 & b1``,  ``c0 = a0 | b0``
  (the output can be 1 only if both inputs can; it can be 0 if either
  input can),
* ``OR`` is the plane-dual:  ``c0 = a0 & b0``,  ``c1 = a1 | b1``,
* ``INV`` swaps the planes,
* ``XOR``: ``c1 = (a0 & b1) | (a1 & b0)``, ``c0 = (a0 & b0) | (a1 & b1)``
  (a resolution-level case split; matches the closure of XOR for
  independent inputs, hence the Kleene table),
* composite cells (NAND/NOR/XNOR/AOI21/OAI21/MUX2) are lowered to
  sequences of the primitives above, mirroring exactly how their scalar
  evaluation functions are defined in :mod:`repro.ternary.kleene` -- so
  batch and scalar semantics agree *by construction* (and the test
  suite re-checks every gate kind over its full ternary truth table).

**A plane is an int.**  Every plane -- in a :class:`TritVec`, in
:meth:`CompiledCircuit.run_planes`, in the string codec -- is one
arbitrary-precision Python int, lane ``j`` at bit ``j``, tail-masked to
the lane count, and is read and written with int operators.  A
:class:`CompiledCircuit` still names a :class:`~repro.backends.PlaneBackend`
(:mod:`repro.backends`): it picks who runs an exhaustive-verification
shard (the Python reference, or ``"native"``'s C kernel) and how big the
shards are, and its name keys the compile cache.

:class:`CompiledCircuit` lowers a :class:`~repro.circuits.netlist.Circuit`
once into a flat program over integer net slots; :func:`compile_circuit`
caches the program per netlist identity, keyed on the circuit's mutation
``version`` *and* the backend name.  :class:`TritVec` is the
user-facing batch value type.

**One op form in Python.**  On its first Python run a program lowers
its ops once more, into an inverter-free
:class:`~repro.backends.base.PlaneProgram`
(:func:`~repro.backends.base.lower_ops`: INV and BUF become renames of
plane indices), which :meth:`~repro.backends.base.PlaneBackend.run_ops`
runs for every Python caller.  The native kernel lowers ``ops`` its own
way (:mod:`repro.backends.native`), so a native sweep never builds it.

Throughput: one gate visit now processes thousands of vectors, which is
what makes exhaustive verification over all ``|S^B_rg|^2`` valid pairs
(261k pairs at B = 8) and large measurement-sorting workloads run in
milliseconds instead of minutes (see ``benchmarks/bench_engines.py``).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..backends import PlaneBackend, get_backend
from ..backends.base import (
    OP_AND,
    OP_BUF,
    OP_INV,
    OP_OR,
    OP_XOR,
    PlaneProgram,
    lower_ops,
)
from ..ternary.trit import Trit, TritLike
from ..ternary.word import Word
from .netlist import Circuit, CircuitError
from .wire import NetId

__all__ = [
    "TritVec", "CompiledCircuit", "compile_circuit", "planes_from_str",
    "planes_to_str",
]

#: Backend selector accepted by every public entry point: a registry
#: name, a resolved instance, or None for the process default.
BackendLike = Union[str, PlaneBackend, None]

#: The string codec (:func:`planes_from_str`, :func:`planes_to_str`,
#: and :class:`TritVec` through them): ``bytes.translate`` tables from
#: each trit character (``'m'`` reads as ``'M'``) to its can-be-0 /
#: can-be-1 plane bit, the ``str.translate`` table deleting the trit
#: characters (whatever survives it is not a trit; only a text that
#: holds one runs it), and the ``bytes.translate`` table from a lane's
#: byte sum in :func:`planes_to_str` (``0x90 + can0 + 2 * can1``, or 0
#: where no column is written) to its character.
_TRITS = b"01Mm"
_CAN0 = bytes.maketrans(_TRITS, b"1011")
_CAN1 = bytes.maketrans(_TRITS, b"0111")
_NOT_TRIT = str.maketrans("", "", "01Mm")
_LANE_CHAR = bytes.maketrans(b"\x91\x92\x93\x00", b"01M,")


# ----------------------------------------------------------------------
# The string <-> plane codec
# ----------------------------------------------------------------------
def planes_from_str(text: str, stride: int) -> List[Tuple[int, int]]:
    """Plane pairs of every column of a lane-major trit string.

    ``text`` is ``n`` lanes of ``stride`` characters each over
    ``{0, 1, M, m}``: lane ``j`` is ``text[j * stride:(j + 1) * stride]``
    (a batch of equal-width words joined back to back is one).  Column
    ``k`` -- character ``k`` of every lane, ``text[k::stride]`` --
    becomes one ``(p0, p1)`` pair over the ``n`` lanes, lane ``j`` at
    bit ``j``.  The whole text is encoded to ASCII and checked by one
    deleting ``bytes.translate`` (the first character outside
    ``{0, 1, M, m}`` raises the :meth:`~repro.ternary.trit.Trit.from_char`
    ``ValueError``) and translated once per plane; each column is then
    one strided slice and one ``int(..., 2)``, with no per-lane loop.
    Returns the ``stride`` pairs in column order.
    """
    n, extra = divmod(len(text), stride)
    if extra:
        raise ValueError(
            f"{len(text)} characters do not split into {stride}-wide lanes"
        )
    if not n:
        return [(0, 0)] * stride
    data = text.encode("ascii", "replace")  # a non-ASCII character: "?"
    if data.translate(None, _TRITS):
        Trit.from_char(text.translate(_NOT_TRIT)[0])
    # int() reads the first character as the top bit; lane 0 is bit 0,
    # so the text goes in reversed and column k starts at stride-1-k.
    lanes = data[::-1]
    can0 = lanes.translate(_CAN0)
    can1 = lanes.translate(_CAN1)
    return [
        (int(can0[k::stride], 2), int(can1[k::stride], 2))
        for k in range(stride - 1, -1, -1)
    ]


def planes_to_str(
    columns: Sequence[Tuple[int, int]], lanes: int, width: int = 0
) -> str:
    """Inverse of :func:`planes_from_str`: the lane-major string.

    ``columns[k]`` is the ``(p0, p1)`` pair of column ``k`` over
    ``lanes`` lanes; the result holds ``lanes`` runs of
    ``len(columns)`` characters, ``M`` upper-case.  With ``width`` (which
    must divide ``len(columns)``), a ``,`` also stands between each two
    consecutive runs of ``width`` characters (the words of a batch), so
    one ``split(",")`` cuts the words.  Whole-plane integer ops, no
    per-lane or per-word loop: each plane is written out as one ASCII
    ``'0'``/``'1'`` byte per lane into its column's strided slice of one
    of two buffers, the buffers are summed as integers (``0x30 + can0 +
    2 * (0x30 + can1)`` never carries across a byte; the byte after each
    word is never written and sums to 0), and one ``translate`` maps the
    sums to characters.
    """
    stride = len(columns)
    # Per lane: the columns, plus with `width` one separator per word.
    span = stride + stride // width if width else stride
    size = lanes * span
    if not size:
        return ""
    fmt = f"0{lanes}b"
    # format() writes the top lane first, so both buffers hold the text
    # reversed: column k, at place `at` of a lane (k plus the separators
    # of the words before it), starts at span-1-at.
    buf0 = bytearray(size)
    buf1 = bytearray(size)
    for k, (p0, p1) in enumerate(columns):
        at = k + k // width if width else k
        col = slice(span - 1 - at, None, span)
        buf0[col] = format(p0, fmt).encode()
        buf1[col] = format(p1, fmt).encode()
    codes = (
        int.from_bytes(buf0, "big") + (int.from_bytes(buf1, "big") << 1)
    ).to_bytes(size, "big")
    # Reversed back; with `width` the reversed buffer starts with the
    # separator after the last word, which the slice leaves out.
    return codes.translate(_LANE_CHAR)[: 0 if width else None : -1].decode(
        "ascii"
    )


# ----------------------------------------------------------------------
# TritVec: a batch of trits in two-plane encoding
# ----------------------------------------------------------------------
class TritVec:
    """An immutable batch of ``n`` trits in two-plane encoding.

    Lane ``j`` holds one ternary value; ``p0``/``p1`` are the
    can-be-0 / can-be-1 planes over all lanes, as ints.  Kleene
    connectives are provided as operators so a :class:`TritVec` behaves
    like ``n`` trits evaluated simultaneously::

        >>> a = TritVec.from_trits("01M")
        >>> b = TritVec.broadcast("M", 3)
        >>> (a & b).to_str()
        '0MM'

    Equality and hashing compare ``(n, p0, p1)``.
    """

    __slots__ = ("n", "p0", "p1")

    def __init__(self, n: int, p0: int, p1: int):
        if n < 0:
            raise ValueError("TritVec length must be >= 0")
        for plane in (p0, p1):
            if not isinstance(plane, int):
                raise TypeError(
                    f"TritVec planes are ints, got a {type(plane).__name__}"
                )
        mask = (1 << n) - 1
        if not (0 <= p0 <= mask and 0 <= p1 <= mask):
            raise ValueError(f"planes out of range for {n} lanes")
        if p0 | p1 != mask:
            raise ValueError(
                "every lane must encode a trit: plane union must be all-ones"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("TritVec is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_trits(cls, values: Union[str, Iterable[TritLike]]) -> "TritVec":
        """Pack a sequence of trit-likes; lane ``j`` is ``values[j]``.

        A string (``'0'``, ``'1'``, ``'M'`` or ``'m'`` per lane) is packed
        with whole-string operations (:func:`planes_from_str`, one
        column): one ``translate`` and one ``int`` per plane, no
        per-lane loop.
        """
        if isinstance(values, str):
            ((p0, p1),) = planes_from_str(values, 1)
            return cls._wrap(len(values), p0, p1)
        trits = [v if isinstance(v, Trit) else Trit.coerce(v) for v in values]
        n = len(trits)
        b0 = bytearray((n + 7) >> 3)
        b1 = bytearray((n + 7) >> 3)
        for j, t in enumerate(trits):
            bit = 1 << (j & 7)
            if t is not Trit.ONE:
                b0[j >> 3] |= bit
            if t is not Trit.ZERO:
                b1[j >> 3] |= bit
        return cls._wrap(
            n, int.from_bytes(b0, "little"), int.from_bytes(b1, "little")
        )

    @classmethod
    def broadcast(cls, value: TritLike, n: int) -> "TritVec":
        """All ``n`` lanes hold the same trit."""
        t = Trit.coerce(value)
        ones = (1 << n) - 1
        return cls._wrap(
            n, 0 if t is Trit.ONE else ones, 0 if t is Trit.ZERO else ones
        )

    @classmethod
    def _wrap(cls, n: int, p0: int, p1: int) -> "TritVec":
        """Internal: adopt already-valid planes without rechecking."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "n", n)
        object.__setattr__(vec, "p0", p0)
        object.__setattr__(vec, "p1", p1)
        return vec

    # ------------------------------------------------------------------
    # Sequence-ish access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> Trit:
        if j < 0:
            j += self.n
        if not 0 <= j < self.n:
            raise IndexError(f"lane {j} out of range for {self.n} lanes")
        return trit_from_planes((self.p0 >> j) & 1, (self.p1 >> j) & 1)

    def to_trits(self) -> List[Trit]:
        """All lanes as a list (bulk path; O(1) per lane via bytes)."""
        n = self.n
        b0 = self.p0.to_bytes((n + 7) >> 3, "little")
        b1 = self.p1.to_bytes((n + 7) >> 3, "little")
        out: List[Trit] = []
        for j in range(n):
            bit = 1 << (j & 7)
            z = b0[j >> 3] & bit
            o = b1[j >> 3] & bit
            out.append(Trit.META if (z and o) else (Trit.ZERO if z else Trit.ONE))
        return out

    def to_word(self) -> Word:
        return Word(self.to_str())

    def to_str(self) -> str:
        """All lanes as ``'0'``/``'1'``/``'M'``, lane ``j`` at index ``j``.

        Whole-plane integer ops, no per-lane loop
        (:func:`planes_to_str`, one column).
        """
        return planes_to_str([(self.p0, self.p1)], self.n)

    @property
    def metastable_lanes(self) -> int:
        """Number of lanes holding ``M`` (popcount of the plane overlap)."""
        return bin(self.p0 & self.p1).count("1")

    # ------------------------------------------------------------------
    # Kleene connectives (Table 3, batched)
    # ------------------------------------------------------------------
    def _check(self, other: "TritVec") -> None:
        if self.n != other.n:
            raise ValueError(f"lane-count mismatch: {self.n} vs {other.n}")

    def __and__(self, other: "TritVec") -> "TritVec":
        self._check(other)
        return TritVec._wrap(self.n, self.p0 | other.p0, self.p1 & other.p1)

    def __or__(self, other: "TritVec") -> "TritVec":
        self._check(other)
        return TritVec._wrap(self.n, self.p0 & other.p0, self.p1 | other.p1)

    def __invert__(self) -> "TritVec":
        return TritVec._wrap(self.n, self.p1, self.p0)

    def xor(self, other: "TritVec") -> "TritVec":
        self._check(other)
        a0, a1, b0, b1 = self.p0, self.p1, other.p0, other.p1
        return TritVec._wrap(
            self.n, (a0 & b0) | (a1 & b1), (a0 & b1) | (a1 & b0)
        )

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, TritVec):
            return (self.n, self.p0, self.p1) == (other.n, other.p0, other.p1)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.p0, self.p1))

    def __repr__(self) -> str:
        if self.n <= 64:
            return f"TritVec('{self.to_str()}')"
        return f"TritVec(n={self.n})"


# ----------------------------------------------------------------------
# The compiled program
# ----------------------------------------------------------------------
#: ``(can0, can1)`` plane flags of each trit: single-lane encodings for
#: scalar wrappers, and the form constant slots store.
_TRIT_PLANES = {
    Trit.ZERO: (1, 0),
    Trit.ONE: (0, 1),
    Trit.META: (1, 1),
}


def trit_from_planes(can0: int, can1: int) -> Trit:
    """The trit whose resolution set is described by the plane flags.

    Arguments are truthy/falsy (a masked bit or an any-lane reduction
    works directly).  The single place the inverse encoding lives.
    """
    if can0:
        return Trit.META if can1 else Trit.ZERO
    return Trit.ONE


class CompiledCircuit:
    """A :class:`Circuit` lowered to a flat two-plane bitwise program.

    Compilation walks the topological gate order once and emits a list
    of primitive ops over integer *slots* (one slot per net, plus
    temporaries for composite cells); the first Python run lowers them
    to the inverter-free :attr:`plane_program`.  :meth:`evaluate_batch`
    then runs the whole program over a batch of input vectors, each
    bitwise op processing every vector simultaneously.  The program's
    ``backend`` (:class:`~repro.backends.PlaneBackend`) runs the op
    sweep and, for :meth:`run_pair_shard`, the whole verification shard.

    Instances are immutable snapshots: they record the circuit's
    mutation ``version`` at compile time, and :func:`compile_circuit`
    recompiles automatically when the netlist changes.
    """

    def __init__(self, circuit: Circuit, backend: BackendLike = None):
        self.backend: PlaneBackend = get_backend(backend)
        self.name = circuit.name
        self.version = circuit.version
        order = circuit.topological_gates()  # validates structure

        slot_of: Dict[NetId, int] = {}
        for net in circuit.inputs:
            slot_of[net] = len(slot_of)
        self.n_inputs = len(slot_of)
        self.input_slots: Tuple[int, ...] = tuple(range(self.n_inputs))

        const_slots: List[Tuple[int, int, int]] = []
        for net, value in circuit.const_nets.items():
            slot_of[net] = len(slot_of)
            const_slots.append((slot_of[net], *_TRIT_PLANES[value]))

        n_slots = len(slot_of)
        ops: List[Tuple[int, int, int, int]] = []

        def temp() -> int:
            nonlocal n_slots
            n_slots += 1
            return n_slots - 1

        def emit(op: int, dst: int, a: int, b: int = 0) -> int:
            ops.append((op, dst, a, b))
            return dst

        for gate in order:
            kind = gate.kind.name
            src = [slot_of[n] for n in gate.inputs]
            dst = n_slots
            n_slots += 1
            slot_of[gate.output] = dst
            if kind == "AND2":
                emit(OP_AND, dst, src[0], src[1])
            elif kind == "OR2":
                emit(OP_OR, dst, src[0], src[1])
            elif kind == "INV":
                emit(OP_INV, dst, src[0])
            elif kind == "BUF":
                emit(OP_BUF, dst, src[0])
            elif kind == "XOR2":
                emit(OP_XOR, dst, src[0], src[1])
            elif kind == "NAND2":
                t = emit(OP_AND, temp(), src[0], src[1])
                emit(OP_INV, dst, t)
            elif kind == "NOR2":
                t = emit(OP_OR, temp(), src[0], src[1])
                emit(OP_INV, dst, t)
            elif kind == "XNOR2":
                t = emit(OP_XOR, temp(), src[0], src[1])
                emit(OP_INV, dst, t)
            elif kind == "AOI21":
                t1 = emit(OP_AND, temp(), src[0], src[1])
                t2 = emit(OP_OR, temp(), t1, src[2])
                emit(OP_INV, dst, t2)
            elif kind == "OAI21":
                t1 = emit(OP_OR, temp(), src[0], src[1])
                t2 = emit(OP_AND, temp(), t1, src[2])
                emit(OP_INV, dst, t2)
            elif kind == "MUX2":
                # (sel, a, b) -> (~sel & a) | (sel & b), as in kleene_mux.
                ns = emit(OP_INV, temp(), src[0])
                t1 = emit(OP_AND, temp(), ns, src[1])
                t2 = emit(OP_AND, temp(), src[0], src[2])
                emit(OP_OR, dst, t1, t2)
            elif kind in ("CONST0", "CONST1"):
                value = Trit.ONE if kind == "CONST1" else Trit.ZERO
                const_slots.append((dst, *_TRIT_PLANES[value]))
            else:
                raise CircuitError(
                    f"{circuit.name}: cannot compile gate kind {kind!r}"
                )
        #: ``(slot, can0, can1)``: constant nets in plane form.
        self.const_slots: Tuple[Tuple[int, int, int], ...] = tuple(const_slots)

        self.ops: Tuple[Tuple[int, int, int, int], ...] = tuple(ops)
        self.n_slots = n_slots
        self.output_slots: Tuple[int, ...] = tuple(
            slot_of[n] for n in circuit.outputs
        )
        self.n_outputs = len(self.output_slots)
        #: slot of every *named* net (inputs, constants, gate outputs) --
        #: temporaries introduced by composite-cell lowering are excluded.
        self.net_slot: Dict[NetId, int] = dict(slot_of)
        self.gate_count = sum(1 for g in order if g.kind.arity > 0)

    # ------------------------------------------------------------------
    # Core executor
    # ------------------------------------------------------------------
    @cached_property
    def plane_program(self) -> PlaneProgram:
        """:attr:`ops` lowered to plane ops, built on first Python run.

        :func:`~repro.backends.base.lower_ops`: input slot ``i``'s
        planes are plane ``2i`` (can-0) and ``2i + 1`` (can-1).
        """
        return lower_ops(self.ops, self.n_slots)

    @cached_property
    def _output_planes(self) -> Tuple[int, ...]:
        """Plane indices of each output's can-0 and can-1 plane, in turn."""
        prog = self.plane_program
        return tuple(
            i for s in self.output_slots for i in (prog.can0[s], prog.can1[s])
        )

    def _run(self, planes: Sequence[int], n_vectors: int) -> List[int]:
        """Run the plane program on flat input planes; returns every plane."""
        if len(planes) != 2 * self.n_inputs:
            raise ValueError(
                f"{self.name}: expected {2 * self.n_inputs} planes for "
                f"{self.n_inputs} inputs, got {len(planes)}"
            )
        prog = self.plane_program
        P = [0] * prog.n_planes
        P[: len(planes)] = planes
        if self.const_slots:
            full = (1 << n_vectors) - 1
            for slot, can0, can1 in self.const_slots:
                P[2 * slot] = full if can0 else 0
                P[2 * slot + 1] = full if can1 else 0
        self.backend.run_ops(prog.ops, P)
        return P

    def run_planes(
        self, input_planes: Sequence[Tuple[int, int]], n_vectors: int
    ) -> Tuple[List[int], List[int]]:
        """Execute the program on raw planes; returns all slot planes.

        ``input_planes[i]`` is the ``(p0, p1)`` int pair for primary
        input ``i`` over ``n_vectors`` lanes.  The ops run as the
        :attr:`plane_program`, whose renames are then read back into
        one ``p0`` and one ``p1`` list indexed by slot; callers project
        them through :attr:`output_slots` or :attr:`net_slot`.
        """
        P = self._run(list(chain.from_iterable(input_planes)), n_vectors)
        prog = self.plane_program
        return [P[i] for i in prog.can0], [P[i] for i in prog.can1]

    def run_outputs(self, planes: Sequence[int], n_vectors: int) -> List[int]:
        """Execute the program on flat planes; returns the output planes.

        ``planes`` is ``p0, p1`` of input 0, then of input 1, and so on,
        over ``n_vectors`` lanes; the result is laid out the same way
        over the outputs.  No per-slot list is built: this is the batch
        sort's per-layer pass.
        """
        P = self._run(planes, n_vectors)
        return [P[i] for i in self._output_planes]

    def run_pair_shard(
        self,
        width: int,
        masks: Tuple[Sequence[int], Sequence[int]],
        g_lo: int,
        g_hi: int,
        pairs: Sequence[Tuple[int, int, int]],
        counts: Optional[List[int]] = None,
    ) -> Tuple[int, int]:
        """Check one g-row shard of the 2-sort pair product.

        The primary inputs are the shard's pair product (g bits, then h
        bits; ``masks`` as in :meth:`PlaneBackend.pair_shard_planes`).
        Each ``pairs`` triple ``(out, a, b)`` names an *output index*
        and two *primary input indices*: output ``out`` is expected to
        equal input ``a`` on lanes where ``rank(g) >= rank(h)`` and
        input ``b`` elsewhere, on both planes.  Returns the backend's
        ``(diff, mismatches)`` (:meth:`PlaneBackend.run_pair_shard`):
        the OR over pairs of ``got ^ expected``, plus its popcount.
        A ``counts`` list (one int per pair) also gets each pair's own
        mismatching lane count added.
        Every expected two-sort output *is* such a mux, so backends with
        fused native execution never materialize input, intermediate or
        expected planes.  Results are bit-identical across backends.
        """
        if self.n_inputs != 2 * width:
            raise ValueError(
                f"{self.name}: a 2-sort({width}) shard needs {2 * width} "
                f"inputs, got {self.n_inputs}"
            )
        cmp = [
            (self.output_slots[out], self.input_slots[a], self.input_slots[b])
            for out, a, b in pairs
        ]
        return self.backend.run_pair_shard(
            self, cmp, width, masks, g_lo, g_hi, counts=counts
        )

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode_inputs(
        self, input_vectors: Sequence[Sequence[TritLike]]
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Pack input vectors into per-input planes.

        Each vector supplies all primary inputs for one lane, in the
        circuit's input order (a :class:`Word` works directly).  Returns
        the ``(p0, p1)`` int pairs :meth:`run_planes` takes, and the lane
        count.
        """
        n = len(input_vectors)
        ni = self.n_inputs
        nbytes = (n + 7) >> 3
        b0 = [bytearray(nbytes) for _ in range(ni)]
        b1 = [bytearray(nbytes) for _ in range(ni)]
        for j, vec in enumerate(input_vectors):
            if len(vec) != ni:
                raise ValueError(
                    f"{self.name}: expected {ni} input bits, got {len(vec)}"
                )
            byte = j >> 3
            bit = 1 << (j & 7)
            for i, t in enumerate(vec):
                if not isinstance(t, Trit):
                    t = Trit.coerce(t)
                if t is not Trit.ONE:
                    b0[i][byte] |= bit
                if t is not Trit.ZERO:
                    b1[i][byte] |= bit
        planes = [
            (int.from_bytes(b0[i], "little"), int.from_bytes(b1[i], "little"))
            for i in range(ni)
        ]
        return planes, n

    def decode_outputs(
        self, p0: Sequence[int], p1: Sequence[int], n_vectors: int
    ) -> List[Word]:
        """Unpack output planes into one :class:`Word` per lane."""
        nbytes = (n_vectors + 7) >> 3
        outs = [
            (p0[s].to_bytes(nbytes, "little"), p1[s].to_bytes(nbytes, "little"))
            for s in self.output_slots
        ]
        meta, zero, one = Trit.META, Trit.ZERO, Trit.ONE
        words: List[Word] = []
        for j in range(n_vectors):
            byte = j >> 3
            bit = 1 << (j & 7)
            row = []
            for zb, ob in outs:
                if zb[byte] & bit:
                    row.append(meta if ob[byte] & bit else zero)
                else:
                    row.append(one)
            words.append(Word(row))
        return words

    def decode_lane(
        self, p0: Sequence[int], p1: Sequence[int], lane: int
    ) -> Word:
        """Output word of a single lane (per-lane slow path)."""
        return Word(
            trit_from_planes((p0[s] >> lane) & 1, (p1[s] >> lane) & 1)
            for s in self.output_slots
        )

    # ------------------------------------------------------------------
    # Public batch APIs
    # ------------------------------------------------------------------
    def evaluate_batch(
        self, input_vectors: Sequence[Sequence[TritLike]]
    ) -> List[Word]:
        """Simulate all vectors at once; one output :class:`Word` each.

        ``input_vectors[j]`` covers the primary inputs (in order) for
        lane ``j``; the result's ``j``-th element is the full output
        vector of that lane.  Semantics are identical to calling the
        scalar :func:`repro.circuits.evaluate.evaluate_words` per
        vector, at a fraction of the cost.
        """
        planes, n = self.encode_inputs(input_vectors)
        p0, p1 = self.run_planes(planes, n)
        return self.decode_outputs(p0, p1, n)

    def run_tritvecs(self, inputs: Sequence[TritVec]) -> List[TritVec]:
        """Batch-evaluate with :class:`TritVec` per input net.

        ``inputs[i]`` carries input ``i`` across all lanes; returns one
        :class:`TritVec` per primary output.  The planes go to
        :meth:`run_outputs` as they are and come back wrapped unchecked,
        with no copy.  (The batched
        sorting-network simulator skips the wrappers: it keeps plain
        planes from :func:`planes_from_str` and calls
        :meth:`run_outputs` itself.)
        """
        if not inputs and self.n_inputs:
            raise ValueError(f"{self.name}: expected {self.n_inputs} inputs")
        n = inputs[0].n if inputs else 0
        for tv in inputs:
            if tv.n != n:
                raise ValueError("all input TritVecs must have equal lanes")
        out = self.run_outputs([p for tv in inputs for p in (tv.p0, tv.p1)], n)
        return [
            TritVec._wrap(n, p0, p1) for p0, p1 in zip(out[::2], out[1::2])
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledCircuit({self.name!r}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs}, ops={len(self.ops)}, "
            f"backend={self.backend.name!r})"
        )


def compile_circuit(
    circuit: Circuit, backend: BackendLike = None
) -> CompiledCircuit:
    """Compile ``circuit``, caching the program on the netlist itself.

    The cache is keyed on ``(circuit.version, backend.name)``: adding a
    gate, input, output, or constant invalidates every entry and the
    next call recompiles; requesting a different plane backend compiles
    a sibling program without evicting the others.  Identity-keyed
    caching means independent circuits never share programs even when
    structurally equal.
    """
    be = get_backend(backend)
    cache: Optional[Dict[str, CompiledCircuit]] = getattr(
        circuit, "_compiled_cache", None
    )
    if not isinstance(cache, dict) or any(
        p.version != circuit.version for p in cache.values()
    ):
        cache = {}
        circuit._compiled_cache = cache
    program = cache.get(be.name)
    # `backend is not be` catches a re-registered backend instance under
    # the same name (tests swap in fresh instances).
    if program is None or program.backend is not be:
        program = CompiledCircuit(circuit, be)
        cache[be.name] = program
    return program
