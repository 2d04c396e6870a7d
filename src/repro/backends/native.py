"""Native plane backend: the whole compiled sweep in one C call.

``NativeBackend`` is a self-resolving proxy registered as ``"native"``.
On first use it tries to build/load the C kernel in
:mod:`repro.backends._kernel`; when that works it becomes a
:class:`_KernelBackend` -- planes are stdlib ``array("Q")`` lane words
(lane ``j`` at bit ``j & 63`` of word ``j >> 6``, so the canonical
little-endian bytes match the big-int backend exactly), every plane op
is a kernel call, and the compiled op list is lowered to a flat int32
program once and executed without re-entering Python between ops:
:meth:`run_ops` packs the slot planes into two slabs for one
``repro_run_program`` call, and :meth:`run_pair_shard` -- a whole
exhaustive-verification shard -- is one ``repro_pair_shard`` call that
generates the pair product itself, so no input plane is built in Python.
``run_ops`` keeps one slot per net, since its callers read every net's
plane; the pair shard reads only the compared outputs, so it runs a
compact program (:func:`_lower_pair_shard`): inverters and buffers
become operand plane swaps, and values share rows by liveness --
2-sort(13) goes from 314 ops over 340 slots to 242 ops over 77 rows,
whose 32-word tiles fit in L1.
When the kernel is unavailable (no compiler, build failure,
``REPRO_NO_NATIVE=1``) the proxy degrades to the registered ``bigint``
backend with a one-time stderr notice, so hosts without a toolchain see
identical behavior to ``--backend bigint``.

The proxy shape matters for distribution: pool and distributed-worker
initializers forward the backend *name*, so every worker process
resolves ``"native"`` independently -- building the kernel where it can,
falling back where it cannot -- while compile caches and sweep-epoch
keys stay consistent because they key on the name, not the variant.
"""

from __future__ import annotations

import ctypes
import itertools
import sys
import threading
from array import array
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import _kernel
from .base import OP_BUF, OP_INV, Plane, PlaneBackend

__all__ = ["NativeBackend"]

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1

#: Lowered programs cached per op-list identity; cleared wholesale past
#: this many entries (each sweep reuses one program thousands of times,
#: so eviction policy is irrelevant -- this is just a leak bound).
_PROGRAM_CACHE_CAP = 32


def _int32s(values: Iterable[int]) -> ctypes.Array:
    # A ctypes view of an array("i"), which it keeps alive: several times
    # faster to build than a ctypes array constructed from *args.
    flat = array("i", values)
    return (ctypes.c_int32 * len(flat)).from_buffer(flat)


def _qptr(plane: array) -> int:
    # Raw buffer address: every kernel pointer parameter is bound as
    # c_void_p, so plain ints cross the FFI without a ctypes cast.
    return plane.buffer_info()[0]


def _words(n: int) -> array:
    """``n`` zeroed lane words."""
    return array("Q", bytes(8 * n))


#: Op-word bits that read operand a / b with its two planes swapped
#: (kernel.c OP_SWAP_A / OP_SWAP_B).
_SWAP_A = 16
_SWAP_B = 32


def _lower_pair_shard(program, cmp: Sequence[Tuple[int, int, int]]):
    """The compact pair-shard program of ``program`` checking ``cmp``.

    Returns ``(prog, cmp_rows, fill, n_rows)``: the flat
    ``[op_word, dst, a, b]`` program, the compare triples over rows (a
    negative entry ``~r`` reads row ``r`` with its planes swapped), the
    ``[row, can0, can1]`` preset rows, and the number of rows.  Input
    ``i`` lives in row ``i``, where the kernel writes it.

    An INV or BUF emits no op: every slot names a root value and a
    polarity bit, and readers of an inverted root swap its planes (op
    word bits ``_SWAP_A`` / ``_SWAP_B``).  Rows are shared by liveness.
    The inputs, the preset rows (constants, and reads nobody writes,
    which get zero rows as in the generic path) and every compared root
    come first and stay live to the end; each other value takes a freed
    row, last freed first, and frees it after its last read -- at once
    if nothing reads it.  A destination is taken before its op's sources
    are freed, since a plane-swapped read is not in-place safe.
    """
    ops = program.ops
    base = program.n_slots
    # Pass 1: value ids below ``base`` are slot s's initial content;
    # the k-th emitted op computes value base + k.
    val = list(range(base))
    pol = [0] * base
    last = [-1] * (base + len(ops))  # index of the last op reading a value
    body = []  # (op word, value a, value b)
    for op, d, a, b in ops:
        if op == OP_INV:
            val[d] = val[a]
            pol[d] = pol[a] ^ 1
        elif op == OP_BUF:
            val[d] = val[a]
            pol[d] = pol[a]
        else:
            k = len(body)
            va, vb = val[a], val[b]
            last[va] = last[vb] = k
            body.append((op | pol[a] * _SWAP_A | pol[b] * _SWAP_B, va, vb))
            val[d] = base + k
            pol[d] = 0
    # Pinned rows: inputs, then preset rows, then compared roots.
    never = len(body)
    row = [-1] * (base + len(body))
    n_rows = 0
    for s in program.input_slots:
        row[s] = n_rows
        last[s] = never
        n_rows += 1
    roots = [(val[s], pol[s]) for triple in cmp for s in triple]
    for v, _ in roots:
        last[v] = max(last[v], 0)  # a compared value counts as read
    consts = {s: (c0, c1) for s, c0, c1 in program.const_slots}
    fill = []
    for v in range(base):
        if row[v] < 0 and last[v] >= 0:
            row[v] = n_rows
            last[v] = never
            fill += (n_rows, *consts.get(v, (0, 0)))
            n_rows += 1
    for v, _ in roots:
        last[v] = never
        if row[v] < 0:
            row[v] = n_rows
            n_rows += 1
    # Pass 2: place every other value and emit.
    free: List[int] = []
    prog: List[int] = []
    for k, (word, va, vb) in enumerate(body):
        r = row[base + k]
        if r < 0:
            r = free.pop() if free else n_rows
            if r == n_rows:
                n_rows += 1
            row[base + k] = r
            if last[base + k] < 0:
                free.append(r)
        prog += (word, r, row[va], row[vb])
        if last[va] == k:
            free.append(row[va])
        if last[vb] == k and vb != va:
            free.append(row[vb])
    cmp_rows = [row[v] if p == 0 else ~row[v] for v, p in roots]
    return prog, cmp_rows, fill, n_rows


class _KernelBackend(PlaneBackend):
    """The built variant: ``array("Q")`` lane-word planes, C-kernel ops."""

    name = "native"
    word_bits = _WORD_BITS
    #: The fused one-call sweep tiles the word axis internally
    #: (cache-resident scratch), so the only per-shard costs left are
    #: Python crossings -- fewer, wider shards win.  1<<18 runs the
    #: whole B=8 pair domain as one shard.
    preferred_shard_lanes = 1 << 18

    def __init__(self, lib):
        self._lib = lib
        self._programs: dict = {}
        self._marshal: dict = {}
        self._masks = None
        self._tile = int(lib.repro_tile_words())
        self._local = threading.local()

    # The ctypes handle and caches stay behind; the receiving process
    # loads its own kernel.
    def __getstate__(self):
        return {"name": self.name}

    def __setstate__(self, state):
        lib = _kernel.load_kernel()
        if lib is None:  # pragma: no cover - host lost its compiler
            raise RuntimeError(
                "native plane kernel unavailable after unpickling; "
                "forward the backend name instead of the instance"
            )
        self.__init__(lib)
        self.name = state["name"]

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------
    @staticmethod
    def words_for(lanes: int) -> int:
        """Lane words needed for ``lanes`` lanes (explicit addressing)."""
        return (lanes + _WORD_BITS - 1) >> 6

    @staticmethod
    def lane_address(lane: int) -> Tuple[int, int]:
        """``(word_index, bit_index)`` of a lane -- the layout contract."""
        return lane >> 6, lane & 63

    @staticmethod
    def _tail_mask(lanes: int) -> int:
        tail = lanes & 63
        return (1 << tail) - 1 if tail else _WORD_MASK

    # ------------------------------------------------------------------
    # Allocation / packing / conversion
    # ------------------------------------------------------------------
    def zeros(self, lanes: int) -> array:
        return _words(self.words_for(lanes))

    def ones(self, lanes: int) -> array:
        words = self.words_for(lanes)
        plane = array("Q", [_WORD_MASK]) * words
        if words:
            plane[-1] = self._tail_mask(lanes)
        return plane

    def from_int(self, value: int, lanes: int) -> array:
        words = self.words_for(lanes)
        value &= (1 << lanes) - 1  # enforce the tail-mask invariant
        return self.from_bytes(value.to_bytes(words * 8, "little"), lanes)

    def from_bytes(self, data: bytes, lanes: int) -> array:
        words = self.words_for(lanes)
        if len(data) < words * 8:
            data = data + bytes(words * 8 - len(data))
        plane = array("Q")
        plane.frombytes(data[: words * 8])
        if sys.byteorder == "big":
            plane.byteswap()
        if words:
            plane[-1] &= self._tail_mask(lanes)
        return plane

    def coerce(self, plane, lanes: int) -> array:
        if isinstance(plane, int):
            return self.from_int(plane, lanes)
        if isinstance(plane, array):
            return plane
        raise TypeError(f"native backend got a {type(plane).__name__} plane")

    def to_int(self, plane: array, lanes: int) -> int:
        return int.from_bytes(self.to_bytes(plane, lanes), "little")

    def to_bytes(self, plane: array, lanes: int) -> bytes:
        if sys.byteorder == "big":
            plane = array("Q", plane)
            plane.byteswap()
        return plane.tobytes()[: (lanes + 7) >> 3]

    # ------------------------------------------------------------------
    # Plane ops and queries: one kernel call each
    # ------------------------------------------------------------------
    def _bitwise(self, op: int, a: array, b: array) -> array:
        out = _words(len(a))
        self._lib.repro_bitwise(op, _qptr(a), _qptr(b), _qptr(out), len(a))
        return out

    def band(self, a, b):
        return self._bitwise(0, a, b)

    def bor(self, a, b):
        return self._bitwise(1, a, b)

    def bxor(self, a, b):
        return self._bitwise(2, a, b)

    def bnot(self, a, lanes: int):
        out = _words(len(a))
        self._lib.repro_not_masked(
            _qptr(a), _qptr(out), len(a), self._tail_mask(lanes)
        )
        return out

    def eq(self, a, b) -> bool:
        return a == b

    def any(self, a) -> bool:
        return any(a)

    def popcount(self, a) -> int:
        return int(self._lib.repro_popcount(_qptr(a), len(a)))

    def get_lane(self, a, lane: int) -> int:
        word, bit = self.lane_address(lane)
        return (a[word] >> bit) & 1

    def iter_set_lanes(self, a, lanes: int) -> Iterator[int]:
        n = self.popcount(a)
        if not n:
            return iter(())
        out = (ctypes.c_int32 * n)()
        got = self._lib.repro_extract_lanes(_qptr(a), len(a), out, n)
        return iter(out[:got])

    def _scratch_addr(self, n_rows: int) -> int:
        """Address of a reusable per-thread tile slab (one C call at a time).

        The buffer (2 * n_rows * tile words) and its base address are
        cached together so the hot path pays no per-call address
        extraction.  The slab starts on a 64-byte boundary: the AVX2
        tile loop ran ~15 % slower on a slab that was not 32-byte
        aligned, and where malloc puts a fresh buffer depends on what
        the process allocated before, down to which modules it imported.
        """
        nwords = 2 * n_rows * self._tile
        cached = getattr(self._local, "scratch", None)
        if cached is None or cached[1] < nwords:
            buf = _words(nwords + 7)  # room to round the base up 56 bytes
            cached = (buf, nwords, -(-_qptr(buf) // 64) * 64)
            self._local.scratch = cached
        return cached[2]

    # ------------------------------------------------------------------
    # Program lowering
    # ------------------------------------------------------------------
    def _lower(self, ops: Sequence[Tuple[int, int, int, int]]):
        """Flat int32 program + slab preload/copy-out slot lists.

        Keyed on the op list's identity (compiled programs are built once
        per circuit epoch and reused across shards); ``ops`` itself is
        retained in the entry so the id stays valid.
        """
        key = id(ops)
        cached = self._programs.get(key)
        if cached is not None and cached[0] is ops:
            return cached[1], cached[2], cached[3]
        prog = _int32s(itertools.chain(*ops))
        # Only slots read before any write (inputs, constants, unwired
        # defaults) need copying into the slab; every dst is written
        # before it is read (topological order), and only dsts need
        # copying back out.
        written: set = set()
        preloaded: set = set()
        preload: List[int] = []
        dsts: List[int] = []
        for _op, d, a, b in ops:
            for s in (a, b):
                if s not in written and s not in preloaded:
                    preloaded.add(s)
                    preload.append(s)
            if d not in written:
                written.add(d)
                dsts.append(d)
        if len(self._programs) >= _PROGRAM_CACHE_CAP:
            self._programs.clear()
        entry = (ops, prog, tuple(preload), tuple(dsts))
        self._programs[key] = entry
        return prog, entry[2], entry[3]

    # ------------------------------------------------------------------
    # Compiled-program execution: one C call for the whole sweep
    # ------------------------------------------------------------------
    def run_ops(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        p0: List[Any],
        p1: List[Any],
    ) -> None:
        words = len(p0[0]) if p0 else 0
        if not ops or words == 0:
            super().run_ops(ops, p0, p1)
            return
        prog, preload, dsts = self._lower(ops)
        n_slots = len(p0)
        slab0 = _words(n_slots * words)
        slab1 = _words(n_slots * words)
        for s in preload:
            slab0[s * words : (s + 1) * words] = p0[s]
            slab1[s * words : (s + 1) * words] = p1[s]
        self._lib.repro_run_program(
            prog, len(ops), _qptr(slab0), _qptr(slab1), words
        )
        for d in dsts:
            p0[d] = slab0[d * words : (d + 1) * words]
            p1[d] = slab1[d * words : (d + 1) * words]

    # ------------------------------------------------------------------
    # Verification shards: one C call each, pair product generated in C
    # ------------------------------------------------------------------
    def _shard_marshal(self, program, cmp: Sequence[Tuple[int, int, int]]):
        """Cached per-(program, compare triples) int32 arrays for the C call.

        One verification sweep makes thousands of calls with identical
        slot structure, so the compact program (:func:`_lower_pair_shard`)
        and its int32 arrays are built once and revalidated by identity
        and tuple compare.
        """
        ops = program.ops
        cmp_t = tuple(cmp)
        cached = self._marshal.get(id(ops))
        if cached is not None and cached[0] is ops and cached[1] == cmp_t:
            return cached[2]
        prog, cmp_rows, fill, n_rows = _lower_pair_shard(program, cmp_t)
        entry = (
            _int32s(prog),
            len(prog) >> 2,
            _int32s(cmp_rows),
            len(cmp_t),
            _int32s(fill),
            len(fill) // 3,
            n_rows,
        )
        if len(self._marshal) >= _PROGRAM_CACHE_CAP:
            self._marshal.clear()
        self._marshal[id(ops)] = (ops, cmp_t, entry)
        return entry

    def _mask_rows(self, masks, width: int):
        """``(m0, m1, words)``: the string masks as row-major uint64 rows.

        Each side is ``width`` rows of ``words`` words plus one zero pad
        word for the kernel's windowed reads.  Cached for the last
        ``masks`` object: a sweep passes the same memoized tuple for
        every shard.
        """
        cached = self._masks
        if cached is not None and cached[0] is masks and cached[1] == width:
            return cached[2]
        if any(len(side) != width for side in masks):
            raise ValueError(f"masks must hold {width} rows per plane")
        mw = self.words_for((1 << (width + 1)) - 1)
        m0, m1 = (
            array("Q", b"".join(m.to_bytes(8 * mw, "little") for m in side))
            for side in masks
        )
        m0.append(0)
        m1.append(0)
        self._masks = (masks, width, (m0, m1, mw))
        return m0, m1, mw

    def run_pair_shard(self, program, cmp, width, masks, g_lo, g_hi,
                       counts=None):
        # The kernel indexes the mask rows and input slots by these.
        S = (1 << (width + 1)) - 1
        if not 0 <= g_lo < g_hi <= S or len(program.input_slots) != 2 * width:
            raise ValueError(
                f"bad 2-sort({width}) shard [{g_lo}, {g_hi}) for a program "
                f"with {len(program.input_slots)} inputs"
            )
        prog, n_ops, cmp_arr, n_cmp, fill_arr, n_fill, n_rows = (
            self._shard_marshal(program, cmp)
        )
        m0, m1, mw = self._mask_rows(masks, width)
        words = self.words_for((g_hi - g_lo) * S)
        diff = _words(words)
        tally = None if counts is None else (ctypes.c_int64 * n_cmp)()
        mismatches = self._lib.repro_pair_shard(
            prog,
            n_ops,
            cmp_arr,
            n_cmp,
            fill_arr,
            n_fill,
            _qptr(m0),
            _qptr(m1),
            width,
            mw,
            g_lo,
            g_hi,
            self._scratch_addr(n_rows),
            n_rows,
            _qptr(diff),
            tally,
        )
        if tally is not None:
            for j, n in enumerate(tally):
                counts[j] += n
        return diff, int(mismatches)


class NativeBackend(PlaneBackend):
    """Registry proxy: kernel-built planes when possible, bigint otherwise.

    Resolution is lazy (first plane operation or attribute that needs the
    implementation), so importing the package never forks a compiler; it
    is also sticky for the life of the instance.
    """

    name = "native"

    def __init__(self):
        self._impl: Optional[PlaneBackend] = None

    def _resolve(self) -> PlaneBackend:
        impl = self._impl
        if impl is None:
            lib = _kernel.load_kernel()
            if lib is not None:
                impl = _KernelBackend(lib)
                impl.name = self.name
            else:
                _kernel.emit_fallback_notice()
                from . import get_backend

                impl = get_backend("bigint")
            self._impl = impl
        return impl

    # Proxies cross process boundaries stripped to their name, the same
    # way initializers forward backends: the receiving side re-resolves
    # (and builds or falls back) locally.
    def __getstate__(self):
        return {"name": self.name}

    def __setstate__(self, state):
        self.name = state["name"]
        self._impl = None

    @property
    def built(self) -> bool:
        """True when the C kernel is loaded (not the bigint fallback)."""
        return isinstance(self._resolve(), _KernelBackend)

    @property
    def variant(self) -> str:
        """``"built"`` or ``"fallback"`` -- recorded by bench/CLI."""
        return "built" if self.built else "fallback"

    @property
    def word_bits(self) -> int:  # type: ignore[override]
        return self._resolve().word_bits

    @property
    def preferred_shard_lanes(self) -> int:  # type: ignore[override]
        return self._resolve().preferred_shard_lanes

    # ------------------------------------------------------------------
    # PlaneBackend surface: pure forwarders
    # ------------------------------------------------------------------
    def zeros(self, lanes: int) -> Plane:
        return self._resolve().zeros(lanes)

    def ones(self, lanes: int) -> Plane:
        return self._resolve().ones(lanes)

    def from_int(self, value: int, lanes: int) -> Plane:
        return self._resolve().from_int(value, lanes)

    def from_bytes(self, data: bytes, lanes: int) -> Plane:
        return self._resolve().from_bytes(data, lanes)

    def coerce(self, plane: Plane, lanes: int) -> Plane:
        return self._resolve().coerce(plane, lanes)

    def to_int(self, plane: Plane, lanes: int) -> int:
        return self._resolve().to_int(plane, lanes)

    def to_bytes(self, plane: Plane, lanes: int) -> bytes:
        return self._resolve().to_bytes(plane, lanes)

    def band(self, a: Plane, b: Plane) -> Plane:
        return self._resolve().band(a, b)

    def bor(self, a: Plane, b: Plane) -> Plane:
        return self._resolve().bor(a, b)

    def bxor(self, a: Plane, b: Plane) -> Plane:
        return self._resolve().bxor(a, b)

    def bnot(self, a: Plane, lanes: int) -> Plane:
        return self._resolve().bnot(a, lanes)

    def eq(self, a: Plane, b: Plane) -> bool:
        return self._resolve().eq(a, b)

    def any(self, a: Plane) -> bool:
        return self._resolve().any(a)

    def popcount(self, a: Plane) -> int:
        return self._resolve().popcount(a)

    def get_lane(self, a: Plane, lane: int) -> int:
        return self._resolve().get_lane(a, lane)

    def iter_set_lanes(self, a: Plane, lanes: int) -> Iterator[int]:
        return self._resolve().iter_set_lanes(a, lanes)

    def run_ops(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        p0: List[Plane],
        p1: List[Plane],
    ) -> None:
        self._resolve().run_ops(ops, p0, p1)

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
        return self._resolve().run_ops_select_diff(
            ops, n_slots, inputs, cmp, sel, nsel, lanes, counts=counts
        )

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
        return self._resolve().run_pair_shard(
            program, cmp, width, masks, g_lo, g_hi, counts=counts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "unresolved" if self._impl is None else self.variant
        return f"<NativeBackend {self.name!r} ({state})>"
