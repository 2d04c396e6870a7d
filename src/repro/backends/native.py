"""Native plane backend: the pair shard in a C kernel.

``NativeBackend`` is :class:`~repro.backends.bigint.BigIntBackend` with
one method moved into C.  Planes are Python ints on every backend, and
``run_ops`` and failure decode are the reference engine's own code;
only :meth:`~NativeBackend.run_pair_shard` -- a whole
exhaustive-verification shard -- differs.  It is one
``repro_pair_shard`` call of the kernel in
:mod:`repro.backends._kernel`, which generates the pair product itself,
so no input plane is built in Python.  Inside the call every g-row is
padded to a power-of-two count of whole words, so each input word is a
copied mask word or a smeared mask bit; the mask rows go in as
``ceil(S / 64)``-word rows with no pad word, and ``diff`` comes back in
the compact lane layout ``(gi - g_lo) * S + hi`` of the reference, as
an int: 0 when no lane mismatched, else converted once.

The shard runs a compact program (:func:`_lower_pair_shard`, ``kernel.c``
ABI 8): inverters and buffers become operand plane swaps, each AND/OR
value with one reader folds into that reader as one three-input op
(a single ``vpternlogq`` per plane on the kernel's AVX-512 tier), and
values share rows by liveness -- 2-sort(13) goes from 314 ops over 340
slots to 122 ops (120 of them fused) over 75 rows, whose 32-word tiles
fit in L1.

The kernel loads on first use of ``built``, ``variant``,
``preferred_shard_lanes`` or ``run_pair_shard``.  A sort reads none of
them, so a sort on ``native`` never builds it (resolving ``auto``
does).  When it is unavailable (no compiler, build failure,
``REPRO_NO_NATIVE=1``) the shard runs the inherited Python reference
after a one-time stderr notice, and shards are sized as bigint's.

Pool and distributed-worker initializers forward the backend *name*, so
every worker process loads the kernel where it can and falls back where
it cannot, while compile caches and sweep-epoch keys stay consistent
because they key on the name, not the variant.
"""

from __future__ import annotations

import ctypes
import sys
import threading
from array import array
from typing import Iterable, List, Sequence, Tuple

from . import _kernel
from .base import OP_AND, OP_BUF, OP_INV, OP_OR, OP_XOR
from .bigint import BigIntBackend

__all__ = ["NativeBackend"]

_WORD_BITS = 64

#: Marshalled programs cached per op-list identity; cleared wholesale
#: past this many entries (each sweep reuses one program thousands of
#: times, so eviction policy is irrelevant -- this is just a leak bound).
_PROGRAM_CACHE_CAP = 32


def _int32s(values: Iterable[int]) -> ctypes.Array:
    # An exact-size ctypes copy of an array("i"): several times faster to
    # build than a ctypes array constructed from *args.  Every buffer the
    # kernel reads or writes is exact-size (the tile slab is a _Slab):
    # array() over-allocates, which would hide a sanitized kernel's read
    # past the end of its buffer.
    flat = array("i", values)
    return (ctypes.c_int32 * len(flat)).from_buffer_copy(flat)


def _words_for(lanes: int) -> int:
    """uint64 words holding ``lanes`` bits (lane ``j`` at bit ``j & 63``
    of word ``j >> 6``)."""
    return (lanes + _WORD_BITS - 1) >> 6


#: Op-word bits (kernel.c): read operand a / b / c with its two planes
#: swapped (OP_SWAP_A/B/C), and OP_FUSED, an op OUTER(INNER(a, b), c)
#: whose inner opcode sits at bit _INNER_SHIFT.
_SWAP_A = 16
_SWAP_B = 32
_SWAP_C = 64
_FUSED = 8
_INNER_SHIFT = 8
_OP_CODE = 7


def _lower_pair_shard(program, cmp: Sequence[Tuple[int, int, int]]):
    """The compact pair-shard program of ``program`` checking ``cmp``.

    Returns ``(prog, cmp_rows, fill, n_rows)``: the flat
    ``[op_word, dst, a, b, c]`` program, the compare triples over rows
    (a negative entry ``~r`` reads row ``r`` with its planes swapped),
    the ``[row, can0, can1]`` preset rows, and the number of rows.
    Input ``i`` lives in row ``i``, where the kernel writes it.

    An INV or BUF emits no op: every slot names a root value and a
    polarity bit, and readers of an inverted root swap its planes (op
    word bits ``_SWAP_A`` / ``_SWAP_B``).  Then each AND/OR value that
    has exactly one read, is not a compared root and has absorbed
    nothing itself folds into its AND/OR reader, which becomes the
    fused op ``OUTER(INNER(a, b), c)`` (``_FUSED``; ``c`` is the
    reader's other operand).  Negation is a plane swap, so De Morgan
    holds exactly in the two-plane encoding: an inverted read of the
    folded value turns its inner AND into OR, or OR into AND, with the
    swap bits of ``a`` and ``b`` toggled.  An op that is not fused
    carries ``c = 0``, which the kernel never reads.

    Rows are shared by liveness over the fused program.  The inputs,
    the preset rows (constants, and reads nobody writes, which get zero
    rows as in the generic path) and every compared root come first and
    stay live to the end; each other value takes a freed row, last
    freed first, and frees it after its last read -- at once if nothing
    reads it.  A destination is taken before its op's sources are
    freed, since a plane-swapped read is not in-place safe.
    """
    ops = program.ops
    base = program.n_slots
    # Pass 1: value ids below ``base`` are slot s's initial content;
    # the k-th body op computes value base + k.
    val = list(range(base))
    pol = [0] * base
    reads = [0] * (base + len(ops))
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
            reads[va] += 1
            reads[vb] += 1
            body.append((op | pol[a] * _SWAP_A | pol[b] * _SWAP_B, va, vb))
            val[d] = base + k
            pol[d] = 0
    roots = [(val[s], pol[s]) for triple in cmp for s in triple]
    for v, _ in roots:
        reads[v] = 0  # a compared value keeps its row: it never folds
    # Pass 2: fold.  emit[k] is body op k as (value, op word, a, b, c),
    # c None unless fused, or None once folded into its one reader;
    # can_fold[k] says whether it is an AND/OR that absorbed nothing.
    # Ops keep their body order, so a body index orders reads: last[v]
    # is the index of the last op reading v.
    emit: List = []
    can_fold: List[bool] = []
    last = [-1] * (base + len(ops))
    for k, (word, va, vb) in enumerate(body):
        entry = (base + k, word, va, vb, None)
        andor = word & _OP_CODE != OP_XOR
        if andor:
            v, z, swap, z_swap = va, vb, _SWAP_A, _SWAP_B
            if reads[v] != 1 or v < base or not can_fold[v - base]:
                v, z, swap, z_swap = vb, va, _SWAP_B, _SWAP_A
            if reads[v] == 1 and v >= base and can_fold[v - base]:
                _, inner, x, y, _ = emit[v - base]
                if word & swap:  # De Morgan: ~AND(x, y) = OR(~x, ~y), and dually
                    inner ^= (OP_AND ^ OP_OR) | _SWAP_A | _SWAP_B
                entry = (base + k, word & _OP_CODE | _FUSED
                         | (inner & _OP_CODE) << _INNER_SHIFT
                         | inner & (_SWAP_A | _SWAP_B)
                         | (_SWAP_C if word & z_swap else 0), x, y, z)
                emit[v - base] = None
                andor = False
        _, _, a, b, c = entry
        last[a] = last[b] = k
        if c is not None:
            last[c] = k
        emit.append(entry)
        can_fold.append(andor)
    # Pinned rows: inputs, then preset rows, then compared roots.
    never = len(body)
    row = [-1] * (base + len(ops))
    n_rows = 0
    for s in program.input_slots:
        row[s] = n_rows
        last[s] = never
        n_rows += 1
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
    # Pass 3: place every other value and emit.
    free: List[int] = []
    prog: List[int] = []
    for i, entry in enumerate(emit):
        if entry is None:
            continue
        v, word, a, b, c = entry
        r = row[v]
        if r < 0:
            r = free.pop() if free else n_rows
            if r == n_rows:
                n_rows += 1
            row[v] = r
            if last[v] < 0:
                free.append(r)
        # c is 0 on an op that is not fused; the kernel never reads it.
        rc = 0 if c is None else row[c]
        prog += (word, r, row[a], row[b], rc)
        if last[a] == i:
            free.append(row[a])
        if last[b] == i and b != a:
            free.append(row[b])
        if c is not None and last[c] == i and c != a and c != b:
            free.append(rc)
    cmp_rows = [row[v] if p == 0 else ~row[v] for v, p in roots]
    return prog, cmp_rows, fill, n_rows


class _Slab:
    """A zeroed buffer of ``words`` uint64 words on a 64-byte boundary.

    The AVX2 tile loop ran ~15 % slower on a slab that was not 32-byte
    aligned, and where malloc puts a fresh buffer depends on what the
    process allocated before, down to which modules it imported; so the
    slab comes from ``posix_memalign``.  It is exact-size -- no slack to
    round the base up -- so a sanitized kernel's read past its last row
    is caught.  Freed with the object: when its thread's slab is
    replaced, or with the thread's locals.
    """

    __slots__ = ("addr", "words")
    _libc = None

    def __init__(self, words: int):
        libc = _Slab._libc
        if libc is None:  # bound before it is shared with other threads
            libc = ctypes.CDLL(None)
            libc.posix_memalign.argtypes = [
                ctypes.POINTER(ctypes.c_void_p), ctypes.c_size_t,
                ctypes.c_size_t,
            ]
            libc.free.argtypes = [ctypes.c_void_p]
            _Slab._libc = libc
        self.addr = None  # free(NULL) is a no-op if allocation fails
        ptr = ctypes.c_void_p()
        if libc.posix_memalign(ctypes.byref(ptr), 64, 8 * words):
            raise MemoryError(f"no {8 * words}-byte aligned tile slab")
        ctypes.memset(ptr.value, 0, 8 * words)
        # A plain int crosses the c_void_p parameter without a cast.
        self.addr = ptr.value
        self.words = words

    def __del__(self):
        self._libc.free(self.addr)


class NativeBackend(BigIntBackend):
    """Big-int planes; verification shards in the C kernel when it builds."""

    name = "native"

    def __init__(self):
        self._lib = None
        self._loaded = False
        self._tile = 0
        self._marshal: dict = {}
        self._masks = None
        self._local = threading.local()

    # The ctypes handle and caches stay behind: the receiving process
    # loads (or falls back) on its own.
    def __getstate__(self):
        return {"name": self.name}

    def __setstate__(self, state):
        self.__init__()
        self.name = state["name"]

    def _load(self):
        """The bound kernel, or ``None`` after the one-time notice."""
        if not self._loaded:
            lib = _kernel.load_kernel()
            if lib is None:
                _kernel.emit_fallback_notice()
            else:
                self._tile = int(lib.repro_tile_words())
            self._lib = lib
            self._loaded = True
        return self._lib

    @property
    def built(self) -> bool:
        """True when the C kernel is loaded (shards run in C)."""
        return self._load() is not None

    @property
    def variant(self) -> str:
        """``"built"`` or ``"fallback"`` -- recorded by bench/CLI."""
        return "built" if self.built else "fallback"

    @property
    def preferred_shard_lanes(self) -> int:  # type: ignore[override]
        # The kernel tiles the word axis itself (cache-resident scratch),
        # so its only per-shard cost is the Python crossing: fewer,
        # wider shards win.  1<<18 runs the whole B=8 pair domain as one.
        if self.built:
            return 1 << 18
        return BigIntBackend.preferred_shard_lanes

    def _scratch_addr(self, n_rows: int) -> int:
        """Address of this thread's tile slab for ``n_rows`` rows (one C
        call at a time).

        The slab (2 * n_rows * tile words, :class:`_Slab`) and its
        address are cached together so the hot path pays no per-call
        address extraction; a call with another row count replaces it,
        so the slab is always exactly as long as the kernel may use.
        """
        nwords = 2 * n_rows * self._tile
        slab = getattr(self._local, "scratch", None)
        if slab is None or slab.words != nwords:
            slab = self._local.scratch = _Slab(nwords)
        return slab.addr

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
            len(prog) // 5,
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

        Each side is ``width`` rows of ``words`` words, where ``words``
        -- ``ceil(S / 64)`` for ``S`` valid strings -- is also the
        kernel's words per padded g-row: ``(S + 1) / 64``, or 1 below
        width 5.  Cached for the last ``masks`` object: a sweep passes
        the same memoized tuple for every shard.
        """
        cached = self._masks
        if cached is not None and cached[0] is masks and cached[1] == width:
            return cached[2]
        if any(len(side) != width for side in masks):
            raise ValueError(f"masks must hold {width} rows per plane")
        mw = _words_for((1 << (width + 1)) - 1)
        m0, m1 = (
            (ctypes.c_uint64 * (width * mw)).from_buffer_copy(
                b"".join(m.to_bytes(8 * mw, "little") for m in side)
            )
            for side in masks
        )
        self._masks = (masks, width, (m0, m1, mw))
        return m0, m1, mw

    def run_pair_shard(self, program, cmp, width, masks, g_lo, g_hi,
                       counts=None):
        lib = self._load()
        if lib is None:
            return super().run_pair_shard(
                program, cmp, width, masks, g_lo, g_hi, counts=counts
            )
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
        diff = (ctypes.c_uint64 * _words_for((g_hi - g_lo) * S))()
        tally = None if counts is None else (ctypes.c_int64 * n_cmp)()
        mismatches = lib.repro_pair_shard(
            prog,
            n_ops,
            cmp_arr,
            n_cmp,
            fill_arr,
            n_fill,
            m0,
            m1,
            width,
            mw,
            g_lo,
            g_hi,
            self._scratch_addr(n_rows),
            n_rows,
            diff,
            tally,
        )
        if tally is not None:
            for j, n in enumerate(tally):
                counts[j] += n
        if not mismatches:
            return 0, 0
        raw = bytes(diff)
        if sys.byteorder == "big":
            words = array("Q", raw)
            words.byteswap()
            raw = words.tobytes()
        return int.from_bytes(raw, "little"), int(mismatches)
