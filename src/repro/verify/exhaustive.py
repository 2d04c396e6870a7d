"""Exhaustive verification of 2-sort(B) over the valid-string domain.

The paper validates by proof + spot simulation; this module checks
closure equality (Definition 2.8) on *every* valid pair -- |S^B_rg|²
of them, e.g. 3,969 at B = 5 and 261,121 at B = 8 -- giving the
reproduction its ground truth.  Equality also implies containment,
since the max and min of two valid strings are valid strings.

The sweep runs the whole pair domain as a handful of two-plane batches
(:mod:`repro.circuits.compiled`), one g-row shard at a time, through
:meth:`PlaneBackend.run_pair_shard <repro.backends.PlaneBackend.run_pair_shard>`:

* the *pair product* ``S x S`` lives directly in plane space -- each
  h-side input is one per-string bit pattern repeated every ``S`` lanes,
  each g-side input spreads one string's bit across an ``S``-wide lane
  block -- so no per-pair Python loop ever runs on the happy path.  The
  shard's backend gets only the per-bit string masks
  (:func:`_string_bit_masks`): the reference backends pack the planes
  from them, and the native kernel generates the lane words in C, tile
  by tile, without building any input plane;
* the expected ``(max, min)`` planes come from the total order of
  Table 2 (strings are enumerated in ascending rank, so "max = g iff
  h-index <= g-index" is one block-triangular select mask).  On valid
  strings the order max/min *is* the closure ``max_rg_M``/``min_rg_M``
  (Lemma 2.9; checked exhaustively in ``tests/test_graycode_ops.py``),
  so comparing planes against it verifies Definition 2.8 exactly;
* only mismatching lanes -- none, for a correct circuit -- are decoded
  back to words for the failure report, and only as many as the report
  keeps; the kernel's mismatch count supplies the total;
* a store-backed sweep keys results per output cone, yet still checks a
  whole g-row range in one call: :func:`verify_two_sort_region_range`
  runs the program of the cones it needs (the full circuit, or a union
  of cones) once and reads each cone's value from the backend's
  per-output mismatch counts.

Throughput on the full B = 8 domain improves by three orders of
magnitude over the scalar interpreter (``benchmarks/bench_engines.py``
tracks the exact ratio).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..backends import PlaneBackend, get_backend
from ..circuits.compiled import BackendLike, compile_circuit
from ..circuits.netlist import Circuit
from ..graycode.ops import two_sort_closure
from ..graycode.valid import all_valid_strings
from ..ternary.word import Word

#: Default lanes per batch.  2^14 lanes keep each plane integer ~2 KB,
#: so the whole slot file of a 2-sort program stays cache-resident
#: during the op sweep -- measured 2-10x faster at B >= 8 than the old
#: 2^22 budget, whose 0.5 MB planes thrashed cache across ~200 slots.
_MAX_LANES = 1 << 14

#: Hard ceiling on lanes per shard, whatever the caller requests
#: (0.5 MB plane integers -- the pre-sharding memory bound).  Without it
#: a huge --shard-size would materialise every program slot as a
#: multi-GB integer at B = 13.
_MAX_SHARD_LANES = 1 << 22

#: Counterexample messages a report keeps (``failure_count`` has the rest).
_FAILURE_LIMIT = 20


@dataclass(frozen=True)
class SweepEpoch:
    """Self-describing setup phase of one sharded sweep.

    Every shard of a sweep shares one expensive preparation step --
    compile ``circuit`` for ``backend`` at ``width`` -- and a worker
    (local pool worker or remote :mod:`repro.distributed` agent) must
    perform it exactly once before executing any of that sweep's
    shards.  The epoch names that unit of setup: workers key their
    compile caches on it, and ``circuit_hash``
    (:meth:`~repro.circuits.netlist.Circuit.content_hash`) lets a
    remote worker verify the netlist it deserialized is the one the
    coordinator is sweeping before results ever merge.
    """

    kind: str
    circuit_name: str
    circuit_hash: str
    width: int
    backend: Optional[str] = None

    def key(self) -> Tuple[str, str, int, Optional[str]]:
        """Compile-cache key: two epochs with equal keys share setup."""
        return (self.kind, self.circuit_hash, self.width, self.backend)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "circuit_name": self.circuit_name,
            "circuit_hash": self.circuit_hash,
            "width": self.width,
            "backend": self.backend,
        }

    def fingerprint(self) -> str:
        """Stable short digest of the whole descriptor.

        Content-addressed identity for an epoch *as serialized* -- every
        result store (:meth:`repro.store.base.ResultStore.record_epoch`)
        dedups its epoch records on it, and audits can match a journal
        to a sweep without comparing field by field.
        """
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepEpoch":
        return cls(
            kind=data["kind"],
            circuit_name=data["circuit_name"],
            circuit_hash=data["circuit_hash"],
            width=data["width"],
            backend=data.get("backend"),
        )


@dataclass
class VerificationResult:
    """Outcome of one exhaustive sweep (or one shard of it).

    ``failures`` holds at most the first ``limit`` counterexample
    messages; ``truncated`` is set whenever at least one message was
    dropped, so no consumer can mistake the capped list for the full
    report (``failure_count`` always has the true total).  ``elapsed``
    is optional wall-clock seconds, set by timing-aware callers (the
    CLI ``--json`` path); it is *not* merged across shards, since
    summing parallel wall times would be meaningless.
    """

    checked: int = 0
    failure_count: int = 0
    failures: List[str] = field(default_factory=list)
    truncated: bool = False
    elapsed: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def record(self, message: str, limit: int = _FAILURE_LIMIT) -> None:
        self.failure_count += 1
        if len(self.failures) < limit:
            self.failures.append(message)
        else:
            self.truncated = True

    def summary(self) -> str:
        if self.ok:
            return f"{self.checked} cases checked: OK"
        status = f"{self.failure_count} FAILURES"
        if self.truncated:
            status += f" (first {len(self.failures)} shown)"
        return f"{self.checked} cases checked: {status}"

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (the CLI ``--json`` / service payload)."""
        out: Dict[str, Any] = {
            "checked": self.checked,
            "ok": self.ok,
            "failure_count": self.failure_count,
            "failures": list(self.failures),
            "truncated": self.truncated,
        }
        if self.elapsed is not None:
            out["elapsed_s"] = round(self.elapsed, 6)
        return out

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def merge(
        cls,
        results: Iterable["VerificationResult"],
        limit: int = _FAILURE_LIMIT,
    ) -> "VerificationResult":
        """Combine per-shard results deterministically.

        Counts are summed; failure messages are concatenated in shard
        order and capped at ``limit``, so a sharded sweep reports exactly
        what the equivalent single sweep over the same shard order would.
        ``truncated`` is propagated from any input and also set when the
        cap drops messages here.
        """
        merged = cls()
        for r in results:
            merged.checked += r.checked
            merged.failure_count += r.failure_count
            merged.truncated = merged.truncated or r.truncated
            for message in r.failures:
                if len(merged.failures) < limit:
                    merged.failures.append(message)
                else:
                    merged.truncated = True
        return merged


def valid_pairs(width: int) -> Iterable[Tuple[Word, Word]]:
    """All ordered pairs of valid strings of the given width."""
    strings = all_valid_strings(width)
    return itertools.product(strings, strings)


# ----------------------------------------------------------------------
# Plane-space construction of the pair product
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _string_bit_masks(width: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Per-bit-position masks over the valid strings of ``width``.

    ``m0[b]`` (resp. ``m1[b]``) has bit ``i`` set iff bit ``b`` of
    ``all_valid_strings(width)[i]`` can resolve to 0 (resp. 1).

    Computed in rank space, with no :class:`Word` built.  The string of
    rank ``r`` is ``rg(r//2)``, or ``rg(r//2) * rg(r//2 + 1)`` when
    ``r`` is odd, and Gray bit ``k`` (counted from the LSB) of ``x`` is
    1 exactly when ``x mod 2^(k+2)`` lies in ``[2^k, 3*2^k)``.  So over
    ranks, bit ``k`` repeats every ``2^(k+3)`` strings: with
    ``h = 2^(k+1)`` it can be 1 on ``[h-1, 3h)`` and 0 on ``[0, h)``
    and ``[3h-1, 4h)`` of each period (ranks ``h-1`` and ``3h-1`` are
    the strings where it is ``M``).
    """
    lanes = (1 << (width + 1)) - 1
    m0 = [0] * width
    m1 = [0] * width
    for k in range(width):
        h = 1 << (k + 1)
        one = ((1 << (2 * h + 1)) - 1) << (h - 1)
        zero = ((1 << h) - 1) | (((1 << (h + 1)) - 1) << (3 * h - 1))
        b = width - 1 - k  # bit k from the LSB is word position b
        m0[b] = _tile(zero, 4 * h, lanes)
        m1[b] = _tile(one, 4 * h, lanes)
    return tuple(m0), tuple(m1)


def _tile(pattern: int, period: int, lanes: int) -> int:
    """``pattern`` (one ``period`` of lanes) repeated over ``lanes`` lanes."""
    while period < lanes:
        pattern |= pattern << period
        period <<= 1
    return pattern & ((1 << lanes) - 1)


@lru_cache(maxsize=8)
def _shard_input_planes(be: PlaneBackend, width: int, g_lo: int, g_hi: int):
    """Backend-native input planes for one g-row shard.

    The 2*width input planes (g bits then h bits) and the lane count of
    :meth:`PlaneBackend.pair_shard_planes`.  The sweeps themselves never
    build these (:meth:`PlaneBackend.run_pair_shard` owns the pair
    product); only failure decode does, which re-runs the program on a
    failing shard for every slot plane.  Memoized because input
    planes are immutable (``run_ops`` never writes a preset slot's
    plane), so successive edits of one design that fail on the same
    shard reuse them; backends hash by identity and registry entries
    are process-long, so the keys are stable.
    """
    return be.pair_shard_planes(_string_bit_masks(width), width, g_lo, g_hi)


def _two_sort_select_pairs(width: int):
    """``(out, a, b)`` mux triples for every 2-sort output.

    Output ``b < width`` (bit ``b`` of the order max) expects g-input
    ``b`` where ``sel``, h-input ``width + b`` elsewhere; output
    ``width + b`` (order min) is the complementary selection.
    """
    return [(b, b, width + b) for b in range(width)] + [
        (width + b, width + b, b) for b in range(width)
    ]


def check_two_sort_shape(circuit: Circuit, width: int) -> None:
    if len(circuit.inputs) != 2 * width or len(circuit.outputs) != 2 * width:
        raise ValueError(
            f"{circuit.name}: a 2-sort({width}) circuit needs {2 * width} "
            f"inputs and outputs, got {len(circuit.inputs)}/"
            f"{len(circuit.outputs)}"
        )


def pair_shards(
    width: int, shard_size: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Split the pair domain into independent g-row blocks.

    Each shard ``(g_lo, g_hi)`` covers the pairs ``(strings[gi], *)``
    for ``gi`` in ``[g_lo, g_hi)`` -- ``(g_hi - g_lo) * S`` lanes of the
    plane-space pair product.  ``shard_size`` is the approximate lane
    budget per shard (default :data:`_MAX_LANES`, clamped to
    :data:`_MAX_SHARD_LANES` so a huge request cannot blow the memory
    bound); shards are disjoint, cover the domain exactly, and can be
    verified in any order -- the unit of work for
    :mod:`repro.verify.parallel`.
    """
    S = (1 << (width + 1)) - 1  # |S^B_rg|
    if shard_size is None:
        size = _MAX_LANES
    else:
        size = min(max(1, shard_size), _MAX_SHARD_LANES)
    step = max(1, size // S)
    return [(g_lo, min(S, g_lo + step)) for g_lo in range(0, S, step)]


def verify_two_sort_shard(
    program, width: int, g_lo: int, g_hi: int
) -> VerificationResult:
    """Verify one g-row shard of the pair domain against the closure.

    ``program`` is the :class:`~repro.circuits.compiled.CompiledCircuit`
    of a shape-checked 2-sort(``width``) netlist; the sweep runs on the
    program's plane backend, so results are bit-identical for any
    backend choice.  Pure function of its arguments, so shards can run
    in any process and their results merge deterministically
    (:meth:`VerificationResult.merge`).
    """
    S = (1 << (width + 1)) - 1
    lanes = (g_hi - g_lo) * S
    result = VerificationResult(checked=lanes)
    masks = _string_bit_masks(width)
    pairs = _two_sort_select_pairs(width)
    diff, mismatches = program.run_pair_shard(width, masks, g_lo, g_hi, pairs)
    if mismatches:
        # Failures are rare: only then build the strings, the shard's
        # input planes, and re-run the program for the slot planes the
        # per-lane decode needs -- and decode only the lanes the report
        # keeps.
        strings = all_valid_strings(width)
        result.failure_count = mismatches
        result.truncated = mismatches > _FAILURE_LIMIT
        be: PlaneBackend = program.backend
        planes, _ = _shard_input_planes(be, width, g_lo, g_hi)
        p0, p1 = program.run_planes(planes, lanes)
        failing = be.iter_set_lanes(diff, lanes)
        for lane in itertools.islice(failing, _FAILURE_LIMIT):
            g = strings[g_lo + lane // S]
            h = strings[lane % S]
            out = program.decode_lane(p0, p1, lane)
            want = two_sort_closure(g, h)
            result.failures.append(
                f"({g}, {h}): got {out[:width]}/{out[width:]}, "
                f"want {want[0]}/{want[1]}"
            )
    return result


def verify_two_sort_region_range(
    program, width: int, outputs: Sequence[int], g_lo: int, g_hi: int
) -> List[Dict[str, int]]:
    """Verify several output cones over one g-row range in one call.

    ``program`` is compiled from the 2-sort(``width``) netlist's cones
    of ``outputs`` -- all ``2*width`` primary inputs in their original
    order, the outputs in the order given: the whole circuit, or a
    union of cones (:meth:`Circuit.extract_cones`).  Output ``o <
    width`` is expected to equal bit ``o`` of the Table 2 order max,
    output ``width + b`` bit ``b`` of the order min.  One
    :meth:`~repro.backends.PlaneBackend.run_pair_shard` call checks
    them all and counts each output's own mismatching lanes.

    Returns one plain JSON value per output, in order --
    ``{"lanes": L, "mismatches": N}`` -- because a region value is a
    store entry, not a user-facing report: only when a cone mismatches
    does the region sweep re-run the canonical full-circuit shard for
    the usual failure messages.
    """
    select = _two_sort_select_pairs(width)
    pairs = [(k,) + select[o][1:] for k, o in enumerate(outputs)]
    counts = [0] * len(pairs)
    program.run_pair_shard(
        width, _string_bit_masks(width), g_lo, g_hi, pairs, counts=counts
    )
    lanes = (g_hi - g_lo) * ((1 << (width + 1)) - 1)
    return [{"lanes": lanes, "mismatches": n} for n in counts]


def verify_two_sort_region_shard(
    program, width: int, output_index: int, g_lo: int, g_hi: int
) -> Dict[str, int]:
    """Verify one output cone over one g-row range.

    The one-output case of :func:`verify_two_sort_region_range`:
    ``program`` is the compiled cone extraction of output
    ``output_index`` (:meth:`Circuit.extract_cone`).
    """
    return verify_two_sort_region_range(
        program, width, (output_index,), g_lo, g_hi
    )[0]


def verify_two_sort_circuit(
    circuit: Circuit, width: int, backend: BackendLike = None
) -> VerificationResult:
    """Circuit output == ``(max_rg_M, min_rg_M)`` on *all* valid pairs.

    Fully batched: the whole ``|S^B_rg|^2`` pair domain is evaluated as
    a few bit-parallel sweeps and compared against the Table 2 order
    max/min in plane space (equal to the Definition 2.8 closure on valid
    strings).  Failure messages still quote the closure spec per pair.
    ``backend`` picks the engine that runs each verification shard and
    the compile-cache key (:mod:`repro.backends`; default ``bigint``)
    -- planes are ints on every backend, and the result is
    bit-identical for each.

    Single-process; :func:`repro.verify.parallel.verify_two_sort_sharded`
    runs the same shards across a worker pool.
    """
    check_two_sort_shape(circuit, width)
    program = compile_circuit(circuit, get_backend(backend))
    return VerificationResult.merge(
        verify_two_sort_shard(program, width, g_lo, g_hi)
        for g_lo, g_hi in pair_shards(
            width, program.backend.preferred_shard_lanes
        )
    )
