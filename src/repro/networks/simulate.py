"""Word-level simulation of MC sorting networks.

For system-level experiments (sorting many measurement vectors) the
gate-level simulator is needlessly slow; this module runs a network
directly on :class:`~repro.ternary.word.Word` values using a pluggable
2-sort function.

**Engine registry.**  All engines implement the same
``(g, h) -> (max, min)`` contract and are selected by name:

* ``"closure"``  -- the Definition 2.8 specification,
* ``"fsm"``      -- the paper's ⋄_M/out_M decomposition,
* ``"rank"``     -- the Table 2 total order (valid strings only;
  fastest per-pair, used for workload generation),
* ``"circuit"``  -- three-valued gate-level simulation through the
  scalar reference interpreter (one netlist per width, cached; the
  honest one-trit-per-net baseline),
* ``"compiled"`` -- the same netlist lowered to a two-plane bitwise
  program (:mod:`repro.circuits.compiled`); identical outputs to
  ``"circuit"``, much faster, and the only engine with a *batched*
  path.

**Batching.**  :func:`sort_words` runs one vector;
:func:`sort_strings_batch` runs many measurement vectors through the
network *simultaneously*: every bit of every channel is one pair of
bit planes over all vectors, and each network layer executes the
compiled 2-sort program once for all vectors and all its comparators
(exactly the hardware dataflow): the layer's comparators sit side by
side in lane space, comparator ``i`` on lanes ``[i * n, (i + 1) * n)``
of ``n`` vectors, as far as :data:`_PASS_LANES` allows.  Its unit is
the word *string*, and the batch travels as one string: the words
joined back to back are lane-major (vector ``j`` is lane ``j``), so bit
``b`` of channel ``c`` is the strided column ``c * width + b``, read
with one slice and one ``int(..., 2)`` per plane and written back by
one strided ``bytearray`` slice assignment per plane, a separator after
each word, so one ``split`` cuts the sorted text into words (the codec
of :func:`~repro.circuits.compiled.planes_from_str` /
:func:`~repro.circuits.compiled.planes_to_str`).  The words are checked
against the valid strings on the same planes
(:func:`~repro.graycode.valid.invalid_lanes`), on every engine.  No
:class:`~repro.ternary.word.Word` or :class:`~repro.ternary.trit.Trit`
is built and no Python loop runs per lane or per word.  This is the
high-throughput path for system-level workloads (the service's sort
jobs run on it);
:func:`sort_words_batch` is the same computation with ``Word`` values
at the edges.  A batch sort runs in the calling process, as one batch:
it is not sharded and takes no executor, since only the verification
sweep (:mod:`repro.verify.parallel`) fans out.  A sort names no plane
backend either: its programs compile for the default (``bigint``), so
no backend (nor ``native``'s kernel) enters into it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Callable, Dict, Iterable, List, Sequence, Sized, Tuple

from ..circuits.compiled import compile_circuit, planes_from_str, planes_to_str
from ..circuits.evaluate import evaluate_interpreted
from ..core.functional import two_sort_via_fsm
from ..core.two_sort import build_two_sort
from ..graycode.ops import two_sort_closure, two_sort_order
from ..graycode.valid import invalid_lanes, validate
from ..ternary.word import Word
from .comparator import SortingNetwork

TwoSortFn = Callable[[Word, Word], Tuple[Word, Word]]

#: Lanes of one batch-sort pass: a layer's comparators share a pass
#: while ``comparators * vectors`` fits.  Packing one in costs four int
#: ops per plane, on ints that grow with the lane count, and saves one
#: program run, whose ~300 ops cost about the same at any lane count up
#: to a few thousand, so packing pays on small batches only.  On 10 x
#: 16-bit batches (2-core host) this budget made the comparator loop
#: 0.39-0.89x the one-run-per-comparator loop from 1 to 16,384 vectors;
#: the shard budget, 1 << 14, read ~1.0x at 2,048.
_PASS_LANES = 1 << 12


@lru_cache(maxsize=None)
def _cached_circuit(width: int):
    return build_two_sort(width)


def _circuit_two_sort(g: Word, h: Word) -> Tuple[Word, Word]:
    # Deliberately the scalar interpreter: evaluate_words() is
    # compiled-backed now, so routing through it would make "circuit"
    # a slower alias of "compiled" instead of the scalar baseline.
    width = len(g)
    circuit = _cached_circuit(width)
    values = evaluate_interpreted(
        circuit, dict(zip(circuit.inputs, list(g) + list(h)))
    )
    out = Word([values[n] for n in circuit.outputs])
    return (out[:width], out[width:])


def _compiled_two_sort(g: Word, h: Word) -> Tuple[Word, Word]:
    width = len(g)
    program = compile_circuit(_cached_circuit(width))
    out = program.evaluate_batch([tuple(g) + tuple(h)])[0]
    return (out[:width], out[width:])


def _fsm_two_sort(g: Word, h: Word) -> Tuple[Word, Word]:
    return two_sort_via_fsm(g, h, check_valid=False)


ENGINES: Dict[str, TwoSortFn] = {
    "closure": two_sort_closure,
    "fsm": _fsm_two_sort,
    "rank": two_sort_order,
    "circuit": _circuit_two_sort,
    "compiled": _compiled_two_sort,
}


def _engine_fn(engine: str) -> TwoSortFn:
    """Look up an engine; one uniform KeyError for every entry point."""
    try:
        return ENGINES[engine]
    except KeyError:
        raise KeyError(
            f"unknown simulation engine {engine!r}; available: {sorted(ENGINES)}"
        ) from None


def _side_by_side(blocks: Sequence[List[int]], n: int) -> List[int]:
    """Equal-length plane lists over ``n`` lanes as one plane list:
    ``blocks[i]`` on lanes ``[i * n, (i + 1) * n)``."""
    packed = blocks[-1]
    for block in blocks[-2::-1]:
        packed = [(a << n) | b for a, b in zip(packed, block)]
    return packed


def _apart(planes: List[int], n: int, k: int) -> List[List[int]]:
    """Inverse of :func:`_side_by_side`: ``k`` plane lists of ``n`` lanes."""
    mask = (1 << n) - 1
    blocks = []
    for _ in range(k - 1):
        blocks.append([p & mask for p in planes])
        planes = [p >> n for p in planes]
    blocks.append(planes)
    return blocks


def _check_one_width(words: Iterable[Sized]) -> None:
    if len(set(map(len, words))) > 1:
        raise ValueError("all words in a batch must share one width")


def sort_words(
    network: SortingNetwork,
    values: Iterable[Word],
    engine: str = "rank",
) -> List[Word]:
    """Run ``network`` on Gray-coded words; channel 0 gets the minimum.

    The words must share one width, whatever the engine.
    """
    two_sort = _engine_fn(engine)
    values = list(values)
    _check_one_width(values)
    return network.apply(values, two_sort=two_sort)


def sort_words_batch(
    network: SortingNetwork,
    vectors: Sequence[Sequence[Word]],
    engine: str = "compiled",
) -> List[List[Word]]:
    """:func:`sort_strings_batch` on :class:`Word` values.

    ``vectors[j]`` is one measurement vector (``network.channels`` words
    of equal width); the result's ``j``-th element is that vector after
    sorting, ascending on channel 0.  On valid words, equivalent to
    calling :func:`sort_words` per vector with the same engine (an
    invalid word raises, as in :func:`sort_strings_batch`).  Words go in
    through ``str(w)`` and come out through ``Word(s)``.
    """
    rows = sort_strings_batch(
        network, [[str(w) for w in v] for v in vectors], engine=engine
    )
    return [[Word(s) for s in row] for row in rows]


def _valid_planes(words: List[str], stride: int, width: int):
    """:func:`~repro.circuits.compiled.planes_from_str` of the joined
    ``words``, each checked against ``S^B_rg`` on those planes
    (:func:`~repro.graycode.valid.invalid_lanes`).  Only a batch that
    fails runs the per-word :func:`~repro.graycode.valid.validate` loop,
    which raises exactly what it raises for the first bad word (a bad
    character included)."""
    try:
        planes = planes_from_str("".join(words), stride)
    except ValueError:  # a character outside {0, 1, M, m}
        planes = None
    if planes is None or invalid_lanes(planes, width):
        for w in words:
            validate(w)
    return planes


def sort_strings_batch(
    network: SortingNetwork,
    vectors: Sequence[Sequence[str]],
    engine: str = "compiled",
) -> List[List[str]]:
    """Sort many measurement vectors of word strings through ``network``.

    ``vectors[j]`` is one measurement vector: ``network.channels``
    strings over ``{0, 1, M}`` (``'m'`` reads as ``M``) of equal width.
    The result's ``j``-th element is that vector after sorting,
    ascending on channel 0, as strings with ``M`` upper-case.

    Whatever the engine, every word must be a valid string of one width
    of at least one bit: the batch is joined into one string and packed
    into bit planes once; each input plane (channel ``c``, bit ``b``) is
    one strided slice of it (step ``channels * width``) read with
    ``int(..., 2)`` (:func:`~repro.circuits.compiled.planes_from_str`),
    and the words are checked on those planes.  A bad word raises what
    :func:`~repro.graycode.valid.validate` raises for the first one: the
    :class:`~repro.graycode.valid.InvalidStringError`, or the
    :meth:`~repro.ternary.trit.Trit.from_char` ``ValueError`` of a
    character outside ``{0, 1, M, m}``.

    With the default ``"compiled"`` engine all vectors then advance
    through the network together: per layer, one two-plane program run
    (:meth:`~repro.circuits.compiled.CompiledCircuit.run_outputs`) sorts
    lane ``j`` of every channel simultaneously, the layer's comparators
    side by side in lane space (up to :data:`_PASS_LANES` lanes a run;
    SORT10_SIZE's 29 comparators take 8 runs on up to 819 vectors).
    The sorted planes go back into one output buffer by strided slice
    assignment, a separator after each word, and one ``split`` cuts the
    words (:func:`~repro.circuits.compiled.planes_to_str`).  Other engine
    names run the per-vector :func:`sort_words` loop (same results,
    provided for API uniformity).  Either way the whole batch runs in
    this process.
    """
    _engine_fn(engine)  # uniform validation, even for the empty batch
    vectors = [list(v) for v in vectors]
    for v in vectors:
        if len(v) != network.channels:
            raise ValueError(
                f"{network.name} expects {network.channels} values, "
                f"got {len(v)}"
            )
    words = list(chain.from_iterable(vectors))
    _check_one_width(words)
    if not vectors:
        return []
    n = len(vectors)
    channels = network.channels
    width = len(words[0])
    if not width:
        raise ValueError("words must be at least one bit wide")
    # The joined batch is lane-major (lane j is vector j's words back to
    # back), so bit b of channel c over all lanes is column c*width + b.
    planes = _valid_planes(words, channels * width, width)
    if engine != "compiled":
        return [
            [str(w) for w in sort_words(network, map(Word, v), engine=engine)]
            for v in vectors
        ]

    program = compile_circuit(_cached_circuit(width))
    # state[c]: channel c's planes, p0 and p1 of bit 0, then of bit 1...
    state: List[List[int]] = [
        list(chain.from_iterable(planes[c * width : (c + 1) * width]))
        for c in range(channels)
    ]
    half = 2 * width
    per_pass = max(1, _PASS_LANES // n)
    for layer in network.layers:
        for at in range(0, len(layer), per_pass):
            group = layer[at : at + per_pass]
            outs = program.run_outputs(
                _side_by_side([state[c.lo] + state[c.hi] for c in group], n),
                len(group) * n,
            )
            for comp, block in zip(group, _apart(outs, n, len(group))):
                state[comp.hi] = block[:half]  # max
                state[comp.lo] = block[half:]  # min
    # ...and back: the sorted columns in the same layout, cut into words.
    words = planes_to_str(
        [(c[k], c[k + 1]) for c in state for k in range(0, half, 2)],
        n,
        width,
    ).split(",")
    return [words[i : i + channels] for i in range(0, len(words), channels)]
