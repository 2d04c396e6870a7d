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
network *simultaneously*, one lane per word: the words joined back to
back are packed once (:func:`~repro.circuits.compiled.planes_from_str`
with stride ``width``), so lane ``w`` holds word ``w`` -- channel
``w % channels`` of vector ``w // channels`` -- and bit ``b`` of every
word is one pair of bit planes.  Each network layer then runs the
compiled 2-sort program once over all lanes (exactly the hardware
dataflow): the planes are its ``g`` input, and the planes shifted right
by each comparator distance ``d = hi - lo`` its ``h`` input (masked to
those comparators' ``lo`` lanes when the layer has more than one
distance), so a ``lo`` lane meets its partner ``d`` lanes up in the same
vector.  The minimum goes back onto the ``lo`` lanes and the maximum,
shifted left by ``d``, onto the ``hi`` lanes; every other lane keeps its
planes.  The program is lane-wise and ``d < channels``, so whatever it
computes on other lanes is masked away and never reaches another
vector.  The masks are channel patterns tiled over the vectors, built
once per network and vector count; a pass covers at most
:data:`_PASS_VECTORS` vectors.  The sorted planes are written out by
:func:`~repro.circuits.compiled.planes_to_str`, a separator after each
word, so one ``split`` cuts the sorted text into words.  The words are
checked against the valid strings on the same planes
(:func:`~repro.graycode.valid.invalid_lanes`), on every engine.  No
:class:`~repro.ternary.word.Word` or :class:`~repro.ternary.trit.Trit`
is built and no Python loop runs per lane or per word.  This is the
high-throughput path for system-level workloads (the service's sort
jobs run on it, through :func:`sort_shaped_batch` once the request has
checked its own shape);
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

#: Vectors of one batch-sort pass (whole vectors, so every comparator's
#: partner lane is in the pass).  A larger batch runs in passes of this
#: many vectors, each packed, sorted and written out on its own, so the
#: planes of a program run stay small enough for the cache.  On 10 x
#: 16-bit batches (2-core host, caps interleaved in one process) 2,048
#: was the fastest of 512, 1,024, 2,048 and 4,096 or within 3.5 % of it
#: at every size from 1,024 to 16,384 vectors; 1,024 was up to 15 %
#: slower at 16,384 and 512 up to 27 % slower at 4,096.
_PASS_VECTORS = 1 << 11


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


def _valid_planes(vectors: Sequence[Sequence[str]], width: int):
    """:func:`~repro.circuits.compiled.planes_from_str` of the joined
    words of ``vectors``, one word per lane, each checked against
    ``S^B_rg`` on those planes (:func:`~repro.graycode.valid.invalid_lanes`).
    Only a batch that fails runs the per-word
    :func:`~repro.graycode.valid.validate` loop, which raises exactly
    what it raises for the first bad word (a bad character included)."""
    try:
        planes = planes_from_str("".join(chain.from_iterable(vectors)), width)
    except ValueError:  # a character outside {0, 1, M, m}
        planes = None
    if planes is None or invalid_lanes(planes, width):
        for w in chain.from_iterable(vectors):
            validate(w)
    return planes


Route = Tuple[int, int, Tuple[Tuple[int, int], ...]]


@lru_cache(maxsize=32)
def _routes(
    channels: int, layers: Tuple[Tuple[Tuple[int, int], ...], ...], n: int
) -> Tuple[Route, ...]:
    """Per layer, ``(keep, lo, shifts)`` over ``n`` vectors' lanes.

    ``keep`` masks the lanes of the channels no comparator of the layer
    touches, ``lo`` those of every comparator's ``lo`` channel, and
    ``shifts`` holds one ``(d, lanes)`` pair per distance ``d = hi - lo``
    in the layer, ``lanes`` masking the ``lo`` channels of its
    comparators.  Each mask is a channel pattern tiled over the vectors.
    """
    tile = ((1 << n * channels) - 1) // ((1 << channels) - 1)

    def lanes(chans: Iterable[int]) -> int:
        return sum(1 << c for c in set(chans)) * tile

    routes = []
    for layer in filter(None, layers):  # an empty layer moves nothing
        touched = {c for pair in layer for c in pair}
        shifts = tuple(
            (d, lanes(lo for lo, hi in layer if hi - lo == d))
            for d in sorted({hi - lo for lo, hi in layer})
        )
        routes.append((
            lanes(set(range(channels)) - touched),
            lanes(lo for lo, _ in layer),
            shifts,
        ))
    return tuple(routes)


def _layer_pass(program, planes: List[int], route: Route, lanes: int) -> List[int]:
    """One network layer on the flat ``planes`` (``p0, p1`` of bit 0,
    then of bit 1...) of one word per lane: one program run whose ``g``
    is every lane's word and whose ``h`` is, on each ``lo`` lane, the
    word ``d`` lanes up (its comparator's ``hi`` channel)."""
    keep, lo, ((d, mask), *more) = route
    if more:
        h = [(p >> d) & mask for p in planes]
        for e, m in more:
            h = [x | (p >> e) & m for x, p in zip(h, planes)]
    else:
        h = [p >> d for p in planes]
    out = program.run_outputs(planes + h, lanes)
    half = len(planes)
    high = out[:half]
    # min stays on the lo lanes, max moves d lanes up onto the hi lanes.
    planes = [
        p & keep | q & lo | (r & mask) << d
        for p, q, r in zip(planes, out[half:], high)
    ]
    for e, m in more:
        planes = [x | (r & m) << e for x, r in zip(planes, high)]
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
    of at least one bit: the batch's shape is checked here, then
    :func:`sort_shaped_batch` joins the words into one string, packs it
    into bit planes one word per lane
    (:func:`~repro.circuits.compiled.planes_from_str`) and checks the
    words on those planes.  A bad word raises what
    :func:`~repro.graycode.valid.validate` raises for the first one: the
    :class:`~repro.graycode.valid.InvalidStringError`, or the
    :meth:`~repro.ternary.trit.Trit.from_char` ``ValueError`` of a
    character outside ``{0, 1, M, m}``.

    With the default ``"compiled"`` engine all vectors then advance
    through the network together: per layer, one two-plane program run
    (:meth:`~repro.circuits.compiled.CompiledCircuit.run_outputs`) sorts
    every comparator of every vector at once, its ``h`` input the planes
    shifted down by the comparator distance (up to
    :data:`_PASS_VECTORS` vectors a pass; SORT10_SIZE's 29 comparators
    take 8 runs a pass).  The sorted planes go back into one output buffer by
    strided slice assignment, a separator after each word, and one
    ``split`` cuts the words
    (:func:`~repro.circuits.compiled.planes_to_str`).  Other engine
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
    width = len(words[0])
    if not width:
        raise ValueError("words must be at least one bit wide")
    return sort_shaped_batch(network, vectors, width, engine)


def sort_shaped_batch(
    network: SortingNetwork,
    vectors: Sequence[Sequence[str]],
    width: int,
    engine: str = "compiled",
) -> List[List[str]]:
    """:func:`sort_strings_batch` on a batch whose shape is checked.

    The caller vouches for the shape: ``vectors`` is a non-empty
    sequence of sequences of ``network.channels`` strings each, all
    ``width >= 1`` characters long, and ``engine`` is registered (a
    :class:`~repro.service.jobs.SortRequest` checks exactly this in its
    ``validate``).  Only validity is checked here, on the packed planes.
    """
    channels = network.channels
    if engine != "compiled":
        _valid_planes(vectors, width)
        return [
            [str(w) for w in sort_words(network, map(Word, v), engine=engine)]
            for v in vectors
        ]
    program = compile_circuit(_cached_circuit(width))
    layers = tuple(
        tuple((c.lo, c.hi) for c in layer) for layer in network.layers
    )
    out = []
    for at in range(0, len(vectors), _PASS_VECTORS):
        part = vectors[at : at + _PASS_VECTORS]
        lanes = len(part) * channels
        planes = list(chain.from_iterable(_valid_planes(part, width)))
        for route in _routes(channels, layers, len(part)):
            planes = _layer_pass(program, planes, route, lanes)
        out.append(
            planes_to_str(list(zip(planes[::2], planes[1::2])), lanes, width)
        )
    words = ",".join(out).split(",")
    return [words[i : i + channels] for i in range(0, len(words), channels)]
