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
bit planes over all vectors, and each comparator visit executes the
compiled 2-sort program once for all vectors (layer by layer, exactly
the hardware dataflow).  Its unit is the word *string*, and the batch
travels as one string: the words joined back to back are lane-major
(vector ``j`` is lane ``j``), so bit ``b`` of channel ``c`` is the
strided column ``c * width + b``, read with one slice and one
``int(..., 2)`` per plane and written back by one strided ``bytearray``
slice assignment per plane (the codec of
:func:`~repro.circuits.compiled.planes_from_str` /
:func:`~repro.circuits.compiled.planes_to_str`).  No
:class:`~repro.ternary.word.Word` or :class:`~repro.ternary.trit.Trit`
is built and no Python loop runs per lane or per word until the sorted
text is cut into words.  This is the high-throughput path for
system-level workloads (the service's sort jobs run on it);
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
from typing import Callable, Dict, List, Sequence, Tuple

from ..circuits.compiled import compile_circuit, planes_from_str, planes_to_str
from ..circuits.evaluate import evaluate_interpreted
from ..core.functional import two_sort_via_fsm
from ..core.two_sort import build_two_sort
from ..graycode.ops import two_sort_closure, two_sort_order
from ..ternary.word import Word
from .comparator import SortingNetwork

TwoSortFn = Callable[[Word, Word], Tuple[Word, Word]]


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


def sort_words(
    network: SortingNetwork,
    values: Sequence[Word],
    engine: str = "rank",
) -> List[Word]:
    """Run ``network`` on Gray-coded words; channel 0 gets the minimum."""
    return network.apply(list(values), two_sort=_engine_fn(engine))


def sort_words_batch(
    network: SortingNetwork,
    vectors: Sequence[Sequence[Word]],
    engine: str = "compiled",
) -> List[List[Word]]:
    """:func:`sort_strings_batch` on :class:`Word` values.

    ``vectors[j]`` is one measurement vector (``network.channels`` words
    of equal width); the result's ``j``-th element is that vector after
    sorting, ascending on channel 0.  Equivalent to calling
    :func:`sort_words` per vector with the same engine.  Words go in
    through ``str(w)`` and come out through ``Word(s)``.
    """
    rows = sort_strings_batch(
        network, [[str(w) for w in v] for v in vectors], engine=engine
    )
    return [[Word(s) for s in row] for row in rows]


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

    With the default ``"compiled"`` engine all vectors advance through
    the network together: per comparator, one two-plane program run
    (:meth:`~repro.circuits.compiled.CompiledCircuit.run_planes`) sorts
    lane ``j`` of every channel simultaneously.  The batch is joined
    into one string and canonicalized once; each input plane (channel
    ``c``, bit ``b``) is one strided slice of it (step ``channels *
    width``) read with ``int(..., 2)``, and each sorted plane goes back
    into one output buffer by strided slice assignment
    (:func:`~repro.circuits.compiled.planes_from_str`,
    :func:`~repro.circuits.compiled.planes_to_str`).  A character
    outside ``{0, 1, M, m}`` raises the
    :meth:`~repro.ternary.trit.Trit.from_char` ``ValueError`` of the
    first one in the joined batch.  Other engine names fall back to the
    per-vector :func:`sort_words` loop (same results, provided for API
    uniformity).  Either way the whole batch runs in this process.
    """
    _engine_fn(engine)  # uniform validation, even for the empty batch
    vectors = [list(v) for v in vectors]
    for v in vectors:
        if len(v) != network.channels:
            raise ValueError(
                f"{network.name} expects {network.channels} values, "
                f"got {len(v)}"
            )
    if engine == "compiled" and vectors:
        if len(set(map(len, chain.from_iterable(vectors)))) > 1:
            raise ValueError("all words in a batch must share one width")
    if engine != "compiled":
        return [
            [str(w) for w in sort_words(network, map(Word, v), engine=engine)]
            for v in vectors
        ]
    if not vectors:
        return []
    n = len(vectors)
    channels = network.channels
    width = len(vectors[0][0])

    program = compile_circuit(_cached_circuit(width))
    outputs = program.output_slots
    # The joined batch is lane-major (lane j is vector j's words back to
    # back), so bit b of channel c over all lanes is column c*width + b.
    planes = planes_from_str(
        "".join(chain.from_iterable(vectors)), channels * width
    )
    # state[c][b]: the (p0, p1) planes of bit b of channel c.
    state: List[List[Tuple[int, int]]] = [
        planes[c * width : (c + 1) * width] for c in range(channels)
    ]
    for layer in network.layers:
        for comp in layer:
            p0, p1 = program.run_planes(state[comp.lo] + state[comp.hi], n)
            outs = [(p0[s], p1[s]) for s in outputs]
            state[comp.hi] = outs[:width]  # max
            state[comp.lo] = outs[width:]  # min
    # ...and back: the sorted columns in the same layout, cut into words.
    text = planes_to_str([p for columns in state for p in columns], n)
    words = [text[i : i + width] for i in range(0, len(text), width)]
    return [words[i : i + channels] for i in range(0, len(words), channels)]

