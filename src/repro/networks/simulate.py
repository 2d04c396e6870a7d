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
at the edges.  Sharded compiled-engine runs grow each
shard toward the int-plane budget
(:attr:`PlaneBackend.preferred_shard_lanes
<repro.backends.base.PlaneBackend.preferred_shard_lanes>` vectors; one
vector is one lane), since every shard pays one run of the 2-sort
program per comparator, but never past an even split over the workers.
A sort names no plane backend: its programs compile for the default
(``bigint``), so no backend's own budget (nor ``native``'s kernel)
enters into it.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..backends import PlaneBackend
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
    jobs: Optional[int] = None,
    shard_size: Optional[int] = None,
    executor: Optional[str] = None,
    on_shard: Optional[Callable[[int, int, Any], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> List[List[Word]]:
    """:func:`sort_strings_batch` on :class:`Word` values.

    ``vectors[j]`` is one measurement vector (``network.channels`` words
    of equal width); the result's ``j``-th element is that vector after
    sorting, ascending on channel 0.  Equivalent to calling
    :func:`sort_words` per vector with the same engine.  Every argument
    means what it means for :func:`sort_strings_batch`; words go in
    through ``str(w)`` and come out through ``Word(s)``, and the rows
    ``on_shard`` receives are rows of words too.
    """
    on_rows = None
    if on_shard is not None:

        def on_rows(done: int, total: int, rows: List[List[str]]) -> None:
            on_shard(done, total, _to_words(rows))

    rows = sort_strings_batch(
        network,
        [[str(w) for w in v] for v in vectors],
        engine=engine,
        jobs=jobs,
        shard_size=shard_size,
        executor=executor,
        on_shard=on_rows,
        should_stop=should_stop,
    )
    return _to_words(rows)


def _to_words(rows: List[List[str]]) -> List[List[Word]]:
    return [[Word(s) for s in row] for row in rows]


def sort_strings_batch(
    network: SortingNetwork,
    vectors: Sequence[Sequence[str]],
    engine: str = "compiled",
    jobs: Optional[int] = None,
    shard_size: Optional[int] = None,
    executor: Optional[str] = None,
    on_shard: Optional[Callable[[int, int, Any], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
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
    uniformity).

    Passing any of ``jobs``/``shard_size``/``executor`` shards the
    vector batch across the executor registry of
    :mod:`repro.verify.parallel` (lane-block shards, results
    concatenated in order -- identical to the serial output).
    ``jobs=0`` (or ``None`` with another sharding argument) means one
    worker per core; ``jobs=1`` alone keeps the single-process path.
    This is the million-vector path: each worker runs the compiled
    batch on its own shard.  Without ``shard_size`` there are about
    four shards per worker; a compiled-engine shard grows toward the
    int-plane budget, ``PlaneBackend.preferred_shard_lanes`` vectors,
    while every worker still gets one (``jobs=1`` runs up to that many
    as one shard).

    ``on_shard(done, total, rows)`` and ``should_stop()`` are the same
    progress/cancellation hooks as
    :func:`repro.verify.parallel.verify_two_sort_sharded` (``rows`` is
    the shard's sorted vectors); passing either routes the batch
    through the sharded path, and a true ``should_stop`` raises
    :class:`~repro.verify.parallel.SweepCancelled` between shards.
    """
    _engine_fn(engine)  # uniform validation, even for the empty batch
    vectors = [list(v) for v in vectors]
    _check_batch_shapes(network, vectors)
    # Width uniformity is validated before any dispatch so the sharded
    # path rejects exactly the batches the serial compiled path rejects
    # (a per-shard check would depend on where shard boundaries fall).
    if engine == "compiled" and vectors:
        if len(set(map(len, chain.from_iterable(vectors)))) > 1:
            raise ValueError("all words in a batch must share one width")
    # Any sharding argument routes through the executor registry, so
    # e.g. an unknown executor name raises regardless of batch size.
    if (
        jobs not in (None, 1)
        or shard_size is not None
        or executor is not None
        or on_shard is not None
        or should_stop is not None
    ):
        return _sort_strings_batch_sharded(
            network, vectors, engine, jobs, shard_size, executor, on_shard,
            should_stop,
        )
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


# ----------------------------------------------------------------------
# Sharded batch path (reuses the verify-layer sharding helpers)
# ----------------------------------------------------------------------
def _check_batch_shapes(
    network: SortingNetwork, vectors: Sequence[Sequence[str]]
) -> None:
    for v in vectors:
        if len(v) != network.channels:
            raise ValueError(
                f"{network.name} expects {network.channels} values, "
                f"got {len(v)}"
            )


def _sort_strings_batch_sharded(
    network: SortingNetwork,
    vectors: List[List[str]],
    engine: str,
    jobs: int,
    shard_size: Optional[int],
    executor: Optional[str],
    on_shard: Optional[Callable[[int, int, Any], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> List[List[str]]:
    """Dispatch vector shards over the executor registry and concatenate.

    The worker is ``sort_strings_batch`` bound to the network and engine
    (a picklable ``partial``), and each task is one slice of vectors, so
    the batch crosses a process boundary once in total.
    """
    from ..verify.parallel import default_jobs, plan_shards, run_sharded

    # None and 0 both mean "one worker per core", matching run_sharded.
    jobs = default_jobs() if not jobs else max(1, jobs)
    if shard_size is None:
        n = len(vectors)
        shard_size = -(-n // (4 * jobs))  # ~4 shards per worker
        if engine == "compiled":
            # A shard pays one 2-sort program run per comparator, so it
            # grows toward the int-plane lane budget (a vector is a
            # lane) -- but never past an even split, so every worker
            # still gets a shard.
            budget = PlaneBackend.preferred_shard_lanes
            shard_size = max(shard_size, min(budget, -(-n // jobs)))
    tasks = [vectors[lo:hi] for lo, hi in plan_shards(len(vectors), shard_size)]
    on_result = None
    if on_shard is not None:
        total = len(tasks)

        def on_result(i: int, rows: List[List[str]]) -> None:
            # run_sharded fires on_result in task order, so i+1 is the
            # number of shards done -- same contract as the verify path.
            on_shard(i + 1, total, rows)

    results = run_sharded(
        partial(sort_strings_batch, network, engine=engine),
        tasks,
        jobs=jobs,
        executor=executor,
        on_result=on_result,
        should_stop=should_stop,
    )
    return [row for chunk in results for row in chunk]
