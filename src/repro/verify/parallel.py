"""Sharded parallel verification across a pluggable executor registry.

The bit-parallel engine (:mod:`repro.circuits.compiled`) made a single
process sweep the ``|S^B_rg|^2`` pair domain ~3000x faster, but one
core is still the ceiling: at B = 13 the domain is 268M pairs.  The
plane-space construction is embarrassingly parallel, though -- each
g-row block of the pair product (:func:`repro.verify.exhaustive.pair_shards`)
is an independent unit of work whose
:class:`~repro.verify.exhaustive.VerificationResult` merges
deterministically with the others.  This module dispatches those shards
across worker processes.  The verification sweep is the one workload
that fans out: a batch sort (:mod:`repro.networks.simulate`) runs in
the calling process.

**Executor registry.**  An executor is a strategy for running a worker
function over a task list, with one calling convention::

    executor(worker, tasks, jobs=..., initializer=..., initargs=...,
             on_result=..., should_stop=..., epoch=...)
        -> [worker(t) for t in tasks]      # results in task order

Three executors ship:

* ``"serial"``  -- in-process loop; the semantic reference and the
  zero-overhead path for one job or one task,
* ``"process"`` -- a ``multiprocessing`` pool; the initializer runs once
  per worker (compiling the circuit there, so the netlist is pickled
  once and the program is reused across that worker's shards),
* ``"distributed"`` -- leases tasks to socket-connected worker agents
  on other hosts (:mod:`repro.distributed`, imported lazily by its
  registration stub); the only one that uses ``epoch``.

:func:`register_executor` is the hook, exactly like the engine registry
in :mod:`repro.networks.simulate`.  Orthogonally, the verification
sweep has its pool initializers forward the backend to workers **by
name**, so any executor can run either shard engine (process pools
pickle the name, never the backend object).

**Determinism.**  Executors must return results in task order; callers
merge with :meth:`VerificationResult.merge`, so the outcome is
bit-identical for any job count --
``--jobs N`` changes wall-clock time, never the report.  Nor does it
change the plan: a sweep's g-row ranges are as many whole rows as fit
the backend's lane budget (or ``shard_size``), so they -- and the store
keys and journal records on them -- never depend on the job count, the
executor or the host.

**Stores.**  A sweep takes at most one
:class:`~repro.store.base.ResultStore` and keys it at one of two
granularities.  ``cache=`` keys whole-circuit shards: the sweep reads
every key in one ``get_many`` and puts each fresh shard as it
completes, so a ``--checkpoint`` journal holds every finished shard.
``store=`` keys each output cone per g-row range
(:meth:`~repro.circuits.netlist.Circuit.region_hashes`), but the unit
of work stays the range: the sweep reads every key in one
``get_many``, runs one task per range over the cones that range still
needs -- one kernel call, on the full program when every cone is
pending (a cold sweep), else on the union of the pending cones -- and
writes the range's values once with ``put_many``.  Workers that hold a
shareable store's spec re-check and claim a range's keys in one
transaction before executing (:func:`repro.store.base.consult`) and
write nothing themselves.  With neither and no progress hook the
executor streams nothing, so a process pool keeps its plain ``map``.

**Imports.**  A serial sweep, the CLI default, loads neither
``multiprocessing`` nor the store nor ``socket``: each is imported where
a pool, a store or an audit record first needs it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from ..backends import PlaneBackend, get_backend, resolve_backend_name
from ..circuits.compiled import BackendLike, compile_circuit
from ..circuits.netlist import Circuit
from .exhaustive import (
    SweepEpoch,
    VerificationResult,
    check_two_sort_shape,
    pair_shards,
    verify_two_sort_region_range,
    verify_two_sort_shard,
)

if TYPE_CHECKING:
    from ..store.base import ResultStore

__all__ = [
    "SweepCancelled",
    "available_executors",
    "default_jobs",
    "register_executor",
    "run_sharded",
    "verify_two_sort_sharded",
]

#: Worker signature: one picklable task in, one picklable result out.
Worker = Callable[[Any], Any]
#: Executor signature (see module docstring).
Executor = Callable[..., List[Any]]
#: Per-result hook: ``on_result(task_index, result)``, called in task
#: order from the *calling* process as each task completes.
OnResult = Callable[[int, Any], None]
#: Cooperative stop probe, polled between tasks.
ShouldStop = Callable[[], bool]


class SweepCancelled(RuntimeError):
    """A sharded run was stopped by ``should_stop()`` between tasks.

    ``results`` holds the tasks completed before the stop, in task
    order -- enough for a caller to report partial progress.  Raised
    (never returned) so a cancelled sweep can't be mistaken for a
    complete one.
    """

    def __init__(self, results: List[Any]):
        super().__init__(f"cancelled after {len(results)} completed task(s)")
        self.results = results


_EXECUTORS: Dict[str, Executor] = {}


def register_executor(name: str, executor: Executor) -> None:
    """Register (or replace) an execution backend under ``name``.

    ``executor`` takes the worker and task list plus every keyword of
    the calling convention (module docstring): it streams each result
    through ``on_result`` in task order, polls ``should_stop`` between
    tasks, and may ignore ``epoch`` (the sweep-setup descriptor only
    remote workers key their compile caches on).
    """
    _EXECUTORS[name] = executor


def available_executors() -> List[str]:
    return sorted(_EXECUTORS)


def default_jobs() -> int:
    """Worker count when the caller does not pin one (all cores)."""
    return os.cpu_count() or 1


def _executor_name(executor: Optional[str], jobs: int, tasks: int) -> str:
    """The executor a run of ``tasks`` tasks on ``jobs`` workers uses.

    A named executor always wins.  Otherwise ``"process"`` only when
    the pool would get more than one worker -- ``min(jobs, tasks) > 1``
    -- since a one-task plan on a forked one-worker pool is the serial
    loop plus the fork.
    """
    if executor:
        return executor
    return "process" if min(jobs, tasks) > 1 else "serial"


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
def _pool_context():
    """Multiprocessing context for worker pools.

    From the main thread (the CLI path) the platform default is kept --
    fork on Linux, with its cheap startup.  From any other thread the
    caller is a multithreaded process (the service layer runs sweeps on
    a thread pool), where forking can deadlock the child on locks held
    by sibling threads at fork time (and is a DeprecationWarning on
    3.12+), so ``spawn`` is used instead.  All pool initializers and
    workers in this codebase are module-level with picklable initargs,
    so both contexts run them identically.
    """
    import multiprocessing

    if threading.current_thread() is threading.main_thread():
        return multiprocessing.get_context()
    return multiprocessing.get_context("spawn")


def _serial_executor(
    worker: Worker,
    tasks: Sequence[Any],
    jobs: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[OnResult] = None,
    should_stop: Optional[ShouldStop] = None,
    epoch: Optional[SweepEpoch] = None,
) -> List[Any]:
    """Run every task in this process (reference implementation)."""
    if initializer is not None:
        initializer(*initargs)
    out: List[Any] = []
    for i, task in enumerate(tasks):
        if should_stop is not None and should_stop():
            raise SweepCancelled(out)
        result = worker(task)
        out.append(result)
        if on_result is not None:
            on_result(i, result)
    return out


def _process_executor(
    worker: Worker,
    tasks: Sequence[Any],
    jobs: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[OnResult] = None,
    should_stop: Optional[ShouldStop] = None,
    epoch: Optional[SweepEpoch] = None,
) -> List[Any]:
    """Fan tasks out over a ``multiprocessing`` pool, order-preserving.

    :func:`run_sharded` picks this executor unnamed only when the pool
    gets more than one worker.  Named, a pool is spawned even for
    ``jobs=1`` or one task -- callers asked for process isolation by
    name, and benchmarks need the honest single-worker pool overhead,
    not a silent serial fallback.  With streaming hooks
    the pool switches from ``map`` to ordered ``imap`` so each result
    surfaces (and ``should_stop`` is polled) as it completes; a stop
    terminates the pool, abandoning in-flight shards.
    """
    if not tasks:
        return []
    jobs = min(max(1, jobs), len(tasks))
    ctx = _pool_context()
    with ctx.Pool(
        processes=jobs, initializer=initializer, initargs=initargs
    ) as pool:
        # chunksize=1: shards are coarse already; keep scheduling greedy.
        if on_result is None and should_stop is None:
            return pool.map(worker, tasks, chunksize=1)
        out: List[Any] = []
        results = pool.imap(worker, tasks, chunksize=1)
        for i in range(len(tasks)):
            if should_stop is not None and should_stop():
                pool.terminate()
                raise SweepCancelled(out)
            result = next(results)
            out.append(result)
            if on_result is not None:
                on_result(i, result)
        return out


def _distributed_executor(
    worker: Worker,
    tasks: Sequence[Any],
    jobs: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[OnResult] = None,
    should_stop: Optional[ShouldStop] = None,
    epoch: Optional[SweepEpoch] = None,
) -> List[Any]:
    """Cross-host executor: lease tasks to socket-connected workers.

    A thin registration stub -- the machinery (work-queue coordinator,
    lease/heartbeat/re-queue run loop, in-order merge) lives in
    :mod:`repro.distributed`, imported lazily so the registry can
    always list the name without the CLI paying the import.  ``jobs``
    is ignored: parallelism is the number of attached workers, each
    running one task at a time.  Requires a running coordinator
    (``--listen`` on the CLI, or
    :func:`repro.distributed.ensure_coordinator`).
    """
    from ..distributed.executor import run_distributed

    return run_distributed(
        worker,
        tasks,
        jobs=jobs,
        initializer=initializer,
        initargs=initargs,
        on_result=on_result,
        should_stop=should_stop,
        epoch=epoch,
    )


register_executor("serial", _serial_executor)
register_executor("process", _process_executor)
register_executor("distributed", _distributed_executor)


def run_sharded(
    worker: Worker,
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    executor: Optional[str] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[OnResult] = None,
    should_stop: Optional[ShouldStop] = None,
    epoch: Optional[SweepEpoch] = None,
) -> List[Any]:
    """Run ``worker`` over ``tasks`` on a registered executor.

    ``jobs=None`` or ``0`` means every core; ``executor=None`` picks
    ``"process"`` when both ``jobs`` and the task list exceed one and
    ``"serial"`` otherwise, so a one-task plan never starts a pool.
    Results come back in task order regardless of backend, which is
    what makes sharded sweeps deterministic.

    ``on_result(i, result)`` fires in task order as task ``i``
    completes -- the single progress seam shared by the CLI, the async
    service layer, and tests.  ``should_stop()`` is polled between
    tasks; returning true raises :class:`SweepCancelled` carrying the
    results completed so far.

    ``epoch`` optionally describes the sweep's shared setup
    (:class:`~repro.verify.exhaustive.SweepEpoch`); ``"distributed"``
    workers key their compile caches on it and validate circuit
    identity against it, the local executors ignore it.
    """
    tasks = list(tasks)
    jobs = default_jobs() if not jobs else max(1, jobs)
    name = _executor_name(executor, jobs, len(tasks))
    try:
        run = _EXECUTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown executor {name!r}; available: {available_executors()}"
        ) from None
    return run(
        worker,
        tasks,
        jobs=jobs,
        initializer=initializer,
        initargs=initargs,
        on_result=on_result,
        should_stop=should_stop,
        epoch=epoch,
    )


# ----------------------------------------------------------------------
# Sharded exhaustive two-sort verification
# ----------------------------------------------------------------------
#: Per-worker state installed by the pool initializer: the circuit, the
#: resolved backend, the programs compiled from them (once per worker,
#: not once per shard) and the worker's store handle.  Thread-local
#: because the service layer runs concurrent in-process sweeps on a
#: thread pool; multiprocessing pool workers run the initializer and
#: their tasks on one thread, so per-process semantics are unchanged.
_VERIFY_STATE = threading.local()


def _init_verify_worker(
    circuit: Circuit, backend: BackendLike = None,
    store_spec: Optional[str] = None,
) -> None:
    # `backend` arrives as a registry name (or None for bigint) and
    # `store_spec` as a store spec string (or None when the sweep's
    # store is not shareable) so the initargs stay picklable for pool
    # *and remote* workers.  Nothing is compiled
    # here: a region sweep after a clean edit never runs the full
    # circuit, so each program is compiled when a task first needs it.
    state = _VERIFY_STATE
    state.circuit = circuit
    state.backend = get_backend(backend)
    state.programs = {}
    state.store = None
    if store_spec:
        from ..store import shared_store

        state.store = shared_store(store_spec)


def _program(cones: Optional[Tuple[int, ...]] = None):
    """This worker's compiled program over ``cones`` (default: all).

    Every output, in order, is the full circuit; any other selection is
    the union of those output cones (:meth:`Circuit.extract_cones`).
    Each is compiled once per sweep.
    """
    state = _VERIFY_STATE
    circuit = state.circuit
    if cones is not None and cones == tuple(range(len(circuit.outputs))):
        cones = None
    program = state.programs.get(cones)
    if program is None:
        source = circuit if cones is None else circuit.extract_cones(cones)
        program = state.programs[cones] = compile_circuit(
            source, state.backend
        )
    return program


def _verify_shard_worker(task: Tuple[int, int, int]) -> VerificationResult:
    width, g_lo, g_hi = task
    return verify_two_sort_shard(_program(), width, g_lo, g_hi)


def _region_key(
    circuit_name: str, region_hash: str, backend_name: str,
    width: int, output_index: int, g_lo: int, g_hi: int,
) -> Tuple:
    """Store key for one output cone over one g-row range.

    Keyed on the *region* digest, not the whole-circuit content hash:
    an edit invalidates exactly the keys of the cones it touches, which
    is what makes re-verification after an edit incremental.  The
    ``"r"`` marker keeps region keys disjoint from the
    circuit-granularity shard keys in shared stores.
    """
    return (
        circuit_name, region_hash, backend_name, width, "r",
        output_index, g_lo, g_hi,
    )


#: A region task: one g-row range and the output cones it must check.
RegionTask = Tuple[int, int, int, Tuple[int, ...]]


def _execute_region_shard(task: RegionTask) -> List[Dict[str, int]]:
    """Compute one g-row range over its cones (no store consult).

    ``task`` is ``(width, g_lo, g_hi, cones)``; one kernel call over
    the program of those cones returns one ``{"lanes", "mismatches"}``
    value per cone, in order.  Module-level (not a closure) so tests
    can monkeypatch it to count actual executions -- the seam that pins
    "a warm store re-executes nothing" and "an edit re-executes only
    the affected cones".
    """
    width, g_lo, g_hi, cones = task
    return verify_two_sort_region_range(
        _program(cones), width, cones, g_lo, g_hi
    )


def _verify_region_worker(task: RegionTask) -> List[Dict[str, int]]:
    """Worker for region tasks: consult the shared store, then compute.

    When the sweep's store is shareable its spec rides the pool
    initargs, and each worker holds its own handle: one
    :func:`~repro.store.base.consult` re-checks the range's keys,
    claims the missing ones in one transaction, computes the won cones
    in one call and waits for keys another process holds -- so two
    processes sweeping the same circuit against one store never
    double-execute a (range, cone) pair.  The worker writes nothing:
    the sweep's own handle stores each value once.
    """
    state = _VERIFY_STATE
    if state.store is None:
        return _execute_region_shard(task)
    from ..store.base import consult

    width, g_lo, g_hi, cones = task
    circuit = state.circuit
    hashes = circuit.region_hashes()
    keys = [
        _region_key(
            circuit.name, hashes[o], state.backend.name, width, o,
            g_lo, g_hi,
        )
        for o in cones
    ]
    return consult(
        state.store,
        keys,
        lambda won: _execute_region_shard(
            (width, g_lo, g_hi, tuple(cones[i] for i in won))
        ),
    )


#: Per-shard progress hook: ``on_shard(done, total, result)`` where
#: ``done`` is the number of shards finished so far (cached hits
#: included) and ``result`` is that shard's VerificationResult.
OnShard = Callable[[int, int, VerificationResult], None]


def verify_two_sort_sharded(
    circuit: Circuit,
    width: int,
    jobs: Optional[int] = None,
    shard_size: Optional[int] = None,
    executor: Optional[str] = None,
    backend: BackendLike = None,
    on_shard: Optional[OnShard] = None,
    should_stop: Optional[ShouldStop] = None,
    cache: Optional[ResultStore] = None,
    store: Optional[ResultStore] = None,
) -> VerificationResult:
    """Exhaustively verify a 2-sort circuit with sharded execution.

    Splits the ``|S^B_rg|^2`` pair domain into g-row ranges
    (:func:`~repro.verify.exhaustive.pair_shards`), dispatches them on
    the chosen executor, and merges the per-shard results in shard
    order.  For any ``jobs``/``shard_size``/``executor``/``backend``
    the returned :class:`VerificationResult` counts are identical to the
    single-process :func:`~repro.verify.exhaustive.verify_two_sort_circuit`.
    ``backend`` names a plane backend (:mod:`repro.backends`) and is
    forwarded to every worker through the pool initializer (by name, so
    it pickles).

    The plan is that of ``verify_two_sort_circuit``: each range is as
    many whole g-rows as fit ``shard_size`` lanes, by default the
    backend's ``preferred_shard_lanes``.  ``jobs`` (``None`` or ``0``:
    one worker per core) only sizes the worker pool and, when no
    ``executor`` is named, picks it if the plan has more than one
    range (:func:`run_sharded`), so the ranges -- and every key stored
    on them -- depend on the width, the backend and ``shard_size``
    alone.

    This is the one code path behind the CLI, the async service layer
    (:mod:`repro.service`), and the sharded tests:

    * ``on_shard(done, total, result)`` fires per finished shard, in
      shard order, from the calling process -- the progress stream;
    * ``should_stop()`` is polled between shards; a true return raises
      :class:`SweepCancelled` (cooperative cancellation -- in-flight
      shards on a process pool are abandoned);
    * ``cache`` is a :class:`repro.store.base.ResultStore` keyed per
      whole-circuit shard: ``(circuit.name, circuit.content_hash(),
      backend.name, width, g_lo, g_hi)`` -- the content hash identifies
      the netlist *structure*, so a rebuilt-but-identical circuit hits
      while any structural edit misses.  Hits skip the worker entirely
      but still count toward progress, and fresh results are put one
      by one as they complete (so even a cancelled run warms the cache,
      and a journal checkpoint holds every finished shard);
    * ``store`` is a :class:`repro.store.base.ResultStore` keyed at
      **region granularity** (``store`` wins when both are given):
      results are keyed per primary-output cone per g-row range, on the
      cone's *region* digest (:meth:`Circuit.region_hashes`) instead of
      the whole-circuit hash, so a one-gate edit misses only on the
      cones it touched, while each range still costs one kernel call
      and one store round (module docstring).  Shareable stores
      (sqlite) additionally ship their spec to workers, which claim a
      range's keys *before executing* -- the no-double-execute
      mechanism across processes and hosts.  Clean ranges merge into
      the report as synthetic all-clear counts; a range whose cone
      mismatches is re-verified at circuit granularity through the
      canonical :func:`~repro.verify.exhaustive.verify_two_sort_shard`,
      so the merged report is byte-identical to a store-less sweep.

    A sweep with a ``cache`` or ``store`` journals its
    :class:`~repro.verify.exhaustive.SweepEpoch` up front and appends a
    :class:`~repro.store.base.RunRecord` audit row when it completes.
    """
    check_two_sort_shape(circuit, width)
    jobs = default_jobs() if not jobs else max(1, jobs)
    if isinstance(backend, PlaneBackend):
        backend = backend.name
    # Resolve `auto` and None (bigint) once, up front, so shard sizing,
    # cache and epoch keys, and the name forwarded to every worker all
    # agree on one concrete backend (workers on compiler-less hosts
    # still run native's shards in Python): a sweep that names no
    # backend and one that names bigint share one epoch.
    backend = resolve_backend_name(backend)
    if shard_size is None:
        shard_size = get_backend(backend).preferred_shard_lanes
    shards = pair_shards(width, shard_size)
    # The sweep's shared-setup descriptor: remote workers compile once
    # per epoch and verify the circuit they deserialized against the
    # content hash before any result merges.  `backend` is the resolved
    # *name*, matching the initargs.
    epoch = SweepEpoch(
        kind="verify-two-sort",
        circuit_name=circuit.name,
        circuit_hash=circuit.content_hash(),
        width=width,
        backend=backend,
    )
    handle = store if store is not None else cache
    if handle is not None:
        # Up front, so a journal is self-describing even if the run
        # dies before any shard completes.
        handle.record_epoch(epoch, shards=len(shards), shard_size=shard_size)
    sweep = _run_region_sweep if store is not None else _run_circuit_sweep
    merged = sweep(
        circuit, width, shards, jobs, executor, backend, handle,
        on_shard, should_stop, epoch,
    )
    if handle is not None:
        import socket

        from ..store.base import RunRecord, result_digest

        handle.record_run(RunRecord(
            circuit=circuit.name,
            circuit_hash=epoch.circuit_hash,
            backend=get_backend(backend).name,
            executor=_executor_name(executor, jobs, len(shards)),
            width=width,
            shards=len(shards),
            checked=merged.checked,
            failure_count=merged.failure_count,
            ok=merged.failure_count == 0,
            result_digest=result_digest(merged),
            mode="regions" if store is not None else "shards",
            host=socket.gethostname(),
            pid=os.getpid(),
            timestamp=time.time(),
        ))
    return merged


def _run_circuit_sweep(
    circuit: Circuit,
    width: int,
    shards: List[Tuple[int, int]],
    jobs: int,
    executor: Optional[str],
    backend: BackendLike,
    cache: Optional[ResultStore],
    on_shard: Optional[OnShard],
    should_stop: Optional[ShouldStop],
    epoch: SweepEpoch,
) -> VerificationResult:
    """Circuit-granularity sweep: one key per whole-circuit shard."""
    total = len(shards)
    keys: List[Tuple] = []
    results: List[Optional[VerificationResult]] = [None] * total
    if cache is not None:
        backend_name = get_backend(backend).name
        keys = [
            (circuit.name, epoch.circuit_hash, backend_name, width, g_lo, g_hi)
            for g_lo, g_hi in shards
        ]
        results = cache.get_many(keys)
    pending = [i for i, hit in enumerate(results) if hit is None]

    done = 0
    # Cached shards report first (ascending shard order), then fresh
    # ones as the executor completes them -- `done` stays strictly
    # increasing either way.
    for i, hit in enumerate(results):
        if hit is None:
            continue
        if should_stop is not None and should_stop():
            raise SweepCancelled([r for r in results[:i] if r is not None])
        done += 1
        if on_shard is not None:
            on_shard(done, total, hit)

    def _record(k: int, result: VerificationResult) -> None:
        nonlocal done
        if cache is not None:
            cache.put(keys[pending[k]], result)
        done += 1
        if on_shard is not None:
            on_shard(done, total, result)

    if pending:
        fresh = run_sharded(
            _verify_shard_worker,
            [(width,) + shards[i] for i in pending],
            jobs=jobs,
            executor=executor,
            initializer=_init_verify_worker,
            initargs=(circuit, backend),
            # Nothing to stream: a process pool keeps its plain `map`.
            on_result=(
                None if cache is None and on_shard is None else _record
            ),
            should_stop=should_stop,
            epoch=epoch,
        )
        for i, result in zip(pending, fresh):
            results[i] = result
    return VerificationResult.merge(results)


def _run_region_sweep(
    circuit: Circuit,
    width: int,
    shards: List[Tuple[int, int]],
    jobs: int,
    executor: Optional[str],
    backend: BackendLike,
    store: ResultStore,
    on_shard: Optional[OnShard],
    should_stop: Optional[ShouldStop],
    epoch: SweepEpoch,
) -> VerificationResult:
    """Region-granularity sweep: one key per output cone per g-range.

    Each g-row range with a missing cone is one task over exactly its
    missing cones, so an edit only executes the cones whose region
    digest changed.  Clean ranges (every cone matches everywhere) merge
    as synthetic all-clear counts; a range with any cone mismatch is
    re-verified through the canonical full-circuit shard (cached at
    circuit granularity), so failure messages -- and therefore the
    merged report -- stay byte-identical to an uncached sweep.
    """
    total = len(shards)
    backend_name = get_backend(backend).name
    region_hashes = circuit.region_hashes()
    n_out = len(region_hashes)
    S = (1 << (width + 1)) - 1

    keys = [
        [
            _region_key(
                circuit.name, region_hashes[o], backend_name, width, o,
                g_lo, g_hi,
            )
            for o in range(n_out)
        ]
        for g_lo, g_hi in shards
    ]
    stored = store.get_many([key for row in keys for key in row])
    region_results: List[List[Optional[Dict[str, int]]]] = [
        stored[i * n_out:(i + 1) * n_out] for i in range(total)
    ]
    tasks: List[RegionTask] = []
    task_range: List[int] = []
    for i, row in enumerate(region_results):
        cones = tuple(o for o, value in enumerate(row) if value is None)
        if cones:
            tasks.append((width,) + shards[i] + (cones,))
            task_range.append(i)

    full_program = None

    def _resolve(i: int) -> VerificationResult:
        """Collapse one range's per-cone outcomes into a shard result."""
        nonlocal full_program
        g_lo, g_hi = shards[i]
        if all(v["mismatches"] == 0 for v in region_results[i]):
            return VerificationResult(checked=(g_hi - g_lo) * S)
        # A cone mismatched somewhere in this range: produce the
        # canonical per-pair failure messages via the full-circuit
        # shard (stored under its circuit-granularity key).
        ckey = (
            circuit.name, epoch.circuit_hash, backend_name, width, g_lo, g_hi
        )
        hit = store.get(ckey)
        if hit is not None:
            return hit
        if full_program is None:
            full_program = compile_circuit(circuit, get_backend(backend))
        result = verify_two_sort_shard(full_program, width, g_lo, g_hi)
        store.put(ckey, result)
        return result

    results: List[Optional[VerificationResult]] = [None] * total
    done = 0
    pending = set(task_range)
    for i in range(total):
        if i in pending:
            continue
        if should_stop is not None and should_stop():
            raise SweepCancelled([r for r in results[:i] if r is not None])
        results[i] = _resolve(i)
        done += 1
        if on_shard is not None:
            on_shard(done, total, results[i])

    if tasks:
        share = store.share_spec()

        def _record(k: int, values: List[Dict[str, int]]) -> None:
            nonlocal done
            i = task_range[k]
            cones = tasks[k][3]
            for o, value in zip(cones, values):
                region_results[i][o] = value
            # The range's one write: first write wins everywhere, and
            # it releases the worker's claims on these keys.
            store.put_many([(keys[i][o], v) for o, v in zip(cones, values)])
            # Tasks are in range order and executors are ordered, so
            # ranges complete ascending -- `done` stays monotonic.
            results[i] = _resolve(i)
            done += 1
            if on_shard is not None:
                on_shard(done, total, results[i])

        run_sharded(
            _verify_region_worker,
            tasks,
            jobs=jobs,
            executor=executor,
            initializer=_init_verify_worker,
            initargs=(circuit, backend, share),
            on_result=_record,
            should_stop=should_stop,
            epoch=epoch,
        )
    return VerificationResult.merge(results)
