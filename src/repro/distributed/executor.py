"""The ``"distributed"`` executor: run_sharded over the work queue.

This is where the subsystem meets the executor registry from
:mod:`repro.verify.parallel`: :func:`run_distributed` satisfies the
executor contract (tasks in, ordered results out, streaming
``on_result``/``should_stop`` honoured) by submitting the batch to a
:class:`~repro.distributed.coordinator.ShardCoordinator` and
collecting the leased results in task order.  Everything above the
registry -- ``verify_two_sort_sharded``, ``sort_words_batch``, the
service layer's :class:`~repro.service.jobs.JobManager`, the CLI --
gains cross-host execution by naming ``executor="distributed"``,
with no other code change.

The process-wide coordinator is explicit, not ambient:
:func:`ensure_coordinator` starts one (idempotently) -- the CLI's
``--listen PORT`` and ``serve --listen PORT`` call it -- and
:func:`use_coordinator` scopes one for tests and embedders.  Running
the executor with no coordinator raises immediately with instructions
rather than hanging.

``jobs`` is deliberately ignored here: parallelism is decided by how
many workers attach, each running one task at a time, not by the
submitting process.  A host contributes N cores by running N workers.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..verify.exhaustive import SweepEpoch
from .coordinator import ShardCoordinator
from .wire import DEFAULT_WORK_PORT

__all__ = [
    "current_coordinator",
    "ensure_coordinator",
    "run_distributed",
    "shutdown_coordinator",
    "use_coordinator",
]

_LOCK = threading.Lock()
_COORDINATOR: Optional[ShardCoordinator] = None


def ensure_coordinator(
    host: str = "0.0.0.0",
    port: int = DEFAULT_WORK_PORT,
    lease_timeout: float = 30.0,
    max_range: int = 32,
) -> ShardCoordinator:
    """Start (once) and return the process-wide shard coordinator.

    Idempotent: a second call returns the running instance, ignoring
    the arguments -- one process serves one work queue.  The default
    bind is all interfaces, since the whole point is workers on other
    hosts; pass ``host="127.0.0.1"`` for a localhost-only queue.
    ``max_range`` caps the adaptive shard-range lease width
    (``1`` = one task per RPC).
    """
    global _COORDINATOR
    with _LOCK:
        if _COORDINATOR is None:
            _COORDINATOR = ShardCoordinator(
                host=host,
                port=port,
                lease_timeout=lease_timeout,
                max_range=max_range,
            ).start()
        return _COORDINATOR


def current_coordinator() -> Optional[ShardCoordinator]:
    return _COORDINATOR


def shutdown_coordinator() -> None:
    global _COORDINATOR
    with _LOCK:
        if _COORDINATOR is not None:
            _COORDINATOR.close()
            _COORDINATOR = None


@contextmanager
def use_coordinator(coordinator: ShardCoordinator) -> Iterator[ShardCoordinator]:
    """Scope the executor's coordinator (tests / embedding)."""
    global _COORDINATOR
    with _LOCK:
        previous = _COORDINATOR
        _COORDINATOR = coordinator
    try:
        yield coordinator
    finally:
        with _LOCK:
            _COORDINATOR = previous


def run_distributed(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[Callable[[int, Any], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    epoch: Optional[SweepEpoch] = None,
) -> List[Any]:
    """Executor entry point registered as ``"distributed"``.

    Blocks until connected workers have completed every task (leases
    re-queued around any worker that dies), streaming results through
    ``on_result`` in task order exactly like the local executors.
    """
    coordinator = current_coordinator()
    if coordinator is None:
        raise RuntimeError(
            "executor 'distributed' needs a running shard coordinator: "
            "pass --listen PORT on the CLI (or call "
            "repro.distributed.ensure_coordinator()) and attach workers "
            "with `python -m repro worker --connect HOST:PORT`"
        )
    handle = coordinator.submit(
        worker,
        list(tasks),
        initializer=initializer,
        initargs=initargs,
        epoch=epoch.to_dict() if epoch is not None else None,
    )
    return handle.collect(on_result=on_result, should_stop=should_stop)
