"""Distributed shard execution: one sweep across many hosts.

The transport the ROADMAP said was "the only thing missing": shard
tasks were already picklable and self-describing, shard results
already merged deterministically, and plane backends already
serialized by name -- this package moves them over a socket work
queue.

* :mod:`~repro.distributed.wire` -- the JSON-lines framing shared
  with the service layer, plus pickle payload helpers;
* :mod:`~repro.distributed.coordinator` -- :class:`ShardCoordinator`:
  owns the shard queue, leases tasks to connected workers, heartbeats,
  re-queues shards whose worker dies or stalls, and releases results
  strictly in shard order;
* :mod:`~repro.distributed.worker` -- :class:`ShardWorker`, the agent
  behind ``python -m repro worker --connect HOST:PORT``;
* :mod:`~repro.distributed.executor` -- the ``"distributed"`` entry in
  the executor registry, so every sharded code path (CLI ``verify``,
  ``sort_words_batch``, service jobs) can fan out cross-host by name.

The durable shard-result journal behind ``--checkpoint``/``--resume``
is the ``journal`` result store (:class:`repro.store.JournalStore`).

Quickstart (two shells, or two hosts)::

    python -m repro verify --width 10 --executor distributed --listen 7422
    python -m repro worker --connect COORDINATOR_HOST:7422

A worker runs one task at a time; start N of them to contribute N cores.
"""

import importlib

# Only the wire format is imported eagerly: the service layer (and
# through it every CLI invocation) shares the framing, and must not
# pay for the coordinator/worker/executor machinery it may never use
# -- the registry stub in repro.verify.parallel defers that import for
# the same reason.  The heavier names below resolve lazily (PEP 562).
from .wire import DEFAULT_WORK_PORT, LineChannel, decode_line, encode_line, pack, unpack

_LAZY = {
    "BatchHandle": ".coordinator",
    "ShardCoordinator": ".coordinator",
    "ShardWorker": ".worker",
    "current_coordinator": ".executor",
    "ensure_coordinator": ".executor",
    "run_distributed": ".executor",
    "shutdown_coordinator": ".executor",
    "use_coordinator": ".executor",
}

__all__ = [
    "BatchHandle",
    "DEFAULT_WORK_PORT",
    "LineChannel",
    "ShardCoordinator",
    "ShardWorker",
    "current_coordinator",
    "decode_line",
    "encode_line",
    "ensure_coordinator",
    "pack",
    "run_distributed",
    "shutdown_coordinator",
    "unpack",
    "use_coordinator",
]


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(__all__)
