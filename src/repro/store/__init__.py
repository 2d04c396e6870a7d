"""Unified result persistence: pluggable stores behind one protocol.

Public surface of the ``repro.store`` subsystem (see
:mod:`repro.store.base` for the protocol itself):

* :func:`open_store` parses a store *spec* -- ``"memory"`` /
  ``"memory:N"``, ``"journal:PATH"``, ``"sqlite:PATH"``, or a bare
  path (``.jsonl``/``.journal`` suffix selects the journal backend,
  anything else sqlite) -- and returns an opened
  :class:`~repro.store.base.ResultStore`;
* :func:`shared_store` returns a per-process cached handle for a spec
  -- the worker-side entry point: pool and remote workers receive a
  shareable store's spec through the sweep initargs and consult the
  store before executing a leased range.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from .base import ResultStore, RunRecord, result_digest
from .journal import JournalStore
from .memory import MemoryStore
from .sqlite_store import SqliteStore
from .stacked import StackedStore

__all__ = [
    "JournalStore",
    "MemoryStore",
    "ResultStore",
    "RunRecord",
    "SqliteStore",
    "StackedStore",
    "open_store",
    "result_digest",
    "shared_store",
]


def open_store(spec: str) -> ResultStore:
    """Open the store a spec names.

    ``"memory"``/``"memory:4096"`` -> LRU (a size <= 0 stores nothing);
    ``"journal:PATH"`` -> JSON-lines journal; ``"sqlite:PATH"`` ->
    shared WAL-mode SQLite.  Any other spec is a bare path, and its
    suffix picks the backend: ``.jsonl``/``.journal`` mean journal,
    everything else (``.db``, ``.sqlite``, ``foo:bar.db``, ...) sqlite
    -- so ``verify --store s.db`` does the expected thing with no
    ceremony.  An empty spec or path and a non-integer size raise
    :class:`ValueError`; a path that cannot be opened raises the
    backend's own error (:class:`OSError` or :class:`sqlite3.Error`).
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"store spec must be a non-empty string, got {spec!r}")
    name, _, arg = spec.partition(":")
    if name == "memory":
        if not arg:
            return MemoryStore()
        try:
            size = int(arg)
        except ValueError:
            raise ValueError(
                f"memory store size must be an integer, got {arg!r}"
            ) from None
        return MemoryStore(maxsize=size)
    if name in ("journal", "sqlite"):
        if not arg:
            raise ValueError(f"a {name} store needs a path ({name}:PATH)")
        return JournalStore(arg) if name == "journal" else SqliteStore(arg)
    if spec.endswith((".jsonl", ".journal")):
        return JournalStore(spec)
    return SqliteStore(spec)


#: Worker-side handle cache, keyed on (pid, spec).  The pid guards
#: forked pool workers: a SQLite connection must never be shared across
#: a fork, so each process lazily opens its own.
_SHARED: Dict[Tuple[int, str], ResultStore] = {}


def shared_store(spec: str) -> ResultStore:
    """A per-process cached handle on ``spec`` (for worker consults).

    Handles are kept open for the life of the process -- workers
    consult the store per task, and reconnecting per task would turn
    every shard into a connection handshake.
    """
    key = (os.getpid(), spec)
    store = _SHARED.get(key)
    if store is None:
        store = open_store(spec)
        _SHARED[key] = store
    return store
