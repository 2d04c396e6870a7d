"""The ``memory`` backend: a bounded in-process LRU result store.

The job service's server-wide cache, and the ``memory`` store spec.
Epochs and audit records are kept in plain dicts/lists -- useful for
the service layer's run counters and for tests, gone with the process
by design.

Thread-safe: job bodies run on a thread pool, and two concurrent
verify jobs for the same circuit may read and write the same keys.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..verify.exhaustive import SweepEpoch
from .base import ResultStore, RunRecord

__all__ = ["MemoryStore"]


class MemoryStore(ResultStore):
    """A bounded LRU map with hit/miss accounting.

    ``maxsize`` counts *entries* (one per shard).  At the default shard
    sizing a full B=13 sweep is 1,024 shards on ``native``, so the
    default of 8192 holds several, but 16,383 on ``bigint``, more than
    the default holds.  ``maxsize <= 0`` disables storage (every
    ``get`` is a miss, ``put`` is a no-op) -- the switch for callers
    that must never serve a stale-circuit result even in theory.
    """

    backend_name = "memory"
    shareable = False

    def __init__(self, maxsize: int = 8192, spec: Optional[str] = None):
        super().__init__(spec=spec or "memory")
        self.maxsize = maxsize
        self._data: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._epochs: Dict[str, SweepEpoch] = {}
        self._runs: List[RunRecord] = []
        self._lock = threading.Lock()

    def get(self, key: Tuple) -> Optional[Any]:
        key = tuple(key)
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Tuple, value: Any) -> None:
        if self.maxsize <= 0:
            return
        key = tuple(key)
        with self._lock:
            # Re-putting a present key replaces the value in place and
            # refreshes its recency; it must never count as a second
            # entry toward maxsize (pinned by a regression test -- the
            # distributed path re-puts keys whenever an expired lease
            # is re-run).
            self._data[key] = value
            self._data.move_to_end(key)
            self.puts += 1
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def record_epoch(
        self,
        epoch: SweepEpoch,
        shards: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> None:
        with self._lock:
            self._epochs.setdefault(epoch.fingerprint(), epoch)

    def epochs(self) -> List[SweepEpoch]:
        with self._lock:
            return list(self._epochs.values())

    def record_run(self, run: RunRecord) -> None:
        with self._lock:
            self._runs.append(run)

    def runs(self, limit: Optional[int] = None) -> List[RunRecord]:
        with self._lock:
            out = list(self._runs)
        return out[-limit:] if limit else out

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "backend": self.backend_name,
                "entries": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "runs": len(self._runs),
            }
