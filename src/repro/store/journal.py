"""The ``journal`` backend: an append-only JSON-lines result store.

The durable sweep checkpoint behind ``verify --checkpoint``.  A
coordinator that dies mid-sweep (SIGKILL, OOM, power) loses nothing:
every released shard result is one JSON line, keyed on the same
content-addressed tuples every other backend uses, so resume needs no
new machinery -- journaled shards are skipped and only the unfinished
remainder is dispatched.

Record formats, one JSON object per line::

    {"type": "epoch", "fingerprint": "...", "epoch": {...},
     "shards": N, "shard_size": S}
    {"type": "result", "key": [...], "result": {"checked": ...,
     "failure_count": ..., "failures": [...], "truncated": ...}}
    {"type": "value", "key": [...], "value": <any JSON>}
    {"type": "run", "run": {...}}

``"result"`` carries a
:class:`~repro.verify.exhaustive.VerificationResult`; ``"value"``
carries any other JSON value (the per-region outcome dicts); ``"run"``
is one audit-trail record per completed sweep.

Crash tolerance: each ``put``/``put_many`` call is one write, flushed
(and by default fsynced) before it returns, and the loader tolerates a
torn trailing line -- the partial record a SIGKILL mid-write leaves
behind is counted and dropped, never fatal, and the complete lines
before it load.  Duplicate keys keep the first record
(first-write-wins, matching the coordinator's result accounting), so
replaying a journal is idempotent.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..verify.exhaustive import SweepEpoch
from .base import ResultStore, RunRecord, decode_value, encode_value

__all__ = ["JournalStore"]


class JournalStore(ResultStore):
    """Append-only JSON-lines store with first-write-wins semantics.

    ``fsync=True`` (the default) makes every record durable against
    power loss before ``put``/``put_many`` returns; pass ``False`` to
    trade that for speed when only process death matters.  Thread-safe:
    the service layer shares one journal across its sweep threads.  Not
    cross-process shareable -- two handles on one path each hold an
    append handle and neither sees the other's writes until reload;
    use the ``sqlite`` backend for shared stores.
    """

    backend_name = "journal"
    shareable = False

    def __init__(self, path: str, fsync: bool = True):
        super().__init__(spec=f"journal:{path}")
        self.path = path
        self.fsync = fsync
        self._lock = threading.RLock()
        self._results: Dict[Tuple, Any] = {}
        self._epochs: Dict[str, Dict[str, Any]] = {}
        self._runs: List[RunRecord] = []
        #: Records dropped on load: torn/corrupt lines and duplicate keys.
        self.torn = 0
        self.duplicates = 0
        self._load()
        self._fh = open(self.path, "ab")

    # -- journal I/O ---------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    self._ingest(record)
                except (ValueError, KeyError, TypeError):
                    # A torn record (the line a SIGKILL mid-write left
                    # behind) or stray corruption: drop it -- the shard
                    # is simply treated as not done and re-executed.
                    self.torn += 1

    def _ingest(self, record: Dict[str, Any]) -> None:
        kind = record["type"]
        if kind in ("result", "value"):
            key = tuple(record["key"])
            if key in self._results:
                self.duplicates += 1
                return  # first write wins, like the coordinator
            self._results[key] = decode_value(record)
        elif kind == "epoch":
            self._epochs.setdefault(str(record["fingerprint"]), record)
        elif kind == "run":
            self._runs.append(RunRecord.from_dict(record["run"]))
        # Unknown record types are ignored: forward compatibility.

    def _append(self, records: Sequence[Dict[str, Any]]) -> None:
        """One write, one flush and (by default) one fsync per batch."""
        self._fh.write(b"".join(
            json.dumps(record, separators=(",", ":")).encode("utf-8")
            + b"\n"
            for record in records
        ))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    # -- the store protocol --------------------------------------------
    def get(self, key: Tuple) -> Optional[Any]:
        with self._lock:
            hit = self._results.get(tuple(key))
            if hit is None:
                self.misses += 1
                return None
            self.hits += 1
            return hit

    def put(self, key: Tuple, value: Any) -> None:
        self.put_many([(key, value)])

    def put_many(self, items: Sequence[Tuple[Tuple, Any]]) -> None:
        records = []
        with self._lock:
            for key, value in items:
                key = tuple(key)
                if key in self._results:
                    continue  # already durable; keep the journal append-only
                self._results[key] = value
                envelope = encode_value(value)
                kind = "result" if "result" in envelope else "value"
                records.append(
                    {"type": kind, "key": list(key), kind: envelope[kind]}
                )
            if records:
                self.puts += len(records)
                self._append(records)

    def record_epoch(
        self,
        epoch: SweepEpoch,
        shards: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> None:
        """Journal the sweep descriptor (once per distinct epoch)."""
        fp = epoch.fingerprint()
        with self._lock:
            if fp in self._epochs:
                return
            record: Dict[str, Any] = {
                "type": "epoch",
                "fingerprint": fp,
                "epoch": epoch.to_dict(),
            }
            if shards is not None:
                record["shards"] = shards
            if shard_size is not None:
                record["shard_size"] = shard_size
            self._epochs[fp] = record
            self._append([record])

    def record_run(self, run: RunRecord) -> None:
        with self._lock:
            self._runs.append(run)
            self._append([{"type": "run", "run": run.to_dict()}])

    def runs(self, limit: Optional[int] = None) -> List[RunRecord]:
        with self._lock:
            out = list(self._runs)
        return out[-limit:] if limit else out

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def keys(self) -> List[Tuple]:
        with self._lock:
            return list(self._results)

    def epochs(self) -> List[SweepEpoch]:
        with self._lock:
            return [
                SweepEpoch.from_dict(rec["epoch"])
                for rec in self._epochs.values()
            ]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "backend": self.backend_name,
                "path": self.path,
                "results": len(self._results),
                "epochs": len(self._epochs),
                "runs": len(self._runs),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "torn": self.torn,
                "duplicates": self.duplicates,
            }

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                if self.fsync:
                    os.fsync(self._fh.fileno())
                self._fh.close()
