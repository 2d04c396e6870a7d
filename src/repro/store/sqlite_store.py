"""The ``sqlite`` backend: one store shared across processes and hosts.

The journal backend is durable but per-sweep and per-handle; this
backend is the *shared* half of the ROADMAP's persistence item: a
single SQLite file (WAL mode) that CLI runs, service jobs, the
distributed coordinator, and workers on other hosts (via a shared
path) all read and write concurrently.  ``shareable = True`` is the
protocol-level consequence: the sharded sweep ships this store's spec
to its pool/remote workers, which open their own connections and
consult the store *before executing a leased range*.

Layout (all values pure JSON -- no pickles on disk):

* ``results(key, value, created)`` -- first-write-wins keyed values
  (``INSERT OR IGNORE``, matching the journal and the coordinator);
* ``epochs(fingerprint, epoch, shards, shard_size, created)``;
* ``runs(...)`` -- the append-only audit trail of completed sweeps;
* ``claims(key, host, pid, ts)`` -- advisory in-flight markers with a
  TTL, the no-double-execute mechanism: :meth:`claim_many` arbitrates
  via ``BEGIN IMMEDIATE`` so exactly one writer wins a key, a key that
  already has a result is never granted (a ``put`` that lands between
  a miss and a claim cannot trigger a second execution), and a
  claimant that dies simply lets its claim expire.

Each batched call is one round: :meth:`get_many` one ``SELECT`` (per
400 keys), :meth:`claim_many` and :meth:`put_many` one transaction;
the single-key methods are their one-key case.

Keys are stored as their canonical JSON-array text, so any tuple of
JSON scalars works and prefix scans decode losslessly.  Connections
use ``busy_timeout`` + WAL so concurrent writers queue instead of
failing, and every handle is thread-safe behind one lock (SQLite
serializes per-connection access anyway).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..verify.exhaustive import SweepEpoch
from .base import ResultStore, RunRecord, decode_value, encode_value

__all__ = ["SqliteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key     TEXT PRIMARY KEY,
    value   TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS epochs (
    fingerprint TEXT PRIMARY KEY,
    epoch       TEXT NOT NULL,
    shards      INTEGER,
    shard_size  INTEGER,
    created     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    circuit        TEXT NOT NULL,
    circuit_hash   TEXT NOT NULL,
    backend        TEXT NOT NULL,
    executor       TEXT NOT NULL,
    width          INTEGER NOT NULL,
    shards         INTEGER NOT NULL,
    checked        INTEGER NOT NULL,
    failure_count  INTEGER NOT NULL,
    ok             INTEGER NOT NULL,
    result_digest  TEXT NOT NULL,
    mode           TEXT NOT NULL,
    host           TEXT NOT NULL,
    pid            INTEGER NOT NULL,
    timestamp      REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS claims (
    key  TEXT PRIMARY KEY,
    host TEXT NOT NULL,
    pid  INTEGER NOT NULL,
    ts   REAL NOT NULL
);
"""

_RUN_COLUMNS = (
    "circuit", "circuit_hash", "backend", "executor", "width", "shards",
    "checked", "failure_count", "ok", "result_digest", "mode", "host",
    "pid", "timestamp",
)


#: Keys per ``IN (...)`` list, under SQLite's bound-parameter limit.
_BATCH = 400

# Built once: json.dumps with non-default options builds an encoder per
# call, which is most of the cost of encoding one small key or value.
_KEY_JSON = json.JSONEncoder(separators=(",", ":"))
_VALUE_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def _key_text(key: Tuple) -> str:
    return _KEY_JSON.encode(list(key))


class SqliteStore(ResultStore):
    """WAL-mode SQLite store, safe for concurrent multi-process writers.

    ``claim_ttl`` is the default advisory-claim lifetime in seconds: a
    worker that claims a key and dies releases it implicitly after the
    TTL, so a shared sweep degrades to at-least-once execution instead
    of wedging.  ``fsync`` maps to ``synchronous=NORMAL`` (default;
    WAL-safe against process crash) vs ``FULL``.
    """

    backend_name = "sqlite"
    shareable = True

    def __init__(
        self, path: str, claim_ttl: float = 60.0, fsync: bool = False
    ):
        path = os.fspath(path)
        if path != ":memory:":
            path = os.path.abspath(path)
        super().__init__(spec=f"sqlite:{path}")
        self.path = path
        self.claim_ttl = claim_ttl
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            path, timeout=30.0, check_same_thread=False
        )
        self._conn.isolation_level = None  # explicit transactions only
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                "PRAGMA synchronous=%s" % ("FULL" if fsync else "NORMAL")
            )
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.executescript(_SCHEMA)

    # -- keyed results -------------------------------------------------
    def _select(self, sql: str, texts: Sequence[str]) -> List[Tuple]:
        """Rows of ``sql`` over ``texts``, batched.

        Every ``%s`` in ``sql`` is one ``IN (...)`` list of the batch.
        """
        lists = sql.count("%s")
        rows: List[Tuple] = []
        for lo in range(0, len(texts), _BATCH):
            chunk = list(texts[lo : lo + _BATCH])
            marks = ",".join("?" * len(chunk))
            rows += self._conn.execute(
                sql % ((marks,) * lists), chunk * lists
            ).fetchall()
        return rows

    def get(self, key: Tuple) -> Optional[Any]:
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[Tuple]) -> List[Optional[Any]]:
        texts = [_key_text(key) for key in keys]
        with self._lock:
            found = dict(self._select(
                "SELECT key, value FROM results WHERE key IN (%s)", texts
            ))
            hits = sum(1 for text in texts if text in found)
            self.hits += hits
            self.misses += len(texts) - hits
        return [
            decode_value(json.loads(found[text])) if text in found else None
            for text in texts
        ]

    def put(self, key: Tuple, value: Any) -> None:
        self.put_many([(key, value)])

    def put_many(self, items: Sequence[Tuple[Tuple, Any]]) -> None:
        now = time.time()
        rows = [
            (_key_text(key), _VALUE_JSON.encode(encode_value(value)), now)
            for key, value in items
        ]
        if not rows:
            return
        with self._lock:
            # First write wins (like the journal); the claims, if any,
            # are released in the same transaction so waiting claimants
            # see key+result appear atomically.
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.executemany(
                    "INSERT OR IGNORE INTO results(key, value, created) "
                    "VALUES (?, ?, ?)",
                    rows,
                )
                self._conn.executemany(
                    "DELETE FROM claims WHERE key = ?",
                    [(text,) for text, _blob, _ts in rows],
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self.puts += len(rows)

    def scan(self, prefix: Tuple = ()) -> Iterator[Tuple[Tuple, Any]]:
        prefix = tuple(prefix)
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, value FROM results ORDER BY key"
            ).fetchall()
        for key_text, blob in rows:
            key = tuple(json.loads(key_text))
            if key[: len(prefix)] == prefix:
                yield key, decode_value(json.loads(blob))

    def claim(self, key: Tuple, ttl: Optional[float] = None) -> bool:
        return self.claim_many([key], ttl=ttl)[0]

    def claim_many(
        self, keys: Sequence[Tuple], ttl: Optional[float] = None
    ) -> List[bool]:
        ttl = self.claim_ttl if ttl is None else ttl
        texts = [_key_text(key) for key in keys]
        if not texts:
            return []
        now = time.time()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                # A finished key is done, not claimable: refusing it
                # here, inside the transaction, closes the window where
                # another process's put lands between our miss and our
                # claim.  Results come back with a NULL timestamp.
                taken = {
                    text for text, ts in self._select(
                        "SELECT key, NULL FROM results WHERE key IN (%s) "
                        "UNION ALL "
                        "SELECT key, ts FROM claims WHERE key IN (%s)",
                        texts,
                    )
                    if ts is None or now - ts < ttl
                }
                won = [text not in taken for text in texts]
                host, pid = _hostname(), os.getpid()
                self._conn.executemany(
                    "INSERT OR REPLACE INTO claims(key, host, pid, ts) "
                    "VALUES (?, ?, ?, ?)",
                    [
                        (text, host, pid, now)
                        for text, ok in zip(texts, won) if ok
                    ],
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return won

    # -- epochs --------------------------------------------------------
    def record_epoch(
        self,
        epoch: SweepEpoch,
        shards: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> None:
        blob = _VALUE_JSON.encode(epoch.to_dict())
        with self._lock:
            # One statement: autocommit makes it its own transaction.
            self._conn.execute(
                "INSERT OR IGNORE INTO epochs"
                "(fingerprint, epoch, shards, shard_size, created) "
                "VALUES (?, ?, ?, ?, ?)",
                (epoch.fingerprint(), blob, shards, shard_size, time.time()),
            )

    def epochs(self) -> List[SweepEpoch]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT epoch FROM epochs ORDER BY created, fingerprint"
            ).fetchall()
        return [SweepEpoch.from_dict(json.loads(blob)) for (blob,) in rows]

    # -- audit trail ---------------------------------------------------
    def record_run(self, run: RunRecord) -> None:
        data = run.to_dict()
        with self._lock:
            # One statement: autocommit makes it its own transaction.
            self._conn.execute(
                "INSERT INTO runs(%s) VALUES (%s)"
                % (", ".join(_RUN_COLUMNS),
                   ", ".join("?" * len(_RUN_COLUMNS))),
                tuple(
                    int(data[c]) if c == "ok" else data[c]
                    for c in _RUN_COLUMNS
                ),
            )

    def runs(self, limit: Optional[int] = None) -> List[RunRecord]:
        with self._lock:
            if limit:
                rows = self._conn.execute(
                    "SELECT %s FROM runs ORDER BY id DESC LIMIT ?"
                    % ", ".join(_RUN_COLUMNS),
                    (limit,),
                ).fetchall()
                rows.reverse()
            else:
                rows = self._conn.execute(
                    "SELECT %s FROM runs ORDER BY id" % ", ".join(_RUN_COLUMNS)
                ).fetchall()
        return [
            RunRecord.from_dict(dict(zip(_RUN_COLUMNS, row))) for row in rows
        ]

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        return n

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            (results,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            (epochs,) = self._conn.execute(
                "SELECT COUNT(*) FROM epochs"
            ).fetchone()
            (runs,) = self._conn.execute(
                "SELECT COUNT(*) FROM runs"
            ).fetchone()
            (claims,) = self._conn.execute(
                "SELECT COUNT(*) FROM claims"
            ).fetchone()
        return {
            "backend": self.backend_name,
            "path": self.path,
            "results": results,
            "epochs": epochs,
            "runs": runs,
            "claims": claims,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def _hostname() -> str:
    import socket

    return socket.gethostname()
