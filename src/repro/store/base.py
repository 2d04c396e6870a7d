"""The ``ResultStore`` protocol: one seam for all result persistence.

Every backend (memory, journal, sqlite) and the stacking combinator
implement one :class:`ResultStore` interface, and every consumer --
the sharded sweep, the service layer, the distributed workers, the CLI
-- talks to that interface only.

A store holds three record families:

* **results** -- keyed values: a :class:`~repro.verify.exhaustive.
  VerificationResult` per circuit-granularity shard key, or a plain
  JSON value per region-granularity key.  First write wins (matching
  the coordinator's result accounting), so replays are idempotent.
* **epochs** -- the self-describing
  :class:`~repro.verify.exhaustive.SweepEpoch` setup descriptors,
  deduplicated by fingerprint.
* **runs** -- the audit trail: one :class:`RunRecord` per *completed*
  sweep (circuit, content hash, backend, executor, width, result
  digest, timestamp, host), queryable via ``python -m repro store log``.

Values round-trip through pure JSON (:func:`encode_value` /
:func:`decode_value`): no pickles on disk, so a store file is safe to
inspect and to accept from another host.

Concurrency is part of the protocol: :meth:`ResultStore.claim` lets a
worker announce "I am computing this key" before executing, so two
processes sweeping the same circuit against one shared store never
double-execute a shard.  Backends without cross-process visibility
(memory, journal) grant every claim -- their callers already dedup
within the process -- while the sqlite backend arbitrates claims
transactionally and refuses a claim on a key that already has a result.

Every keyed operation has a batched twin -- :meth:`~ResultStore.get_many`,
:meth:`~ResultStore.claim_many`, :meth:`~ResultStore.put_many` -- so a
region sweep pays one store round per g-row range, not one per output
cone.  The base class loops over the single-key methods; the sqlite
backend runs each batch as one statement or one transaction, the
journal appends a batch with one write and one fsync, and the stack
makes one batched call per layer.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..verify.exhaustive import SweepEpoch, VerificationResult

__all__ = [
    "RunRecord",
    "ResultStore",
    "decode_value",
    "encode_value",
    "result_digest",
    "result_from_record",
    "result_to_record",
]


# ----------------------------------------------------------------------
# Value codec: VerificationResult <-> pure JSON
# ----------------------------------------------------------------------
def result_to_record(result: VerificationResult) -> Dict[str, Any]:
    """Exact JSON form of a shard result (no derived fields)."""
    out: Dict[str, Any] = {
        "checked": result.checked,
        "failure_count": result.failure_count,
        "failures": list(result.failures),
        "truncated": result.truncated,
    }
    if result.elapsed is not None:
        out["elapsed"] = result.elapsed
    return out


def result_from_record(data: Dict[str, Any]) -> VerificationResult:
    return VerificationResult(
        checked=int(data["checked"]),
        failure_count=int(data["failure_count"]),
        failures=[str(m) for m in data["failures"]],
        truncated=bool(data["truncated"]),
        elapsed=data.get("elapsed"),
    )


def encode_value(value: Any) -> Dict[str, Any]:
    """One-key envelope distinguishing typed results from plain JSON.

    ``{"result": ...}`` carries a :class:`VerificationResult`; any
    other JSON value (the per-region outcome dicts) travels as
    ``{"value": ...}``, so new record kinds need no migration.
    """
    if isinstance(value, VerificationResult):
        return {"result": result_to_record(value)}
    return {"value": value}


def decode_value(envelope: Dict[str, Any]) -> Any:
    if "result" in envelope:
        return result_from_record(envelope["result"])
    return envelope.get("value")


def result_digest(result: VerificationResult) -> str:
    """Stable digest of a merged report (hex, 16 chars).

    Covers exactly the deterministic fields -- counts, messages,
    truncation -- and excludes ``elapsed``, so two runs of the same
    sweep always digest identically and an audit can assert "same
    answer" across hosts and executors by comparing digests alone.
    """
    blob = json.dumps(
        {
            "checked": result.checked,
            "failure_count": result.failure_count,
            "failures": list(result.failures),
            "truncated": result.truncated,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Audit records
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One completed sweep, as the audit trail remembers it."""

    circuit: str
    circuit_hash: str
    backend: str
    executor: str
    width: int
    shards: int
    checked: int
    failure_count: int
    ok: bool
    result_digest: str
    mode: str  # "shards" (circuit-granularity) or "regions"
    host: str
    pid: int
    timestamp: float

    def to_dict(self) -> Dict[str, Any]:
        # Every field is a scalar, so the instance dict is the record;
        # `asdict` would deep-copy it field by field.
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        return cls(
            circuit=str(data["circuit"]),
            circuit_hash=str(data["circuit_hash"]),
            backend=str(data["backend"]),
            executor=str(data["executor"]),
            width=int(data["width"]),
            shards=int(data["shards"]),
            checked=int(data["checked"]),
            failure_count=int(data["failure_count"]),
            ok=bool(data["ok"]),
            result_digest=str(data["result_digest"]),
            mode=str(data.get("mode", "shards")),
            host=str(data.get("host", "")),
            pid=int(data.get("pid", 0)),
            timestamp=float(data["timestamp"]),
        )


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class ResultStore:
    """Base class / protocol for verification-result stores.

    Subclasses implement :meth:`get`, :meth:`put`, :meth:`record_epoch`,
    :meth:`epochs`, :meth:`record_run`, and :meth:`runs`; the base
    supplies counters, claim defaults, the batched twins of the keyed
    methods, and context-manager plumbing.  Keys are tuples of
    JSON scalars (the shard/region keys built by
    :mod:`repro.verify.parallel`); values are
    :class:`VerificationResult` instances or plain JSON values.
    ``hits``/``misses``/``puts`` count keys, batched or not.
    """

    #: Registry name of the backend ("memory", "journal", "sqlite", ...).
    backend_name: str = "base"
    #: True when independent handles on :attr:`spec` observe each
    #: other's writes (the sqlite backend) -- the gate for shipping the
    #: spec to pool/remote workers so they consult the store directly.
    shareable: bool = False

    def __init__(self, spec: Optional[str] = None):
        self.spec = spec
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -- keyed results -------------------------------------------------
    def get(self, key: Tuple) -> Optional[Any]:
        raise NotImplementedError

    def put(self, key: Tuple, value: Any) -> None:
        raise NotImplementedError

    def claim(self, key: Tuple, ttl: Optional[float] = None) -> bool:
        """Try to announce "I am computing ``key``"; True on success.

        A granted claim is advisory and expires after ``ttl`` seconds
        (so a crashed claimant never wedges the sweep); :meth:`put` on
        the key releases it.  Backends without cross-process claim
        arbitration grant every request -- their callers already
        deduplicate within the process.
        """
        return True

    # -- batched keyed results -----------------------------------------
    def get_many(self, keys: Sequence[Tuple]) -> List[Optional[Any]]:
        """:meth:`get` for each key, in order (``None`` for a miss)."""
        return [self.get(key) for key in keys]

    def put_many(self, items: Sequence[Tuple[Tuple, Any]]) -> None:
        """:meth:`put` for each ``(key, value)``, releasing its claim."""
        for key, value in items:
            self.put(key, value)

    def claim_many(
        self, keys: Sequence[Tuple], ttl: Optional[float] = None
    ) -> List[bool]:
        """:meth:`claim` for each key: True where this caller now holds it."""
        return [self.claim(key, ttl=ttl) for key in keys]

    # -- epochs --------------------------------------------------------
    def record_epoch(
        self,
        epoch: SweepEpoch,
        shards: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> None:
        raise NotImplementedError

    def epochs(self) -> List[SweepEpoch]:
        raise NotImplementedError

    # -- audit trail ---------------------------------------------------
    def record_run(self, run: RunRecord) -> None:
        raise NotImplementedError

    def runs(self, limit: Optional[int] = None) -> List[RunRecord]:
        """Audit records, oldest first; ``limit`` keeps the newest N."""
        raise NotImplementedError

    # -- shared plumbing -----------------------------------------------
    def share_spec(self) -> Optional[str]:
        """Spec workers may re-open for direct store access, if safe."""
        return self.spec if self.shareable else None

    def counters(self) -> Dict[str, Any]:
        """The observability block surfaced by ``verify --json``."""
        return {
            "backend": self.backend_name,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
        }

    def stats(self) -> Dict[str, Any]:
        return self.counters()

    def close(self) -> None:
        pass

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def consult(
    store: ResultStore,
    keys: Sequence[Tuple],
    execute: Callable[[List[int]], List[Any]],
    ttl: float = 60.0,
    poll: float = 0.02,
) -> List[Any]:
    """Get-or-compute every key of a batch on a shared store.

    The worker-side consult of a region sweep: one :meth:`claim_many`
    re-checks and claims the keys in one transaction (a shared store
    refuses claims on finished keys), and ``execute(indices)`` computes
    the won keys (ascending indices into ``keys``) in one go.  Refused
    keys are read back at once; keys another live claimant holds are
    polled until their values appear, or until the claim expires after
    ``ttl`` and this caller takes the key over.  That keeps two
    processes sweeping one circuit against one store from
    double-executing.  Nothing is written here: the caller stores what
    it computed, and :meth:`put_many` releases the claims.  Returns the
    values in key order.
    """
    values: List[Any] = [None] * len(keys)
    pending = list(range(len(keys)))
    while pending:
        granted = store.claim_many([keys[i] for i in pending], ttl=ttl)
        won = [i for i, ok in zip(pending, granted) if ok]
        if won:
            for i, value in zip(won, execute(won)):
                values[i] = value
        refused = [i for i, ok in zip(pending, granted) if not ok]
        if refused:
            hits = store.get_many([keys[i] for i in refused])
            for i, hit in zip(refused, hits):
                values[i] = hit
        pending = [i for i in refused if values[i] is None]
        if pending:
            time.sleep(poll)
    return values

