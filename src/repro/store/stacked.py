"""The ``stacked`` combinator: layered stores with backfill.

A combinator over any number of :class:`~repro.store.base.ResultStore`
layers.  The canonical uses:

* service layer: ``StackedStore(sqlite_or_journal, memory_lru)`` --
  durable ground truth in front, memory speed on repeat sweeps;
* a request-scoped store (or ``--checkpoint`` journal) in front of the
  server-wide one.

Lookups try layers in order; a hit at any layer is backfilled into
every *other* layer, so all layers converge on everything any of them
knows.  Batches stay batches: :meth:`StackedStore.get_many` asks each
layer once for the keys still missing and backfills each layer with
one ``put_many``, writes are one ``put_many`` per layer, and claims go
to the one shareable layer.  Writes, epoch records, and audit records
go to every layer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..verify.exhaustive import SweepEpoch
from .base import ResultStore, RunRecord

__all__ = ["StackedStore"]


class StackedStore(ResultStore):
    """Check layers in order, backfill on hit, write through to all.

    ``None`` layers are dropped, so a caller can stack an optional
    store without branching.  The stack does not own its layers:
    :meth:`close` is a no-op so a caller may stack a request-scoped
    store over a long-lived server-wide one without the request tearing
    the server store down.
    """

    backend_name = "stacked"

    def __init__(self, *layers: Optional[ResultStore]):
        self.layers: Tuple[ResultStore, ...] = tuple(
            layer for layer in layers if layer is not None
        )
        if not self.layers:
            raise ValueError("StackedStore needs at least one layer")
        super().__init__(
            spec="stacked(%s)"
            % ",".join(layer.spec or "?" for layer in self.layers)
        )

    @property
    def shareable(self) -> bool:  # type: ignore[override]
        return any(layer.shareable for layer in self.layers)

    def share_spec(self) -> Optional[str]:
        for layer in self.layers:
            spec = layer.share_spec()
            if spec is not None:
                return spec
        return None

    # -- keyed results -------------------------------------------------
    def get(self, key: Tuple) -> Optional[Any]:
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[Tuple]) -> List[Optional[Any]]:
        values: List[Optional[Any]] = [None] * len(keys)
        # The layer each key was found in.
        source: List[Optional[int]] = [None] * len(keys)
        pending = list(range(len(keys)))
        for n, layer in enumerate(self.layers):
            if not pending:
                break
            hits = layer.get_many([keys[i] for i in pending])
            for i, hit in zip(pending, hits):
                if hit is not None:
                    values[i], source[i] = hit, n
            pending = [i for i in pending if source[i] is None]
        for n, layer in enumerate(self.layers):
            backfill = [
                (keys[i], values[i])
                for i in range(len(keys))
                if source[i] is not None and source[i] != n
            ]
            if backfill:
                layer.put_many(backfill)
        self.hits += len(keys) - len(pending)
        self.misses += len(pending)
        return values

    def put(self, key: Tuple, value: Any) -> None:
        self.put_many([(key, value)])

    def put_many(self, items: Sequence[Tuple[Tuple, Any]]) -> None:
        self.puts += len(items)
        for layer in self.layers:
            layer.put_many(items)

    def claim(self, key: Tuple, ttl: Optional[float] = None) -> bool:
        return self.claim_many([key], ttl=ttl)[0]

    def claim_many(
        self, keys: Sequence[Tuple], ttl: Optional[float] = None
    ) -> List[bool]:
        # Arbitration belongs to the shared layer (there is at most one
        # that other processes can see); local-only stacks grant all.
        for layer in self.layers:
            if layer.shareable:
                return layer.claim_many(keys, ttl=ttl)
        return [True] * len(keys)

    # -- epochs / audit ------------------------------------------------
    def record_epoch(
        self,
        epoch: SweepEpoch,
        shards: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> None:
        for layer in self.layers:
            layer.record_epoch(epoch, shards=shards, shard_size=shard_size)

    def epochs(self) -> List[SweepEpoch]:
        seen: Dict[str, SweepEpoch] = {}
        for layer in self.layers:
            for epoch in layer.epochs():
                seen.setdefault(epoch.fingerprint(), epoch)
        return list(seen.values())

    def record_run(self, run: RunRecord) -> None:
        for layer in self.layers:
            layer.record_run(run)

    def runs(self, limit: Optional[int] = None) -> List[RunRecord]:
        # The front layer is ground truth for the audit trail (every
        # record_run reached all layers anyway).
        return self.layers[0].runs(limit)

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out = self.counters()
        out["layers"] = [layer.stats() for layer in self.layers]
        return out

    def close(self) -> None:
        pass  # layers are owned by their creators
