"""The ``"bigint"`` backend: the Python reference shard engine.

Both backends store a plane as one Python int (bit ``j`` = lane ``j``);
CPython big-int bitwise ops run at C speed over 30-bit limbs, which is
what gave the compiled engine its first three orders of magnitude.
``bigint`` is :class:`~repro.backends.base.PlaneBackend` itself under a
registry name: it packs each verification shard's pair product with
shifts and multiplies and runs the shard in Python.  ``"native"`` is
this class with the shard moved into a C kernel
(:mod:`repro.backends.native`).
"""

from __future__ import annotations

from .base import PlaneBackend

__all__ = ["BigIntBackend"]


class BigIntBackend(PlaneBackend):
    """The reference shard engine, registered as ``bigint``."""

    name = "bigint"
