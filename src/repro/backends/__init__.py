"""Plane backends: who runs the exhaustive-verification shard.

The compiled engine, the exhaustive verifier, and the batched network
simulator all operate on **planes** -- one Python int per plane, one
bit per batch lane, two planes per net (:mod:`repro.circuits.compiled`).
Every backend stores planes the same way, so reports never depend on
the backend.  What a :class:`~repro.backends.base.PlaneBackend` owns is
the verification shard and its sizing, chosen from a small name
registry that mirrors the engine registry in
:mod:`repro.networks.simulate` and the executor registry in
:mod:`repro.verify.parallel`:

* ``"bigint"`` -- the Python reference shard engine (the default),
* ``"native"`` -- each exhaustive-verification shard run as one call
  of a C kernel built on first use; on hosts without a compiler, or
  under ``REPRO_NO_NATIVE=1``, the shard runs the Python reference
  after a one-time notice (:mod:`repro.backends.native`).

``"auto"`` is an *alias*, not a registered backend: it resolves to
``native`` when the kernel is built on this host and ``bigint``
otherwise (:func:`resolve_backend_name`).  ``verify --backend``
defaults to it; a sweep resolves it once, up front, so cache and epoch
keys name a concrete backend on every host.

A backend is an argument of the verification sweep only
(``verify_two_sort_sharded(backend=...)``, ``verify --backend``, and
the sweep's pool initializers, which forward it by name) and of
``compile_circuit(..., backend=...)``, whose cache keys on
``(circuit.version, name)``.  Everywhere else -- sorts, scalar
evaluation -- programs compile for the default, and ``None`` means
``"bigint"`` on every host.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ._kernel import native_disabled_by_env
from .base import PlaneBackend
from .bigint import BigIntBackend
from .native import NativeBackend

__all__ = [
    "AUTO_BACKEND",
    "BigIntBackend",
    "NativeBackend",
    "PlaneBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "known_backend_names",
    "native_disabled_by_env",
    "register_backend",
    "resolve_backend_name",
]

#: The auto-selection alias accepted wherever a backend name is.
AUTO_BACKEND = "auto"

_BACKENDS: Dict[str, PlaneBackend] = {}


def register_backend(name: str, backend: PlaneBackend) -> None:
    """Register (or replace) a plane backend under ``name``.

    The instance's ``name`` attribute is aligned with the registry key
    so compile caches keyed on it stay consistent.
    """
    backend.name = name
    _BACKENDS[name] = backend


def available_backends() -> List[str]:
    return sorted(_BACKENDS)


def known_backend_names() -> List[str]:
    """Every name accepted where a backend name is expected.

    ``available_backends()`` plus the ``auto`` alias -- what CLI
    validation and service-request validation check against.
    """
    return sorted([*_BACKENDS, AUTO_BACKEND])


def resolve_backend_name(name: Optional[str]) -> str:
    """Resolve ``auto`` (or ``None``) to a concrete registered name.

    ``auto`` picks ``native`` when its kernel is built on this host and
    ``bigint`` otherwise; resolving may therefore trigger the one-time
    kernel build.  Concrete names pass through unchanged (including
    unknown ones -- :func:`get_backend` owns that error).
    """
    if name is None:
        return default_backend_name()
    if name == AUTO_BACKEND:
        native = _BACKENDS.get("native")
        if native is not None and getattr(native, "built", False):
            return "native"
        return "bigint"
    return name


def default_backend_name() -> str:
    """What ``None`` means wherever a backend is named: ``bigint``."""
    return "bigint"


def get_backend(
    backend: Union[str, PlaneBackend, None] = None
) -> PlaneBackend:
    """Resolve a backend argument: instance, registry name, or default.

    ``None`` means ``bigint`` (:func:`default_backend_name`); a
    :class:`PlaneBackend` instance passes through, so internal layers
    can resolve once and hand the object down.
    """
    if isinstance(backend, PlaneBackend):
        return backend
    name = resolve_backend_name(backend)
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown plane backend {name!r}; available: {available_backends()}"
        ) from None


register_backend("bigint", BigIntBackend())
register_backend("native", NativeBackend())
