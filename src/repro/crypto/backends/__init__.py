"""Pluggable arithmetic backends for the crypto layer.

The ideal-group-model :class:`~repro.crypto.group.BilinearGroup` delegates all
big-integer arithmetic to a :class:`~repro.crypto.backends.base.GroupBackend`.
This package holds the backend registry plus the two built-in backends:

* ``reference`` -- pure Python ``int`` arithmetic, always available; the
  ground truth every other backend is validated against.
* ``gmpy2`` -- GMP arithmetic through the optional :mod:`gmpy2` package;
  auto-selected when importable, silently skipped otherwise.

Selection order for :func:`get_backend` when no explicit choice is given:

1. the ``REPRO_CRYPTO_BACKEND`` environment variable, if set;
2. the available registered backend with the highest ``priority``.

Third-party backends register with :func:`register_backend`; anything that
implements the two abstract :class:`GroupBackend` methods (native int
conversion, ``powmod``) plugs in without touching the group, HVE or protocol
layers -- the vectorized contract (``powmod_base_fixed``, ``multi_powmod``,
``burn_powmods``, ``fused_eval``) has generic implementations a backend only
overrides when it can do better natively.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.crypto.backends.base import FusedProgram, FusedWorklist, GroupBackend
from repro.crypto.backends.fixedbase import FixedBaseTable
from repro.crypto.backends.gmp import Gmpy2Backend
from repro.crypto.backends.reference import ReferenceBackend

__all__ = [
    "GroupBackend",
    "FusedProgram",
    "FusedWorklist",
    "FixedBaseTable",
    "ReferenceBackend",
    "Gmpy2Backend",
    "register_backend",
    "backend_names",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "BACKEND_ENV_VAR",
]

#: Environment variable that forces a backend for the whole process.
BACKEND_ENV_VAR = "REPRO_CRYPTO_BACKEND"

_REGISTRY: dict[str, type[GroupBackend]] = {}
_INSTANCES: dict[str, GroupBackend] = {}


def register_backend(backend_cls: type[GroupBackend]) -> type[GroupBackend]:
    """Register a backend class under its ``name`` (usable as a decorator).

    Re-registering a name replaces the previous class, which lets tests and
    downstream packages shadow a built-in backend.
    """
    name = getattr(backend_cls, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError("a backend class must define a non-empty string 'name'")
    _REGISTRY[name] = backend_cls
    _INSTANCES.pop(name, None)
    return backend_cls


def backend_names() -> list[str]:
    """All registered backend names, best priority first."""
    return sorted(_REGISTRY, key=lambda n: (-_REGISTRY[n].priority, n))


def available_backends() -> list[str]:
    """Registered backends whose dependencies are importable, best first."""
    return [name for name in backend_names() if _REGISTRY[name].available()]


def default_backend_name() -> str:
    """The backend :func:`get_backend` resolves to without an explicit choice.

    An environment override is validated immediately: a typo in
    ``REPRO_CRYPTO_BACKEND`` fails here, at the misconfiguration, rather
    than at some later group construction.
    """
    forced = os.environ.get(BACKEND_ENV_VAR)
    if forced:
        if forced not in _REGISTRY:
            raise ValueError(
                f"{BACKEND_ENV_VAR}={forced!r} names an unknown crypto backend; "
                f"registered: {backend_names()}"
            )
        if not _REGISTRY[forced].available():
            raise RuntimeError(
                f"{BACKEND_ENV_VAR}={forced!r} names a backend that is unavailable on "
                f"this host (missing dependency); available: {available_backends()}"
            )
        return forced
    candidates = available_backends()
    if not candidates:  # pragma: no cover - reference is always available
        raise RuntimeError("no crypto backend is available")
    return candidates[0]


def get_backend(backend: Optional[Union[str, GroupBackend]] = None) -> GroupBackend:
    """Resolve ``backend`` to a live :class:`GroupBackend` instance.

    Accepts an instance (returned as-is), a registered name, or ``None`` for
    the default selection (environment override, then best available).
    Instances are cached per name: two groups requesting ``"reference"`` share
    one stateless backend object.
    """
    if isinstance(backend, GroupBackend):
        return backend
    name = backend if backend is not None else default_backend_name()
    backend_cls = _REGISTRY.get(name)
    if backend_cls is None:
        raise ValueError(f"unknown crypto backend {name!r}; registered: {backend_names()}")
    if not backend_cls.available():
        raise RuntimeError(
            f"crypto backend {name!r} is registered but unavailable on this host "
            f"(missing dependency); available: {available_backends()}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = backend_cls()
        _INSTANCES[name] = instance
    return instance


register_backend(ReferenceBackend)
register_backend(Gmpy2Backend)
