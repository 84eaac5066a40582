"""The approach registry behind :mod:`repro.api`.

Factories register under a short name ("purple", "dail", …) and are
constructed uniformly through :func:`create`::

    @register("myapproach")
    def _make(*, llm=None, train=None, **config):
        ...

Every factory takes keyword-only arguments and accepts at least ``llm``
(a provider, ignored by LLM-free approaches) and ``train`` (a
demonstration :class:`~repro.spider.dataset.Dataset`, or None to defer
``fit``).  Further keywords are approach-specific configuration; unknown
ones raise ``TypeError`` from the factory itself.

This module keeps zero imports from the approach packages — they import
*us* to self-register — and loads the built-in approaches lazily on the
first :func:`create`/:func:`available` call, so importing
``repro.api.registry`` from deep inside ``repro.core`` can never cycle.
"""

from __future__ import annotations

import threading
from importlib import import_module
from typing import Callable, Optional

#: Modules whose import registers the built-in approaches.
_BUILTIN_MODULES = ("repro.core.pipeline", "repro.baselines")

_lock = threading.Lock()
_factories: dict[str, Callable] = {}
_builtins_loaded = False


class UnknownApproachError(KeyError):
    """No approach is registered under the requested name."""


def register(name: str, factory: Optional[Callable] = None):
    """Register ``factory`` under ``name``; usable as a decorator.

    Re-registering a name is an error unless it is the same factory
    (idempotent re-imports are fine).  What an approach can do beyond
    the protocol is read off each instance by
    :func:`repro.api.capabilities`.
    """

    def _add(factory: Callable) -> Callable:
        with _lock:
            existing = _factories.get(name)
            if existing is not None and existing is not factory:
                raise ValueError(f"approach {name!r} is already registered")
            _factories[name] = factory
        return factory

    if factory is None:
        return _add
    return _add(factory)


def create(name: str, **kwargs):
    """Construct the approach registered under ``name``.

    Keyword arguments go to the factory unchanged; the shared ones are
    ``llm`` and ``train``.  Raises :class:`UnknownApproachError` for an
    unregistered name.
    """
    _ensure_builtins()
    with _lock:
        factory = _factories.get(name)
    if factory is None:
        raise UnknownApproachError(
            f"unknown approach {name!r}; available: {', '.join(available())}"
        )
    return factory(**kwargs)


def available() -> tuple:
    """The registered approach names, sorted."""
    _ensure_builtins()
    with _lock:
        return tuple(sorted(_factories))


def _ensure_builtins() -> None:
    """Import the modules that register the built-in approaches."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        import_module(module)
    _builtins_loaded = True
