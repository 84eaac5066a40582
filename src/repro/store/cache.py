"""Process-wide sharing of loaded demonstration stores.

Workers (thread pools, repeated ``fit`` calls in one process, benchmark
zoo construction) must not each pay the load cost of the same store.
:func:`shared_store` keeps one read-only :class:`~repro.store.store.DemoStore`
per ``(path, pool identity)`` behind a lock: the first caller opens (or
builds) it, everyone after gets the same object back and counts an
``index.cache_hit``.

Sharing is safe because nothing mutates a store after :func:`shared_store`
hands it out — the automaton is only read during selection, and
incremental :meth:`~repro.store.store.DemoStore.add` is an offline
authoring operation, not a serving-path one.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional

from repro.obs import runtime as obs
from repro.store.hashing import config_digest, pool_hash
from repro.store.store import DemoStore

_lock = threading.Lock()
_stores: dict = {}  # (resolved path, pool_hash, config_hash) -> DemoStore


def shared_store(
    path,
    demo_sqls,
    build_config: Optional[dict] = None,
    offline: bool = False,
) -> DemoStore:
    """One shared store per (path, pool) for the whole process.

    The identity key includes the pool's content hash and the build
    config digest, so a changed pool at the same path is a different
    entry — never a silently stale hit.

    :param path: on-disk location of the store.
    :param demo_sqls: the live demonstration pool.
    :param build_config: identity-bearing build settings.
    :param offline: strict mode, forwarded to :meth:`DemoStore.open`.
    :return: the shared, read-only store instance.
    """
    demo_sqls = list(demo_sqls)
    key = (
        str(Path(path).resolve()),
        pool_hash(demo_sqls),
        config_digest(dict(build_config or {})),
    )
    with _lock:
        cached = _stores.get(key)
        if cached is not None:
            obs.count("index.cache_hit")
            return cached
        store = DemoStore.open(
            path, demo_sqls, build_config=build_config, offline=offline
        )
        _stores[key] = store
        return store


def clear_shared_stores() -> None:
    """Drop every cached store (tests and long-lived tools)."""
    with _lock:
        _stores.clear()
