"""The persistent demonstration store.

A :class:`DemoStore` is the retrieval index of §IV-C turned into a
precomputed, versioned asset.  An offline build parses each pool
demonstration **once**, records its detail-level skeleton plus hardness
and token-cost metadata, and persists everything in the single-file
container of :mod:`repro.store.format`.  Loading reconstructs the four
:class:`~repro.core.automaton.LevelAutomaton`\\ s from the stored
skeletons without touching the SQL parser, which is what makes the warm
path fast.

Identity and staleness are decided by the manifest: a chained
content hash over the ordered pool (:mod:`repro.store.hashing`), the
skeleton schema version, and a digest of the build configuration.
:meth:`DemoStore.open` compares all three against the live pool and
either reuses, rebuilds, or — in offline/strict mode — refuses.

Every build/load/probe is instrumented through :mod:`repro.obs`:
``index.build_ms`` / ``index.load_ms`` histograms, ``index.builds`` /
``index.loads`` / ``index.cache_hit`` / ``index.rebuilds`` counters,
per-level ``index.states`` gauges, and an ``index.build`` or
``index.load`` span when an observer is active.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.automaton import AutomatonIndex
from repro.llm.tokenizer import count_tokens
from repro.obs import runtime as obs
from repro.sqlkit.abstraction import abstract_tokens
from repro.sqlkit.hardness import classify_hardness
from repro.sqlkit.skeleton import skeleton_tokens
from repro.store.format import (
    FORMAT_VERSION,
    CorruptStoreError,
    StaleStoreError,
    StoreVersionError,
    read_manifest,
    read_store,
    write_store,
)
from repro.store.hashing import (
    EMPTY_POOL_HASH,
    config_digest,
    extend_pool_hash,
    pool_hash,
)

#: Version of the skeletonization/abstraction scheme baked into stored
#: sequences.  Bump whenever :func:`repro.sqlkit.skeleton.skeleton_tokens`
#: or :func:`repro.sqlkit.abstraction.abstract_tokens` change behaviour —
#: stores from an older scheme are then stale by construction.
SKELETON_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DemoRecord:
    """One demonstration's precomputed artifacts.

    ``hardness`` and ``token_cost`` ride along so downstream consumers
    (budgeted prompting, hardness-bucketed reporting) never re-derive
    them from raw SQL.
    """

    sql: str
    skeleton: tuple
    hardness: str
    token_cost: int

    def as_row(self) -> list:
        """Compact JSON row form: ``[sql, [tokens...], hardness, cost]``."""
        return [self.sql, list(self.skeleton), self.hardness, self.token_cost]

    @staticmethod
    def from_row(row: list) -> "DemoRecord":
        """Reconstruct from :meth:`as_row` output."""
        sql, tokens, hardness, cost = row
        return DemoRecord(
            sql=sql, skeleton=tuple(tokens), hardness=hardness, token_cost=cost
        )


@dataclass
class StoreManifest:
    """Identity and provenance of one persisted store.

    Keys this build does not know — such as the ``retrieval`` block of
    containers written with an embedding index by earlier builds — are
    ignored on read and not written back.
    """

    pool_hash: str
    pool_size: int
    build_config: dict = field(default_factory=dict)
    config_hash: str = ""
    schema_version: int = SKELETON_SCHEMA_VERSION
    format_version: int = FORMAT_VERSION
    state_counts: dict = field(default_factory=dict)  # level(str) -> count

    def __post_init__(self):
        if not self.config_hash:
            self.config_hash = config_digest(self.build_config)

    def as_dict(self) -> dict:
        """JSON form written into the container header."""
        return {
            "format_version": self.format_version,
            "schema_version": self.schema_version,
            "pool_hash": self.pool_hash,
            "pool_size": self.pool_size,
            "build_config": dict(self.build_config),
            "config_hash": self.config_hash,
            "state_counts": {str(k): v for k, v in self.state_counts.items()},
        }

    @staticmethod
    def from_dict(data: dict) -> "StoreManifest":
        """Reconstruct from :meth:`as_dict` output."""
        return StoreManifest(
            pool_hash=data["pool_hash"],
            pool_size=data["pool_size"],
            build_config=dict(data.get("build_config", {})),
            config_hash=data.get("config_hash", ""),
            schema_version=data.get("schema_version", 0),
            format_version=data.get("format_version", 0),
            state_counts=dict(data.get("state_counts", {})),
        )


def _record_for(sql: str) -> DemoRecord:
    tokens = tuple(skeleton_tokens(sql))
    return DemoRecord(
        sql=sql,
        skeleton=tokens,
        hardness=str(classify_hardness(sql)),
        token_cost=count_tokens(sql),
    )


@dataclass
class DemoStore:
    """An indexed demonstration pool with a persistent on-disk form."""

    manifest: StoreManifest
    index: AutomatonIndex
    demos: list = field(default_factory=list)  # list[DemoRecord]
    path: Optional[Path] = None

    # -- construction ----------------------------------------------------------

    @staticmethod
    def build(demo_sqls, build_config: Optional[dict] = None) -> "DemoStore":
        """Index a pool from raw SQL — the offline/cold build.

        Each demonstration is parsed exactly once; its detail skeleton,
        hardness class, and token cost are precomputed here so neither
        the warm load nor any later consumer re-parses the pool.

        :param demo_sqls: gold SQL strings in pool order.
        :param build_config: free-form dict folded into the manifest
            identity (e.g. the abstraction settings a deployment pins).
        :return: the built, not-yet-saved store.
        """
        started = time.perf_counter()
        with obs.span("index.build"):
            demos = [_record_for(sql) for sql in demo_sqls]
            index = AutomatonIndex.from_skeletons(d.skeleton for d in demos)
            manifest = StoreManifest(
                pool_hash=pool_hash(d.sql for d in demos),
                pool_size=len(demos),
                build_config=dict(build_config or {}),
                state_counts=index.end_state_counts(),
            )
            store = DemoStore(manifest=manifest, index=index, demos=demos)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        obs.count("index.builds")
        obs.observe("index.build_ms", elapsed_ms)
        _publish_state_gauges(manifest)
        return store

    def add(self, sql: str) -> int:
        """Incrementally append one demonstration — equals a full rebuild.

        Parses only the new SQL, feeds all four level automatons, and
        extends the manifest's chained pool hash in O(1).  The in-memory
        result (and a subsequent :meth:`save`) is identical to
        rebuilding the store from the extended pool.

        :param sql: the appended demonstration's gold SQL.
        :return: the new demonstration's pool index.
        """
        record = _record_for(sql)
        demo_index = len(self.demos)
        self.demos.append(record)
        for lvl in (1, 2, 3, 4):
            self.index.levels[lvl].add(
                abstract_tokens(list(record.skeleton), lvl), demo_index
            )
        self.manifest.pool_hash = extend_pool_hash(
            self.manifest.pool_hash, sql
        )
        self.manifest.pool_size = len(self.demos)
        self.manifest.state_counts = self.index.end_state_counts()
        return demo_index

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> Path:
        """Serialize to the single-file container; returns the path."""
        path = Path(path)
        payload = {"demos": [d.as_row() for d in self.demos]}
        write_store(path, self.manifest.as_dict(), payload)
        self.path = path
        return path

    @staticmethod
    def load(path) -> "DemoStore":
        """Load a persisted store — the warm path, no SQL parsing.

        The four level automatons are reconstructed from the stored
        detail skeletons (token-list abstraction and trie insertion
        only), so loading is independent of SQL text complexity.
        Payload sections other than ``demos`` (the embedding section of
        containers written by earlier builds) are ignored.

        :param path: a file written by :meth:`save`.
        :return: the loaded store.
        :raises CorruptStoreError: truncated/garbled file or bad checksum.
        :raises StoreVersionError: incompatible container or skeleton
            schema version.
        """
        started = time.perf_counter()
        with obs.span("index.load", path=str(path)):
            manifest_dict, payload = read_store(path)
            manifest = StoreManifest.from_dict(manifest_dict)
            if manifest.schema_version != SKELETON_SCHEMA_VERSION:
                raise StoreVersionError(
                    f"store skeleton schema v{manifest.schema_version}; "
                    f"this build uses v{SKELETON_SCHEMA_VERSION}"
                )
            demos = [DemoRecord.from_row(row) for row in payload["demos"]]
            if len(demos) != manifest.pool_size:
                raise CorruptStoreError(
                    f"manifest says {manifest.pool_size} demos, payload "
                    f"has {len(demos)}"
                )
            index = AutomatonIndex.from_skeletons(d.skeleton for d in demos)
            store = DemoStore(
                manifest=manifest, index=index, demos=demos, path=Path(path)
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        obs.count("index.loads")
        obs.observe("index.load_ms", elapsed_ms)
        _publish_state_gauges(manifest)
        return store

    # -- warm start ------------------------------------------------------------

    @staticmethod
    def open(
        path,
        demo_sqls,
        build_config: Optional[dict] = None,
        offline: bool = False,
    ) -> "DemoStore":
        """Open a store for a live pool, with staleness detection.

        The decision table:

        * file missing → build from ``demo_sqls`` and save (offline
          mode raises :exc:`StaleStoreError` instead);
        * manifest pool-hash/config/schema mismatch, or a corrupt file
          → rebuild and overwrite (offline mode raises);
        * manifest matches → load and reuse (``index.cache_hit``).

        :param path: where the store lives (created when absent).
        :param demo_sqls: the live pool the index must correspond to.
        :param build_config: identity-bearing build settings.
        :param offline: strict mode — never build, error on any
            mismatch; for deployments where index builds are a
            controlled offline step.
        :return: a fresh store for exactly ``demo_sqls``.
        """
        path = Path(path)
        demo_sqls = list(demo_sqls)
        expected_hash = pool_hash(demo_sqls)
        expected_config = config_digest(dict(build_config or {}))

        def _rebuild(reason: str) -> "DemoStore":
            if offline:
                raise StaleStoreError(
                    f"offline index mode: store at {path} is unusable "
                    f"({reason}) and rebuilds are disabled"
                )
            obs.count("index.rebuilds")
            obs.event("index.rebuild", reason=reason, path=str(path))
            store = DemoStore.build(demo_sqls, build_config=build_config)
            store.save(path)
            return store

        if not path.exists():
            return _rebuild("store file missing")
        try:
            manifest = StoreManifest.from_dict(read_manifest(path))
        except (CorruptStoreError, StoreVersionError) as exc:
            return _rebuild(f"unreadable manifest: {exc}")
        if manifest.schema_version != SKELETON_SCHEMA_VERSION:
            return _rebuild(
                f"skeleton schema v{manifest.schema_version} != "
                f"v{SKELETON_SCHEMA_VERSION}"
            )
        if manifest.pool_hash != expected_hash:
            return _rebuild("pool content hash mismatch")
        if manifest.config_hash != expected_config:
            return _rebuild("build config mismatch")
        try:
            store = DemoStore.load(path)
        except (CorruptStoreError, StoreVersionError) as exc:
            return _rebuild(f"corrupt payload: {exc}")
        obs.count("index.cache_hit")
        return store

    # -- verification ----------------------------------------------------------

    def verify_against(self, demo_sqls) -> list:
        """Mismatches between this store and a live pool (empty = fresh).

        :param demo_sqls: the live pool's gold SQL strings.
        """
        problems = []
        live = list(demo_sqls)
        expected = pool_hash(live)
        if self.manifest.pool_hash != expected:
            problems.append(
                f"pool hash mismatch: store {self.manifest.pool_hash}, "
                f"live pool {expected}"
            )
        if self.manifest.pool_size != len(live):
            problems.append(
                f"pool size mismatch: store {self.manifest.pool_size}, "
                f"live pool {len(live)}"
            )
        return problems

    def self_check(self, deep: bool = False) -> list:
        """Internal-consistency problems (empty = healthy).

        Always recomputes the chained pool hash from the embedded SQL
        and the per-level state counts.  ``deep=True`` additionally
        re-parses every embedded SQL and compares the stored skeletons
        against a fresh :func:`skeleton_tokens` run — the full
        schema-drift check.
        """
        problems = []
        recomputed = EMPTY_POOL_HASH
        for record in self.demos:
            recomputed = extend_pool_hash(recomputed, record.sql)
        if recomputed != self.manifest.pool_hash:
            problems.append(
                f"embedded SQL does not reproduce the manifest pool hash "
                f"({recomputed} != {self.manifest.pool_hash})"
            )
        counts = {
            str(k): v for k, v in self.index.end_state_counts().items()
        }
        manifest_counts = {
            str(k): v for k, v in self.manifest.state_counts.items()
        }
        if counts != manifest_counts:
            problems.append(
                f"state counts diverge: index {counts}, "
                f"manifest {manifest_counts}"
            )
        if deep:
            for i, record in enumerate(self.demos):
                fresh = tuple(skeleton_tokens(record.sql))
                if fresh != record.skeleton:
                    problems.append(
                        f"demo {i}: stored skeleton diverges from the "
                        f"current skeletonizer (schema drift?)"
                    )
        return problems


def _publish_state_gauges(manifest: StoreManifest) -> None:
    for level, states in sorted(manifest.state_counts.items()):
        obs.gauge("index.states", states, level=str(level))
