"""Store containers written by earlier builds still load.

Format v1 containers carry only the demonstrations.  Earlier v2 builds
could also persist an embedding index: a ``retrieval`` manifest block
plus a ``retrieval`` payload section.  This build reads both kinds as
plain stores and ignores the extra section.
"""

import pytest

from repro.obs import Observer
from repro.store import (
    FORMAT_VERSION,
    SUPPORTED_FORMAT_VERSIONS,
    CorruptStoreError,
    DemoStore,
    StoreVersionError,
    clear_shared_stores,
    pool_hash,
    read_manifest,
)
from repro.store.format import read_store, write_store

SQLS = [
    "SELECT name FROM singer",
    "SELECT name FROM singer WHERE age > 30",
    "SELECT COUNT(*) FROM concert",
    "SELECT a, COUNT(*) FROM t GROUP BY a",
]
QUESTIONS = [
    "list the singer names",
    "which singers are older than thirty",
    "how many concerts are there",
    "count rows per value of a",
]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_shared_stores()
    yield
    clear_shared_stores()


def rewrite(path, mutate):
    """Re-serialize a store after ``mutate(manifest, payload)``."""
    manifest, payload = read_store(path)
    mutate(manifest, payload)
    write_store(path, manifest, payload)


def write_embedded_store(path, sqls, questions):
    """A v2 container as earlier builds wrote it with an embedding index."""
    plain = DemoStore.build(sqls)
    manifest = plain.manifest.as_dict()
    manifest["retrieval"] = {
        "version": 1,
        "dim": 256,
        "probes": 8,
        "questions_hash": pool_hash(questions),
        "count": len(questions),
    }
    payload = {
        "demos": [d.as_row() for d in plain.demos],
        "retrieval": {
            "dim": 256,
            "probes": 8,
            "vectors": [[[i, 1.0]] for i in range(len(questions))],
            "questions": list(questions),
        },
    }
    write_store(path, manifest, payload)
    return path


class TestFormatVersions:
    def test_writer_emits_v2(self, tmp_path):
        path = DemoStore.build(SQLS).save(tmp_path / "p.demostore")
        assert read_manifest(path)["format_version"] == FORMAT_VERSION == 2

    def test_v1_container_still_loads(self, tmp_path):
        # A v1 store is byte-for-byte a v2 store with format_version 1.
        assert 1 in SUPPORTED_FORMAT_VERSIONS
        path = DemoStore.build(SQLS).save(tmp_path / "p.demostore")
        rewrite(path, lambda m, p: m.__setitem__("format_version", 1))
        loaded = DemoStore.load(path)
        assert [d.sql for d in loaded.demos] == SQLS

    def test_future_version_still_rejected(self, tmp_path):
        path = DemoStore.build(SQLS).save(tmp_path / "p.demostore")
        future = max(SUPPORTED_FORMAT_VERSIONS) + 1
        rewrite(path, lambda m, p: m.__setitem__("format_version", future))
        with pytest.raises(StoreVersionError):
            DemoStore.load(path)


class TestEmbeddedContainer:
    @pytest.fixture
    def path(self, tmp_path):
        return write_embedded_store(tmp_path / "emb.demostore", SQLS, QUESTIONS)

    def test_loads_as_plain_store(self, path):
        loaded = DemoStore.load(path)
        assert loaded.index == DemoStore.build(SQLS).index
        assert loaded.demos == DemoStore.build(SQLS).demos

    def test_offline_open_reuses_without_rebuild(self, path):
        before = path.read_bytes()
        observer = Observer(seed=0)
        with observer.activate():
            store = DemoStore.open(path, SQLS, offline=True)
        snapshot = observer.metrics.snapshot()
        assert snapshot.counter("index.cache_hit") == 1
        assert snapshot.counter("index.rebuilds") == 0
        assert store.index == DemoStore.build(SQLS).index
        assert path.read_bytes() == before

    def test_self_check_deep_is_clean(self, path):
        assert DemoStore.load(path).self_check(deep=True) == []

    def test_verify_against_live_pool_is_clean(self, path):
        assert DemoStore.load(path).verify_against(SQLS) == []

    def test_corruption_still_detected(self, path):
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptStoreError):
            DemoStore.load(path)

    def test_resave_drops_the_embedding_section(self, path, tmp_path):
        resaved = DemoStore.load(path).save(tmp_path / "resaved.demostore")
        manifest, payload = read_store(resaved)
        assert "retrieval" not in manifest
        assert set(payload) == {"demos"}
