"""The content-addressed prompt cache and its LLM wrapper."""

import threading

import pytest

from repro.llm import (
    CachingLLM,
    LLMRequest,
    LLMResponse,
    PromptCache,
    request_key,
)
from repro.llm.errors import ServerError
from repro.obs import Observer
from tests.observed import observed


def cache_counts(metrics) -> dict:
    """The ``cache.*`` counters of a snapshot, keyed by short name."""
    names = ("hits", "misses", "stores", "evictions", "disk_hits")
    return {name: metrics.counter(f"cache.{name}") for name in names}


class CountingLLM:
    """Deterministic provider that counts how often it is actually called."""

    name = "counting"

    def __init__(self, fail: bool = False):
        self.calls = 0
        self.fail = fail

    def complete(self, request: LLMRequest) -> LLMResponse:
        self.calls += 1
        if self.fail:
            raise ServerError("boom")
        return LLMResponse(
            texts=[f"SELECT {request.prompt}"] * request.n,
            prompt_tokens=len(request.prompt),
            output_tokens=request.n,
        )


class TestRequestKey:
    def test_stable_across_instances(self):
        a = LLMRequest(prompt="q1", n=3)
        b = LLMRequest(prompt="q1", n=3)
        assert request_key(a, "m") == request_key(b, "m")

    def test_every_field_participates(self):
        base = LLMRequest(prompt="q1", n=3, temperature=1.0, max_input_tokens=4096)
        variants = [
            LLMRequest(prompt="q2", n=3),
            LLMRequest(prompt="q1", n=4),
            LLMRequest(prompt="q1", n=3, temperature=0.5),
            LLMRequest(prompt="q1", n=3, max_input_tokens=2048),
        ]
        keys = {request_key(v, "m") for v in variants}
        assert request_key(base, "m") not in keys
        assert len(keys) == len(variants)
        assert request_key(base, "m") != request_key(base, "other-model")


class TestPromptCache:
    def test_miss_then_hit(self):
        cache = PromptCache()

        def miss_store_hit():
            assert cache.get("k") is None
            cache.put("k", LLMResponse(texts=["a"], prompt_tokens=1))
            return cache.get("k")

        got, metrics = observed(miss_store_hit)
        assert got.texts == ["a"]
        assert cache_counts(metrics) == {
            "hits": 1, "misses": 1, "stores": 1, "evictions": 0,
            "disk_hits": 0,
        }

    def test_lru_eviction(self):
        cache = PromptCache(capacity=2)

        def fill():
            for key in ("a", "b", "c"):
                cache.put(key, LLMResponse(texts=[key]))

        _, metrics = observed(fill)
        assert metrics.counter("cache.evictions") == 1
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("b").texts == ["b"]
        assert cache.get("c").texts == ["c"]

    def test_hit_refreshes_recency(self):
        cache = PromptCache(capacity=2)
        cache.put("a", LLMResponse(texts=["a"]))
        cache.put("b", LLMResponse(texts=["b"]))
        cache.get("a")
        cache.put("c", LLMResponse(texts=["c"]))
        assert cache.get("a") is not None  # refreshed, so "b" was evicted
        assert cache.get("b") is None

    def test_returned_response_is_a_copy(self):
        cache = PromptCache()
        cache.put("k", LLMResponse(texts=["a"]))
        cache.get("k").texts.append("mutated")
        assert cache.get("k").texts == ["a"]

    def test_disk_store_survives_new_cache(self, tmp_path):
        first = PromptCache(cache_dir=tmp_path)
        first.put("k", LLMResponse(texts=["a", "b"], prompt_tokens=7,
                                   output_tokens=2))
        second = PromptCache(cache_dir=tmp_path)
        got, metrics = observed(lambda: second.get("k"))
        assert got.texts == ["a", "b"]
        assert (got.prompt_tokens, got.output_tokens) == (7, 2)
        assert metrics.counter("cache.disk_hits") == 1
        assert metrics.counter("cache.hits") == 1
        # Promoted into memory: the next lookup skips the disk layer.
        _, metrics = observed(lambda: second.get("k"))
        assert metrics.counter("cache.disk_hits") == 0
        assert metrics.counter("cache.hits") == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = PromptCache(cache_dir=tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None

    def test_hit_rate(self):
        """The cache's counts feed the run telemetry's hit rate."""
        assert Observer().telemetry().cache_hit_rate == 0.0
        cache = PromptCache()
        observer = Observer()
        with observer.activate():
            assert cache.get("k") is None
            cache.put("k", LLMResponse(texts=["a"]))
            for _ in range(9):
                cache.get("k")
        assert observer.telemetry().cache_hit_rate == 0.9

    def test_thread_safety_smoke(self):
        cache = PromptCache(capacity=8)

        def work(tag):
            for i in range(200):
                key = f"{tag}-{i % 16}"
                if cache.get(key) is None:
                    cache.put(key, LLMResponse(texts=[key]))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache._entries) <= 8


class TestCachingLLM:
    def test_second_call_skips_provider(self):
        inner = CountingLLM()
        llm = CachingLLM(inner)
        request = LLMRequest(prompt="q", n=2)
        first = llm.complete(request)
        second, metrics = observed(
            lambda: llm.complete(LLMRequest(prompt="q", n=2))
        )
        assert inner.calls == 1
        assert first.texts == second.texts
        assert metrics.counter("cache.hits") == 1

    def test_name_mirrors_inner(self):
        assert CachingLLM(CountingLLM()).name == "counting"

    def test_errors_propagate_uncached(self):
        inner = CountingLLM(fail=True)
        llm = CachingLLM(inner)

        def fail_twice():
            for _ in range(2):
                with pytest.raises(ServerError):
                    llm.complete(LLMRequest(prompt="q"))

        _, metrics = observed(fail_twice)
        assert inner.calls == 2  # a failure is never served from cache
        assert metrics.counter("cache.stores") == 0
        assert metrics.counter("cache.misses") == 2

    def test_warm_rerun_from_disk(self, tmp_path):
        request = LLMRequest(prompt="q", n=3)
        cold_inner = CountingLLM()
        CachingLLM(cold_inner, cache=PromptCache(cache_dir=tmp_path)).complete(
            request
        )
        warm_inner = CountingLLM()
        warm = CachingLLM(warm_inner, cache=PromptCache(cache_dir=tmp_path))
        response, metrics = observed(lambda: warm.complete(request))
        assert warm_inner.calls == 0
        assert response.texts == ["SELECT q"] * 3
        assert cache_counts(metrics) == {
            "hits": 1, "misses": 0, "stores": 0, "evictions": 0,
            "disk_hits": 1,
        }
