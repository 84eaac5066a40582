"""Content-addressed prompt→completion caching.

Ablation sweeps and self-consistency sampling replay the *same* prompt
against the *same* provider configuration over and over; a cache keyed
by ``stable_hash(llm.name, prompt, sampling params)`` means the second
and later identical calls cost nothing.  Because every provider in this
repository is deterministic given the request, a cache hit returns
byte-identical completions *and* the original token accounting, so
cached runs score identically to cold ones.

Two layers compose:

* :class:`PromptCache` — a thread-safe in-memory LRU, optionally backed
  by an on-disk store (one JSON file per entry under ``cache_dir``) that
  survives process restarts and is shared between runs;
* :class:`CachingLLM` — the wrapper that consults the cache before
  delegating to the inner provider.  Only *successful* completions are
  cached; errors always reach the caller (and its retry machinery).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from repro.llm.interface import LLM, LLMRequest, LLMResponse
from repro.obs import runtime as obs
from repro.utils.rng import stable_hash


def request_key(request: LLMRequest, llm_name: str) -> str:
    """The content address of a request against a named provider.

    Any field that can change the completion participates: the prompt
    text, the sample count, the temperature, the input budget, and the
    provider identity.
    """
    return format(
        stable_hash(
            llm_name,
            request.prompt,
            request.n,
            request.temperature,
            request.max_input_tokens,
        ),
        "016x",
    )


class PromptCache:
    """Thread-safe LRU over completions, with an optional disk store.

    ``capacity`` bounds the in-memory layer; the disk layer (enabled by
    passing ``cache_dir``) is unbounded and consulted on memory misses —
    a disk hit is promoted back into memory and still counts as a hit.
    """

    def __init__(self, capacity: int = 4096, cache_dir=None):
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[str, LLMResponse] = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: str) -> Optional[LLMResponse]:
        """The cached response for ``key``, or None on a full miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                obs.count("cache.hits")
                return _copy_response(entry)
            entry = self._load_from_disk(key)
            if entry is not None:
                self._admit(key, entry)
                obs.count("cache.hits")
                obs.count("cache.disk_hits")
                return _copy_response(entry)
            obs.count("cache.misses")
            return None

    def put(self, key: str, response: LLMResponse) -> None:
        """Store a completion under ``key`` (memory and, if set, disk)."""
        with self._lock:
            obs.count("cache.stores")
            self._admit(key, _copy_response(response))
            if self.cache_dir is not None:
                self._entry_path(key).write_text(
                    json.dumps(
                        {
                            "texts": list(response.texts),
                            "prompt_tokens": response.prompt_tokens,
                            "output_tokens": response.output_tokens,
                        }
                    )
                )

    def clear(self) -> None:
        """Drop the in-memory layer (the disk store is left intact)."""
        with self._lock:
            self._entries.clear()

    def _admit(self, key: str, response: LLMResponse) -> None:
        self._entries[key] = response
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            obs.count("cache.evictions")

    def _entry_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    def _load_from_disk(self, key: str) -> Optional[LLMResponse]:
        if self.cache_dir is None:
            return None
        path = self._entry_path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            # Missing entry or a torn write from a crashed run: treat as
            # a miss; the fresh completion will overwrite it.
            return None
        return LLMResponse(
            texts=list(payload.get("texts", [])),
            prompt_tokens=int(payload.get("prompt_tokens", 0)),
            output_tokens=int(payload.get("output_tokens", 0)),
        )


def _copy_response(response: LLMResponse) -> LLMResponse:
    """A defensive copy so callers cannot mutate the cached entry."""
    return LLMResponse(
        texts=list(response.texts),
        prompt_tokens=response.prompt_tokens,
        output_tokens=response.output_tokens,
    )


class CachingLLM:
    """Consult a :class:`PromptCache` before the inner provider.

    Transparent on a cold cache: the inner provider sees exactly the
    calls it would have seen, and errors propagate uncached so retry
    and degradation layers behave identically.  ``name`` mirrors the
    inner provider so cache keys and downstream naming are unchanged.
    """

    def __init__(self, inner: LLM, cache: Optional[PromptCache] = None):
        self.inner = inner
        self.cache = cache or PromptCache()
        self.name = inner.name

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Serve from cache when possible, else delegate and store."""
        key = request_key(request, self.name)
        with obs.span("cache.lookup") as lookup:
            cached = self.cache.get(key)
            if lookup is not None:
                lookup.attrs["hit"] = cached is not None
        if cached is not None:
            return cached
        response = self.inner.complete(request)
        self.cache.put(key, response)
        return response
