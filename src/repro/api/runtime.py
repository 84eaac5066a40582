"""Shared run-construction plumbing for the CLI and the serving layer.

``repro evaluate``, ``repro translate``, and ``repro serve`` must build
*identical* stacks — the same provider wrapping, the same approach
configuration, the same observer — or a served request and a batch task
stop being comparable.  This module is that single assembly point: the
CLI subcommands and :mod:`repro.serve` both consume it and add nothing
of their own.

Errors raise :class:`RuntimeConfigError` (a ``ValueError``) rather than
``SystemExit`` so the long-lived server can turn them into error
envelopes; the CLI converts them to exits at its boundary.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs import Observer, write_trace


class RuntimeConfigError(ValueError):
    """A run was configured inconsistently (bad approach/knob pairing)."""


def make_llm(llm_name: str, cache_dir=None):
    """The provider stack: mock LLM, optionally behind the prompt cache."""
    from repro.llm import CachingLLM, MockLLM, PromptCache, profile_by_name

    llm = MockLLM(profile_by_name(llm_name))
    if cache_dir is not None:
        llm = CachingLLM(llm, cache=PromptCache(cache_dir=cache_dir))
    return llm


def build_approach(name: str, llm, train, budget: int, consistency: int,
                   repair_rounds: int = 0, repair_token_budget=None):
    """Construct (and fit) an approach through the registry.

    Raises :class:`RuntimeConfigError` when a purple-only knob is
    paired with another approach, and lets the registry's
    ``UnknownApproachError`` propagate for the caller's boundary to
    render.
    """
    from repro import api

    extra = {}
    if repair_rounds or repair_token_budget is not None:
        if name != "purple":
            raise RuntimeConfigError(
                "--repair-rounds/--repair-token-budget apply to the "
                "purple approach only"
            )
        extra["repair_rounds"] = repair_rounds
        if repair_token_budget is not None:
            extra["repair_token_budget"] = repair_token_budget
    return api.create(
        name, llm=llm, train=train, budget=budget,
        consistency_n=consistency, **extra,
    )


def make_observer(
    log_level: str = "off",
    trace: bool = False,
    sink: Optional[Callable] = None,
    seed: int = 0,
) -> Optional[Observer]:
    """The run observer implied by a trace/log configuration.

    Returns ``None`` when neither tracing nor streaming is requested —
    the zero-overhead default.  With ``trace=True`` events are collected
    even when nothing streams live (the trace file wants them); with a
    live ``log_level`` they also stream to ``sink``.
    """
    streaming = log_level != "off"
    if not trace and not streaming:
        return None
    return Observer(
        seed=seed,
        log_level=log_level if streaming else "info",
        log_sink=sink if streaming else None,
    )


def export_trace(observer: Observer, path, meta: Optional[dict] = None) -> int:
    """Write the observer's trace as JSONL; returns the line count."""
    return write_trace(observer, path, meta=dict(meta or {}))


def make_live(
    observer: Optional[Observer],
    window_s: float = 60.0,
    trace_capacity: int = 256,
    slow_ms: float = 1000.0,
    availability: float = 0.999,
    latency_target_ms: float = 2000.0,
    prune_lanes: bool = True,
    clock=None,
):
    """The continuous-telemetry layer for a long-lived ``repro serve``.

    One assembly point (like :func:`make_observer`) so the CLI and
    tests wire identical :class:`~repro.obs.LiveTelemetry` stacks.
    ``prune_lanes`` defaults to True here — a server that captured a
    request's trace should release the tracer's copy — while the
    library default is False (batch observers keep their full trace).
    """
    from repro.obs import LiveConfig, LiveTelemetry, SLOObjectives

    return LiveTelemetry(
        observer=observer,
        config=LiveConfig(
            window_s=window_s,
            trace_capacity=trace_capacity,
            slow_ms=slow_ms,
            prune_lanes=prune_lanes,
        ),
        objectives=SLOObjectives(
            availability=availability,
            latency_ms=latency_target_ms,
        ),
        clock=clock,
    )
