"""``repro.obs.live`` — continuous telemetry for the long-lived service.

The batch observer answers "what did this run do"; this layer answers
"what is the service doing *right now*", from four always-on parts:

* **windowed metrics** (:class:`~repro.obs.windows.WindowedMetrics`) —
  trailing-window request rates and latency quantiles alongside the
  cumulative registry, so ``/v1/metrics`` reports last-60-seconds
  truth, not since-boot averages;
* a **per-tenant cost ledger** (:class:`CostLedger`) — prompt and
  completion tokens, provider calls, repair rounds, sheds, and
  cache-served answers per tenant, with periodic snapshots, behind
  ``GET /v1/tenants/{id}/usage``;
* **SLO burn-rate tracking** (:class:`SLOTracker`) — one availability
  and one latency objective, tracked per tenant with fast/slow
  multi-window burn rates, emitting edge-triggered ``slo.burn`` events
  into the observer's structured log, behind ``GET /v1/status``;
* a **bounded trace store** (:class:`TraceStore`) — every served
  request's span tree, captured in the JSONL schema-v1 span shape and
  tagged with a tail verdict (error, slow, or sampled); healthy traces
  are evicted first, behind ``GET /v1/trace/{request_id}``.

Only the five settings ``repro serve`` exposes are arguments of
:class:`LiveTelemetry`; everything else is a module constant.

Determinism contract: nothing here opens spans or otherwise perturbs
the request's observed execution.  Trace capture happens *after* the
request's task scope has closed, reading finished spans off the
observer's tracer by lane, so a served translate's span tree stays
byte-identical to the batch engine's (pinned by
``tests/serve/test_trace_determinism.py`` with the live layer on).
Captured lanes are pruned from the tracer, so a replayed request id
derives the same span ids and span memory stays bounded.  All clocks
are injectable, so tests drive windows, ledger snapshots, and burn
rates with :class:`~repro.llm.resilient.FakeClock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Lock
from typing import Callable, Optional

from repro.llm.resilient import Clock, SystemClock
from repro.obs.windows import WindowedCounter, WindowedMetrics

#: Trace retention reasons (tail verdicts).
RETAIN_ERROR = "error"
RETAIN_SLOW = "slow"
RETAIN_SAMPLED = "sampled"

#: The cost ledger snapshots every tenant this often and keeps this many.
SNAPSHOT_EVERY_S = 60.0
SNAPSHOTS_KEPT = 60

#: SLO constants: the share of requests that must finish under the
#: latency threshold, the fast and slow burn windows, and the burn rate
#: at which both windows together raise ``slo.burn``.
LATENCY_TARGET = 0.99
FAST_WINDOW_S = 300.0
SLOW_WINDOW_S = 3600.0
BURN_ALERT = 1.0


# ---------------------------------------------------------------------------
# Cost ledger
# ---------------------------------------------------------------------------


@dataclass
class TenantUsage:
    """Cumulative cost record for one tenant."""

    requests: int = 0
    errors: int = 0
    shed: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    llm_calls: int = 0
    repair_rounds: int = 0
    cache_hits: int = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "shed": self.shed,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total_tokens": self.prompt_tokens + self.completion_tokens,
            "llm_calls": self.llm_calls,
            "repair_rounds": self.repair_rounds,
            "cache_hits": self.cache_hits,
        }


class CostLedger:
    """Per-tenant token/call/repair accounting with periodic snapshots.

    Updates are driven by request completions — no background thread:
    each :meth:`record` also checks whether a snapshot of all tenants
    is due (:data:`SNAPSHOT_EVERY_S` on the injected clock) and appends
    it to a history of :data:`SNAPSHOTS_KEPT`, so
    ``/v1/tenants/{id}/usage`` can show both the cumulative truth and
    its recent trajectory.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock or SystemClock()
        self._usage: dict = {}
        self._snapshots: list = []
        self._epoch = self.clock.monotonic()
        self._last_snapshot = self._epoch
        self._lock = Lock()

    def record(self, tenant: str, *, error: bool = False,
               shed: bool = False, prompt_tokens: int = 0,
               completion_tokens: int = 0, llm_calls: int = 0,
               repair_rounds: int = 0, cache_hit: bool = False) -> None:
        """Fold one completed request into the tenant's usage."""
        with self._lock:
            usage = self._usage.get(tenant)
            if usage is None:
                usage = self._usage[tenant] = TenantUsage()
            usage.requests += 1
            usage.errors += 1 if error else 0
            usage.shed += 1 if shed else 0
            usage.prompt_tokens += prompt_tokens
            usage.completion_tokens += completion_tokens
            usage.llm_calls += llm_calls
            usage.repair_rounds += repair_rounds
            usage.cache_hits += 1 if cache_hit else 0
            self._maybe_snapshot(self.clock.monotonic())

    def _maybe_snapshot(self, now: float) -> None:
        if now - self._last_snapshot < SNAPSHOT_EVERY_S:
            return
        self._last_snapshot = now
        self._snapshots.append({
            "t": round(now - self._epoch, 3),
            "tenants": {
                tenant: usage.as_dict()
                for tenant, usage in sorted(self._usage.items())
            },
        })
        if len(self._snapshots) > SNAPSHOTS_KEPT:
            del self._snapshots[: len(self._snapshots) - SNAPSHOTS_KEPT]

    def usage(self, tenant: str) -> Optional[dict]:
        """One tenant's cumulative usage (None when never seen)."""
        with self._lock:
            usage = self._usage.get(tenant)
            return usage.as_dict() if usage is not None else None

    def totals(self) -> dict:
        """Every tenant's cumulative usage, sorted by tenant id."""
        with self._lock:
            return {
                tenant: usage.as_dict()
                for tenant, usage in sorted(self._usage.items())
            }

    def snapshots(self, tenant: Optional[str] = None) -> list:
        """The periodic snapshot history (optionally one tenant's)."""
        with self._lock:
            history = list(self._snapshots)
        if tenant is None:
            return history
        return [
            {"t": snap["t"], "usage": snap["tenants"][tenant]}
            for snap in history
            if tenant in snap["tenants"]
        ]


# ---------------------------------------------------------------------------
# SLO burn-rate tracking
# ---------------------------------------------------------------------------


class _ObjectiveWindows:
    """Good/total counters over one objective's fast and slow windows."""

    def __init__(self, clock: Clock):
        def window(span_s: float) -> WindowedCounter:
            # Sixty slots per window keeps rotation cheap at any span.
            return WindowedCounter(span_s, span_s / 60.0, clock=clock)

        self.fast_total = window(FAST_WINDOW_S)
        self.fast_bad = window(FAST_WINDOW_S)
        self.slow_total = window(SLOW_WINDOW_S)
        self.slow_bad = window(SLOW_WINDOW_S)

    def record(self, bad: bool) -> None:
        self.fast_total.add(1.0)
        self.slow_total.add(1.0)
        if bad:
            self.fast_bad.add(1.0)
            self.slow_bad.add(1.0)

    @staticmethod
    def _burn(bad: float, total: float, budget: float) -> float:
        if total <= 0.0 or budget <= 0.0:
            return 0.0
        return (bad / total) / budget

    def burns(self, budget: float) -> tuple:
        """``(fast_burn, slow_burn)`` against an error budget fraction."""
        return (
            self._burn(self.fast_bad.total(), self.fast_total.total(),
                       budget),
            self._burn(self.slow_bad.total(), self.slow_total.total(),
                       budget),
        )


class _TenantSLO:
    """One tenant's objective windows and alert state."""

    def __init__(self, clock: Clock):
        self.availability = _ObjectiveWindows(clock)
        self.latency = _ObjectiveWindows(clock)
        self.burning = {"availability": False, "latency": False}


class SLOTracker:
    """Multi-window burn-rate tracking across tenants.

    ``availability`` is the target fraction of non-failed responses
    (5xx and 429 count against it); the latency objective asks that at
    least :data:`LATENCY_TARGET` of requests finish under
    ``latency_ms``.  Burn rates are computed over a fast and a slow
    window; ``emit`` is the event hook (wired to the observer's
    structured logger): an edge-triggered warning-level ``slo.burn``
    event fires when an objective's fast *and* slow burn rates cross
    :data:`BURN_ALERT` (the classic multi-window guard against paging
    on blips), and an info-level ``slo.recovered`` when both drop back
    under it.
    """

    def __init__(self, availability: float = 0.999,
                 latency_ms: float = 2000.0,
                 clock: Optional[Clock] = None,
                 emit: Optional[Callable] = None):
        if not 0.0 < availability < 1.0:
            raise ValueError(
                f"slo_availability must be in (0, 1), got {availability}"
            )
        if latency_ms <= 0.0:
            raise ValueError(
                f"slo_latency_ms must be positive, got {latency_ms}"
            )
        self.availability = float(availability)
        self.latency_ms = float(latency_ms)
        self.clock = clock or SystemClock()
        self.emit = emit
        self._tenants: dict = {}
        self._lock = Lock()

    def _state(self, tenant: str) -> _TenantSLO:
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                state = self._tenants[tenant] = _TenantSLO(self.clock)
            return state

    def record(self, tenant: str, latency_ms: float, error: bool) -> None:
        """Fold one response into the tenant's SLIs and check burns."""
        state = self._state(tenant)
        state.availability.record(bad=error)
        state.latency.record(bad=latency_ms > self.latency_ms)
        self._check(tenant, state, "availability", state.availability,
                    1.0 - self.availability)
        self._check(tenant, state, "latency", state.latency,
                    1.0 - LATENCY_TARGET)

    def _check(self, tenant: str, state: _TenantSLO, objective: str,
               windows: _ObjectiveWindows, budget: float) -> None:
        fast, slow = windows.burns(budget)
        burning = fast >= BURN_ALERT and slow >= BURN_ALERT
        was_burning = state.burning[objective]
        if burning == was_burning:
            return
        state.burning[objective] = burning
        if self.emit is None:
            return
        if burning:
            self.emit(
                "slo.burn", level="warning", tenant=tenant,
                objective=objective, fast_burn=round(fast, 3),
                slow_burn=round(slow, 3),
            )
        else:
            self.emit(
                "slo.recovered", level="info", tenant=tenant,
                objective=objective,
            )

    def status(self) -> dict:
        """Per-tenant SLO state for ``GET /v1/status``."""
        with self._lock:
            tenants = dict(self._tenants)
        out = {}
        for tenant, state in sorted(tenants.items()):
            avail_fast, avail_slow = state.availability.burns(
                1.0 - self.availability
            )
            lat_fast, lat_slow = state.latency.burns(1.0 - LATENCY_TARGET)
            out[tenant] = {
                "availability": {
                    "target": self.availability,
                    "fast_burn": round(avail_fast, 3),
                    "slow_burn": round(avail_slow, 3),
                    "state": (
                        "burning" if state.burning["availability"] else "ok"
                    ),
                },
                "latency": {
                    "target": LATENCY_TARGET,
                    "threshold_ms": self.latency_ms,
                    "fast_burn": round(lat_fast, 3),
                    "slow_burn": round(lat_slow, 3),
                    "state": (
                        "burning" if state.burning["latency"] else "ok"
                    ),
                },
            }
        return out


# ---------------------------------------------------------------------------
# Trace store
# ---------------------------------------------------------------------------


class TraceStore:
    """Bounded in-memory span trees with tail verdicts.

    Every offered request is stored, tagged at completion time
    (tail-based) with why it matters: failed requests (HTTP status >=
    400) are ``error``, slow ones (``latency_ms >= slow_ms``) ``slow``,
    and the rest ``sampled``.  The store is a ring: past ``capacity``
    entries, the oldest *sampled* entry is evicted first, so errors and
    slow traces survive healthy churn.
    """

    def __init__(self, capacity: int = 256, slow_ms: float = 1000.0):
        if capacity < 1:
            raise ValueError(f"trace_capacity must be >= 1, got {capacity}")
        if slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        self.capacity = capacity
        self.slow_ms = float(slow_ms)
        self._entries: dict = {}  # request_id -> entry, insertion-ordered
        self._seen = 0
        self._evicted = 0
        self._lock = Lock()

    def _verdict(self, status: int, latency_ms: float) -> str:
        if status >= 400:
            return RETAIN_ERROR
        if latency_ms >= self.slow_ms:
            return RETAIN_SLOW
        return RETAIN_SAMPLED

    def offer(self, request_id: str, tenant: str, status: int,
              latency_ms: float, spans: list) -> str:
        """Store one finished request; returns its retention reason.

        ``spans`` are JSONL schema-v1 span dicts
        (:meth:`repro.obs.trace.Span.as_dict`) in ``seq`` order.
        """
        with self._lock:
            self._seen += 1
            reason = self._verdict(status, latency_ms)
            # Re-insert so a replayed request id counts as newest.
            self._entries.pop(request_id, None)
            self._entries[request_id] = {
                "request_id": request_id,
                "tenant": tenant,
                "status": status,
                "latency_ms": round(latency_ms, 3),
                "retained": reason,
                "spans": list(spans),
            }
            while len(self._entries) > self.capacity:
                self._evict()
            return reason

    def _evict(self) -> None:
        victim = None
        for request_id, entry in self._entries.items():
            if entry["retained"] == RETAIN_SAMPLED:
                victim = request_id
                break
        if victim is None:
            victim = next(iter(self._entries))
        del self._entries[victim]
        self._evicted += 1

    def get(self, request_id: str) -> Optional[dict]:
        """One retained trace entry, or None."""
        with self._lock:
            entry = self._entries.get(request_id)
            return dict(entry) if entry is not None else None

    def stats(self) -> dict:
        """Occupancy and eviction counters for ``/v1/metrics``."""
        with self._lock:
            retained: dict = {}
            for entry in self._entries.values():
                reason = entry["retained"]
                retained[reason] = retained.get(reason, 0) + 1
            return {
                "capacity": self.capacity,
                "stored": len(self._entries),
                "seen": self._seen,
                "evicted": self._evicted,
                "retained": dict(sorted(retained.items())),
            }


# ---------------------------------------------------------------------------
# The composed live layer
# ---------------------------------------------------------------------------


class LiveTelemetry:
    """Windows + ledger + SLOs + trace store behind one recording surface.

    The serving core calls :meth:`record_request` once per completed
    request (every endpoint, success or error) and :meth:`capture` for
    requests that ran under a task lane.  ``observer`` is optional:
    without one, windows/ledger/SLOs still work and only span capture
    and ``slo.burn`` events are disabled.  The five keyword settings
    are ``repro serve``'s ``--window``, ``--trace-capacity``,
    ``--slow-ms``, ``--slo-availability`` and ``--slo-latency-ms``;
    each raises ``ValueError`` when out of range.
    """

    def __init__(self, observer=None, *, window_s: float = 60.0,
                 trace_capacity: int = 256, slow_ms: float = 1000.0,
                 slo_availability: float = 0.999,
                 slo_latency_ms: float = 2000.0,
                 clock: Optional[Clock] = None):
        self.observer = observer
        self.clock = clock or SystemClock()
        self.windows = WindowedMetrics(window_s=window_s, clock=self.clock)
        self.ledger = CostLedger(clock=self.clock)
        self.slo = SLOTracker(
            availability=slo_availability, latency_ms=slo_latency_ms,
            clock=self.clock, emit=self._emit,
        )
        self.traces = TraceStore(capacity=trace_capacity, slow_ms=slow_ms)

    def _emit(self, name: str, level: str = "info", **fields) -> None:
        if self.observer is not None:
            self.observer.log(name, level=level, **fields)

    def record_request(self, endpoint: str, tenant: str, latency_s: float,
                       status: int, response=None,
                       track_tenant: bool = True) -> None:
        """Fold one completed request into windows, ledger, and SLOs.

        ``response`` is the wire payload when one exists — a
        :class:`~repro.api.types.TranslateResponse` contributes its
        token/call/repair record to the ledger.  ``track_tenant=False``
        skips ledger and SLO accounting (unresolvable tenants must not
        grow per-tenant state).
        """
        latency_ms = latency_s * 1000.0
        self.windows.count("serve.requests", endpoint=endpoint)
        self.windows.observe("serve.latency_ms", latency_ms,
                             endpoint=endpoint)
        if status >= 400:
            self.windows.count("serve.errors", endpoint=endpoint)
        if not track_tenant:
            return
        # 4xx client mistakes don't burn the service's error budget;
        # 5xx and 429 (we refused an answer) do.
        error = status >= 500 or status == 429
        llm_calls = getattr(response, "llm_calls", None)
        self.ledger.record(
            tenant,
            error=error,
            shed=bool(getattr(response, "shed", False)),
            prompt_tokens=getattr(response, "prompt_tokens", 0),
            completion_tokens=getattr(response, "output_tokens", 0),
            llm_calls=llm_calls or 0,
            repair_rounds=getattr(response, "repair_rounds", 0),
            cache_hit=llm_calls == 0,
        )
        self.slo.record(tenant, latency_ms, error)

    def capture(self, request_id: str, tenant: str, status: int,
                latency_s: float) -> Optional[str]:
        """Capture one finished request's span tree into the store.

        Reads the finished spans off the observer's tracer by lane
        (the request id), *after* the request's task scope closed — no
        spans are opened, so the tree stays byte-identical to batch.
        The tracer then forgets the lane, bounding span memory in a
        long-lived process.  Returns the retention reason, or None
        without an observer.
        """
        if self.observer is None or not request_id:
            return None
        spans = self.observer.tracer.lane_spans(request_id)
        reason = self.traces.offer(
            request_id, tenant, status, latency_s * 1000.0,
            [span.as_dict() for span in spans],
        )
        self.observer.tracer.prune_lane(request_id)
        return reason

    def payload(self) -> dict:
        """The ``"live"`` section of the ``/v1/metrics`` response."""
        return {
            "windows": self.windows.snapshot(),
            "tenants": self.ledger.totals(),
            "traces": self.traces.stats(),
        }
