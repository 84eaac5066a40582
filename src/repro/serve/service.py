"""The transport-independent service core behind every endpoint.

:class:`NL2SQLService` is what the HTTP layer (:mod:`repro.serve.http`)
serializes and what the tests drive directly: each endpoint method takes
a wire-contract object (:mod:`repro.api.types`) and returns
``(http_status, payload)`` where the payload is another wire object (or
a plain JSON-ready dict for the two GET endpoints).  No socket concepts
leak in here.

Determinism contract: a served ``translate`` runs inside the same
tracing scope the batch engine (:func:`repro.eval.engine.map_ordered`)
puts around a task — ``task_lane`` + ``Observer.task`` with the request
id as the lane — and opens no extra spans of its own.
Serving-layer telemetry goes to counters, histograms, and events only,
so the span tree of a served request is identical to the same task run
through the batch engine with the same lane and tracer seed.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional

from repro import api
from repro.api.types import (
    ErrorEnvelope,
    ExecuteRequest,
    ExecuteResponse,
    ExplainResponse,
    TranslateRequest,
    task_from_request,
)
from repro.obs.export import SCHEMA_VERSION
from repro.obs.live import LiveTelemetry
from repro.obs.metrics import MetricsSnapshot
from repro.obs.prom import prometheus_text
from repro.schema import exception_text
from repro.schema.sqlite_backend import SQLiteExecutor
from repro.serve.admission import REJECT, SHED, AdmissionController
from repro.serve.tenants import (
    TenantRegistry,
    UnknownDatabaseError,
    UnknownTenantError,
)
from repro.utils.context import task_lane

#: Ladder rung a shed request is demoted to (half-budget prompt).  The
#: hard in-flight cap rejects instead; everything else gets an answer.
SHED_RUNG = 1

#: Row cap on ``/v1/execute`` payloads; ``row_count`` still reports the
#: full cardinality, only the wire payload is truncated.
MAX_ROWS = 100


class NL2SQLService:
    """One multi-tenant NL2SQL service instance.

    ``registry`` maps tenant ids to fitted translators and their
    databases; ``admission`` renders admit/shed/reject verdicts;
    ``observer`` (optional) collects the service's traces, metrics, and
    events — when None, telemetry is off and every hook is a no-op.
    ``live`` (optional) is the continuous-telemetry layer
    (:class:`~repro.obs.live.LiveTelemetry`): windowed rates and
    quantiles on ``/v1/metrics``, the per-tenant cost ledger behind
    ``/v1/tenants/{id}/usage``, SLO burn state behind ``/v1/status``,
    and the trace store behind ``/v1/trace/{request_id}``.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        admission: Optional[AdmissionController] = None,
        observer=None,
        live: Optional[LiveTelemetry] = None,
    ):
        self.registry = registry
        self.admission = admission or AdmissionController()
        self.observer = observer
        self.live = live
        self.executor = SQLiteExecutor()
        self._sequences: dict = {}
        self._lock = threading.Lock()

    # -- plumbing ---------------------------------------------------------------

    @contextmanager
    def _activated(self) -> Iterator[None]:
        """Scope the service observer so ``obs.*`` helpers land on it."""
        if self.observer is None:
            yield
            return
        with self.observer.activate():
            yield

    def _ensure_request_id(self, request):
        """Assign the tenant's next deterministic id when none was sent."""
        if request.request_id:
            return request
        with self._lock:
            sequence = self._sequences.get(request.tenant, 0) + 1
            self._sequences[request.tenant] = sequence
        return dataclasses.replace(
            request, request_id=f"{request.tenant}-{sequence:06d}"
        )

    def _resolve(self, request):
        """Tenant + database for a wire request, or the error envelope."""
        try:
            tenant = self.registry.get(request.tenant)
        except UnknownTenantError as exc:
            return None, None, (404, ErrorEnvelope(
                code="unknown_tenant", message=exception_text(exc),
                request_id=request.request_id, status=404,
            ))
        try:
            database = tenant.database(request.db_id)
        except UnknownDatabaseError as exc:
            return tenant, None, (404, ErrorEnvelope(
                code="unknown_database", message=exception_text(exc),
                request_id=request.request_id, status=404,
            ))
        return tenant, database, None

    def _serve(self, endpoint: str, request, handle, traced: bool = False):
        """Run one POST endpoint and record it, once, whatever the outcome.

        Assigns the request id, resolves tenant and database (404), and
        times ``handle(request, tenant, database, verdict) -> (status,
        payload)`` under the service observer and an admission verdict
        (429 on reject).  A ``traced`` endpoint runs under the request's
        task lane: on success its span tree is captured and the response
        carries its latency.
        """
        request = self._ensure_request_id(request)
        tenant, database, error = self._resolve(request)
        latency = 0.0
        if error is not None:
            status, payload = error
        else:
            started = time.perf_counter()
            with self._activated():
                with self.admission.request(request.tenant) as verdict:
                    if verdict == REJECT:
                        status, payload = 429, ErrorEnvelope(
                            code="overloaded",
                            message="server at capacity; retry later",
                            request_id=request.request_id, status=429,
                        )
                    else:
                        status, payload = handle(
                            request, tenant, database, verdict
                        )
            latency = time.perf_counter() - started
        if self.observer is not None:
            metrics = self.observer.metrics
            metrics.count("serve.requests", endpoint=endpoint,
                          tenant=request.tenant)
            if status >= 400:
                metrics.count("serve.errors", endpoint=endpoint,
                              status=status)
            metrics.observe(
                "serve.latency_ms", latency * 1000.0, endpoint=endpoint,
                tenant=request.tenant,
            )
        if self.live is not None:
            # Unresolvable tenants must not grow per-tenant state.
            self.live.record_request(
                endpoint, request.tenant, latency, status,
                response=payload, track_tenant=tenant is not None,
            )
        if not traced or status != 200:
            return status, payload
        if self.live is not None:
            # Tail capture happens after the task scope has closed: the
            # finished spans are read off the tracer by lane, so the
            # stored tree is exactly what the batch engine would emit.
            self.live.capture(
                request.request_id, request.tenant, status, latency
            )
        return status, dataclasses.replace(
            payload, latency_ms=round(latency * 1000.0, 3)
        )

    # -- endpoints --------------------------------------------------------------

    def translate(self, request: TranslateRequest):
        """``POST /v1/translate`` — one NL question to SQL."""

        def handle(request, tenant, database, verdict):
            # The tracing scope the batch engine puts around a task
            # (repro.eval.engine.map_ordered.run_one), lane = the
            # request id: the served span tree must be identical.
            observed = (
                self.observer.task(request.request_id)
                if self.observer is not None
                else nullcontext()
            )
            with task_lane(request.request_id), observed:
                return 200, api.translate(
                    tenant.translator, request, database=database,
                    min_rung=SHED_RUNG if verdict == SHED else 0,
                )

        return self._serve("translate", request, handle, traced=True)

    def explain(self, request: TranslateRequest, sql: Optional[str] = None):
        """``POST /v1/explain`` — diagnostics + retrieval provenance.

        LLM-free and cheap, so shedding does not demote it; only the
        hard in-flight cap pushes back.
        """

        def handle(request, tenant, database, verdict):
            task = task_from_request(request, database)
            try:
                info = api.explain(tenant.translator, task, sql=sql)
            except api.CapabilityError as exc:
                return 501, ErrorEnvelope(
                    code="unsupported", message=exception_text(exc),
                    request_id=request.request_id, status=501,
                )
            return 200, ExplainResponse(
                request_id=request.request_id,
                tenant=request.tenant,
                db_id=request.db_id,
                sql=info.get("sql", sql or ""),
                diagnostics=tuple(info.get("diagnostics", ())),
                skeletons=tuple(info.get("skeletons", ())),
                demonstrations=tuple(info.get("demonstrations", ())),
                pruned_tables=tuple(info.get("pruned_tables", ())),
            )

        return self._serve("explain", request, handle)

    def execute(self, request: ExecuteRequest):
        """``POST /v1/execute`` — run SQL against a tenant database.

        Execution failures are *payload*, not transport errors: the
        response carries the DBMS message and its normalized
        classification code with HTTP 200, because the statement was
        served — it just failed.
        """

        def handle(request, tenant, database, verdict):
            # Tenant-scoped registry key: two tenants with a db of the
            # same id never share a connection.
            key = f"{request.tenant}/{request.db_id}"
            self.executor.register(database, key=key)
            result = self.executor.execute(key, request.sql)
            rows = result.rows if result.rows is not None else ()
            return 200, ExecuteResponse(
                request_id=request.request_id,
                tenant=request.tenant,
                db_id=request.db_id,
                columns=tuple(result.columns),
                rows=tuple(rows[:MAX_ROWS]),
                row_count=len(rows),
                error=result.error,
                error_code=(
                    result.info.code if result.info is not None else None
                ),
                timed_out=result.timed_out,
            )

        return self._serve("execute", request, handle)

    def health(self):
        """``GET /v1/health`` — service + per-tenant liveness report."""
        tenants = {
            tenant.tenant_id: api.health(tenant.translator)
            for tenant in self.registry
        }
        degraded = any(
            report.get("status") != "ok" for report in tenants.values()
        )
        return 200, {
            "status": "degraded" if degraded else "ok",
            "tenants": tenants,
            "inflight": self.admission.inflight,
        }

    def metrics(self):
        """``GET /v1/metrics`` — JSON snapshot of the obs registry.

        With a live layer the payload also carries ``"live"``: the
        trailing-window counters and p50/p95/p99 latency summaries,
        per-tenant usage totals, and trace-store occupancy.
        """
        if self.observer is not None:
            snapshot = self.observer.metrics.snapshot().as_dict()
        else:
            snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
        payload = {
            "metrics": snapshot,
            "admission": self.admission.snapshot(),
        }
        if self.live is not None:
            payload["live"] = self.live.payload()
        return 200, payload

    def prometheus(self):
        """``GET /v1/metrics`` with ``Accept: text/plain`` — exposition."""
        if self.observer is not None:
            snapshot = self.observer.metrics.snapshot()
        else:
            snapshot = MetricsSnapshot()
        live = self.live.payload() if self.live is not None else None
        return 200, prometheus_text(snapshot, live)

    def status(self):
        """``GET /v1/status`` — SLO burn state + admission posture."""
        slo = self.live.slo.status() if self.live is not None else {}
        burning = sorted(
            f"{tenant}:{objective}"
            for tenant, objectives in slo.items()
            for objective, state in objectives.items()
            if state["state"] == "burning"
        )
        return 200, {
            "status": "burning" if burning else "ok",
            "burning": burning,
            "slo": slo,
            "admission": self.admission.snapshot(),
        }

    def tenant_usage(self, tenant_id: str):
        """``GET /v1/tenants/{id}/usage`` — the tenant's cost ledger."""
        try:
            self.registry.get(tenant_id)
        except UnknownTenantError as exc:
            return 404, ErrorEnvelope(
                code="unknown_tenant", message=exception_text(exc),
                status=404,
            )
        if self.live is None:
            return 501, ErrorEnvelope(
                code="unsupported",
                message="usage accounting requires live telemetry",
                status=501,
            )
        usage = self.live.ledger.usage(tenant_id)
        return 200, {
            "tenant": tenant_id,
            "usage": usage or {},
            "snapshots": self.live.ledger.snapshots(tenant_id),
        }

    def trace(self, request_id: str):
        """``GET /v1/trace/{request_id}`` — a retained request trace.

        Spans come back in the JSONL schema-v1 span shape, ``seq``
        ordered — byte-identical to what the batch engine's trace
        export would write for the same task under the same lane.
        """
        if self.live is None:
            return 501, ErrorEnvelope(
                code="unsupported",
                message="trace capture requires live telemetry",
                status=501,
            )
        entry = self.live.traces.get(request_id)
        if entry is None:
            return 404, ErrorEnvelope(
                code="trace_not_found",
                message=f"no retained trace for request {request_id!r}",
                request_id=request_id, status=404,
            )
        entry["schema_version"] = SCHEMA_VERSION
        return 200, entry

    def close(self) -> None:
        """Release the execution backend."""
        self.executor.close()
