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
        if live is not None:
            for tenant in registry:
                if tenant.objectives is not None:
                    live.slo.set_objectives(
                        tenant.tenant_id, tenant.objectives
                    )

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

    def _record(self, endpoint: str, tenant_id: str, latency_s: float,
                status: int, response=None, known_tenant: bool = True) -> None:
        if self.observer is not None:
            metrics = self.observer.metrics
            metrics.count("serve.requests", endpoint=endpoint,
                          tenant=tenant_id)
            if status >= 400:
                metrics.count("serve.errors", endpoint=endpoint,
                              status=status)
            metrics.observe(
                "serve.latency_ms", latency_s * 1000.0, endpoint=endpoint,
                tenant=tenant_id,
            )
        if self.live is not None:
            self.live.record_request(
                endpoint, tenant_id, latency_s, status,
                response=response, track_tenant=known_tenant,
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

    def _overloaded(self, request):
        return 429, ErrorEnvelope(
            code="overloaded",
            message="server at capacity; retry later",
            request_id=request.request_id,
            status=429,
        )

    # -- endpoints --------------------------------------------------------------

    def translate(self, request: TranslateRequest):
        """``POST /v1/translate`` — one NL question to SQL."""
        request = self._ensure_request_id(request)
        tenant, database, error = self._resolve(request)
        if error is not None:
            self._record("translate", request.tenant, 0.0, error[0],
                         known_tenant=tenant is not None)
            return error
        started = time.perf_counter()
        with self._activated():
            with self.admission.request(request.tenant) as verdict:
                if verdict == REJECT:
                    status, envelope = self._overloaded(request)
                    self._record("translate", request.tenant,
                                 time.perf_counter() - started, status)
                    return status, envelope
                min_rung = SHED_RUNG if verdict == SHED else 0
                # The tracing scope the batch engine puts around a task
                # (repro.eval.engine.map_ordered.run_one), lane = the
                # request id: the served span tree must be identical.
                observed = (
                    self.observer.task(request.request_id)
                    if self.observer is not None
                    else nullcontext()
                )
                with task_lane(request.request_id), observed:
                    response = api.translate(
                        tenant.translator, request, database=database,
                        min_rung=min_rung,
                    )
        latency = time.perf_counter() - started
        self._record("translate", request.tenant, latency, 200,
                     response=response)
        if self.live is not None:
            # Tail capture happens after the task scope has closed: the
            # finished spans are read off the tracer by lane, so the
            # stored tree is exactly what the batch engine would emit.
            self.live.capture(
                request.request_id, request.tenant, 200, latency
            )
        return 200, dataclasses.replace(
            response, latency_ms=round(latency * 1000.0, 3)
        )

    def explain(self, request: TranslateRequest, sql: Optional[str] = None):
        """``POST /v1/explain`` — diagnostics + retrieval provenance.

        LLM-free and cheap, so shedding does not demote it; only the
        hard in-flight cap pushes back.
        """
        request = self._ensure_request_id(request)
        tenant, database, error = self._resolve(request)
        if error is not None:
            self._record("explain", request.tenant, 0.0, error[0],
                         known_tenant=tenant is not None)
            return error
        started = time.perf_counter()
        with self._activated():
            with self.admission.request(request.tenant) as verdict:
                if verdict == REJECT:
                    status, envelope = self._overloaded(request)
                    self._record("explain", request.tenant,
                                 time.perf_counter() - started, status)
                    return status, envelope
                task = task_from_request(request, database)
                try:
                    info = api.explain(tenant.translator, task, sql=sql)
                except api.CapabilityError as exc:
                    status = 501
                    self._record("explain", request.tenant,
                                 time.perf_counter() - started, status)
                    return status, ErrorEnvelope(
                        code="unsupported", message=exception_text(exc),
                        request_id=request.request_id, status=status,
                    )
        latency = time.perf_counter() - started
        self._record("explain", request.tenant, latency, 200)
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

    def execute(self, request: ExecuteRequest):
        """``POST /v1/execute`` — run SQL against a tenant database.

        Execution failures are *payload*, not transport errors: the
        response carries the DBMS message and its normalized
        classification code with HTTP 200, because the statement was
        served — it just failed.
        """
        request = self._ensure_request_id(request)
        tenant, database, error = self._resolve(request)
        if error is not None:
            self._record("execute", request.tenant, 0.0, error[0],
                         known_tenant=tenant is not None)
            return error
        started = time.perf_counter()
        with self._activated():
            with self.admission.request(request.tenant) as verdict:
                if verdict == REJECT:
                    status, envelope = self._overloaded(request)
                    self._record("execute", request.tenant,
                                 time.perf_counter() - started, status)
                    return status, envelope
                # Tenant-scoped registry key: two tenants with a db of
                # the same id never share a connection.
                key = f"{request.tenant}/{request.db_id}"
                self.executor.register(database, key=key)
                result = self.executor.execute(key, request.sql)
        latency = time.perf_counter() - started
        self._record("execute", request.tenant, latency, 200)
        rows = tuple(result.rows[:MAX_ROWS]) if result.rows is not None else ()
        return 200, ExecuteResponse(
            request_id=request.request_id,
            tenant=request.tenant,
            db_id=request.db_id,
            columns=tuple(result.columns),
            rows=rows,
            row_count=len(result.rows) if result.rows is not None else 0,
            error=result.error,
            error_code=result.info.code if result.info is not None else None,
            timed_out=result.timed_out,
        )

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
