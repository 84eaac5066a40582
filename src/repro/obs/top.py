"""``repro top`` — a one-screen live dashboard over ``/v1/metrics``.

The renderer is a pure function from the two JSON payloads the server
already serves (``/v1/metrics`` and ``/v1/status``) to a fixed-width
text screen: trailing-window qps and p50/p95/p99 per endpoint, the
per-tenant cost ledger, SLO burn state, degradation-rung distribution,
admission posture, and trace-store occupancy.  The CLI loop around it
(:func:`repro.cli._cmd_top`) just fetches, clears, and reprints — so
tests exercise the whole dashboard without a terminal or a socket.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Optional

from repro.obs.metrics import parse_metric_key


def fetch_json(url: str, timeout: float = 5.0) -> dict:
    """GET one JSON payload (stdlib only)."""
    request = urllib.request.Request(
        url, headers={"Accept": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def fetch_payloads(base_url: str, timeout: float = 5.0) -> tuple:
    """``(metrics, status)`` payloads from a running server."""
    base = base_url.rstrip("/")
    return (
        fetch_json(base + "/v1/metrics", timeout=timeout),
        fetch_json(base + "/v1/status", timeout=timeout),
    )


def _labelled(mapping: dict, name: str, label: str) -> dict:
    """``{label_value: entry}`` for keys of ``name`` carrying ``label``."""
    out = {}
    for key, entry in mapping.items():
        base, labels = parse_metric_key(key)
        if base == name and label in labels:
            out[labels[label]] = entry
    return out


def _fmt_ms(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:8.1f}"


def _endpoint_rows(windows: dict) -> list:
    counters = _labelled(windows.get("counters", {}),
                         "serve.requests", "endpoint")
    histograms = _labelled(windows.get("histograms", {}),
                           "serve.latency_ms", "endpoint")
    errors = _labelled(windows.get("counters", {}),
                       "serve.errors", "endpoint")
    rows = []
    for endpoint in sorted(set(counters) | set(histograms)):
        hist = histograms.get(endpoint, {})
        counter = counters.get(endpoint, {})
        rows.append(
            f"  {endpoint:<10} {counter.get('rate', 0.0):7.2f} qps  "
            f"p50 {_fmt_ms(hist.get('p50'))}  "
            f"p95 {_fmt_ms(hist.get('p95'))}  "
            f"p99 {_fmt_ms(hist.get('p99'))}  "
            f"err {errors.get(endpoint, {}).get('total', 0.0):5.0f}"
        )
    return rows or ["  (no traffic in window)"]


def _tenant_rows(tenants: dict) -> list:
    rows = []
    for tenant, usage in sorted(tenants.items()):
        rows.append(
            f"  {tenant:<12} req {usage.get('requests', 0):6d}  "
            f"tok {usage.get('total_tokens', 0):8d}  "
            f"llm {usage.get('llm_calls', 0):6d}  "
            f"repair {usage.get('repair_rounds', 0):4d}  "
            f"cache {usage.get('cache_hits', 0):5d}  "
            f"shed {usage.get('shed', 0):4d}  "
            f"err {usage.get('errors', 0):4d}"
        )
    return rows or ["  (no tenant traffic yet)"]


def _slo_rows(slo: dict) -> list:
    rows = []
    for tenant, objectives in sorted(slo.items()):
        for objective, state in sorted(objectives.items()):
            flag = "!!" if state.get("state") == "burning" else "ok"
            rows.append(
                f"  {tenant:<12} {objective:<13} [{flag}]  "
                f"fast {state.get('fast_burn', 0.0):6.2f}x  "
                f"slow {state.get('slow_burn', 0.0):6.2f}x  "
                f"target {state.get('target', 0.0):.3f}"
            )
    return rows or ["  (no SLO traffic yet)"]


def _rung_row(counters: dict) -> str:
    rungs = _labelled(counters, "degrade.level", "level")
    if not rungs:
        return "  rungs: (none reached)"
    parts = [
        f"L{level}={rungs[level]}"
        for level in sorted(rungs, key=lambda v: int(v))
    ]
    return "  rungs: " + "  ".join(parts)


def render_dashboard(metrics: dict, status: dict) -> str:
    """The one-screen dashboard for the two server payloads."""
    live = metrics.get("live", {})
    windows = live.get("windows", {})
    admission = metrics.get("admission", {})
    traces = live.get("traces", {})
    overall = status.get("status", "ok")
    lines = [
        f"repro top — status {overall.upper()}  "
        f"(window {windows.get('window_s', 0):.0f}s)",
        "",
        "endpoints (trailing window)",
        *_endpoint_rows(windows),
        "",
        "tenants (cumulative ledger)",
        *_tenant_rows(live.get("tenants", {})),
        "",
        "slo burn (fast/slow windows)",
        *_slo_rows(status.get("slo", {})),
        "",
        "pipeline",
        _rung_row(metrics.get("metrics", {}).get("counters", {})),
        (
            f"  admission: inflight {admission.get('inflight', 0)}"
            f"/{admission.get('policy', {}).get('max_inflight', 0)}  "
            f"peak {admission.get('peak_inflight', 0)}"
        ),
        (
            f"  traces: {traces.get('stored', 0)}"
            f"/{traces.get('capacity', 0)} stored  "
            f"{traces.get('seen', 0)} seen  "
            f"{traces.get('evicted', 0)} evicted"
        ),
    ]
    if status.get("burning"):
        lines.insert(1, "  BURNING: " + ", ".join(status["burning"]))
    return "\n".join(lines) + "\n"


def run_top(base_url: str, interval: float = 2.0, once: bool = False,
            out=None, clear: bool = True) -> int:
    """The ``repro top`` loop: fetch, render, clear, repeat.

    Returns a process exit code (1 when the first fetch fails, so a
    typo'd URL fails loudly instead of looping on errors).
    """
    import sys
    import time

    out = out or sys.stdout
    first = True
    while True:
        try:
            metrics, status = fetch_payloads(base_url)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            if first:
                out.write(f"repro top: cannot reach {base_url}: {exc}\n")
                return 1
            out.write(f"(refresh failed: {exc})\n")
        else:
            screen = render_dashboard(metrics, status)
            if clear and not first:
                out.write("\x1b[2J\x1b[H")
            out.write(screen)
            if hasattr(out, "flush"):
                out.flush()
        if once:
            return 0
        first = False
        time.sleep(interval)
