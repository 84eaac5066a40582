"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate``  — build the synthetic benchmark corpus and save it to disk;
* ``evaluate``  — train an approach on a saved train split and score it on
  a saved dev split (EM/EX), optionally tracing the run (``--trace-out``)
  and streaming structured events (``--log-level``);
* ``translate`` — answer one NL question against a database of a saved
  dataset with a trained PURPLE pipeline;
* ``report``    — render a saved JSONL trace as a per-stage / per-hardness
  profile with a text flame summary;
* ``stats``     — print Table-3 style statistics for saved datasets;
* ``lint``      — run the registered source-convention rules over a Python
  tree (exit 1 on findings);
* ``analyze``   — run the schema-aware SQL semantic analyzer on one query
  (exit 1 on errors, 2 on warnings only);
* ``serve``     — run the long-lived multi-tenant NL2SQL HTTP service
  (``repro.serve``) speaking the versioned wire contract of
  :mod:`repro.api.types` (see ``docs/serving.md``);
* ``top``       — live one-screen dashboard (qps, p50/p95/p99, tenants,
  SLO burn, rungs) over a running server's ``/v1/metrics`` and
  ``/v1/status`` (see ``docs/observability.md``).

All human-facing output goes through :mod:`repro.obs.render`, the CLI's
single rendering boundary.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs import render
from repro.spider import (
    Dataset,
    GeneratorConfig,
    benchmark_statistics,
    generate_benchmark,
    make_variant,
)


def _cmd_generate(args) -> int:
    config = GeneratorConfig(
        seed=args.seed,
        train_variants=args.train_variants,
        dev_variants=args.dev_variants,
        train_examples_per_db=args.train_per_db,
        dev_examples_per_db=args.dev_per_db,
    )
    render.out("Generating corpus ...")
    bench = generate_benchmark(config)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    bench.train.save(out / "train.json")
    bench.dev.save(out / "dev.json")
    for style in ("syn", "realistic", "dk"):
        make_variant(bench.dev, style).save(out / f"dev_{style}.json")
    render.out(f"Saved train ({len(bench.train)}) and dev ({len(bench.dev)}) "
               f"plus variants to {out}/")
    return 0


def _load(path: str) -> Dataset:
    return Dataset.load(path)


def _build_approach(name: str, llm, train: Dataset, budget: int,
                    consistency: int, repair_rounds=0, repair_token_budget=None):
    """Registry construction with CLI error rendering.

    The assembly itself lives in :func:`repro.api.runtime.build_approach`
    (shared with ``repro serve``); this boundary converts its typed
    errors into the exits a terminal user expects.
    """
    from repro import api
    from repro.api.runtime import RuntimeConfigError, build_approach
    from repro.schema import exception_text

    try:
        return build_approach(
            name, llm, train, budget, consistency,
            repair_rounds=repair_rounds,
            repair_token_budget=repair_token_budget,
        )
    except (RuntimeConfigError, api.UnknownApproachError) as exc:
        raise SystemExit(exception_text(exc))


def _make_observer(args):
    """The run observer implied by ``--trace-out`` / ``--log-level`` /
    ``--cache-dir`` (the prompt-cache line reads the run's telemetry)."""
    from repro.api.runtime import make_observer

    return make_observer(
        log_level=args.log_level,
        trace=args.trace_out is not None or args.cache_dir is not None,
        sink=render.stderr_sink,
    )


def _cmd_evaluate(args) -> int:
    from repro.eval import evaluate_approach, performance_summary
    from contextlib import nullcontext

    from repro.api.runtime import export_trace, make_llm

    train = _load(args.train)
    dev = _load(args.dev)
    render.out(
        f"Training {args.approach} ({args.llm}) on {len(train)} demos ..."
    )
    observer = _make_observer(args)
    # Scope construction under the observer too, so the index build
    # span and metrics from fit land in the trace.
    with observer.activate() if observer is not None else nullcontext():
        llm = make_llm(args.llm, cache_dir=args.cache_dir)
        approach = _build_approach(
            args.approach, llm, train, args.budget, args.consistency,
            repair_rounds=args.repair_rounds,
            repair_token_budget=args.repair_token_budget,
        )
    report = evaluate_approach(
        approach, dev, limit=args.limit, workers=args.workers,
        observer=observer,
    )
    render.out(
        f"{approach.name}: EM {report.em:.1%}  EX {report.ex:.1%}  "
        f"tokens/query {report.tokens_per_query()}  (n={len(report)})"
    )
    perf = performance_summary(report)
    if perf:
        render.out(
            f"  workers {perf['workers']}  wall {perf['wall_time_s']}s  "
            f"throughput {perf['throughput_qps']} q/s  "
            f"p50 {perf['latency_p50_s']}s  p95 {perf['latency_p95_s']}s"
        )
    if report.telemetry is not None:
        t = report.telemetry
        if args.cache_dir is not None:
            render.out(
                f"  prompt cache: {t.cache_hits} hits / "
                f"{t.cache_hits + t.cache_misses} lookups "
                f"(hit rate {t.cache_hit_rate:.1%})"
            )
        render.out(
            f"  telemetry: cache hit rate {t.cache_hit_rate:.1%}  "
            f"retries {t.llm_retries}  breaker opens {t.breaker_opens}  "
            f"degraded {t.degraded}  events {t.events}"
        )
        if t.repair_triggered:
            render.out(
                f"  repair: {t.repair_recovered} of {t.repair_triggered} "
                f"failing answers recovered in {t.repair_rounds} rounds"
                + (f"  abandoned {t.repair_abandoned}"
                   if t.repair_abandoned else "")
            )
    if args.by_hardness:
        for metric in ("em", "ex"):
            render.out(f"  {metric.upper()} by hardness:", {
                k: f"{v:.1%}" for k, v in report.by_hardness(metric).items()
            })
    if observer is not None and args.trace_out is not None:
        lines = export_trace(
            observer,
            args.trace_out,
            meta={
                "approach": approach.name,
                "dataset": dev.name,
                "tasks": len(report),
                "workers": args.workers,
            },
        )
        render.out(f"  trace: {lines} lines -> {args.trace_out}")
    return 0


def _cmd_translate(args) -> int:
    from repro import api
    from repro.api.runtime import make_llm
    from repro.api.types import TranslateRequest, WireFormatError
    from repro.schema import exception_text

    # The same wire request the HTTP service speaks (repro.api.types),
    # checked before any training.
    try:
        request = TranslateRequest(question=args.question, db_id=args.db_id)
    except WireFormatError as exc:
        raise SystemExit(exception_text(exc))
    train = _load(args.train)
    dev = _load(args.dev)
    if args.db_id not in dev.databases:
        raise SystemExit(
            f"unknown db_id {args.db_id!r}; available: {dev.db_ids()}"
        )
    approach = _build_approach("purple", make_llm(args.llm), train,
                               args.budget, args.consistency,
                               repair_rounds=args.repair_rounds,
                               repair_token_budget=args.repair_token_budget)
    response = api.translate(
        approach, request, database=dev.database(args.db_id)
    )
    render.out(response.sql)
    return 0


def _parse_tenant_specs(args) -> list:
    """``--tenant NAME=TRAIN:DEV`` specs, defaulting to one tenant."""
    if not args.tenant:
        return [("default", args.train, args.dev)]
    specs = []
    for spec in args.tenant:
        name, _, paths = spec.partition("=")
        train_path, _, dev_path = paths.partition(":")
        if not name or not train_path or not dev_path:
            raise SystemExit(f"--tenant expects NAME=TRAIN:DEV, got {spec!r}")
        specs.append((name, train_path, dev_path))
    return specs


def _cmd_serve(args) -> int:
    from contextlib import nullcontext

    from repro.api.runtime import make_llm, make_observer
    from repro.obs import LiveTelemetry
    from repro.schema import exception_text
    from repro.serve import (
        AdmissionController,
        AdmissionPolicy,
        NL2SQLService,
        ReproServer,
        Tenant,
        TenantRegistry,
    )

    # The service always collects metrics — /v1/metrics is an endpoint,
    # not an opt-in — so the observer exists even when nothing streams.
    observer = make_observer(
        log_level=args.log_level, trace=True, sink=render.stderr_sink
    )
    # Every setting is checked before any tenant trains.  Continuous
    # telemetry rides on the service observer.
    try:
        policy = AdmissionPolicy(
            rate=args.rate, burst=args.burst,
            shed_inflight=args.shed_inflight, max_inflight=args.max_inflight,
        )
        live = LiveTelemetry(
            observer,
            window_s=args.window,
            trace_capacity=args.trace_capacity,
            slow_ms=args.slow_ms,
            slo_availability=args.slo_availability,
            slo_latency_ms=args.slo_latency_ms,
        )
    except ValueError as exc:
        raise SystemExit(exception_text(exc))
    registry = TenantRegistry()
    with observer.activate() if observer is not None else nullcontext():
        for name, train_path, dev_path in _parse_tenant_specs(args):
            train = _load(train_path)
            data = _load(dev_path)
            render.out(
                f"tenant {name}: training {args.approach} ({args.llm}) "
                f"on {len(train)} demos, serving {len(data.databases)} dbs"
            )
            translator = _build_approach(
                args.approach, make_llm(args.llm), train,
                args.budget, args.consistency,
            )
            registry.add(
                Tenant(tenant_id=name, data=data, translator=translator)
            )
    service = NL2SQLService(
        registry, AdmissionController(policy), observer=observer, live=live
    )
    if args.check:
        render.out(
            f"serve check ok: {len(registry)} tenant(s) "
            f"({', '.join(registry.ids())})"
        )
        service.close()
        return 0
    server = ReproServer(service, host=args.host, port=args.port)
    host, port = server.address
    render.out(f"serving {len(registry)} tenant(s) on http://{host}:{port}")
    try:
        # Serve on the CLI's own thread; ctrl-C stops cleanly.
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    render.out("server stopped")
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import run_top

    return run_top(args.url, interval=args.interval, once=args.once)


def _cmd_report(args) -> int:
    import json

    from repro.obs import chrome_trace, read_trace, render_report

    trace = read_trace(args.trace)
    render.out(render_report(trace))
    if args.chrome is not None:
        Path(args.chrome).write_text(json.dumps(chrome_trace(trace)))
        render.out(f"\nchrome trace -> {args.chrome}")
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.analysis import PACKAGE_ROOT, LintEngine

    root = Path(args.root) if args.root is not None else PACKAGE_ROOT
    diagnostics = LintEngine(root).run()
    if args.format == "json":
        render.out(json.dumps(
            {
                "root": str(root),
                "findings": [d.as_dict() for d in diagnostics],
            },
            indent=2,
        ))
    else:
        for diagnostic in diagnostics:
            render.out(diagnostic.render())
        render.out(
            f"{len(diagnostics)} finding(s) in {root}"
            if diagnostics else f"clean: {root}"
        )
    return 1 if diagnostics else 0


def _cmd_analyze(args) -> int:
    import json

    from repro.analysis import analyze_sql

    dataset = _load(args.dataset)
    if args.db not in dataset.databases:
        raise SystemExit(
            f"unknown db_id {args.db!r}; available: {dataset.db_ids()}"
        )
    diagnostics = analyze_sql(args.sql, dataset.database(args.db).schema)
    if args.format == "json":
        render.out(json.dumps(
            {
                "sql": args.sql,
                "db_id": args.db,
                "diagnostics": [d.as_dict() for d in diagnostics],
            },
            indent=2,
        ))
    else:
        for diagnostic in diagnostics:
            render.out(diagnostic.render())
        if not diagnostics:
            render.out("clean")
    if any(d.severity == "error" for d in diagnostics):
        return 1
    return 2 if diagnostics else 0


def _cmd_stats(args) -> int:
    for path in args.datasets:
        stats = benchmark_statistics(_load(path))
        name, queries, dbs, qlen, slen = stats.row()
        render.out(f"{name}: {queries} queries, {dbs} dbs, "
                   f"avg NL {qlen} chars, avg SQL {slen} chars")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PURPLE reproduction — corpus generation and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate and save the corpus")
    g.add_argument("--output", default="corpus")
    g.add_argument("--seed", type=int, default=20240101)
    g.add_argument("--train-variants", type=int, default=4)
    g.add_argument("--dev-variants", type=int, default=2)
    g.add_argument("--train-per-db", type=int, default=45)
    g.add_argument("--dev-per-db", type=int, default=50)
    g.set_defaults(func=_cmd_generate)

    from repro.api import available

    e = sub.add_parser("evaluate", help="train an approach and score it")
    e.add_argument("--train", default="corpus/train.json")
    e.add_argument("--dev", default="corpus/dev.json")
    e.add_argument(
        "--approach", default="purple", choices=list(available()),
    )
    e.add_argument("--llm", default="chatgpt", choices=["chatgpt", "gpt4"])
    e.add_argument("--budget", type=int, default=3072)
    e.add_argument("--consistency", type=int, default=30)
    e.add_argument("--limit", type=int, default=None)
    e.add_argument(
        "--workers", type=int, default=1,
        help="evaluation thread-pool size (results are identical "
             "for any value)",
    )
    e.add_argument(
        "--cache-dir", default=None,
        help="persist the prompt cache here; a re-run served from a "
             "warm cache skips the provider entirely",
    )
    e.add_argument(
        "--trace-out", default=None,
        help="trace the run (spans, events, metrics) into this JSONL "
             "file; inspect it with `repro report`",
    )
    e.add_argument(
        "--log-level", default="off",
        choices=["debug", "info", "warning", "error", "off"],
        help="stream structured events at or above this level to stderr",
    )
    e.add_argument(
        "--repair-rounds", type=int, default=0,
        help="per-task cap on execution-feedback repair rounds for "
             "failing answers (purple only; 0 disables the loop and is "
             "byte-identical to a loop-free build)",
    )
    e.add_argument(
        "--repair-token-budget", type=int, default=None,
        help="run-wide cap on extra tokens the repair loop may spend "
             "(default: unlimited)",
    )
    e.add_argument("--by-hardness", action="store_true")
    e.set_defaults(func=_cmd_evaluate)

    t = sub.add_parser("translate", help="translate one question with PURPLE")
    t.add_argument("question")
    t.add_argument("--db-id", required=True)
    t.add_argument("--train", default="corpus/train.json")
    t.add_argument("--dev", default="corpus/dev.json")
    t.add_argument("--llm", default="gpt4", choices=["chatgpt", "gpt4"])
    t.add_argument("--budget", type=int, default=3072)
    t.add_argument("--consistency", type=int, default=10)
    t.add_argument(
        "--repair-rounds", type=int, default=0,
        help="per-task cap on execution-feedback repair rounds",
    )
    t.add_argument(
        "--repair-token-budget", type=int, default=None,
        help="run-wide cap on extra tokens the repair loop may spend",
    )
    t.set_defaults(func=_cmd_translate)

    sv = sub.add_parser(
        "serve", help="run the multi-tenant NL2SQL HTTP service"
    )
    sv.add_argument("--train", default="corpus/train.json")
    sv.add_argument("--dev", default="corpus/dev.json")
    sv.add_argument(
        "--tenant", action="append", default=None, metavar="NAME=TRAIN:DEV",
        help="host a tenant from its own train/dev datasets (repeatable; "
             "overrides --train/--dev)",
    )
    sv.add_argument(
        "--approach", default="purple", choices=list(available()),
    )
    sv.add_argument("--llm", default="gpt4", choices=["chatgpt", "gpt4"])
    sv.add_argument("--budget", type=int, default=3072)
    sv.add_argument("--consistency", type=int, default=10)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=8763,
        help="0 binds an ephemeral port",
    )
    sv.add_argument(
        "--rate", type=float, default=50.0,
        help="per-tenant sustained requests/second before shedding",
    )
    sv.add_argument(
        "--burst", type=int, default=25,
        help="per-tenant burst allowance above --rate",
    )
    sv.add_argument(
        "--shed-inflight", type=int, default=16,
        help="soft cap: above this many concurrent requests, serve "
             "demoted down the degradation ladder",
    )
    sv.add_argument(
        "--max-inflight", type=int, default=64,
        help="hard cap: above this, refuse with 429",
    )
    sv.add_argument(
        "--log-level", default="off",
        choices=["debug", "info", "warning", "error", "off"],
        help="stream structured events at or above this level to stderr",
    )
    sv.add_argument(
        "--window", type=float, default=60.0,
        help="trailing window (seconds) for /v1/metrics live rates and "
             "latency quantiles",
    )
    sv.add_argument(
        "--trace-capacity", type=int, default=256,
        help="retained request traces in the live trace store",
    )
    sv.add_argument(
        "--slow-ms", type=float, default=1000.0,
        help="latency (ms) from which a request's trace is tagged slow "
             "and evicted only after healthy ones",
    )
    sv.add_argument(
        "--slo-availability", type=float, default=0.999,
        help="availability SLO target tracked at /v1/status",
    )
    sv.add_argument(
        "--slo-latency-ms", type=float, default=2000.0,
        help="latency SLO threshold (ms) tracked at /v1/status",
    )
    sv.add_argument(
        "--check", action="store_true",
        help="build every tenant, print a summary, and exit without "
             "binding the socket",
    )
    sv.set_defaults(func=_cmd_serve)

    tp = sub.add_parser(
        "top", help="live dashboard over a running server's telemetry"
    )
    tp.add_argument(
        "--url", default="http://127.0.0.1:8763",
        help="base URL of a running repro serve instance",
    )
    tp.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between dashboard refreshes",
    )
    tp.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    tp.set_defaults(func=_cmd_top)

    r = sub.add_parser("report", help="render a saved JSONL run trace")
    r.add_argument("trace", help="trace file written by evaluate --trace-out")
    r.add_argument(
        "--chrome", default=None,
        help="also convert to Chrome trace_event JSON at this path "
             "(open in chrome://tracing or Perfetto)",
    )
    r.set_defaults(func=_cmd_report)

    s = sub.add_parser("stats", help="Table-3 statistics for saved datasets")
    s.add_argument("datasets", nargs="+")
    s.set_defaults(func=_cmd_stats)

    li = sub.add_parser(
        "lint", help="run the source-convention rules over a Python tree"
    )
    li.add_argument(
        "--root", default=None,
        help="tree to lint (default: the installed repro package)",
    )
    li.add_argument("--format", default="text", choices=["text", "json"])
    li.set_defaults(func=_cmd_lint)

    a = sub.add_parser(
        "analyze", help="statically analyze one SQL query against a schema"
    )
    a.add_argument("sql", help="the SQL text to analyze")
    a.add_argument("--db", required=True, help="database id in the dataset")
    a.add_argument("--dataset", default="corpus/dev.json")
    a.add_argument("--format", default="text", choices=["text", "json"])
    a.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly with the
        # conventional SIGPIPE status instead of a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
