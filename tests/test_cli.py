"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(
        [
            "generate",
            "--output", str(out),
            "--seed", "5",
            "--train-variants", "1",
            "--dev-variants", "1",
            "--train-per-db", "8",
            "--dev-per-db", "6",
        ]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_files_written(self, corpus_dir):
        for name in ("train.json", "dev.json", "dev_syn.json",
                     "dev_realistic.json", "dev_dk.json"):
            assert (corpus_dir / name).exists(), name

    def test_saved_datasets_load(self, corpus_dir):
        from repro.spider import Dataset

        train = Dataset.load(corpus_dir / "train.json")
        assert len(train) == 8 * 11


class TestStats:
    def test_stats_prints(self, corpus_dir, capsys):
        assert main(["stats", str(corpus_dir / "dev.json")]) == 0
        out = capsys.readouterr().out
        assert "queries" in out


class TestEvaluate:
    def test_zero_shot_evaluation(self, corpus_dir, capsys):
        code = main(
            [
                "evaluate",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--approach", "zero",
                "--llm", "chatgpt",
                "--limit", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EM" in out and "EX" in out

    def test_purple_evaluation_by_hardness(self, corpus_dir, capsys):
        code = main(
            [
                "evaluate",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--approach", "purple",
                "--consistency", "3",
                "--limit", "8",
                "--by-hardness",
            ]
        )
        assert code == 0
        assert "by hardness" in capsys.readouterr().out

    def test_repair_flags_accepted_and_reported(self, corpus_dir, capsys):
        code = main(
            [
                "evaluate",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--approach", "purple",
                "--consistency", "3",
                "--limit", "8",
                "--repair-rounds", "2",
                "--repair-token-budget", "100000",
                "--log-level", "error",
            ]
        )
        assert code == 0
        assert "EM" in capsys.readouterr().out

    def test_repair_flags_rejected_for_other_approaches(self, corpus_dir):
        with pytest.raises(SystemExit, match="purple approach only"):
            main(
                [
                    "evaluate",
                    "--train", str(corpus_dir / "train.json"),
                    "--dev", str(corpus_dir / "dev.json"),
                    "--approach", "zero",
                    "--repair-rounds", "2",
                ]
            )

    def test_unknown_approach_rejected(self, corpus_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "evaluate",
                    "--train", str(corpus_dir / "train.json"),
                    "--dev", str(corpus_dir / "dev.json"),
                    "--approach", "nonsense",
                ]
            )


class TestTraceAndReport:
    @pytest.fixture(scope="class")
    def trace_path(self, corpus_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "run.jsonl"
        code = main(
            [
                "evaluate",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--approach", "purple",
                "--consistency", "3",
                "--limit", "6",
                "--workers", "4",
                "--trace-out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_trace_written_and_announced(self, trace_path, capsys):
        capsys.readouterr()
        assert trace_path.exists()
        from repro.obs import read_trace

        trace = read_trace(trace_path)
        assert trace.meta["version"] == 1
        assert trace.meta["workers"] == 4
        assert len(trace.task_spans()) == 6
        assert trace.named("stage:")
        assert trace.metrics["counters"]["tasks.evaluated"] == 6

    def test_telemetry_line_printed(self, corpus_dir, capsys, tmp_path):
        code = main(
            [
                "evaluate",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--approach", "zero",
                "--limit", "4",
                "--trace-out", str(tmp_path / "t.jsonl"),
            ]
        )
        assert code == 0
        assert "telemetry:" in capsys.readouterr().out

    def test_log_level_streams_events(self, corpus_dir, capsys):
        code = main(
            [
                "evaluate",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--approach", "zero",
                "--limit", "4",
                "--log-level", "debug",
            ]
        )
        assert code == 0
        # events stream to stderr, the result line stays on stdout
        captured = capsys.readouterr()
        assert "EM" in captured.out

    def test_report_renders_trace(self, trace_path, capsys):
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        for section in (
            "== Tasks ==",
            "== Stage profile ==",
            "== Hardness profile ==",
            "== Telemetry ==",
            "== Flame summary ==",
        ):
            assert section in out

    def test_report_chrome_export(self, trace_path, tmp_path, capsys):
        import json

        chrome = tmp_path / "chrome.json"
        assert main(["report", str(trace_path), "--chrome", str(chrome)]) == 0
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]
        assert any(e["ph"] == "X" for e in payload["traceEvents"])


class TestLint:
    def test_package_tree_is_clean_exit_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("print('hi')\n")
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert "py.no-print" in capsys.readouterr().out

    def test_json_format_shape(self, tmp_path, capsys):
        import json

        (tmp_path / "mod.py").write_text("import random\n")
        assert main(["lint", "--root", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == str(tmp_path)
        (finding,) = payload["findings"]
        assert finding["rule"] == "py.stdlib-random"
        assert finding["severity"] == "error"
        assert finding["span"]["line"] == 1

    def test_json_format_clean_tree(self, tmp_path, capsys):
        import json

        (tmp_path / "mod.py").write_text("x = 1\n")
        assert main(["lint", "--root", str(tmp_path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []


class TestAnalyze:
    def _dev(self, corpus_dir):
        return str(corpus_dir / "dev.json")

    def test_clean_query_exit_zero(self, corpus_dir, capsys):
        code = main([
            "analyze", "SELECT name FROM doctor",
            "--db", "hospitals", "--dataset", self._dev(corpus_dir),
        ])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_error_exit_one(self, corpus_dir, capsys):
        code = main([
            "analyze", "SELECT ghost FROM doctor",
            "--db", "hospitals", "--dataset", self._dev(corpus_dir),
        ])
        assert code == 1
        assert "sql.unknown-column" in capsys.readouterr().out

    def test_warning_only_exit_two(self, corpus_dir, capsys):
        code = main([
            "analyze", "SELECT name, COUNT(*) FROM doctor",
            "--db", "hospitals", "--dataset", self._dev(corpus_dir),
        ])
        assert code == 2
        assert "sql.ungrouped-column" in capsys.readouterr().out

    def test_json_format_shape(self, corpus_dir, capsys):
        import json

        code = main([
            "analyze", "SELECT ghost FROM doctor",
            "--db", "hospitals", "--dataset", self._dev(corpus_dir),
            "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["db_id"] == "hospitals"
        (diag,) = payload["diagnostics"]
        assert diag["rule"] == "sql.unknown-column"
        assert diag["fix_hint"]["error_class"] == "schema_hallucination"

    def test_unknown_db_rejected(self, corpus_dir):
        with pytest.raises(SystemExit):
            main([
                "analyze", "SELECT 1",
                "--db", "ghost", "--dataset", self._dev(corpus_dir),
            ])


class TestStaticGuard:
    def test_guard_scores_match_unguarded(self, corpus_dir, capsys):
        args = [
            "evaluate",
            "--train", str(corpus_dir / "train.json"),
            "--dev", str(corpus_dir / "dev.json"),
            "--approach", "zero",
            "--limit", "8",
        ]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        assert main(args + ["--static-guard"]) == 0
        guarded = capsys.readouterr().out

        def result_line(text):
            return next(l for l in text.splitlines() if "EM " in l)

        # The result line (EM/EX/tokens) must be byte-identical.
        assert result_line(baseline) == result_line(guarded)

    def test_guard_telemetry_line(self, corpus_dir, capsys, tmp_path):
        code = main([
            "evaluate",
            "--train", str(corpus_dir / "train.json"),
            "--dev", str(corpus_dir / "dev.json"),
            "--approach", "zero",
            "--limit", "8",
            "--static-guard",
            "--trace-out", str(tmp_path / "t.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "static guard:" in out
        assert "executions avoided" in out


class TestIndexCommands:
    @pytest.fixture(scope="class")
    def store_path(self, corpus_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("stores") / "train.demostore"
        code = main([
            "index", "build",
            "--train", str(corpus_dir / "train.json"),
            "--out", str(path),
        ])
        assert code == 0
        return path

    def test_build_announces_store(self, store_path, capsys):
        capsys.readouterr()
        assert store_path.exists()
        code = main([
            "index", "info", "--store", str(store_path),
        ])
        assert code == 0

    def test_info_prints_manifest_json(self, store_path, capsys):
        import json

        assert main(["index", "info", "--store", str(store_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.store import FORMAT_VERSION

        assert payload["pool_size"] == 8 * 11
        assert payload["format_version"] == FORMAT_VERSION
        assert set(payload["state_counts"]) == {"1", "2", "3", "4"}

    def test_verify_fresh_store_ok(self, corpus_dir, store_path, capsys):
        code = main([
            "index", "verify",
            "--store", str(store_path),
            "--train", str(corpus_dir / "train.json"),
            "--deep",
        ])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_stale_store_exit_one(
        self, corpus_dir, store_path, capsys
    ):
        code = main([
            "index", "verify",
            "--store", str(store_path),
            "--train", str(corpus_dir / "dev.json"),
        ])
        assert code == 1
        assert "hash mismatch" in capsys.readouterr().out

    def test_verify_corrupt_store_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.demostore"
        bad.write_bytes(b"garbage")
        assert main(["index", "verify", "--store", str(bad)]) == 1

    def test_evaluate_warm_start_matches_cold(
        self, corpus_dir, store_path, capsys
    ):
        args = [
            "evaluate",
            "--train", str(corpus_dir / "train.json"),
            "--dev", str(corpus_dir / "dev.json"),
            "--approach", "purple",
            "--consistency", "2",
            "--limit", "6",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(
            args + ["--store", str(store_path), "--offline-index"]
        ) == 0
        warm = capsys.readouterr().out

        def result_line(text):
            return next(l for l in text.splitlines() if "EM " in l)

        assert result_line(cold) == result_line(warm)

    def test_offline_with_missing_store_fails_cleanly(self, corpus_dir):
        with pytest.raises(SystemExit, match="demonstration store"):
            main([
                "evaluate",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--approach", "purple",
                "--limit", "2",
                "--store", "/nonexistent/missing.demostore",
                "--offline-index",
            ])

    def test_store_flag_requires_purple(self, corpus_dir):
        with pytest.raises(SystemExit, match="purple"):
            main([
                "evaluate",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--approach", "zero",
                "--store", "anything.demostore",
            ])


class TestTranslate:
    def test_translate_prints_sql(self, corpus_dir, capsys):
        from repro.spider import Dataset

        dev = Dataset.load(corpus_dir / "dev.json")
        db_id = dev.db_ids()[0]
        code = main(
            [
                "translate",
                "How many hospitals are there?",
                "--db-id", db_id,
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--consistency", "2",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip().upper().startswith("SELECT")

    def test_unknown_db_rejected(self, corpus_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "translate", "q?",
                    "--db-id", "ghost",
                    "--train", str(corpus_dir / "train.json"),
                    "--dev", str(corpus_dir / "dev.json"),
                ]
            )


class TestServe:
    def test_check_builds_tenants_without_binding(self, corpus_dir, capsys):
        code = main(
            [
                "serve",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--consistency", "2",
                "--check",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve check ok: 1 tenant(s) (default)" in out

    def test_check_multi_tenant(self, corpus_dir, capsys):
        train = str(corpus_dir / "train.json")
        dev = str(corpus_dir / "dev.json")
        code = main(
            [
                "serve",
                "--tenant", f"acme={train}:{dev}",
                "--tenant", f"globex={train}:{dev}",
                "--consistency", "2",
                "--check",
            ]
        )
        assert code == 0
        assert "2 tenant(s) (acme, globex)" in capsys.readouterr().out

    def test_malformed_tenant_spec_rejected(self, corpus_dir):
        with pytest.raises(SystemExit, match="NAME=TRAIN:DEV"):
            main(["serve", "--tenant", "acme", "--check"])

    def test_store_flag_rejected_for_other_approaches(self, corpus_dir):
        with pytest.raises(SystemExit, match="purple approach only"):
            main(
                [
                    "serve",
                    "--train", str(corpus_dir / "train.json"),
                    "--dev", str(corpus_dir / "dev.json"),
                    "--approach", "zero",
                    "--store", "anything.demostore",
                    "--check",
                ]
            )


class TestAnalyzeDialect:
    def _dev(self, corpus_dir):
        return str(corpus_dir / "dev.json")

    def test_dialect_finding_exit_one(self, corpus_dir, capsys):
        code = main([
            "analyze", "SELECT `name` FROM doctor",
            "--db", "hospitals", "--dataset", self._dev(corpus_dir),
            "--dialect", "postgres",
        ])
        assert code == 1
        assert "dlct.identifier-quoting" in capsys.readouterr().out

    def test_json_carries_dialect(self, corpus_dir, capsys):
        import json

        code = main([
            "analyze", "SELECT IFNULL(name, 'x') FROM doctor",
            "--db", "hospitals", "--dataset", self._dev(corpus_dir),
            "--dialect", "postgres", "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["dialect"] == "postgres"
        (diag,) = payload["diagnostics"]
        assert diag["rule"] == "dlct.function-availability"
        assert diag["fix_hint"]["rewrite"] == "COALESCE(a, b)"

    def test_default_dialect_unchanged(self, corpus_dir, capsys):
        code = main([
            "analyze", "SELECT `name` FROM doctor",
            "--db", "hospitals", "--dataset", self._dev(corpus_dir),
        ])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_mysql_dialect_accepted(self, corpus_dir, capsys):
        code = main([
            "analyze", "SELECT name FROM doctor LIMIT 3",
            "--db", "hospitals", "--dataset", self._dev(corpus_dir),
            "--dialect", "mysql",
        ])
        assert code == 0
        assert "clean" in capsys.readouterr().out


class TestEvaluateDialect:
    def test_postgres_axis_scores_match_sqlite(self, corpus_dir, capsys):
        args = [
            "evaluate",
            "--train", str(corpus_dir / "train.json"),
            "--dev", str(corpus_dir / "dev.json"),
            "--approach", "purple",
            "--limit", "6",
            "--static-guard",
        ]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        assert main(args + ["--dialect", "postgres"]) == 0
        postgres = capsys.readouterr().out
        line = [l for l in baseline.splitlines() if "EM" in l]
        assert line == [l for l in postgres.splitlines() if "EM" in l]

    def test_dialect_is_purple_only(self, corpus_dir):
        with pytest.raises(SystemExit, match="purple approach only"):
            main([
                "evaluate",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--approach", "zero",
                "--limit", "2",
                "--dialect", "postgres",
            ])
