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

    def test_cache_dir_reports_warm_hits(self, corpus_dir, capsys,
                                         tmp_path):
        """The prompt-cache line reads the run's telemetry: the warm
        re-run hits every lookup."""
        argv = [
            "evaluate",
            "--train", str(corpus_dir / "train.json"),
            "--dev", str(corpus_dir / "dev.json"),
            "--approach", "zero",
            "--limit", "4",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "/ 4 lookups" in capsys.readouterr().out
        assert main(argv) == 0
        assert ("prompt cache: 4 hits / 4 lookups (hit rate 100.0%)"
                in capsys.readouterr().out)

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

        # The import is read, so py.stdlib-random is the only finding.
        (tmp_path / "mod.py").write_text("import random\nrandom.seed(0)\n")
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
        assert list(payload) == ["sql", "db_id", "diagnostics"]
        assert payload["db_id"] == "hospitals"
        (diag,) = payload["diagnostics"]
        assert diag["rule"] == "sql.unknown-column"
        assert diag["fix_hint"]["error_class"] == "schema_hallucination"

    def test_backtick_identifier_is_clean(self, corpus_dir, capsys):
        code = main([
            "analyze", "SELECT `name` FROM doctor",
            "--db", "hospitals", "--dataset", self._dev(corpus_dir),
        ])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_db_rejected(self, corpus_dir):
        with pytest.raises(SystemExit):
            main([
                "analyze", "SELECT 1",
                "--db", "ghost", "--dataset", self._dev(corpus_dir),
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

    @pytest.mark.parametrize("question", ["   ", "How many\udcff?"])
    def test_malformed_question_rejected_before_training(self, question):
        # An undecodable argv byte arrives as a lone surrogate; the check
        # runs before the (missing) corpus is ever read.
        with pytest.raises(SystemExit, match="question"):
            main([
                "translate", question,
                "--db-id", "soccer",
                "--train", "missing/train.json",
                "--dev", "missing/dev.json",
            ])


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

    @pytest.mark.parametrize("flag,value,message", [
        ("--rate", "0", "rate"),
        ("--rate", "-5", "rate"),
        ("--burst", "0", "burst"),
        ("--window", "0", "window"),
        ("--trace-capacity", "0", "trace_capacity"),
        ("--slow-ms", "-1", "slow_ms"),
        ("--slo-availability", "1.5", "availability"),
        ("--slo-latency-ms", "-1", "latency"),
    ])
    def test_bad_setting_rejected_before_training(self, corpus_dir, capsys,
                                                  flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main([
                "serve",
                "--train", str(corpus_dir / "train.json"),
                "--dev", str(corpus_dir / "dev.json"),
                "--consistency", "2",
                flag, value,
                "--check",
            ])
        # A message exit (status 1), not a traceback or a clean exit.
        assert isinstance(exc.value.code, str)
        assert message in exc.value.code
        captured = capsys.readouterr()
        assert "training" not in captured.out
        assert "Traceback" not in captured.out + captured.err
