"""Unit tests for the Python lint engine and its registered rules."""

import pytest

from repro.analysis import REGISTRY, LintEngine, LintRule, lint_tree
from repro.analysis.pylint import register


def run_rule(tmp_path, rule_id, source, name="mod.py"):
    (tmp_path / name).write_text(source)
    engine = LintEngine(root=tmp_path, rules={rule_id: REGISTRY[rule_id]})
    return engine.run()


class TestEngine:
    def test_registry_has_the_five_conventions(self):
        assert set(REGISTRY) >= {
            "py.no-print",
            "py.broad-except",
            "py.wall-clock",
            "py.stdlib-random",
            "py.mutable-default",
        }

    def test_duplicate_rule_id_rejected(self):
        existing = next(iter(REGISTRY.values()))
        with pytest.raises(ValueError):
            register(LintRule(
                id=existing.id, description="dup", check=lambda ctx: iter(()),
            ))

    def test_syntax_error_reported_not_raised(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        findings = LintEngine(root=tmp_path).run()
        assert [d.rule for d in findings] == ["py.syntax-error"]

    def test_findings_sorted_and_located(self, tmp_path):
        source = "import random\nprint('x')\n"
        (tmp_path / "mod.py").write_text(source)
        findings = LintEngine(root=tmp_path, rules={
            rid: REGISTRY[rid] for rid in ("py.no-print", "py.stdlib-random")
        }).run()
        assert [(d.rule, d.span.line) for d in findings] == [
            ("py.stdlib-random", 1), ("py.no-print", 2),
        ]

    def test_explicit_file_list(self, tmp_path):
        (tmp_path / "a.py").write_text("print('a')\n")
        (tmp_path / "b.py").write_text("print('b')\n")
        engine = LintEngine(
            root=tmp_path, rules={"py.no-print": REGISTRY["py.no-print"]}
        )
        findings = engine.run(files=[tmp_path / "b.py"])
        assert len(findings) == 1
        assert findings[0].file.endswith("b.py")

    def test_waiver_accepts_full_and_bare_id(self, tmp_path):
        source = (
            "print('a')  # noqa: py.no-print\n"
            "print('b')  # noqa: no-print\n"
            "print('c')  # noqa: other-rule\n"
        )
        findings = run_rule(tmp_path, "py.no-print", source)
        assert [d.span.line for d in findings] == [3]


class TestDeterminismRules:
    def test_wall_clock_calls_flagged(self, tmp_path):
        source = (
            "import time\nimport datetime\n"
            "a = time.time()\n"
            "b = datetime.datetime.now()\n"
            "c = time.monotonic()\n"
            "d = time.perf_counter()\n"
        )
        findings = run_rule(tmp_path, "py.wall-clock", source)
        assert [d.span.line for d in findings] == [3, 4]

    def test_stdlib_random_import_flagged(self, tmp_path):
        source = "import random\nfrom random import choice\n"
        findings = run_rule(tmp_path, "py.stdlib-random", source)
        assert [d.span.line for d in findings] == [1, 2]

    def test_numpy_random_not_flagged(self, tmp_path):
        source = "from numpy.random import default_rng\nimport numpy\n"
        assert run_rule(tmp_path, "py.stdlib-random", source) == []

    def test_mutable_defaults_flagged(self, tmp_path):
        source = (
            "def f(a, b=[], *, c={}):\n    return a\n"
            "def g(a, b=None, c=()):\n    return a\n"
            "h = lambda xs=set(): xs\n"
        )
        findings = run_rule(tmp_path, "py.mutable-default", source)
        # set() is a call, not a literal — only the list and dict literals.
        assert [d.span.line for d in findings] == [1, 1]

    def test_fix_hints_are_machine_readable(self, tmp_path):
        findings = run_rule(tmp_path, "py.wall-clock", "import time\nt = time.time()\n")
        assert findings[0].fix_hint["replace_with"]


class TestMissingDocstringRule:
    def run_scoped(self, tmp_path, source, subdir="repro/core"):
        root = tmp_path / "repro"
        target = tmp_path / subdir
        target.mkdir(parents=True, exist_ok=True)
        (target / "mod.py").write_text(source)
        engine = LintEngine(
            root=root,
            rules={"py.missing-docstring": REGISTRY["py.missing-docstring"]},
        )
        return engine.run()

    def test_public_function_without_docstring_flagged(self, tmp_path):
        source = (
            "def documented():\n    \"\"\"Fine.\"\"\"\n"
            "def bare():\n    return 1\n"
            "def blank():\n    \"\"\"   \"\"\"\n"
        )
        findings = self.run_scoped(tmp_path, source)
        assert [(d.span.line, d.rule) for d in findings] == [
            (3, "py.missing-docstring"), (5, "py.missing-docstring"),
        ]

    def test_private_functions_exempt(self, tmp_path):
        source = "def _helper():\n    return 1\n"
        assert self.run_scoped(tmp_path, source) == []

    def test_methods_checked_too(self, tmp_path):
        source = (
            "class Thing:\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    def api(self):\n        return 1\n"
            "    def _impl(self):\n        return 2\n"
        )
        findings = self.run_scoped(tmp_path, source)
        assert [d.span.line for d in findings] == [3]

    def test_rule_scoped_to_documented_roots(self, tmp_path):
        source = "def bare():\n    return 1\n"
        assert self.run_scoped(tmp_path / "a", source, subdir="repro/llm") == []
        for i, subdir in enumerate(("repro/core", "repro/eval")):
            base = tmp_path / str(i)  # fresh tree per root under test
            assert len(self.run_scoped(base, source, subdir=subdir)) == 1


class TestNoRawExcStr:
    RULE = "py.no-raw-exc-str"

    def test_str_of_caught_exception_flagged(self, tmp_path):
        source = (
            "try:\n"
            "    pass\n"
            "except ValueError as exc:\n"
            "    msg = str(exc)\n"
        )
        findings = run_rule(tmp_path, self.RULE, source)
        assert [(d.rule, d.span.line) for d in findings] == [(self.RULE, 4)]
        assert "exception_text" in findings[0].fix_hint["replace_with"]

    def test_nested_use_in_fstring_flagged(self, tmp_path):
        source = (
            "try:\n"
            "    pass\n"
            "except KeyError as exc:\n"
            "    raise SystemExit(f'bad: {str(exc)}')\n"
        )
        assert len(run_rule(tmp_path, self.RULE, source)) == 1

    def test_other_str_calls_unflagged(self, tmp_path):
        source = (
            "try:\n"
            "    pass\n"
            "except ValueError as exc:\n"
            "    a = str(42)\n"        # not the handler's name
            "    b = str(exc.args)\n"  # attribute, not the bare exception
            "    c = repr(exc)\n"
            "x = str('fine')\n"
        )
        assert run_rule(tmp_path, self.RULE, source) == []

    def test_waiver_and_allowlist(self, tmp_path):
        source = (
            "try:\n"
            "    pass\n"
            "except ValueError as exc:\n"
            "    msg = str(exc)  # noqa: no-raw-exc-str\n"
        )
        assert run_rule(tmp_path, self.RULE, source) == []
        # The errorinfo module itself is exempt by path.
        allowed = tmp_path / "repro" / "schema"
        allowed.mkdir(parents=True)
        (allowed / "errorinfo.py").write_text(
            "try:\n"
            "    pass\n"
            "except ValueError as exc:\n"
            "    msg = str(exc)\n"
        )
        engine = LintEngine(
            root=tmp_path / "repro", rules={self.RULE: REGISTRY[self.RULE]}
        )
        assert engine.run() == []


class TestNoBlockingInHandler:
    RULE = "py.no-blocking-in-handler"

    def run_scoped(self, tmp_path, source, subdir="repro/serve"):
        root = tmp_path / "repro"
        target = tmp_path / subdir
        target.mkdir(parents=True, exist_ok=True)
        (target / "mod.py").write_text(source)
        engine = LintEngine(root=root, rules={self.RULE: REGISTRY[self.RULE]})
        return engine.run()

    def test_sleep_and_unbounded_join_flagged(self, tmp_path):
        source = (
            "import time\n"
            "def handler(thread):\n"
            "    time.sleep(0.1)\n"
            "    thread.join()\n"
        )
        findings = self.run_scoped(tmp_path, source)
        assert [(d.rule, d.span.line) for d in findings] == [
            (self.RULE, 3), (self.RULE, 4),
        ]

    def test_bounded_join_and_str_join_unflagged(self, tmp_path):
        source = (
            "def handler(thread, parts):\n"
            "    thread.join(timeout=5.0)\n"
            "    return ', '.join(parts)\n"
        )
        assert self.run_scoped(tmp_path, source) == []

    def test_scoped_to_serving_package(self, tmp_path):
        source = "import time\ndef f():\n    time.sleep(1)\n"
        assert self.run_scoped(tmp_path, source, subdir="repro/eval") == []
        assert len(self.run_scoped(tmp_path, source)) == 1

    def test_waivable_per_line(self, tmp_path):
        source = (
            "import time\n"
            "def f():\n"
            "    time.sleep(1)  # noqa: no-blocking-in-handler\n"
        )
        assert self.run_scoped(tmp_path, source) == []


class TestMetricNameConvention:
    RULE = "py.metric-name-convention"

    def test_dot_namespaced_literals_pass(self, tmp_path):
        source = (
            "obs.count('serve.requests', endpoint='t')\n"
            "metrics.observe('serve.latency_ms', 1.0)\n"
            "self.windows.gauge('pool.size', 3)\n"
        )
        assert run_rule(tmp_path, self.RULE, source) == []

    def test_non_namespaced_literal_flagged(self, tmp_path):
        findings = run_rule(tmp_path, self.RULE, "obs.count('hits')\n")
        assert [d.rule for d in findings] == [self.RULE]
        assert "dot-namespaced" in findings[0].message

    def test_uppercase_and_trailing_dot_flagged(self, tmp_path):
        source = (
            "obs.count('Serve.Requests')\n"
            "obs.count('serve.')\n"
        )
        assert len(run_rule(tmp_path, self.RULE, source)) == 2

    def test_non_literal_name_flagged(self, tmp_path):
        source = (
            "name = 'serve.requests'\n"
            "obs.count(name)\n"
            "obs.count('serve.' + kind)\n"
            "obs.count(f'serve.{kind}')\n"
        )
        findings = run_rule(tmp_path, self.RULE, source)
        assert [d.span.line for d in findings] == [2, 3, 4]

    def test_missing_name_argument_flagged(self, tmp_path):
        findings = run_rule(tmp_path, self.RULE,
                            "obs.count(endpoint='t')\n")
        assert len(findings) == 1
        assert "positional" in findings[0].message

    def test_unrelated_receivers_not_flagged(self, tmp_path):
        source = (
            "'a.b.c'.count('.')\n"
            "[1, 2].count(1)\n"
            "window_list.count(3)\n"
            "df.observe('whatever')\n"
        )
        assert run_rule(tmp_path, self.RULE, source) == []

    def test_bare_helpers_checked_when_imported_from_obs(self, tmp_path):
        flagged = (
            "from repro.obs.runtime import count, observe\n"
            "count('hits')\n"
            "observe('latency', 1.0)\n"
        )
        assert len(run_rule(tmp_path, self.RULE, flagged)) == 2
        local = (
            "def count(x):\n    return x\n"
            "count('hits')\n"
        )
        assert run_rule(tmp_path, self.RULE, local) == []

    def test_waivable_per_line(self, tmp_path):
        source = "obs.count(dynamic)  # noqa: metric-name-convention\n"
        assert run_rule(tmp_path, self.RULE, source) == []

    def test_runtime_facade_exempt_by_path(self, tmp_path):
        allowed = tmp_path / "repro" / "obs"
        allowed.mkdir(parents=True)
        (allowed / "runtime.py").write_text(
            "class Observer:\n"
            "    def forward(self, name, value):\n"
            "        self.metrics.count(name, value)\n"
        )
        engine = LintEngine(
            root=tmp_path / "repro", rules={self.RULE: REGISTRY[self.RULE]}
        )
        assert engine.run() == []

    def test_registered_for_tier1_enforcement(self):
        # Registered in the default registry -> TestSelfClean runs it
        # over the real package tree on every tier-1 pass.
        assert self.RULE in REGISTRY


class TestSelfClean:
    def test_package_tree_is_clean(self):
        findings = lint_tree()
        assert findings == [], "\n".join(d.render() for d in findings)
