"""Python lint engine: a rule registry over the repo's own source tree.

The repo's source conventions used to live as ad-hoc walkers inside
individual tests (no ``print`` outside the render module, no unwaived
broad ``except``, no unused import).  This module hosts them as
registered AST rules over one engine, so a convention is written once,
surfaces identically in ``repro lint`` and in the tier-1 tests, and
reports through the shared :class:`~repro.analysis.diagnostics.Diagnostic`
model.

Determinism rules guard the repo's reproducibility discipline: results
must be a pure function of the seed, so wall-clock reads and the global
``random`` module are banned outside the whitelisted clock/rng
utilities, and mutable default arguments (shared state across calls)
are banned everywhere.

A deliberate exception to a rule is waived per line with
``# noqa: <rule-id>`` — both the full id (``py.broad-except``) and the
bare suffix (``broad-except``, the historical marker) are accepted.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from repro.analysis.diagnostics import Diagnostic, Span

#: Default lint root: the installed ``repro`` package itself.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class FileContext:
    """What a rule sees for one file."""

    path: Path  #: path relative to the package parent, e.g. repro/cli.py
    tree: ast.AST
    lines: tuple


@dataclass(frozen=True)
class LintRule:
    """One registered convention."""

    id: str
    description: str
    check: Callable[[FileContext], Iterator]
    #: files (relative to the package parent) exempt from this rule.
    allowed: frozenset = frozenset()


REGISTRY: dict = {}


def register(rule: LintRule) -> LintRule:
    """Add a rule to the registry (id collisions are a bug)."""
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate lint rule id {rule.id!r}")
    REGISTRY[rule.id] = rule
    return rule


def rule(rule_id: str, description: str, allowed: Iterable = ()):
    """Decorator form of :func:`register` for check functions.

    The check receives a :class:`FileContext` and yields
    ``(node, message)`` or ``(node, message, fix_hint)`` tuples, where
    ``node`` is any object with ``lineno``/``col_offset``.
    """
    def wrap(check: Callable) -> LintRule:
        return register(LintRule(
            id=rule_id,
            description=description,
            check=check,
            allowed=frozenset(Path(p) for p in allowed),
        ))
    return wrap


def _waived(line: str, rule_id: str) -> bool:
    """Whether a source line waives ``rule_id`` via a noqa comment."""
    marker = line.partition("# noqa:")[2]
    if not marker:
        return False
    tokens = {t.strip() for t in marker.split(",")}
    short = rule_id.partition(".")[2]
    return rule_id in tokens or (short and short in tokens)


class LintEngine:
    """Run the registered rules over a Python source tree."""

    def __init__(self, root: Path = PACKAGE_ROOT, rules: Optional[dict] = None):
        self.root = Path(root)
        self.rules = dict(rules) if rules is not None else dict(REGISTRY)

    def files(self) -> list:
        """All Python files under the root, deterministically ordered."""
        return sorted(self.root.rglob("*.py"))

    def run(self, files: Optional[Iterable] = None) -> list:
        """Lint the tree (or an explicit file list) into diagnostics."""
        diagnostics: list = []
        for path in (sorted(Path(f) for f in files) if files is not None
                     else self.files()):
            diagnostics.extend(self.run_file(path))
        return diagnostics

    def run_file(self, path: Path) -> list:
        """All diagnostics for one file."""
        relative = (
            path.relative_to(self.root.parent)
            if path.is_relative_to(self.root.parent) else path
        )
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [Diagnostic(
                rule="py.syntax-error",
                # The raw text *is* the diagnostic here: a SyntaxError
                # renders its own position context.
                message=str(exc),  # noqa: no-raw-exc-str
                file=str(relative),
                span=Span(line=exc.lineno or 1, col=exc.offset or 0),
            )]
        context = FileContext(
            path=relative, tree=tree, lines=tuple(source.splitlines())
        )
        diagnostics = []
        for lint_rule in self.rules.values():
            if relative in lint_rule.allowed:
                continue
            for finding in lint_rule.check(context):
                node, message, *rest = finding
                lineno = getattr(node, "lineno", 1)
                line = (
                    context.lines[lineno - 1]
                    if 0 < lineno <= len(context.lines) else ""
                )
                if _waived(line, lint_rule.id):
                    continue
                diagnostics.append(Diagnostic(
                    rule=lint_rule.id,
                    message=message,
                    file=str(relative),
                    span=Span(line=lineno, col=getattr(node, "col_offset", 0)),
                    fix_hint=rest[0] if rest else {},
                ))
        diagnostics.sort(key=lambda d: (d.file, d.span.line, d.span.col, d.rule))
        return diagnostics


def lint_tree(root: Path = PACKAGE_ROOT) -> list:
    """One-shot convenience: lint a source tree with all registered rules."""
    return LintEngine(root).run()


# ---------------------------------------------------------------------------
# Registered rules
# ---------------------------------------------------------------------------


@rule(
    "py.no-print",
    "print() bypasses the rendering boundary; route output through "
    "repro.obs.render or the structured logger",
    allowed=("repro/obs/render.py",),
)
def _no_print(ctx: FileContext):
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield node, "print() call outside repro/obs/render.py", {
                "replace_with": "repro.obs.render.out",
            }


def _is_broad(expr: Optional[ast.expr]) -> bool:
    if expr is None:
        return True  # bare except:
    if isinstance(expr, ast.Name):
        return expr.id in ("Exception", "BaseException")
    if isinstance(expr, ast.Attribute):
        return expr.attr in ("Exception", "BaseException")
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(item) for item in expr.elts)
    return False


@rule(
    "py.broad-except",
    "blanket exception handlers swallow provider faults and real bugs; "
    "catch a narrow type from the repro.llm.errors taxonomy",
)
def _broad_except(ctx: FileContext):
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and _is_broad(node.type):
            caught = "bare except" if node.type is None else ast.unparse(
                node.type
            )
            yield node, f"broad exception handler ({caught})", {
                "waiver": "# noqa: broad-except",
            }


_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today", "datetime.date.today",
})


def _dotted_name(expr: ast.expr) -> Optional[str]:
    parts: list = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    parts.append(expr.id)
    return ".".join(reversed(parts))


@rule(
    "py.wall-clock",
    "wall-clock reads make runs irreproducible; use time.monotonic / "
    "time.perf_counter for durations or an injectable clock",
    allowed=("repro/utils/clock.py",),
)
def _wall_clock(ctx: FileContext):
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield node, f"wall-clock read {dotted}()", {
                    "replace_with": "time.monotonic / time.perf_counter",
                }


@rule(
    "py.stdlib-random",
    "the global random module breaks seeded reproducibility; derive a "
    "numpy Generator via repro.utils.rng instead",
    allowed=("repro/utils/rng.py",),
)
def _stdlib_random(ctx: FileContext):
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node, "import of the stdlib random module", {
                        "replace_with": "repro.utils.rng.derive_rng",
                    }
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield node, "import from the stdlib random module", {
                    "replace_with": "repro.utils.rng.derive_rng",
                }


#: Packages whose public API surface must be self-documenting: the
#: paper-facing core pipeline and the evaluation harness.
_DOCSTRING_ROOTS = (
    "repro/core",
    "repro/eval",
)


@rule(
    "py.missing-docstring",
    "public functions in repro/core and repro/eval are the "
    "paper-facing API surface; each needs a non-empty docstring",
)
def _missing_docstring(ctx: FileContext):
    if not str(ctx.path).startswith(_DOCSTRING_ROOTS):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_"):
            continue
        docstring = ast.get_docstring(node)
        if not docstring or not docstring.strip():
            yield node, f"public function {node.name}() has no docstring", {
                "replace_with": "a one-line summary of behaviour and "
                                "parameters",
            }


@rule(
    "py.no-raw-exc-str",
    "str(exc) scatters ad-hoc failure-text parsing; normalize caught "
    "exceptions through repro.schema.errorinfo (exception_text / "
    "normalize_sqlite_error) so errors render identically everywhere",
    allowed=("repro/schema/errorinfo.py",),
)
def _no_raw_exc_str(ctx: FileContext):
    for handler in ast.walk(ctx.tree):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        for node in ast.walk(handler):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "str"
                and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == handler.name
            ):
                yield node, (
                    f"str({handler.name}) on a caught exception"
                ), {
                    "replace_with": "repro.schema.errorinfo.exception_text",
                }


#: The serving package: request-handler threads must never block
#: unboundedly.
_HANDLER_ROOT = "repro/serve"


@rule(
    "py.no-blocking-in-handler",
    "the serving layer runs on request-handler threads; time.sleep() "
    "stalls a handler (use the injectable Clock) and an unbounded "
    ".join() can hang shutdown forever (pass a timeout)",
)
def _no_blocking_in_handler(ctx: FileContext):
    if not str(ctx.path).startswith(_HANDLER_ROOT):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted == "time.sleep":
            yield node, "time.sleep() in the serving layer", {
                "replace_with": "an injectable repro.llm.resilient.Clock",
            }
            continue
        # A zero-argument .join() is a thread/queue join with no bound
        # (str.join always takes the iterable argument).
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and not node.args
            and not any(kw.arg == "timeout" for kw in node.keywords)
        ):
            yield node, "unbounded .join() in the serving layer", {
                "replace_with": ".join(timeout=...) with a bounded wait",
            }


#: Legal metric name: lowercase dot-namespaced, ``subsystem.name`` with
#: at least one dot (``serve.latency_ms``, ``llm.breaker.transitions``).
_METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

_METRIC_METHODS = frozenset({"count", "gauge", "observe"})

#: Receivers (final attribute segment) treated as metrics surfaces.
#: ``obs`` is the conventional ``repro.obs.runtime`` alias, ``metrics``
#: a registry, ``windows`` a WindowedMetrics — this keeps unrelated
#: methods like ``str.count`` / ``list.count`` out of scope.
_METRIC_RECEIVERS = frozenset({"obs", "metrics", "windows"})


def _is_metric_call(node: ast.Call, bare_helpers: frozenset) -> bool:
    if isinstance(node.func, ast.Name):
        return node.func.id in bare_helpers
    if isinstance(node.func, ast.Attribute):
        if node.func.attr not in _METRIC_METHODS:
            return False
        dotted = _dotted_name(node.func.value)
        return (
            dotted is not None
            and dotted.split(".")[-1] in _METRIC_RECEIVERS
        )
    return False


def _obs_helper_imports(tree: ast.AST) -> frozenset:
    """Names bound in this file by ``from repro.obs[...] import count/...``."""
    names = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.module
            and node.module.startswith("repro.obs")
        ):
            for alias in node.names:
                if alias.name in _METRIC_METHODS:
                    names.add(alias.asname or alias.name)
    return frozenset(names)


@rule(
    "py.metric-name-convention",
    "metric names passed to count/gauge/observe must be dot-namespaced "
    "string literals (subsystem.name) so dashboards, the Prometheus "
    "exposition, and repro report can group them without a schema",
    allowed=(
        # The runtime facade forwards caller-supplied names verbatim.
        "repro/obs/runtime.py",
    ),
)
def _metric_name_convention(ctx: FileContext):
    bare_helpers = _obs_helper_imports(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if not _is_metric_call(node, bare_helpers):
            continue
        if not node.args:
            yield node, (
                "metric call without a positional name argument"
            ), {"replace_with": 'a literal "subsystem.name" first argument'}
            continue
        name_arg = node.args[0]
        if not (isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)):
            yield name_arg, (
                "metric name must be a string literal, not an expression"
            ), {"replace_with": 'a literal "subsystem.name" first argument'}
            continue
        if not _METRIC_NAME.match(name_arg.value):
            yield name_arg, (
                f"metric name {name_arg.value!r} is not dot-namespaced "
                "(expected lowercase subsystem.name)"
            ), {"replace_with": 'a "subsystem.name" style metric name'}


@rule(
    "py.mutable-default",
    "mutable default arguments are shared across calls; default to None "
    "(or a dataclass field factory) and build inside the function",
)
def _mutable_default(ctx: FileContext):
    for node in ast.walk(ctx.tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                kind = type(default).__name__.lower()
                yield default, f"mutable default argument ({kind} literal)", {
                    "replace_with": "None, built inside the function body",
                }


def _annotation_names(tree: ast.AST) -> set:
    """Names read inside string annotations (``-> 'Iterable'``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for const in ast.walk(annotation):
            if not (isinstance(const, ast.Constant)
                    and isinstance(const.value, str)):
                continue
            try:
                parsed = ast.parse(const.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _exported_names(tree: ast.AST) -> set:
    """The string entries of a top-level ``__all__`` assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return names


@rule(
    "py.unused-import",
    "an import nothing reads costs start-up time, hides which modules "
    "really depend on which, and outlives the code that needed it; "
    "delete it (package __init__ modules re-export and are exempt)",
)
def _unused_import(ctx: FileContext):
    if ctx.path.name == "__init__.py":
        return
    used = {n.id for n in ast.walk(ctx.tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(ctx.tree) | _exported_names(ctx.tree)
    for node in ctx.tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if alias.name != "*" and name not in used:
                yield node, f"unused import {name}", {
                    "waiver": "# noqa: unused-import",
                }


#: Dialect-specific SQL surface syntax that must not be hardcoded:
#: backtick-quoted identifiers (MySQL) and the ANSI FETCH FIRST limit
#: form (Postgres-preferred).  Double backticks are rst code markup in
#: docstrings, not SQL, so the identifier branch requires a *single*
#: backtick on each side.
_DIALECT_FRAGMENT = re.compile(
    r"(?<!`)`[A-Za-z_]\w*`(?!`)|\bFETCH\s+FIRST\b",
    re.IGNORECASE,
)


@rule(
    "py.no-inline-dialect-literal",
    "dialect-specific SQL fragments outside the renderer and the "
    "capability matrix drift when a dialect's surface changes; render "
    "through repro.sqlkit.render or consult repro.analysis.dialects",
    allowed=(
        # The renderer emits dialect surface syntax by design, and the
        # capability matrix's rule messages quote it to explain fixes.
        "repro/sqlkit/render.py",
        "repro/analysis/dialects.py",
    ),
)
def _no_inline_dialect_literal(ctx: FileContext):
    docstrings = set()
    for node in ast.walk(ctx.tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                docstrings.add(id(body[0].value))
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            continue
        match = _DIALECT_FRAGMENT.search(node.value)
        if match is not None:
            yield node, (
                f"inline dialect-specific SQL fragment {match.group(0)!r}"
            ), {
                "replace_with": "repro.sqlkit.render.render_sql(..., dialect)",
                "waiver": "# noqa: no-inline-dialect-literal",
            }
