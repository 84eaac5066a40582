"""The versioned wire contract shared by the server, facade, and CLI.

Every surface that moves a translation across a process boundary — the
``repro.serve`` HTTP handlers, the :func:`repro.api.translate` facade,
and the ``repro translate`` CLI command — speaks these frozen dataclasses
and nothing else.  Each type carries a ``schema_version`` field and
round-trips through ``to_json``/``from_json``; unknown fields and
mismatched versions are rejected at the boundary with a
:class:`WireFormatError` rather than surfacing as attribute errors deep
inside the pipeline.

The wire types are deliberately *flat* (strings, numbers, tuples of
plain dicts): an engine-level :class:`~repro.eval.harness.TranslationTask`
holds a live :class:`~repro.schema.Database` object and can never cross
a socket.  Conversion between the two worlds happens in exactly one
place — :func:`task_from_request` / :func:`response_from_result` — so
the server and the batch engine construct byte-identical tasks.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

#: Version of the wire contract; bumped on any incompatible field change.
SCHEMA_VERSION = 1


class WireFormatError(ValueError):
    """A payload violated the wire contract (shape, types, or version)."""


def _check_version(data: dict, cls_name: str) -> None:
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise WireFormatError(
            f"{cls_name}: unsupported schema_version {version!r} "
            f"(this build speaks {SCHEMA_VERSION})"
        )


def _from_dict(cls, data: dict):
    """Shared strict constructor: reject unknown fields, check version."""
    if not isinstance(data, dict):
        raise WireFormatError(f"{cls.__name__}: expected an object")
    _check_version(data, cls.__name__)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise WireFormatError(
            f"{cls.__name__}: unknown field(s) {', '.join(unknown)}"
        )
    try:
        return cls(**data)
    except TypeError as exc:
        raise WireFormatError(f"{cls.__name__}: {exc}") from exc


def _from_json(cls, text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireFormatError(f"{cls.__name__}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise WireFormatError(
            f"{cls.__name__}: invalid JSON: nested too deeply"
        ) from exc
    return _from_dict(cls, data)


def _check_routing(request) -> None:
    """``tenant``/``request_id`` key dicts and trace lookups downstream:
    reject anything but strings here, at the boundary."""
    name = type(request).__name__
    if not isinstance(request.tenant, str) or not request.tenant:
        raise WireFormatError(f"{name}: tenant must be a non-empty string")
    if not isinstance(request.request_id, str):
        raise WireFormatError(f"{name}: request_id must be a string")


class _WireMixin:
    """``to_dict``/``to_json`` plus the strict ``from_*`` constructors."""

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form."""
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        """The canonical JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict):
        """Strict inverse of :meth:`to_dict` (unknown fields rejected)."""
        return _from_dict(cls, data)

    @classmethod
    def from_json(cls, text):
        """Strict inverse of :meth:`to_json`."""
        return _from_json(cls, text)


@dataclass(frozen=True)
class TranslateRequest(_WireMixin):
    """One NL→SQL translation request.

    ``request_id`` doubles as the request's observability *lane* (the
    same role an example id plays in the batch engine); when empty the
    service assigns a deterministic per-tenant sequence id.
    """

    question: str
    db_id: str
    tenant: str = "default"
    request_id: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not isinstance(self.question, str) or not self.question.strip():
            raise WireFormatError("TranslateRequest: question must be a "
                                  "non-empty string")
        if not isinstance(self.db_id, str) or not self.db_id:
            raise WireFormatError("TranslateRequest: db_id must be a "
                                  "non-empty string")
        _check_routing(self)


@dataclass(frozen=True)
class TranslateResponse(_WireMixin):
    """The answer to a :class:`TranslateRequest`, with its cost record.

    Mirrors :class:`~repro.eval.harness.TranslationResult` field-for-field
    on the resilience record, plus the serving-only ``shed`` flag (the
    request was admitted in degraded mode) and ``latency_ms``.
    """

    sql: str
    request_id: str = ""
    tenant: str = "default"
    db_id: str = ""
    prompt_tokens: int = 0
    output_tokens: int = 0
    llm_calls: int = 0
    degradation_level: int = 0
    retries: int = 0
    best_effort: bool = False
    repair_rounds: int = 0
    repaired: bool = False
    shed: bool = False
    latency_ms: float = 0.0
    schema_version: int = SCHEMA_VERSION


@dataclass(frozen=True)
class ExplainResponse(_WireMixin):
    """Diagnostics and pipeline provenance for one question (and
    optionally one SQL text analyzed against the tenant schema).

    ``diagnostics`` carries :meth:`~repro.analysis.diagnostics.Diagnostic.as_dict`
    entries from :mod:`repro.analysis.sqlcheck`; ``skeletons`` and
    ``demonstrations`` expose what PURPLE's retrieval actually did —
    predicted skeleton tokens with probabilities, and the selected
    demonstrations with the automaton level that matched them.
    """

    request_id: str = ""
    tenant: str = "default"
    db_id: str = ""
    sql: str = ""
    diagnostics: tuple = ()
    skeletons: tuple = ()
    demonstrations: tuple = ()
    pruned_tables: tuple = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        # JSON decodes tuples as lists; normalize so equality and
        # hashing behave across a round-trip.
        for name in ("diagnostics", "skeletons", "demonstrations",
                     "pruned_tables"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass(frozen=True)
class ErrorEnvelope(_WireMixin):
    """The single error shape every endpoint returns.

    ``code`` is a stable machine-readable token (``bad_request``,
    ``unknown_tenant``, ``unknown_database``, ``unsupported``,
    ``overloaded``, ``execution_error``); ``status`` the HTTP status the
    server pairs it with (carried on the wire so non-HTTP transports
    agree on severity).
    """

    code: str
    message: str
    request_id: str = ""
    status: int = 400
    schema_version: int = SCHEMA_VERSION


@dataclass(frozen=True)
class ExecuteRequest(_WireMixin):
    """Run one SQL statement against a tenant database."""

    sql: str
    db_id: str
    tenant: str = "default"
    request_id: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not isinstance(self.sql, str) or not self.sql.strip():
            raise WireFormatError("ExecuteRequest: sql must be a "
                                  "non-empty string")
        if not isinstance(self.db_id, str) or not self.db_id:
            raise WireFormatError("ExecuteRequest: db_id must be a "
                                  "non-empty string")
        _check_routing(self)


@dataclass(frozen=True)
class ExecuteResponse(_WireMixin):
    """Rows (or the normalized execution error) for one statement."""

    request_id: str = ""
    tenant: str = "default"
    db_id: str = ""
    columns: tuple = ()
    rows: tuple = ()
    row_count: int = 0
    error: Optional[str] = None
    error_code: Optional[str] = None
    timed_out: bool = False
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(
            self, "rows", tuple(tuple(row) for row in self.rows)
        )


# ---------------------------------------------------------------------------
# The one wire ↔ engine conversion boundary
# ---------------------------------------------------------------------------


def task_from_request(request: TranslateRequest, database):
    """Build the engine-level task a wire request describes.

    ``database`` is the live :class:`~repro.schema.Database` the caller
    resolved for ``request.db_id`` (the wire layer never owns schema
    resolution — tenants do).
    """
    from repro.eval.harness import TranslationTask

    return TranslationTask(question=request.question, database=database)


def response_from_result(
    request: TranslateRequest,
    result,
    shed: bool = False,
    latency_ms: float = 0.0,
) -> TranslateResponse:
    """Flatten an engine :class:`~repro.eval.harness.TranslationResult`
    onto the wire, preserving the full resilience record."""
    usage = result.usage
    return TranslateResponse(
        sql=result.sql,
        request_id=request.request_id,
        tenant=request.tenant,
        db_id=request.db_id,
        prompt_tokens=usage.prompt_tokens,
        output_tokens=usage.output_tokens,
        llm_calls=usage.calls,
        degradation_level=result.degradation_level,
        retries=result.retries,
        best_effort=result.best_effort,
        repair_rounds=result.repair_rounds,
        repaired=result.repaired,
        shed=shed,
        latency_ms=round(latency_ms, 3),
    )
