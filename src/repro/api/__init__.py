"""``repro.api`` — the one stable surface for constructing approaches.

Everything that translates NL to SQL behind the harness — PURPLE, every
baseline, and any user-defined approach — implements the
:class:`Translator` protocol and is constructed by name through the
registry::

    from repro import api

    purple = api.create("purple", llm=MockLLM(GPT4), train=bench.train)
    api.available()          # ('c3', 'dail', 'din', 'few', 'plm', 'purple', 'zero')
    api.capabilities(purple)  # ('demote', 'explain', 'fit', 'health', 'translate')

    @api.register("my-approach")
    def _make(*, llm=None, train=None, **config):
        return MyApproach(llm, **config)

``create`` passes ``llm`` (the provider; LLM-free approaches ignore it),
``train`` (fit immediately when given), and approach-specific
configuration keywords through to the registered factory.  The CLI, the
benchmark suite, and the examples all construct approaches exclusively
through this module, which is enforced by a lint test.

Beyond construction, this module hosts the *capability* surface the
serving layer (:mod:`repro.serve`) runs on:

* :mod:`repro.api.types` — the versioned wire contract
  (:class:`~repro.api.types.TranslateRequest` and friends), spoken
  identically by the HTTP handlers, :func:`translate` below, and the
  ``repro translate`` CLI command;
* :func:`translate` — run one wire request through any translator;
* :func:`explain` / :func:`health` — optional capabilities with default
  implementations, so every translator answers ``health()`` and
  approaches without ``explain`` fail typed
  (:class:`CapabilityError`) instead of with ``AttributeError``;
* :func:`capabilities` — the flags of one live instance, read off what
  it implements; the one source the serving layer and ``health`` use.

``__all__`` below is the single public export list; anything outside it
is an implementation detail.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from repro.api.registry import UnknownApproachError, available, create, register
from repro.api.types import (
    TranslateRequest,
    TranslateResponse,
    response_from_result,
    task_from_request,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eval.harness import TranslationResult, TranslationTask
    from repro.spider.dataset import Dataset

__all__ = [
    "Translator",
    "UnknownApproachError",
    "available",
    "create",
    "register",
    "CapabilityError",
    "capabilities",
    "explain",
    "health",
    "translate",
]


@runtime_checkable
class Translator(Protocol):
    """The protocol every registered approach satisfies.

    A superset of the harness's minimal ``NL2SQLApproach`` (which only
    needs ``translate``): translators are also *trainable* — ``fit``
    prepares the approach from a demonstration pool and returns ``self``
    so construction chains.  Approaches with nothing to train implement
    ``fit`` as a no-op.

    Two further capabilities are *optional* (deliberately outside this
    runtime-checked protocol so legacy approaches still satisfy it) and
    reached through the module-level dispatchers, which provide the
    default implementations:

    * ``explain(task, sql=None) -> dict`` — static diagnostics plus
      retrieval provenance; dispatch via :func:`explain`, reported as
      the ``"explain"`` capability flag by :func:`capabilities`;
    * ``health() -> dict`` — liveness/fitness self-report; dispatch via
      :func:`health`, which synthesizes one for approaches without it.
    """

    name: str

    def fit(self, demo_pool: "Dataset") -> "Translator":
        """Prepare the approach from the demonstration pool."""
        ...

    def translate(self, task: "TranslationTask") -> "TranslationResult":
        """Translate one NL question to SQL."""
        ...


class CapabilityError(NotImplementedError):
    """The translator does not implement the requested capability."""


def capabilities(translator) -> tuple:
    """The capability flags of one live translator instance.

    Always includes ``fit``/``translate``/``health`` (the protocol plus
    the default ``health`` below); adds ``explain`` when the instance
    implements it and ``demote`` when its ``translate`` accepts a
    ``min_rung`` entry point for load shedding.
    """
    flags = {"fit", "health", "translate"}
    if callable(getattr(translator, "explain", None)):
        flags.add("explain")
    if getattr(translator, "max_demotion", 0) > 0:
        flags.add("demote")
    return tuple(sorted(flags))


def health(translator) -> dict:
    """The translator's health self-report.

    Dispatches to the instance's own ``health()`` when present; the
    default implementation reports the name and capability flags, which
    is enough for a liveness endpoint.
    """
    own = getattr(translator, "health", None)
    if callable(own):
        return own()
    return {
        "status": "ok",
        "approach": getattr(translator, "name", type(translator).__name__),
        "capabilities": list(capabilities(translator)),
    }


def explain(translator, task, sql: Optional[str] = None) -> dict:
    """Static diagnostics and retrieval provenance for one task.

    Only translators with the ``explain`` capability implement
    this; the default is a typed :class:`CapabilityError` so transport
    layers can answer 501 instead of crashing the request thread.
    """
    own = getattr(translator, "explain", None)
    if not callable(own):
        raise CapabilityError(
            f"{getattr(translator, 'name', type(translator).__name__)} "
            "does not support explain"
        )
    return own(task, sql=sql)


def translate(translator, request, *, database,
              min_rung: int = 0) -> TranslateResponse:
    """Run one wire-level :class:`~repro.api.types.TranslateRequest`.

    The single entry point behind the HTTP ``/v1/translate`` handler and
    the ``repro translate`` CLI command: converts the wire request to an
    engine task against the resolved ``database``, runs the translator
    (entering its degradation ladder at ``min_rung`` when the instance
    supports demotion), and flattens the result back onto the wire.

    :raises TypeError: ``request`` is not a ``TranslateRequest`` (an
        engine :class:`~repro.eval.harness.TranslationTask` included).
    """
    if not isinstance(request, TranslateRequest):
        raise TypeError(
            f"expected a TranslateRequest, got {type(request).__name__}"
        )
    task = task_from_request(request, database)
    demotion = min(min_rung, getattr(translator, "max_demotion", 0))
    if demotion > 0:
        result = translator.translate(task, min_rung=demotion)
    else:
        result = translator.translate(task)
    return response_from_result(request, result, shed=min_rung > 0)
