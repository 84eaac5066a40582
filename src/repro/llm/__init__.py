"""The simulated LLM substrate.

No LLM API is reachable offline, so this package provides a *behavioural
simulator* with the properties the paper's argument rests on:

* strong NL understanding — intent is recovered from the question via
  lexical/synonym/value linking over the schema presented in the prompt
  (imperfect in exactly the ways real models are: synonyms, implicit
  columns, and domain knowledge degrade it);
* basic SQL knowledge — each understood intent is realized with
  profile-dependent *prior* preferences over operator compositions
  (e.g. ``NOT IN`` over ``EXCEPT``), which is why naive prompting gets
  high EX but low EM;
* in-context learning — demonstrations in the prompt whose skeleton
  matches a candidate composition pull the realization choice toward it,
  which is the mechanism PURPLE exploits;
* hallucination — the six error classes of Table 2 are injected at
  profile-dependent rates.

Profiles calibrate a ChatGPT-like and a GPT4-like model.
"""

from repro.llm.cache import CachingLLM, PromptCache, request_key
from repro.llm.degrade import LadderOutcome, best_effort_sql, run_ladder
from repro.llm.errors import (
    CircuitOpenError,
    LLMError,
    MalformedCompletion,
    ProviderTimeout,
    RateLimitError,
    ServerError,
    TruncatedCompletion,
)
from repro.llm.faults import FaultPolicy, FaultyLLM, fault_schedule
from repro.llm.interface import LLMRequest, LLMResponse
from repro.llm.latency import SimulatedLatencyLLM
from repro.llm.mock_llm import MockLLM
from repro.llm.resilient import (
    BreakerPolicy,
    CircuitBreaker,
    FakeClock,
    ResilientLLM,
    RetryPolicy,
    SystemClock,
)
from repro.llm.profiles import CHATGPT, GPT4, LLMProfile, profile_by_name
from repro.llm.promptfmt import (
    ParsedPrompt,
    PromptDemo,
    SchemaInfo,
    build_prompt,
    parse_prompt,
    render_demo,
    render_schema,
    render_task,
)
from repro.llm.tokenizer import count_tokens

__all__ = [
    "LLMRequest",
    "LLMResponse",
    "MockLLM",
    "LLMError",
    "RateLimitError",
    "ProviderTimeout",
    "ServerError",
    "TruncatedCompletion",
    "MalformedCompletion",
    "CircuitOpenError",
    "FaultPolicy",
    "FaultyLLM",
    "fault_schedule",
    "CachingLLM",
    "PromptCache",
    "request_key",
    "SimulatedLatencyLLM",
    "ResilientLLM",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "FakeClock",
    "SystemClock",
    "LadderOutcome",
    "run_ladder",
    "best_effort_sql",
    "CHATGPT",
    "GPT4",
    "LLMProfile",
    "profile_by_name",
    "ParsedPrompt",
    "PromptDemo",
    "SchemaInfo",
    "build_prompt",
    "parse_prompt",
    "render_demo",
    "render_schema",
    "render_task",
    "count_tokens",
]
