"""The repro.api facade: registry, Translator protocol, shared defaults."""

import pytest

from repro import api
from repro.api import defaults
from repro.api.registry import _factories
from repro.llm import CHATGPT, GPT4, MockLLM


class TestRegistry:
    def test_builtins_registered(self):
        assert api.available() == (
            "c3", "dail", "din", "few", "plm", "purple", "zero"
        )

    def test_create_unknown_name(self):
        with pytest.raises(api.UnknownApproachError, match="no-such"):
            api.create("no-such")

    def test_register_decorator_and_conflict(self):
        @api.register("tmp-approach")
        def make(**kwargs):
            return "made"

        try:
            assert api.create("tmp-approach") == "made"
            api.register("tmp-approach", make)  # same factory: idempotent
            with pytest.raises(ValueError, match="already registered"):
                api.register("tmp-approach", lambda **kwargs: None)
        finally:
            _factories.pop("tmp-approach", None)

    def test_every_builtin_satisfies_translator(self, train_set):
        llm = MockLLM(CHATGPT, seed=1)
        for name in api.available():
            approach = api.create(name, llm=llm)
            assert isinstance(approach, api.Translator), name
            assert approach.name

    def test_create_fits_when_train_given(self, train_set, dev_set):
        approach = api.create(
            "few", llm=MockLLM(GPT4, seed=1), train=train_set
        )
        assert approach.prompt_builder is not None

    def test_purple_knobs_map_onto_config(self, train_set):
        approach = api.create(
            "purple", llm=MockLLM(GPT4, seed=1), budget=1024,
            consistency_n=3, seed=7,
        )
        assert approach.config.input_budget == 1024
        assert approach.config.consistency_n == 3
        assert approach.config.seed == 7

    def test_purple_config_and_knobs_are_exclusive(self):
        from repro.core import PurpleConfig

        with pytest.raises(TypeError, match="not both"):
            api.create(
                "purple", llm=MockLLM(GPT4, seed=1),
                config=PurpleConfig(), budget=512,
            )

    def test_shared_defaults(self):
        llm = MockLLM(GPT4, seed=1)
        assert api.create("few", llm=llm).budget == defaults.DEFAULT_BUDGET
        assert (
            api.create("c3", llm=llm).consistency_n
            == defaults.DEFAULT_CONSISTENCY_N
        )
        assert (
            api.create("dail", llm=llm).consistency_n
            == defaults.DEFAULT_DAIL_CONSISTENCY_N
        )
        assert api.create("plm").seed == defaults.DEFAULT_SEED


class TestTranslatorProtocol:
    def test_fit_returns_self_everywhere(self, train_set):
        llm = MockLLM(CHATGPT, seed=1)
        for name in api.available():
            approach = api.create(name, llm=llm)
            assert approach.fit(train_set) is approach, name

    def test_public_surface_is_all(self):
        assert api.__all__ == [
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
