"""Serving-layer fixtures: one fitted tenant service over MockLLM.

Everything here is deterministic: the corpus comes from the session
``small_benchmark`` fixture, approaches are built through the facade,
and admission tests inject a :class:`~repro.llm.resilient.FakeClock`.
"""

import pytest

from repro import api
from repro.llm import MockLLM, profile_by_name
from repro.obs import Observer
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    NL2SQLService,
    ReproServer,
    Tenant,
    TenantRegistry,
)


def make_translator(train, consistency=3):
    """A fitted PURPLE instance over the deterministic mock provider."""
    return api.create(
        "purple", llm=MockLLM(profile_by_name("gpt4")), train=train,
        consistency_n=consistency,
    )


@pytest.fixture(scope="module")
def translator(train_set):
    return make_translator(train_set)


@pytest.fixture()
def service(translator, dev_set):
    """A single-tenant service (tenant id ``acme``) with an observer."""
    registry = TenantRegistry()
    registry.add(Tenant(tenant_id="acme", data=dev_set, translator=translator))
    svc = NL2SQLService(
        registry,
        AdmissionController(AdmissionPolicy(rate=1000.0, burst=1000)),
        observer=Observer(seed=0, log_level="info"),
    )
    yield svc
    svc.close()


@pytest.fixture()
def server(service):
    """``service`` behind a started HTTP server on an ephemeral port."""
    started = ReproServer(service, port=0).start()
    yield started
    started.shutdown()
    started.server_close()
