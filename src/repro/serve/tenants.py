"""Tenant isolation: who owns which schemas and translator.

A *tenant* is one customer of the service: a set of databases it may
query (a :class:`~repro.spider.dataset.Dataset`) and a fitted
translator.

The :class:`TenantRegistry` is the service's only path from a wire-level
``tenant`` string to live objects.  Lookups of unknown tenants raise
:class:`UnknownTenantError` (the HTTP layer maps it to 404), and nothing
a tenant does can reach another tenant's databases: database resolution
goes through the owning :class:`Tenant`, never a global pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class UnknownTenantError(KeyError):
    """The request named a tenant this service does not host."""

    def __init__(self, tenant_id: str):
        super().__init__(tenant_id)
        self.tenant_id = tenant_id

    def __str__(self) -> str:
        return f"unknown tenant {self.tenant_id!r}"


class UnknownDatabaseError(KeyError):
    """The request named a database the tenant does not own."""

    def __init__(self, tenant_id: str, db_id: str):
        super().__init__(db_id)
        self.tenant_id = tenant_id
        self.db_id = db_id

    def __str__(self) -> str:
        return f"unknown database {self.db_id!r} for tenant {self.tenant_id!r}"


@dataclass
class Tenant:
    """One tenant's slice of the service.

    ``data`` holds the databases this tenant may query; ``translator``
    is the tenant's own fitted approach instance (instances are never
    shared across tenants — per-tenant repair budgets hang off
    them).
    """

    tenant_id: str
    data: object
    translator: object

    def database(self, db_id: str):
        """Resolve one of this tenant's databases or raise typed."""
        databases = getattr(self.data, "databases", {})
        if db_id not in databases:
            raise UnknownDatabaseError(self.tenant_id, db_id)
        return self.data.database(db_id)

    def db_ids(self) -> list:
        """The database ids this tenant may query, sorted."""
        return self.data.db_ids()


class TenantRegistry:
    """The service's tenant table.

    Insertion is configuration-time only (the ``repro serve`` command
    builds every tenant before binding the socket); lookups after that
    are read-only, so no lock is needed on the serving path.
    """

    def __init__(self):
        self._tenants: dict = {}

    def add(self, tenant: Tenant) -> Tenant:
        """Register a tenant; replacing an id is a configuration error."""
        if tenant.tenant_id in self._tenants:
            raise ValueError(f"duplicate tenant {tenant.tenant_id!r}")
        self._tenants[tenant.tenant_id] = tenant
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        """Resolve a tenant id or raise :class:`UnknownTenantError`."""
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise UnknownTenantError(tenant_id) from None

    def ids(self) -> list:
        """All hosted tenant ids, sorted."""
        return sorted(self._tenants)

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants[tid] for tid in self.ids())
