"""Per-tenant address-space namespaces over one shared page table.

Co-located tenants each see a private, zero-based virtual address space;
the machine sees one flat page-id space shared by the page table, the
NUMA topology and the LLC model.  A :class:`TenantNamespace` is the
translation between the two — a contiguous window ``[base, base +
num_pages)`` of the shared space — and :class:`AddressSpaceLayout`
packs N tenants into disjoint windows so tenants can *contend* for the
fast tier without ever aliasing each other's pages.

(Contiguous windows mirror what a real multi-tenant tiering daemon
sees: per-process page ranges that are disjoint in the physical address
map but compete for the same fast-tier capacity and CXL bandwidth.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.multitenant.spec import TenantSpec


@dataclass(frozen=True)
class TenantNamespace:
    """One tenant's window into the shared page-id space."""

    tenant: str
    base: int
    num_pages: int

    @property
    def end(self) -> int:
        """One past the last global page id owned by the tenant."""
        return self.base + self.num_pages

    # ------------------------------------------------------------------
    def to_global(self, pages: np.ndarray) -> np.ndarray:
        """Translate tenant-local page ids into shared page ids."""
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size and (pages.min() < 0 or pages.max() >= self.num_pages):
            raise ValueError(
                f"tenant {self.tenant!r}: local page id outside "
                f"[0, {self.num_pages})"
            )
        return pages + self.base

    def owns(self, global_pages: np.ndarray) -> np.ndarray:
        """Boolean mask over ``global_pages``: True where inside the window."""
        global_pages = np.asarray(global_pages, dtype=np.int64)
        return (global_pages >= self.base) & (global_pages < self.end)


class AddressSpaceLayout:
    """Disjoint namespace assignment for a tenant mix.

    Tenants are packed back to back in spec order; the layout is the
    single source of truth for who owns which shared page id.
    """

    def __init__(self, specs: Sequence[TenantSpec]) -> None:
        if not specs:
            raise ValueError("layout needs at least one tenant")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        self.specs = tuple(specs)
        self._namespaces: dict[str, TenantNamespace] = {}
        base = 0
        for spec in specs:
            self._namespaces[spec.name] = TenantNamespace(spec.name, base, spec.num_pages)
            base += spec.num_pages
        self.total_pages = base

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[TenantNamespace]:
        return iter(self._namespaces.values())

    def namespace(self, tenant: str) -> TenantNamespace:
        return self._namespaces[tenant]
