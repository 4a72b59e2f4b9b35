"""Tenant namespace tests: translation, ownership, non-aliasing."""

import numpy as np
import pytest

from repro.multitenant.namespace import AddressSpaceLayout, TenantNamespace
from repro.multitenant.spec import TenantSpec


def specs_of(sizes):
    return [TenantSpec(name=f"t{i}", workload="gups", num_pages=n) for i, n in enumerate(sizes)]


class TestTenantNamespace:
    def test_to_global_offsets_by_base(self):
        ns = TenantNamespace("t0", base=100, num_pages=50)
        local = np.array([0, 7, 49])
        glob = ns.to_global(local)
        assert (glob == local + 100).all()
        assert ns.owns(glob).all()

    def test_local_bounds_enforced(self):
        ns = TenantNamespace("t0", base=100, num_pages=50)
        with pytest.raises(ValueError):
            ns.to_global(np.array([50]))
        with pytest.raises(ValueError):
            ns.to_global(np.array([-1]))

    def test_owns_mask(self):
        ns = TenantNamespace("t0", base=10, num_pages=5)
        mask = ns.owns(np.array([9, 10, 14, 15]))
        assert mask.tolist() == [False, True, True, False]


class TestAddressSpaceLayout:
    def test_windows_are_contiguous_and_disjoint(self):
        layout = AddressSpaceLayout(specs_of([100, 200, 50]))
        windows = [(ns.base, ns.end) for ns in layout]
        assert windows == [(0, 100), (100, 300), (300, 350)]
        assert layout.total_pages == 350

    def test_namespaces_never_alias_property(self):
        """Random tenant mixes: translated pages never collide."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            sizes = rng.integers(1, 5000, size=rng.integers(2, 9)).tolist()
            layout = AddressSpaceLayout(specs_of(sizes))
            seen = np.zeros(layout.total_pages, dtype=np.int32)
            for ns in layout:
                local = rng.integers(0, ns.num_pages, size=min(ns.num_pages, 256))
                seen[ns.to_global(np.unique(local))] += 1
                # full windows tile the space exactly once
            covers = np.zeros(layout.total_pages, dtype=np.int32)
            for ns in layout:
                covers[ns.base : ns.end] += 1
            assert (covers == 1).all(), "windows must partition the space"
            assert seen.max() <= 1, "two tenants translated to the same page"

    def test_duplicate_names_rejected(self):
        specs = specs_of([10, 10])
        bad = [specs[0], TenantSpec(name="t0", workload="gups", num_pages=5)]
        with pytest.raises(ValueError):
            AddressSpaceLayout(bad)

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            AddressSpaceLayout([])

    def test_namespace_looked_up_by_tenant_name(self):
        layout = AddressSpaceLayout(specs_of([100, 200, 50]))
        assert len(layout) == 3
        ns = layout.namespace("t1")
        assert (ns.tenant, ns.base, ns.end) == ("t1", 100, 300)
        assert [ns.tenant for ns in layout] == ["t0", "t1", "t2"]
        with pytest.raises(KeyError):
            layout.namespace("t3")


class TestTenantSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"num_pages": 0},
            {"weight": 0.0},
            {"fast_quota_fraction": -0.1},
            {"fast_quota_fraction": 1.5},
        ],
        ids=["empty-name", "no-pages", "zero-weight", "negative-quota", "quota-above-one"],
    )
    def test_invalid_spec_rejected(self, overrides):
        fields = {"name": "t0", "workload": "gups", "num_pages": 10, **overrides}
        with pytest.raises(ValueError):
            TenantSpec(**fields)

    def test_quota_bounds_are_inclusive(self):
        for fraction in (None, 0.0, 1.0):
            spec = TenantSpec(
                name="t0", workload="gups", num_pages=10, fast_quota_fraction=fraction
            )
            assert spec.fast_quota_fraction == fraction
