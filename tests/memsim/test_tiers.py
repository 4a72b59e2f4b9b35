"""Unit tests for tier latency/bandwidth models."""

import pytest

from repro.memsim.tiers import (
    CXL_DRAM_IDEAL,
    CXL_DRAM_PROTO,
    DDR5_LOCAL,
    CXL_PCM,
    MemoryTier,
    TierSpec,
)


def make_tier(capacity=100, spec=DDR5_LOCAL):
    return MemoryTier(spec, capacity, node_id=0)


class TestTierSpecs:
    def test_latency_ladder_matches_fig3a(self):
        """Fig 3-(a): local < CXL-ideal < CXL-proto, proto ~3.6x local."""
        assert DDR5_LOCAL.read_latency_ns < CXL_DRAM_IDEAL.read_latency_ns
        assert CXL_DRAM_IDEAL.read_latency_ns < CXL_DRAM_PROTO.read_latency_ns
        ratio = CXL_DRAM_PROTO.read_latency_ns / DDR5_LOCAL.read_latency_ns
        assert 3.0 < ratio < 4.2

    def test_ideal_cxl_in_published_range(self):
        assert 170 <= CXL_DRAM_IDEAL.read_latency_ns <= 250

    def test_pcm_write_asymmetry(self):
        assert CXL_PCM.write_latency_ns > CXL_PCM.read_latency_ns
        assert CXL_PCM.write_bandwidth_gbps < CXL_PCM.read_bandwidth_gbps

    def test_total_bandwidth(self):
        spec = TierSpec("x", 100, 100, 10, 6)
        assert spec.total_bandwidth_gbps == 16


class TestCapacity:
    def test_reserve_release(self):
        tier = make_tier(capacity=10)
        tier.reserve(4)
        assert tier.free_pages == 6
        tier.release(3)
        assert tier.free_pages == 9

    def test_reserve_overflow_raises(self):
        tier = make_tier(capacity=10)
        with pytest.raises(MemoryError):
            tier.reserve(11)

    def test_release_underflow_raises(self):
        tier = make_tier(capacity=10)
        with pytest.raises(ValueError):
            tier.release(1)

    def test_negative_amounts_raise(self):
        tier = make_tier()
        with pytest.raises(ValueError):
            tier.reserve(-1)
        with pytest.raises(ValueError):
            tier.release(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryTier(DDR5_LOCAL, 0, 0)


class TestBandwidthModel:
    def test_idle_tier_has_base_latency(self):
        tier = make_tier()
        assert tier.effective_latency_ns() == DDR5_LOCAL.read_latency_ns

    def test_utilization_computation(self):
        tier = make_tier(spec=CXL_DRAM_PROTO)
        # 16 GB/s peak; demand 8 GB over 1 s = 50 % utilization
        tier.record_traffic(4 * 10**9, 4 * 10**9, 1.0)
        assert tier.utilization() == pytest.approx(0.5)

    def test_utilization_clamped_at_one(self):
        tier = make_tier(spec=CXL_DRAM_PROTO)
        tier.record_traffic(10**12, 10**12, 0.001)
        assert tier.utilization() == 1.0

    def test_latency_inflates_under_load(self):
        tier = make_tier(spec=CXL_DRAM_PROTO)
        tier.record_traffic(15 * 10**9, 15 * 10**9, 1.0)  # 75 % util
        tier.end_epoch()
        assert tier.effective_latency_ns() > CXL_DRAM_PROTO.read_latency_ns

    def test_end_epoch_resets_counters(self):
        tier = make_tier()
        tier.record_traffic(1000, 1000, 1.0)
        tier.end_epoch()
        assert tier.utilization() == 0.0
        assert tier.last_utilization > 0.0 or tier.last_utilization == pytest.approx(
            2000 / (DDR5_LOCAL.total_bandwidth_gbps * 1e9)
        )

    def test_read_fraction(self):
        tier = make_tier()
        tier.record_traffic(300, 100, 1.0)
        assert tier.read_fraction() == pytest.approx(0.75)

    def test_read_fraction_defaults_half_when_idle(self):
        tier = make_tier()
        assert tier.read_fraction() == 0.5

    def test_write_latency_distinct(self):
        tier = make_tier(spec=CXL_PCM)
        assert tier.effective_latency_ns(is_write=True) > tier.effective_latency_ns()

    def test_effective_latency_is_the_inflation_of_the_last_epoch(self):
        """After construction and after each end_epoch, and not before it,
        the effective latencies equal the queueing formula at the last
        finished epoch's utilization, bit for bit."""
        tier = make_tier(spec=CXL_PCM)

        def formula(is_write):
            base = CXL_PCM.write_latency_ns if is_write else CXL_PCM.read_latency_ns
            rho = min(tier.last_utilization, MemoryTier.MAX_RHO)
            return base * (1.0 + MemoryTier.QUEUE_GAIN * rho / (1.0 - rho))

        loads = [(0, 0), (3e9, 1e9), (0.5e9, 0), (20e9, 20e9), (1e9, 2e9), (0, 0)]
        for read_bytes, write_bytes in loads:
            for is_write in (False, True):
                assert tier.effective_latency_ns(is_write=is_write) == formula(is_write)
            before = (tier.effective_latency_ns(), tier.effective_latency_ns(is_write=True))
            tier.record_traffic(read_bytes, write_bytes, 1.0)
            assert (tier.effective_latency_ns(), tier.effective_latency_ns(is_write=True)) == before
            tier.end_epoch()
        for is_write in (False, True):
            assert tier.effective_latency_ns(is_write=is_write) == formula(is_write)

    def test_latency_monotone_in_load(self):
        low, high = make_tier(spec=CXL_DRAM_PROTO), make_tier(spec=CXL_DRAM_PROTO)
        low.record_traffic(4 * 10**9, 0, 1.0)
        high.record_traffic(30 * 10**9, 0, 1.0)
        low.end_epoch()
        high.end_epoch()
        assert high.effective_latency_ns() > low.effective_latency_ns()
