"""Tests for the epoch-driven simulation engine."""

from functools import partial

import numpy as np
import pytest

from repro.memsim.engine import EngineConfig, SimulationEngine
from repro.memsim.tiers import CXL_DRAM_PROTO, CXL_PCM, DDR5_LOCAL


class StubWorkload:
    """Fixed hot/cold access mix over a small address space."""

    name = "stub"

    def __init__(self, num_pages=2000, batches=5, batch_size=4096, hot_fraction=0.9):
        self.num_pages = num_pages
        self.batches = batches
        self.batch_size = batch_size
        self.hot_fraction = hot_fraction
        self.emitted = 0

    def next_batch(self, rng):
        if self.emitted >= self.batches:
            return None
        self.emitted += 1
        hot = rng.integers(0, 50, size=int(self.batch_size * self.hot_fraction))
        cold = rng.integers(50, self.num_pages, size=self.batch_size - hot.size)
        pages = np.concatenate([hot, cold])
        rng.shuffle(pages)
        is_write = rng.random(pages.size) < 0.3
        return pages, is_write


class NullPolicy:
    """Tiering policy that never migrates (first-touch behaviour)."""

    name = "null"

    def on_epoch(self, view):
        return 0.0


class PromoteAllPolicy:
    """Promotes every slow-tier miss it sees; for exercise only."""

    name = "promote-all"
    current_threshold = 1.0

    def on_epoch(self, view):
        slow_pages, _, _ = view.slow_miss_stream()
        view.promote(slow_pages)
        return 1000.0  # pretend 1 us of CPU overhead


class PromoteHotPolicy:
    """Promotes slow pages with >= 8 accesses in the epoch."""

    name = "promote-hot"

    def on_epoch(self, view):
        slow_pages, requests, _ = view.slow_miss_stream()
        view.promote(slow_pages[requests >= 8])
        return 0.0


def build_engine(policy=None, fast=500, slow=2000, **wl_kwargs):
    workload = StubWorkload(**wl_kwargs)
    return SimulationEngine(
        workload,
        [(DDR5_LOCAL, fast), (CXL_DRAM_PROTO, slow)],
        policy or NullPolicy(),
        EngineConfig(llc_capacity_pages=16, seed=7),
    )


def start_hot_set_on_slow_tier(engine, hot):
    """Redo ``engine``'s placement as first-touch from the highest page id
    down, so the fast tier holds the top page ids and the hot set (pages
    ``0 .. hot - 1``) starts wholly on the slow tier: the scenario
    promotion exists to fix.  The warm-up's random permutation would have
    put a fast-tier-sized sample of the hot set on the fast tier."""
    table, topology = engine.page_table, engine.topology
    for node in topology.nodes:
        node.tier.release(node.tier.used_pages)
    table.node_of_page.fill(-1)
    topology.first_touch_allocate(table, np.arange(table.num_pages - 1, -1, -1))
    assert (table.nodes_of(np.arange(hot)) == 1).all()


class TestEngineBasics:
    def test_run_produces_report(self):
        engine = build_engine()
        report = engine.run()
        assert len(report.epochs) == 5
        assert report.total_accesses == 5 * 4096
        assert report.total_time_ns > 0

    def test_capacity_check_at_construction(self):
        with pytest.raises(MemoryError):
            build_engine(fast=10, slow=10, num_pages=2000)

    def test_first_touch_allocation_happens(self):
        engine = build_engine()
        engine.run()
        occ = engine.page_table.occupancy()
        assert occ.get(0, 0) > 0  # fast node used first

    def test_mismatched_batch_shapes_rejected(self):
        engine = build_engine()
        with pytest.raises(ValueError):
            engine.step(np.arange(4), np.zeros(3, dtype=bool))


class TestPageIds:
    """``step`` takes page ids of any integer dtype without widening
    them, and refuses any other batch before the epoch books anything."""

    @staticmethod
    def placement(engine):
        nodes = engine.topology.nodes
        return engine.page_table.node_of_page.copy(), [n.tier.used_pages for n in nodes]

    def assert_nothing_booked(self, engine, warmed_up):
        """No epoch, and the placement the constructor's warm-up left."""
        assert engine.epoch == 0 and not engine.report.epochs
        node_of_page, used_pages = self.placement(engine)
        np.testing.assert_array_equal(node_of_page, warmed_up[0])
        assert used_pages == warmed_up[1]

    @pytest.mark.parametrize("pages", [np.array([1.7, 2.2, 3.9]), np.array([True, False, True])])
    def test_non_integer_ids_raise_type_error(self, pages):
        engine = build_engine()
        warmed_up = self.placement(engine)
        with pytest.raises(TypeError, match="must be integers"):
            engine.step(pages, np.zeros(pages.size, dtype=bool))
        self.assert_nothing_booked(engine, warmed_up)

    @pytest.mark.parametrize("bad", [-1, 2000])
    def test_out_of_range_id_raises_naming_it(self, bad):
        engine = build_engine()  # 2000 pages
        warmed_up = self.placement(engine)
        pages = np.array([5, bad, 7])
        with pytest.raises(ValueError, match=rf"page id {bad} outside \[0, 2000\)"):
            engine.step(pages, np.zeros(pages.size, dtype=bool))
        self.assert_nothing_booked(engine, warmed_up)

    def test_narrow_ids_simulate_like_int64_and_are_not_widened(self):
        views = []

        class Spy(NullPolicy):
            def on_epoch(self, view):
                views.append(view)
                return 0.0

        reports = []
        for dtype in (np.int64, np.uint16, np.uint32):
            engine = build_engine(policy=Spy())
            rng = np.random.default_rng(3)
            for _ in range(4):
                pages, is_write = engine.workload.next_batch(rng)
                engine.step(pages.astype(dtype), is_write)
            assert views[-1].pages.dtype == views[-1].miss_pages.dtype == dtype
            assert views[-1].touched_pages.dtype == np.int64
            reports.append(engine.report)
        for report in reports[1:]:
            assert report.summary() == reports[0].summary()
            assert report.series("llc_misses") == reports[0].series("llc_misses")


class TestEngineConfig:
    @pytest.mark.parametrize(
        "override",
        [
            {"mlp": 0},  # divides every epoch's latency
            {"mlp": -6},  # negative simulated time
            {"writeback_fraction": 3.0},  # three writebacks per miss
            {"writeback_fraction": -0.1},
            {"cpu_ns_per_access": -1.0},
            {"llc_hit_ns": -20.0},
        ],
    )
    def test_invalid_timing_rejected_at_construction(self, override):
        with pytest.raises(ValueError):
            EngineConfig(**override)

    def test_boundary_values_accepted(self):
        EngineConfig(writeback_fraction=0.0, cpu_ns_per_access=0.0, llc_hit_ns=0.0)
        EngineConfig(writeback_fraction=1.0, mlp=0.5)


class TestTimingModel:
    def test_slow_tier_placement_is_slower(self):
        """Same trace, all pages on slow tier vs all fast, must be slower."""
        wl = dict(num_pages=400, batches=6, batch_size=8192)
        fast_engine = build_engine(fast=500, slow=2000, **wl)
        fast_report = fast_engine.run()

        # Tiny fast tier: everything lands on CXL.
        slow_engine = build_engine(fast=1, slow=2000, **wl)
        slow_report = slow_engine.run()
        assert slow_report.total_time_ns > fast_report.total_time_ns * 1.2

    def test_epoch_duration_positive(self):
        report = build_engine().run()
        assert all(e.duration_ns > 0 for e in report.epochs)

    def test_sim_time_monotone(self):
        report = build_engine().run()
        times = [e.sim_time_ns for e in report.epochs]
        assert times == sorted(times)
        assert times[0] == 0.0


def spy_miss_masks(engine):
    """Record each epoch's access-level LLC miss mask as the filter
    returns it, keyed by the epoch it belongs to."""
    masks = {}
    filter_batch = engine.cache.filter_batch

    def spy(pages, distinct, counts):
        mask, misses = filter_batch(pages, distinct, counts)
        masks[engine.epoch] = mask
        return mask, misses

    engine.cache.filter_batch = spy
    return masks


def access_level_misses(view, masks):
    """Today's epoch misses the access-level way: ``(pages, is_write,
    nodes)`` of every LLC-missing access, in batch order."""
    mask = masks[view.epoch]
    pages = view.pages[mask]
    return pages, view.is_write[mask], view.page_table.node_of_page[pages]


class TestTrafficAccounting:
    def test_per_node_books_on_three_tiers(self):
        """Every per-node figure matches a per-node mask computation over
        the epoch's access-level misses, with misses on all three nodes."""
        workload = StubWorkload(num_pages=3000, batches=6, batch_size=8192, hot_fraction=0.5)
        config = EngineConfig(llc_capacity_pages=16, seed=11)
        expected, recorded = [], []

        class Spy(PromoteAllPolicy):
            def on_epoch(self, view):
                # placement as booked: this runs before any migration
                _, miss_is_write, nodes = access_level_misses(view, masks)
                books = {}
                for node in engine.topology.nodes:
                    on_node = nodes == node.node_id
                    count = int(on_node.sum())
                    writes = int((on_node & miss_is_write).sum())
                    if count:
                        books[node.node_id] = (
                            count,
                            (count - writes) * 64,
                            writes * 64 + int(count * config.writeback_fraction) * 64,
                        )
                expected.append(books)
                return super().on_epoch(view)

        engine = SimulationEngine(
            workload,
            [(DDR5_LOCAL, 400), (CXL_DRAM_PROTO, 900), (CXL_PCM, 3000)],
            Spy(),
            config,
        )
        masks = spy_miss_masks(engine)

        def record(node_id, read_bytes, write_bytes, seconds):
            recorded.append((engine.epoch, node_id, read_bytes, write_bytes))

        for node in engine.topology.nodes:
            node.tier.record_traffic = partial(record, node.node_id)
        report = engine.run()

        assert all(len(books) == 3 for books in expected), "a node saw no misses"
        assert recorded == [
            (epoch, node_id, read_bytes, write_bytes)
            for epoch, books in enumerate(expected)
            for node_id, (_, read_bytes, write_bytes) in sorted(books.items())
        ]
        for metrics, books in zip(report.epochs, expected, strict=True):
            slow = [book for node_id, book in books.items() if node_id != 0]
            assert metrics.llc_misses == sum(book[0] for book in books.values())
            assert metrics.fast_hits == books[0][0]
            assert metrics.slow_hits == sum(book[0] for book in slow)
            assert metrics.slow_read_bytes == sum(book[1] for book in slow)
            assert metrics.slow_write_bytes == sum(book[2] for book in slow)

    def test_traffic_split_by_node(self):
        engine = build_engine(fast=100, slow=4000, num_pages=3000)
        report = engine.run()
        # with a tiny fast tier most misses go to CXL
        assert report.total_slow_traffic_bytes > 0
        total_hits = sum(e.fast_hits + e.slow_hits for e in report.epochs)
        assert total_hits == report.total_llc_misses

    def test_accessed_bits_maintained(self):
        engine = build_engine()
        engine.run()
        assert engine.page_table.accessed_pages().size > 0

    def test_bandwidth_metrics_populated(self):
        engine = build_engine(fast=100, slow=4000, num_pages=3000)
        report = engine.run()
        assert any(e.slow_bandwidth_util > 0 for e in report.epochs)


class TestPolicyInteraction:
    def test_policy_overhead_charged(self):
        report = build_engine(policy=PromoteAllPolicy()).run()
        assert report.total_profiling_overhead_ns == pytest.approx(5 * 1000.0)

    def test_promotions_recorded_in_metrics(self):
        engine = build_engine(policy=PromoteAllPolicy(), fast=300, slow=4000, num_pages=3000)
        report = engine.run()
        assert report.total_promoted_pages > 0

    def test_promotion_improves_future_placement(self):
        """Promoted hot pages should serve later misses from the fast tier."""

        def run(policy):
            engine = build_engine(
                policy=policy, fast=60, slow=4000, num_pages=3000, batches=12, batch_size=8192
            )
            start_hot_set_on_slow_tier(engine, hot=50)
            return engine.run()

        null_report = run(NullPolicy())
        promo_report = run(PromoteHotPolicy())
        assert promo_report.fast_hit_ratio > null_report.fast_hit_ratio
        assert promo_report.total_time_ns < null_report.total_time_ns

    def test_threshold_recorded_from_policy(self):
        report = build_engine(policy=PromoteAllPolicy()).run()
        assert report.epochs[-1].threshold == 1.0


class TestPolicyInterface:
    def test_policy_needs_only_name_and_on_epoch(self):
        """The engine calls nothing on its policy but ``on_epoch``, and the
        view it hands over reaches no engine, LRU list or topology."""
        views = []

        class Minimal:
            name = "minimal"

            def on_epoch(self, view):
                views.append(view)
                return 0.0

        report = build_engine(policy=Minimal()).run()
        assert len(views) == len(report.epochs) == 5
        for view in views:
            for attr in ("engine", "migration", "lru", "topology"):
                assert not hasattr(view, attr), attr


class TestEpochView:
    def test_live_epoch_arrays_are_read_only(self):
        """An epoch the engine filters itself (nothing replayed) hands the
        policy read-only arrays, and the caller's batch stays writeable."""
        engine = build_engine()
        checked = []

        class Spy(NullPolicy):
            def on_epoch(self, view):
                arrays = [a for a in vars(view).values() if isinstance(a, np.ndarray)]
                assert len(arrays) == 7
                for array in arrays:
                    assert array.size > 0
                    with pytest.raises(ValueError):
                        array[0] = array[-1]
                checked.append(view.epoch)
                return 0.0

        engine.policy = Spy()
        pages = np.arange(64, dtype=np.int64)
        is_write = np.ones(64, dtype=bool)
        engine.step(pages, is_write)
        engine.run()
        assert checked == list(range(6))
        pages[0] = 1
        is_write[0] = False

    def test_slow_miss_stream_filters_nodes(self):
        engine = build_engine(fast=100, slow=4000, num_pages=3000)
        captured = {}

        class Spy(NullPolicy):
            def on_epoch(self, view):
                captured["stream"] = view.slow_miss_stream()
                nodes = view.page_table.nodes_of(captured["stream"][0])
                assert (nodes > 0).all()
                return 0.0

        engine.policy = Spy()
        engine.run()
        pages, requests, writes = captured["stream"]
        assert pages.size > 0
        assert pages.shape == requests.shape == writes.shape

    def test_slow_miss_stream_is_exactly_the_cxl_routed_misses(self):
        """The stream is the access-level miss batch restricted to slow
        nodes, aggregated per distinct page: its pages, each one's misses
        and each one's write misses."""
        engine = build_engine(fast=100, slow=4000, num_pages=3000)
        masks = spy_miss_masks(engine)
        seen = []

        class Spy(NullPolicy):
            def on_epoch(self, view):
                pages, requests, writes = view.slow_miss_stream()
                miss_pages, miss_is_write, nodes = access_level_misses(view, masks)
                on_slow = nodes > 0
                slow_pages, slow_requests = np.unique(miss_pages[on_slow], return_counts=True)
                np.testing.assert_array_equal(pages, slow_pages)
                np.testing.assert_array_equal(requests, slow_requests)
                slow_writes = np.bincount(miss_pages[on_slow & miss_is_write], minlength=3000)
                np.testing.assert_array_equal(writes, slow_writes[slow_pages])
                # the fast-node remainder plus the stream cover all misses
                assert requests.sum() + (~on_slow).sum() == miss_pages.size
                seen.append(pages.size)
                return 0.0

        engine.policy = Spy()
        engine.run()
        assert sum(seen) > 0

    def test_touched_page_without_misses_is_not_snooped(self):
        """A slow page the LLC fully serves sends no request: it is in the
        touched set with zero misses and absent from the stream."""
        engine = build_engine(fast=100, slow=4000, num_pages=2000)
        engine.page_table.map_pages(np.arange(2000), 1)
        engine.topology[1].tier.reserve(2000)
        views = []

        class Spy(NullPolicy):
            def on_epoch(self, view):
                views.append((view, view.slow_miss_stream()))
                return 0.0

        engine.policy = Spy()
        no_writes = np.zeros(64, dtype=bool)
        engine.step(np.full(64, 5), no_writes)  # page 5 becomes fully resident
        engine.step(np.array([5] * 10 + [7] * 3), no_writes[:13])
        view, (pages, requests, writes) = views[-1]
        np.testing.assert_array_equal(view.touched_pages, [5, 7])
        np.testing.assert_array_equal(view.touched_nodes, [1, 1])
        np.testing.assert_array_equal(view.touched_misses, [0, 3])
        np.testing.assert_array_equal(pages, [7])
        np.testing.assert_array_equal(requests, [3])
        np.testing.assert_array_equal(writes, [0])

    def test_slow_miss_stream_empty_when_fast_tier_absorbs_everything(self):
        """With the whole RSS on the fast node the CXL channel sees nothing."""
        engine = build_engine(fast=2500, slow=2000, num_pages=2000)
        streams = []

        class Spy(NullPolicy):
            def on_epoch(self, view):
                streams.append(view.slow_miss_stream())
                return 0.0

        engine.policy = Spy()
        engine.run()
        assert streams, "policy never ran"
        for pages, requests, writes in streams:
            assert pages.size == 0 and requests.size == 0 and writes.size == 0
            assert pages.dtype == np.int64
            assert requests.dtype == writes.dtype == np.int32
