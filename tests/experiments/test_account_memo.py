"""Tests for the runner's TraceStore: traces and their account products.

The store lets every job replaying the same (workload, seed) trace skip
trace generation, and every job on the same LLC-filter geometry skip
the filter pipeline: the per-epoch ``(miss_pages, touched, misses,
write_misses)`` tuple is a pure function of the trace prefix and the
filter geometry, independent of policy and tier ratio.  These
tests pin the rules that keep that sharing sound: products are published
only when they cover a complete trace, consumers get read-only views, only
fresh workloads are stored, and one bound evicts a trace together with
its products.
"""

from collections import Counter

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig11 import fig11_jobs
from repro.experiments.fig12 import fig12_jobs
from repro.experiments.fig17 import fig17_jobs
from repro.experiments.runner import TraceStore, build_engine, build_workload, run_one
from repro.experiments.sweep import JobSpec, SweepExecutor
from repro.memsim.cachefilter import PageCacheFilter
from repro.memsim.metrics import EPOCH_DTYPE
from repro.workloads import make_workload, workload_names
from repro.workloads.base import TraceWorkload

CONFIG = ExperimentConfig(num_pages=2048, batches=6, batch_size=2048)


def _entry(tag: int):
    return (
        np.array([tag, tag + 1]),
        np.array([tag, tag + 1, tag + 2]),
        np.array([1, 1, tag % 2], dtype=np.int32),
        np.array([0, 1, 0], dtype=np.int32),
    )


def _replay(store):
    """A replay of gups' stored trace attached to a fresh engine (not run)."""
    workload = build_workload("gups", CONFIG)
    return store.replay(workload, build_engine(workload, "first-touch", CONFIG))


def _store_products(store, entries):
    """Record ``entries`` as gups' account products, one per epoch."""
    replay = _replay(store)
    for epoch, entry in enumerate(entries):
        replay.put(epoch, *entry)


@pytest.fixture
def store():
    return TraceStore()


@pytest.fixture
def process_store(monkeypatch):
    """A fresh store in place of the process's shared one."""
    fresh = TraceStore()
    monkeypatch.setattr(runner, "TRACE_STORE", fresh)
    return fresh


class TestEpochAccountMemo:
    def test_replay_is_read_only(self, store):
        """What a replay hands out is a read-only view of the stored
        arrays: a write raises, so does switching the write flag back on,
        and a second replay sees the stored values."""
        _store_products(store, [_entry(t) for t in range(CONFIG.batches)])
        replay = _replay(store)
        product = replay.get(0)
        batch = replay.next_batch(None)
        for array in (*product, *batch):
            with pytest.raises(ValueError):
                array[0] = array[1]
            with pytest.raises(ValueError):
                array.flags.writeable = True
        again = _replay(store)
        assert np.array_equal(again.get(0)[0], np.array([0, 1]))
        assert np.array_equal(again.next_batch(None)[0], batch[0])

    def test_replay_past_the_end_returns_none(self, store):
        _store_products(store, [_entry(t) for t in range(CONFIG.batches)])
        assert _replay(store).get(CONFIG.batches) is None

    def test_recording_memo_never_serves(self, store):
        replay = _replay(store)
        replay.put(0, *_entry(0))
        assert replay.get(0) is None  # record mode: engine computes fresh

    def test_put_stores_copies(self, store):
        """A writeable array handed to put is copied: its owner's later
        writes must not reach the store (the engine's frozen arrays are
        kept as they are)."""
        replay = _replay(store)
        pages, touched, misses, write_misses = _entry(3)
        replay.put(0, pages, touched, misses, write_misses)
        pages[:] = -1
        for epoch in range(1, CONFIG.batches):
            replay.put(epoch, *_entry(epoch))
        assert np.array_equal(_replay(store).get(0)[0], np.array([3, 4]))

    def test_put_past_the_end_leaves_the_published_products_alone(self, store):
        """Once the last epoch's entry publishes the products, a step past
        the trace's end (an explicit batch) records nothing more."""
        replay = _replay(store)
        for epoch in range(CONFIG.batches + 1):
            replay.put(epoch, *_entry(epoch))
        served = _replay(store)
        assert served.get(CONFIG.batches) is None
        assert np.array_equal(served.get(CONFIG.batches - 1)[0], _entry(CONFIG.batches - 1)[0])

    def test_put_only_appends_in_sequence(self, store):
        replay = _replay(store)
        replay.put(5, *_entry(5))  # out of sequence: dropped
        assert _replay(store).get(0) is None
        for epoch in range(CONFIG.batches):
            replay.put(epoch, *_entry(epoch))
        served = _replay(store)  # published with the last epoch's entry
        assert np.array_equal(served.get(0)[0], _entry(0)[0])
        assert np.array_equal(served.get(5)[0], _entry(5)[0])


class TestMemoSharingAcrossRuns:
    def test_memo_replay_is_bit_identical(self, process_store):
        """Cold run records the products; warm runs (same and different
        policies) replay them.  Reports must match the cold ones exactly."""
        cold_a = run_one("gups", "neomem", CONFIG)
        assert _replay(process_store).get(0) is not None  # trace was complete
        cold_b = run_one("gups", "memtis", CONFIG)
        warm_a = run_one("gups", "neomem", CONFIG)
        warm_b = run_one("gups", "memtis", CONFIG)
        for cold, warm in ((cold_a, warm_a), (cold_b, warm_b)):
            assert cold.summary() == warm.summary()
            for name in ("llc_misses", "fast_hits", "duration_ns", "accesses"):
                assert cold.series(name) == warm.series(name)

    def test_recorded_products_replay_sealed(self, process_store):
        """Neither the batches nor the products a live run recorded can
        have their write flag switched back on when replayed.  The miss
        stream keeps the trace's narrow dtype; the touched set is int64."""
        run_one("gups", "first-touch", CONFIG)
        replay = _replay(process_store)
        for epoch in range(CONFIG.batches):
            product, batch = replay.get(epoch), replay.next_batch(None)
            for array in (*product, *batch):
                with pytest.raises(ValueError):
                    array.flags.writeable = True
            assert product[0].dtype == batch[0].dtype == np.uint16
            assert [a.dtype for a in product[1:]] == [np.int64, np.int32, np.int32]

    @pytest.mark.parametrize(
        "name, policy", [("gups", "pebs"), ("silo", "neomem"), ("kvcache", "pebs")]
    )
    def test_replay_equals_live_run(self, process_store, name, policy):
        """A run that records the products and one that replays them, both
        on narrow stored ids, equal a live run on the workload's own int64
        batches bit for bit: every epoch column and the summary."""
        workload = build_workload(name, CONFIG)
        engine = build_engine(workload, policy, CONFIG)
        live = engine.run()
        for _ in range(2):  # records, then replays
            replayed = run_one(name, policy, CONFIG)
            assert replayed.summary() == live.summary()
            for column in EPOCH_DTYPE.names:
                assert replayed.column(column).tobytes() == live.column(column).tobytes()

    def test_truncated_run_does_not_publish(self, store):
        """A run stepped through only a prefix of the trace must not
        publish its products: that would hand later full runs a partial
        memo with cold filter state at the cliff edge."""
        workload = build_workload("gups", CONFIG)
        engine = build_engine(workload, "memtis", CONFIG)
        store.replay(workload, engine)
        for _ in range(CONFIG.batches - 1):
            engine.step(*engine.workload.next_batch(engine.rng))
        assert len(store) == 1  # the trace itself is complete
        assert _replay(store).get(0) is None
        engine.step(*engine.workload.next_batch(engine.rng))  # the last epoch publishes
        assert _replay(store).get(0) is not None


class TestTraceStore:
    def test_partly_drained_workload_is_rejected(self, store):
        """Draining a workload that already emitted a batch would store
        its tail under the full trace's key, and serve that short trace
        to every fresh workload after it."""
        drained = build_workload("gups", CONFIG)
        drained.next_batch(np.random.default_rng(CONFIG.seed))
        with pytest.raises(ValueError, match="already drained"):
            store.trace(drained, CONFIG.seed)
        assert len(store) == 0
        fresh = build_workload("gups", CONFIG)
        assert len(store.trace(fresh, CONFIG.seed)) == CONFIG.batches

    def test_workload_changed_after_construction_is_refused(self, store):
        """A changed workload keeps the key of its constructor arguments
        but would generate another trace: the store names the change."""
        fresh = build_workload("gups", CONFIG)
        store.trace(fresh, CONFIG.seed)
        changed = build_workload("gups", CONFIG)
        changed.hot_access_fraction = 0.5
        assert changed.trace_key(CONFIG.seed) == fresh.trace_key(CONFIG.seed)
        with pytest.raises(ValueError, match="'hot_access_fraction'"):
            store.trace(changed, CONFIG.seed)
        with pytest.raises(ValueError, match="'hot_access_fraction'"):
            store.replay(changed, build_engine(changed, "first-touch", CONFIG))

    @pytest.mark.parametrize("name", workload_names())
    def test_every_registry_workload_matches_its_fresh_twin(self, name):
        build_workload(name, CONFIG).check_unchanged()

    def test_least_recently_used_trace_is_evicted_with_its_products(self, store):
        _store_products(store, [_entry(t) for t in range(CONFIG.batches)])
        held = build_workload("gups", CONFIG).trace_key(CONFIG.seed)
        first_other = build_workload("silo", CONFIG).trace_key(0)

        def add_other(seed):
            store.trace(build_workload("silo", CONFIG), seed)

        for seed in range(TraceStore.MAX_ENTRIES - 1):
            add_other(seed)
        store.trace(build_workload("gups", CONFIG), CONFIG.seed)  # gups is newest
        add_other(100)
        assert len(store) == TraceStore.MAX_ENTRIES
        assert held in store and first_other not in store
        assert _replay(store).get(0) is not None  # a held trace keeps its products
        for seed in range(101, 101 + TraceStore.MAX_ENTRIES):
            add_other(seed)
        assert held not in store
        assert _replay(store).get(0) is None  # regenerated, products gone

    @pytest.mark.parametrize(
        "name, num_pages, dtype",
        [("gups", 12_288, np.uint16), ("kvcache", 40_960, np.uint16), ("gups", 70_000, np.uint32)],
    )
    def test_page_ids_are_stored_narrow(self, store, name, num_pages, dtype):
        """Up to 65,536 pages an id costs 2 bytes per access, above it 4."""
        workload = make_workload(name, num_pages=num_pages, total_batches=2, batch_size=4096)
        for pages, _ in store.trace(workload, CONFIG.seed):
            assert pages.dtype == dtype
            assert pages.nbytes == np.dtype(dtype).itemsize * pages.size

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_batch_outside_the_rss_is_refused(self, store, bad):
        """The store checks each drained batch before the lossless cast,
        and keeps nothing of a trace with an id outside ``[0, num_pages)``
        (a 64-page workload here)."""

        class Overrun(TraceWorkload):
            name = "overrun"

            def next_batch(self, rng):
                if self.emitted >= self.total_batches:
                    return None
                self.emitted += 1
                pages = np.arange(self.batch_size)
                pages[-1] = bad
                return pages, np.zeros(pages.size, dtype=bool)

            def generate(self, batch_index, rng):
                raise NotImplementedError

        workload = Overrun(num_pages=64, total_batches=2, batch_size=16)
        with pytest.raises(ValueError, match=rf"overrun: page id {bad} outside \[0, 64\)"):
            store.trace(workload, CONFIG.seed)
        assert len(store) == 0

    def test_trace_leaves_the_callers_workload_fresh(self, store):
        """The store drains a copy, so the workload it was handed can
        still run (or be replayed) from its first batch."""
        workload = build_workload("gups", CONFIG)
        trace = store.trace(workload, CONFIG.seed)
        assert workload.emitted == 0
        first = workload.next_batch(np.random.default_rng(CONFIG.seed))
        assert np.array_equal(first[0], trace[0][0])

    def test_equal_workloads_share_one_entry(self, store):
        first = store.trace(build_workload("gups", CONFIG), CONFIG.seed)
        second = store.trace(build_workload("gups", CONFIG), CONFIG.seed)
        assert second is first
        assert len(store) == 1

    def test_seed_is_part_of_the_key(self, store):
        a = store.trace(build_workload("gups", CONFIG), 1)
        b = store.trace(build_workload("gups", CONFIG), 2)
        assert len(store) == 2
        assert not all(np.array_equal(pa, pb) for (pa, _), (pb, _) in zip(a, b))

    @pytest.mark.parametrize("name", ["gups", "silo"])
    def test_stored_trace_is_bit_identical_to_live_generation(self, store, name):
        stored = store.trace(build_workload(name, CONFIG), CONFIG.seed)
        live_workload = build_workload(name, CONFIG)
        rng = np.random.default_rng(CONFIG.seed)
        live = []
        while (batch := live_workload.next_batch(rng)) is not None:
            live.append(batch)
        assert len(stored) == len(live) == CONFIG.batches
        for (pages, is_write), (live_pages, live_is_write) in zip(stored, live):
            assert np.array_equal(pages, live_pages)
            assert np.array_equal(is_write, live_is_write)

    def test_grid_dedupes_to_distinct_traces(self, process_store):
        """A trace is a function of the workload, not of the system or
        the tier ratio: 2 workloads x 2 ratios x 2 systems share 2."""
        jobs = fig12_jobs(config=CONFIG, workloads=("gups", "silo"), ratios=((1, 2), (1, 4)))
        assert len(jobs) == 8
        SweepExecutor(workers=1, cache_dir="").run(jobs)
        assert len(process_store) == 2

    def test_custom_runner_specs_are_skipped(self, process_store):
        """Jobs with their own runner build no workload, so they leave
        the store empty."""
        runner_path = "repro.experiments._testhooks:seed_runner"
        jobs = [JobSpec("gups", "none", CONFIG, seed=seed, runner=runner_path) for seed in range(3)]
        assert SweepExecutor(workers=1, cache_dir="").run(jobs) == [0.0, 1.0, 2.0]
        assert len(process_store) == 0

    def test_paper_grid_generates_and_filters_each_trace_once(self, process_store, monkeypatch):
        """Figs. 11, 12 and 17 replay 8 benchmark traces on one filter
        geometry: the first pass generates and filters each once, the
        second pass neither generates nor filters."""
        config = ExperimentConfig(num_pages=2048, batches=4, batch_size=2048)
        jobs = fig11_jobs(config=config) + fig12_jobs(config=config) + fig17_jobs(config=config)
        counts: Counter = Counter()
        next_batch, filter_batch = TraceWorkload.next_batch, PageCacheFilter.filter_batch

        def counted_next_batch(self, rng):
            batch = next_batch(self, rng)
            counts["generated"] += batch is not None
            return batch

        def counted_filter_batch(self, *args, **kwargs):
            counts["filtered"] += 1
            return filter_batch(self, *args, **kwargs)

        monkeypatch.setattr(TraceWorkload, "next_batch", counted_next_batch)
        monkeypatch.setattr(PageCacheFilter, "filter_batch", counted_filter_batch)
        executor = SweepExecutor(workers=1, cache_dir="")
        executor.run(jobs)
        assert counts == {"generated": 8 * config.batches, "filtered": 8 * config.batches}
        counts.clear()
        executor.run(jobs)
        assert +counts == Counter()
