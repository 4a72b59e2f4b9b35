"""Tests for the Count-Min sketch with hot/valid bits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.neoprof import sketch as sketch_module
from repro.core.neoprof.detector import HotPageDetector
from repro.core.neoprof.histogram import HistogramUnit
from repro.core.neoprof.sketch import CountMinSketch


def small_sketch(width=1024, depth=2, **kwargs):
    return CountMinSketch(width=width, depth=depth, **kwargs)


class TestConstruction:
    def test_table_iv_defaults(self):
        s = CountMinSketch()
        assert s.width == 512 * 1024
        assert s.depth == 2
        assert s.counter_max == 2**16 - 1

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=1000)
        with pytest.raises(ValueError):
            CountMinSketch(depth=0)
        with pytest.raises(ValueError):
            CountMinSketch(counter_bits=0)

    def test_sram_bits(self):
        s = small_sketch(width=1024, depth=2, counter_bits=16)
        assert s.sram_bits == 2 * 1024 * 18


class TestEstimation:
    def test_never_underestimates(self):
        """The CM guarantee a(P) <= a_hat(P) must hold exactly."""
        s = small_sketch()
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 500, size=20_000, dtype=np.uint64)
        s.update_batch(stream)
        true_counts = np.bincount(stream.astype(np.int64), minlength=500)
        pages = np.arange(500, dtype=np.uint64)
        estimates = s.estimate_batch(pages)
        assert (estimates >= true_counts).all()

    def test_exact_when_no_collisions(self):
        s = small_sketch(width=4096)
        pages = np.repeat(np.arange(4, dtype=np.uint64), [5, 10, 15, 20])
        s.update_batch(pages)
        est = s.estimate_batch(np.arange(4, dtype=np.uint64))
        # With 4 pages in a 4096-wide sketch collisions are overwhelmingly
        # unlikely; estimates should be exact.
        assert est.tolist() == [5, 10, 15, 20]

    def test_unseen_page_estimate_zero_when_empty(self):
        s = small_sketch()
        assert s.estimate(1234) == 0

    def test_empty_batch(self):
        s = small_sketch()
        s.update_batch(np.array([], dtype=np.uint64))
        assert s.total_updates == 0
        assert s.estimate_batch(np.array([], dtype=np.uint64)).size == 0

    def test_counter_saturation(self):
        s = small_sketch(counter_bits=4)  # max 15
        s.update_batch(np.zeros(100, dtype=np.uint64))
        assert s.estimate(0) == 15

    def test_total_updates_tracked(self):
        s = small_sketch()
        s.update_batch(np.arange(10, dtype=np.uint64))
        s.update_batch(np.arange(5, dtype=np.uint64))
        assert s.total_updates == 15


class TestValidBits:
    def test_clear_resets_estimates(self):
        s = small_sketch()
        s.update_batch(np.arange(100, dtype=np.uint64))
        s.clear()
        assert s.estimate(5) == 0
        assert s.total_updates == 0

    def test_counts_accumulate_after_clear(self):
        s = small_sketch()
        s.update_batch(np.zeros(7, dtype=np.uint64))
        s.clear()
        s.update_batch(np.zeros(3, dtype=np.uint64))
        assert s.estimate(0) == 3

    def test_lane_snapshot_valid_aware(self):
        s = small_sketch()
        s.update_batch(np.arange(50, dtype=np.uint64))
        assert s.lane_snapshot(0).sum() == 50
        s.clear()
        assert s.lane_snapshot(0).sum() == 0

    def test_many_clears_stable(self):
        s = small_sketch()
        for round_idx in range(10):
            s.update_batch(np.full(round_idx + 1, 7, dtype=np.uint64))
            assert s.estimate(7) == round_idx + 1
            s.clear()


class TestHotBits:
    def test_hot_bits_initially_unset(self):
        s = small_sketch()
        s.update_batch(np.arange(10, dtype=np.uint64))
        assert not s.hot_bits_all_set(np.arange(10, dtype=np.uint64)).any()

    def test_set_then_check(self):
        s = small_sketch()
        pages = np.array([3, 4], dtype=np.uint64)
        s.update_batch(pages)
        s.set_hot_bits(pages)
        assert s.hot_bits_all_set(pages).all()

    def test_clear_resets_hot_bits(self):
        s = small_sketch()
        pages = np.array([3], dtype=np.uint64)
        s.update_batch(pages)
        s.set_hot_bits(pages)
        s.clear()
        assert not s.hot_bits_all_set(pages).any()

    def test_empty_inputs(self):
        s = small_sketch()
        assert s.hot_bits_all_set(np.array([], dtype=np.uint64)).size == 0
        s.set_hot_bits(np.array([], dtype=np.uint64))  # no crash


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_estimate_lower_bounded_by_truth(self, values):
        s = small_sketch(width=256)
        stream = np.array(values, dtype=np.uint64)
        s.update_batch(stream)
        unique, counts = np.unique(stream, return_counts=True)
        estimates = s.estimate_batch(unique)
        assert (estimates >= counts).all()

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_clear_always_zeroes(self, values):
        s = small_sketch(width=128)
        s.update_batch(np.array(values, dtype=np.uint64))
        s.clear()
        probe = np.arange(0, 1001, 97, dtype=np.uint64)
        assert (s.estimate_batch(probe) == 0).all()


class TestSaturationAtCounterMax:
    """Regression: a saturated counter holds at the ceiling instead of
    wrapping, up to 32-bit counters."""

    def test_counter_pinned_at_max_does_not_wrap(self):
        s = small_sketch(counter_bits=16)  # counter_max 65535
        page = np.array([42], dtype=np.uint64)
        s.update_batch(page, counts=np.array([s.counter_max]))
        assert s.estimate(42) == s.counter_max
        # pushing past the ceiling must hold, not wrap to a small value
        s.update_batch(page, counts=np.array([10]))
        assert s.estimate(42) == s.counter_max

    def test_huge_single_batch_clamps(self):
        s = small_sketch(counter_bits=16)
        page = np.array([7], dtype=np.uint64)
        s.update_batch(page, counts=np.array([2**20]))  # would wrap uint16 math
        assert s.estimate(7) == s.counter_max

    def test_full_width_counters_clamp(self):
        # 32-bit counters: increments near 2**32 exercise the int64
        # headroom the clamp relies on
        s = small_sketch(counter_bits=32)
        page = np.array([3], dtype=np.uint64)
        s.update_batch(page, counts=np.array([s.counter_max - 1]))
        s.update_batch(page, counts=np.array([5]))
        assert s.estimate(3) == s.counter_max

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_estimates_never_exceed_counter_max(self, pages):
        s = small_sketch(width=64, counter_bits=4)  # tiny: collisions certain
        arr = np.array(pages, dtype=np.uint64)
        for _ in range(3):
            s.update_batch(arr)
        est = s.estimate_batch(np.unique(arr))
        assert (est <= s.counter_max).all()
        assert (est >= 0).all()


class TestFusedUpdateEstimate:
    def test_fused_equals_sequential(self):
        rng = np.random.default_rng(17)
        a = small_sketch(width=512, counter_bits=8)
        b = small_sketch(width=512, counter_bits=8)
        for _ in range(5):
            pages = rng.integers(0, 3000, size=400).astype(np.uint64)
            unique, counts = np.unique(pages, return_counts=True)
            fused = a.update_estimate_batch(unique, counts=counts)
            b.update_batch(unique, counts=counts)
            sequential = b.estimate_batch(unique)
            assert np.array_equal(fused, sequential)
        assert np.array_equal(a._counters, b._counters)

    def test_fused_empty_batch(self):
        s = small_sketch()
        out = s.update_estimate_batch(np.array([], dtype=np.uint64))
        assert out.size == 0 and out.dtype == np.int64


class TestCountsFold:
    @given(
        st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=40, unique=True),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_repeated_pages(self, pages, data):
        """``counts=c`` streams like ``np.repeat(pages, c)``, saturation
        included, on a sketch narrow enough that entries collide."""
        counts = data.draw(st.lists(st.integers(0, 40), min_size=len(pages), max_size=len(pages)))
        pages = np.array(pages, dtype=np.uint64)
        counts = np.array(counts, dtype=np.int64)
        folded = small_sketch(width=16, counter_bits=5)
        streamed = small_sketch(width=16, counter_bits=5)
        for _ in range(2):
            folded.update_batch(pages, counts=counts)
            streamed.update_batch(np.repeat(pages, counts))
        assert np.array_equal(folded._counters, streamed._counters)
        assert folded.total_updates == streamed.total_updates == 2 * int(counts.sum())

    def test_counts_must_match_pages(self):
        s = small_sketch(depth=1)
        with pytest.raises(ValueError):
            s.update_batch(np.arange(3, dtype=np.uint64), counts=np.array([2]))


class TestSparseHistogramReadout:
    """lane_valid_counters + compute_sparse must reproduce the dense
    full-row histogram exactly (the SET_HIST_EN fast path)."""

    def test_sparse_matches_dense_snapshot(self):
        rng = np.random.default_rng(23)
        s = small_sketch(width=2048, counter_bits=8)
        hu = HistogramUnit(16)
        for round_ in range(8):
            pages = rng.integers(0, 6000, size=rng.integers(1, 2000)).astype(np.uint64)
            unique, counts = np.unique(pages, return_counts=True)
            s.update_batch(unique, counts=counts)
            if round_ % 3 == 2:
                s.clear()
            dense = hu.compute(s.lane_snapshot(0))
            sparse = hu.compute_sparse(s.lane_valid_counters(0), s.width)
            assert np.array_equal(dense.counts, sparse.counts)
            assert np.array_equal(dense.edges, sparse.edges)

    def test_clear_empties_every_lane(self):
        s = small_sketch(width=256)
        s.update_batch(np.arange(50, dtype=np.uint64))
        for lane in range(s.depth):
            assert s.lane_valid_counters(lane).sum() == 50
        s.clear()
        for lane in range(s.depth):
            assert s.lane_valid_counters(lane).size == 0
            assert not s.lane_snapshot(lane).any()


#: page universe of the reference programs: small page numbers and wide
#: addresses, enough to collide constantly in the tiny sketch below
REF_PAGES = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 987, 65_535, 65_536, 1 << 20, 2**32 - 1)
#: 4-bit counters, so the programs saturate them
REF_GEOMETRY = dict(width=16, depth=3, counter_bits=4)


class ReferenceSketch:
    """Fig. 7 entry by entry: a counter, hot bit and valid bit per entry,
    pages applied one at a time.

    ``clear`` drops only the valid bits.  An invalid entry reads as zero,
    and an update or hot-bit write zeroes it and marks it valid first.
    """

    def __init__(self, sketch):
        shape = (sketch.depth, sketch.width)
        self.counter_max = sketch.counter_max
        self.counter = np.zeros(shape, dtype=np.int64)
        self.hot = np.zeros(shape, dtype=bool)
        self.valid = np.zeros(shape, dtype=bool)
        self.total_updates = 0
        self.entries = {
            page: [(lane, sketch.hashes.hash_one(page, lane)) for lane in range(sketch.depth)]
            for page in REF_PAGES
        }

    def _write(self, entry):
        if not self.valid[entry]:
            self.counter[entry] = 0
            self.hot[entry] = False
            self.valid[entry] = True

    def update(self, pages, counts):
        for page, count in zip(pages, counts):
            for entry in self.entries[page]:
                self._write(entry)
                self.counter[entry] = min(self.counter[entry] + count, self.counter_max)
            self.total_updates += count

    def set_hot(self, pages):
        for page in pages:
            for entry in self.entries[page]:
                self._write(entry)
                self.hot[entry] = True

    def clear(self):
        self.valid[:] = False
        self.total_updates = 0

    def estimate(self, page):
        return min(int(self.counter[e]) if self.valid[e] else 0 for e in self.entries[page])

    def hot_all_set(self, page):
        return all(self.valid[e] and self.hot[e] for e in self.entries[page])

    def valid_counters(self, lane):
        return self.counter[lane][self.valid[lane]]


@st.composite
def sketch_ops(draw):
    kind = draw(st.sampled_from(("update", "update_estimate", "set_hot", "clear")))
    pages = draw(st.lists(st.sampled_from(REF_PAGES), min_size=1, max_size=12))
    counts = None
    if kind != "set_hot" and draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 9), min_size=len(pages), max_size=len(pages)))
    return kind, pages, counts


class TestAgainstValidBitReference:
    """The plain-array sketch reads exactly like Fig. 7's valid bits."""

    @given(st.lists(sketch_ops(), min_size=1, max_size=24))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_entry_reference(self, program):
        s = CountMinSketch(**REF_GEOMETRY)
        ref = ReferenceSketch(s)
        unit = HistogramUnit()
        universe = np.array(REF_PAGES, dtype=np.uint64)
        for kind, pages, counts in program:
            arr = np.array(pages, dtype=np.uint64)
            weights = None if counts is None else np.array(counts)
            if kind == "update":
                s.update_batch(arr, counts=weights)
                ref.update(pages, counts or [1] * len(pages))
            elif kind == "update_estimate":
                fused = s.update_estimate_batch(arr, counts=weights)
                ref.update(pages, counts or [1] * len(pages))
                assert fused.tolist() == [ref.estimate(p) for p in pages]
            elif kind == "set_hot":
                s.set_hot_bits(arr)
                ref.set_hot(pages)
            else:
                s.clear()
                ref.clear()
            # readout after every step: estimates, hot bits, each lane's histogram
            assert s.estimate_batch(universe).tolist() == [ref.estimate(p) for p in REF_PAGES]
            assert s.hot_bits_all_set(universe).tolist() == [ref.hot_all_set(p) for p in REF_PAGES]
            for lane in range(s.depth):
                got = unit.compute_sparse(s.lane_valid_counters(lane), s.width)
                want = unit.compute_sparse(ref.valid_counters(lane), s.width)
                assert np.array_equal(got.edges, want.edges)
                assert np.array_equal(got.counts, want.counts)
            assert s.total_updates == ref.total_updates


@st.composite
def page_space_programs(draw):
    """A sketch geometry, a page space and a program of detector and
    sketch operations over it."""
    num_pages = draw(st.integers(min_value=1, max_value=400))
    geometry = dict(
        width=draw(st.sampled_from((8, 64, 512))),
        depth=draw(st.integers(min_value=1, max_value=3)),
        counter_bits=draw(st.sampled_from((4, 16))),
    )
    pages = st.lists(st.integers(0, num_pages - 1), min_size=1, max_size=40, unique=True)
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(("observe", "update", "set_hot", "threshold", "clear")))
        batch = draw(pages)
        counts = draw(st.lists(st.integers(0, 9), min_size=len(batch), max_size=len(batch)))
        ops.append((kind, batch, counts, draw(st.integers(0, 12))))
    return num_pages, geometry, ops


class TestSlotTableAgainstHashing:
    """A sketch told its page space reads exactly like one that hashes."""

    @given(page_space_programs())
    @settings(max_examples=80, deadline=None)
    def test_same_streams_read_alike(self, program):
        num_pages, geometry, ops = program
        table = HotPageDetector(
            CountMinSketch(**geometry, num_pages=num_pages), threshold=4, buffer_entries=16
        )
        hashed = HotPageDetector(CountMinSketch(**geometry), threshold=4, buffer_entries=16)
        universe = np.arange(num_pages)
        unit = HistogramUnit(16)
        for kind, batch, counts, value in ops:
            pages, weights = np.array(batch), np.array(counts)
            for detector in (table, hashed):
                if kind == "observe":
                    detector.observe(pages, weights)
                elif kind == "update":
                    detector.sketch.update_batch(pages, counts=weights)
                elif kind == "set_hot":
                    detector.sketch.set_hot_bits(pages)
                elif kind == "threshold":
                    detector.set_threshold(value)
                else:
                    detector.clear()
            a, b = table.sketch, hashed.sketch
            assert np.array_equal(a.estimate_batch(universe), b.estimate_batch(universe))
            assert np.array_equal(a.hot_bits_all_set(universe), b.hot_bits_all_set(universe))
            assert a.total_updates == b.total_updates
            for lane in range(a.depth):
                assert np.array_equal(a.lane_snapshot(lane), b.lane_snapshot(lane))
                kept, full = a.lane_valid_counters(lane), b.lane_valid_counters(lane)
                assert np.array_equal(kept, full)
                assert np.array_equal(
                    unit.compute_sparse(kept, a.width).counts,
                    unit.compute_sparse(full, b.width).counts,
                )
            assert table.detected_total == hashed.detected_total
            assert table.dropped_reports == hashed.dropped_reports
            assert np.array_equal(table.drain(3), hashed.drain(3))
        assert np.array_equal(table.drain(), hashed.drain())
        assert a.sram_bits == b.sram_bits == a.depth * a.width * (a.counter_bits + 2)

    def test_pages_outside_the_space_raise(self):
        s = CountMinSketch(width=64, depth=2, num_pages=100)
        for bad in ([100], [3, 250], [-1]):
            with pytest.raises(ValueError, match="page space"):
                s.update_batch(np.array(bad))
            with pytest.raises(ValueError, match="page space"):
                s.estimate_batch(np.array(bad))
        with pytest.raises(ValueError, match="page space"):
            HotPageDetector(s).observe(np.array([100], dtype=np.uint64), np.array([1]))
        assert s.total_updates == 0

    def test_keeps_only_reachable_entries(self):
        s = CountMinSketch(width=1024, depth=2, num_pages=100)
        assert s._counters.size <= 2 * 100
        assert s.sram_bits == 2 * 1024 * 18

    def test_slot_table_cache_is_bounded_and_only_a_speedup(self, monkeypatch):
        """A cached table reads like a fresh build, and the cache keeps
        at most its bound of page spaces."""
        monkeypatch.setattr(sketch_module, "_SLOT_TABLES", {})
        pages = np.arange(300)
        cold = CountMinSketch(width=256, depth=2, num_pages=300)
        warm = CountMinSketch(width=256, depth=2, num_pages=300)
        assert warm._slots is cold._slots
        assert np.array_equal(warm.entries(pages), cold.entries(pages))
        monkeypatch.setattr(sketch_module, "_SLOT_TABLES", {})
        fresh = CountMinSketch(width=256, depth=2, num_pages=300)
        assert fresh._slots is not cold._slots
        assert np.array_equal(fresh.entries(pages), cold.entries(pages))
        for num_pages in range(1, 2 * sketch_module._SLOT_TABLES_MAX + 2):
            CountMinSketch(width=256, depth=2, num_pages=num_pages)
        assert len(sketch_module._SLOT_TABLES) == sketch_module._SLOT_TABLES_MAX
