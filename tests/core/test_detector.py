"""Tests for the hot-page detector pipeline."""

import numpy as np
import pytest

from repro.core.neoprof.detector import HotPageDetector
from repro.core.neoprof.sketch import CountMinSketch
from repro.memsim.pageset import distinct_counts


def make_detector(threshold=10, buffer_entries=16, width=4096):
    sketch = CountMinSketch(width=width, depth=2)
    return HotPageDetector(sketch, threshold=threshold, buffer_entries=buffer_entries)


def observe(det, pages, counts):
    """One batch of ``counts[i]`` requests to each distinct ``pages[i]``."""
    return det.observe(np.asarray(pages, dtype=np.uint64), np.asarray(counts, dtype=np.int64))


class TestDetection:
    def test_hot_page_detected(self):
        det = make_detector(threshold=10)
        observe(det, [42], [11])
        assert det.pending == 1
        assert det.drain().tolist() == [42]

    def test_cold_page_not_detected(self):
        det = make_detector(threshold=10)
        observe(det, [42], [10])  # == theta, not >
        assert det.pending == 0

    def test_threshold_strictly_greater(self):
        """Eq. 4: isHot iff a_hat > theta."""
        det = make_detector(threshold=5)
        observe(det, [1], [5])
        assert det.pending == 0
        observe(det, [1], [1])
        assert det.pending == 1

    def test_multiple_hot_pages(self):
        det = make_detector(threshold=3)
        observe(det, [10, 20, 30], [5, 7, 2])  # page 30 stays cold
        assert sorted(det.drain().tolist()) == [10, 20]

    def test_accumulates_across_batches(self):
        det = make_detector(threshold=10)
        for _ in range(3):
            observe(det, [9], [4])
        assert det.pending == 1  # 12 requests total

    def test_counts_fold_like_single_requests(self):
        """A page's count updates the sketch as that many requests do."""
        folded, single = make_detector(threshold=100), make_detector(threshold=100)
        observe(folded, [3, 8], [6, 2])
        for page in (3, 8, 3, 3, 3, 8, 3, 3):
            observe(single, [page], [1])
        pages = np.array([3, 8], dtype=np.uint64)
        np.testing.assert_array_equal(
            folded.sketch.estimate_batch(pages), single.sketch.estimate_batch(pages)
        )
        assert folded.sketch.total_updates == single.sketch.total_updates == 8

    def test_empty_batch(self):
        det = make_detector()
        assert observe(det, [], []) == 0

    def test_shape_mismatch_rejected(self):
        det = make_detector()
        with pytest.raises(ValueError):
            observe(det, [1, 2], [3])


class TestHotPageFilter:
    def test_no_duplicate_reports(self):
        """Fig. 7's hot-bit filter: a hot page is reported only once."""
        det = make_detector(threshold=5)
        for _ in range(3):
            observe(det, [7], [10])
        assert det.pending == 1

    def test_reported_again_after_clear(self):
        det = make_detector(threshold=5)
        observe(det, [7], [10])
        det.drain()
        det.clear()
        observe(det, [7], [10])
        assert det.pending == 1

    def test_detected_total_counts_unique(self):
        det = make_detector(threshold=2)
        observe(det, np.arange(5), np.full(5, 4))
        observe(det, np.arange(5), np.full(5, 4))
        assert det.detected_total == 5


class TestBuffer:
    def test_buffer_overflow_drops(self):
        det = make_detector(threshold=1, buffer_entries=4)
        observe(det, np.arange(10), np.full(10, 3))
        assert det.pending == 4
        assert det.dropped_reports == 6

    def test_drain_limit(self):
        det = make_detector(threshold=1)
        observe(det, np.arange(6), np.full(6, 3))
        first = det.drain(2)
        assert first.size == 2
        assert det.pending == 4

    def test_drain_order_fifo(self):
        """``drain()`` with no limit empties the FIFO in enqueue order."""
        det = make_detector(threshold=2)
        observe(det, [100, 3], [5, 5])
        observe(det, [200], [5])
        assert det.drain(1).tolist() == [100]
        observe(det, [1], [5])
        drained = det.drain()
        assert drained.dtype == np.int64
        assert drained.tolist() == [3, 200, 1]
        assert det.pending == 0 and det.drain().size == 0

    def test_clear_empties_buffer(self):
        det = make_detector(threshold=1)
        observe(det, [5], [3])
        det.clear()
        assert det.pending == 0
        assert det.dropped_reports == 0


class TestConfiguration:
    def test_set_threshold(self):
        det = make_detector(threshold=100)
        det.set_threshold(2)
        observe(det, [9], [3])
        assert det.pending == 1

    def test_invalid_threshold(self):
        det = make_detector()
        with pytest.raises(ValueError):
            det.set_threshold(-1)
        with pytest.raises(ValueError):
            HotPageDetector(threshold=-5)

    def test_invalid_buffer(self):
        with pytest.raises(ValueError):
            HotPageDetector(buffer_entries=0)

    def test_default_sketch_created(self):
        det = HotPageDetector(threshold=1)
        assert det.sketch.width == 512 * 1024


class TestRecallPrecision:
    def test_skewed_stream_recall(self):
        """Hot pages of a skewed stream must all be detected (G1)."""
        rng = np.random.default_rng(5)
        hot_pages = np.arange(20, dtype=np.uint64)
        det = make_detector(threshold=50, width=8192, buffer_entries=1024)
        for _ in range(10):
            hot = rng.choice(hot_pages, size=2000)  # ~100 accesses each
            cold = rng.integers(100, 10_000, size=500).astype(np.uint64)
            batch = np.concatenate([hot, cold])
            rng.shuffle(batch)
            det.observe(*distinct_counts(batch))
        detected = set(det.drain().tolist())
        assert set(range(20)) <= detected
        # Cold pages have ~1 access each; none should cross theta=50
        # except via collisions, which the 8K-wide sketch makes rare.
        false_positives = detected - set(range(20))
        assert len(false_positives) <= 2
