"""KV-cache workload: geometry invariants, trace determinism, cacheability.

The determinism bar pinned here: the same (workload, seed, geometry)
must produce bit-identical pages whether the trace is generated live or
served by the runner's in-process ``TraceStore``.
"""

import numpy as np
import pytest

from repro.experiments import runner as runner_mod
from repro.workloads import make_workload
from repro.workloads.kvcache import KVCacheWorkload, KVGeometry

SMALL = dict(num_pages=4096, total_batches=6, batch_size=4096)


def geometry(**overrides) -> KVGeometry:
    params = dict(
        num_pages=4096,
        num_layers=8,
        num_seqs=4,
        prompt_fraction=0.25,
        recent_window=16,
        skip_level=4,
    )
    params.update(overrides)
    return KVGeometry.derive(**params)


def _traces_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(pa, pb) and np.array_equal(wa, wb) for (pa, wa), (pb, wb) in zip(a, b)
    )


def _drain(workload, seed: int) -> list:
    """A fresh trace, bypassing the in-process trace store entirely."""
    rng = np.random.default_rng(seed)
    trace = []
    while True:
        batch = workload.next_batch(rng)
        if batch is None:
            return trace
        trace.append((batch[0].copy(), batch[1].copy()))


class TestGeometry:
    def test_layout_fits_page_budget(self):
        geo = geometry()
        assert geo.total_pages <= 4096
        assert geo.tokens_per_seq == 4096 // (8 * 4)
        assert 0 < geo.prompt_tokens < geo.tokens_per_seq

    def test_read_and_write_pages_stay_in_layout(self):
        geo = geometry()
        for step in (0, 1, geo.gen_tokens - 1, geo.gen_tokens, 3 * geo.gen_tokens + 5):
            reads, writes = geo.read_pages(step), geo.write_pages(step)
            for pages in (reads, writes):
                assert pages.min() >= 0 and pages.max() < geo.total_pages

    def test_write_set_is_the_appended_token(self):
        geo = geometry()
        writes = geo.write_pages(step=3)
        # one token x every layer x every sequence
        assert writes.size == geo.num_layers * geo.num_seqs
        token = geo.resident_tokens(3)
        expected_first = token * geo.num_layers  # seq 0, layer 0
        assert writes[0] == expected_first

    def test_read_order_is_hottest_first(self):
        geo = geometry()
        step = geo.recent_window + 8
        tokens = geo.read_tokens(step)
        resident = geo.resident_tokens(step)
        window = tokens[: geo.recent_window]
        # the recent window comes first, newest token leading
        assert window[0] == resident - 1
        assert np.array_equal(window, np.sort(window)[::-1])
        # older tokens follow at the skip stride
        older = tokens[geo.recent_window :]
        assert np.array_equal(np.diff(older), np.full(older.size - 1, geo.skip_stride))

    def test_token_skipping_thins_old_tokens(self):
        full = geometry(skip_level=0)
        skipped = geometry(skip_level=4)
        step = 2 * full.recent_window
        assert skipped.read_tokens(step).size < full.read_tokens(step).size
        # full attention reads every resident token
        assert full.read_tokens(step).size == full.resident_tokens(step)

    def test_sequence_slot_wraps_and_retains_prompt(self):
        geo = geometry()
        assert geo.resident_tokens(geo.gen_tokens) == geo.prompt_tokens
        assert geo.resident_tokens(geo.gen_tokens - 1) == geo.tokens_per_seq - 1

    def test_step_pages_marks_exactly_the_appends(self):
        geo = geometry()
        pages, is_write = geo.step_pages(5)
        assert is_write.sum() == geo.num_layers * geo.num_seqs
        assert np.array_equal(pages[is_write], geo.write_pages(5))

    def test_rejects_undersized_budget(self):
        with pytest.raises(ValueError, match="cannot hold"):
            geometry(num_pages=32)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            geometry(prompt_fraction=1.0)
        with pytest.raises(ValueError):
            geometry(skip_level=-1)

    def test_rejects_empty_shapes(self):
        for overrides in ({"num_layers": 0}, {"num_seqs": 0}, {"recent_window": 0}):
            with pytest.raises(ValueError):
                geometry(**overrides)


class TestWorkload:
    def test_registered(self):
        wl = make_workload("kvcache", **SMALL)
        assert isinstance(wl, KVCacheWorkload)
        assert wl.name == "kvcache"

    def test_trace_is_deterministic_across_instances(self):
        assert _traces_equal(
            _drain(KVCacheWorkload(**SMALL), seed=7),
            _drain(KVCacheWorkload(**SMALL), seed=7),
        )

    def test_materialized_trace_matches_live_generation(self):
        materialized = runner_mod.TraceStore().trace(KVCacheWorkload(**SMALL), seed=7)
        assert _traces_equal(materialized, _drain(KVCacheWorkload(**SMALL), seed=7))

    def test_trace_ignores_rng_stream(self):
        # decode traffic is structural: a different seed, same geometry
        # -> the same pages and the same writes
        assert _traces_equal(
            _drain(KVCacheWorkload(**SMALL), seed=1),
            _drain(KVCacheWorkload(**SMALL), seed=2),
        )

    def test_workload_is_trace_cacheable(self):
        # the declared key (and with it the trace store) captures every
        # geometry knob
        key = KVCacheWorkload(**SMALL).trace_key(seed=7)
        assert key is not None
        other = KVCacheWorkload(**SMALL, skip_level=0).trace_key(seed=7)
        assert other is not None and other != key

    def test_batches_are_epoch_sized_and_aligned(self):
        wl = KVCacheWorkload(**SMALL)
        rng = np.random.default_rng(0)
        geo = wl.geometry
        batch = wl.next_batch(rng)
        assert batch is not None
        pages, is_write = batch
        assert pages.size == wl.batch_size == is_write.size
        # tiling keeps (page, is_write) pairs aligned: every copy of an
        # appended block stays marked as a write
        raw_pages, raw_writes = geo.step_pages(0)
        write_set = set(raw_pages[raw_writes].tolist())
        marked = set(pages[is_write].tolist())
        assert marked == write_set

    def test_runs_to_completion(self):
        wl = KVCacheWorkload(**SMALL)
        rng = np.random.default_rng(0)
        n = 0
        while wl.next_batch(rng) is not None:
            n += 1
        assert n == wl.total_batches
