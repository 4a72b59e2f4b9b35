"""The warm-up table: a fresh engine copies its shape's recorded placement.

``SimulationEngine.prefill`` keeps, per machine shape (seed, page space,
node capacities), the placement a fresh warm-up produced.  These tests
hold every copy to the placement the permutation and first-touch give
(``replayed``), and check that an engine with anything mapped or
reserved neither reads nor records one.
"""

import numpy as np
import pytest

from repro.experiments.colocation import colocation_sweep_jobs, colocation_sweep_solo_jobs
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig11 import fig11_jobs
from repro.experiments.fig12 import fig12_jobs
from repro.experiments.fig17 import fig17_jobs
from repro.experiments.kvcache import kvcache_jobs
from repro.experiments.sweep import resolve
from repro.memsim import engine as engine_module
from repro.memsim.engine import EngineConfig, SimulationEngine
from repro.memsim.numa import NumaTopology
from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL

BENCH_SCALE = dict(num_pages=12288, batches=36, batch_size=12288)
KVCACHE_SCALE = dict(num_pages=32768, batches=48, batch_size=32768)


class PageSpace:
    """A workload that only names a page space: the warm-up reads no trace."""

    name = "pages"

    def __init__(self, num_pages):
        self.num_pages = num_pages

    def next_batch(self, rng):
        return None


class NullPolicy:
    name = "null"

    def on_epoch(self, view):
        return 0.0


class PromoteAllPolicy:
    """Promotes every slow page the epoch touched."""

    name = "promote-all"

    def on_epoch(self, view):
        view.promote(view.touched_pages[view.touched_nodes != 0])
        return 0.0


class RandomPages(PageSpace):
    name = "random"

    def __init__(self, num_pages, batches=3):
        super().__init__(num_pages)
        self.batches = batches

    def next_batch(self, rng):
        if self.batches == 0:
            return None
        self.batches -= 1
        pages = rng.integers(0, self.num_pages, size=4096)
        return pages, rng.random(pages.size) < 0.3


@pytest.fixture(autouse=True)
def empty_table():
    engine_module._WARM_UPS.clear()
    yield
    engine_module._WARM_UPS.clear()


@pytest.fixture
def first_touch_calls(monkeypatch):
    """How often ``first_touch_allocate`` ran since the test started."""
    calls = []
    original = NumaTopology.first_touch_allocate

    def counted(self, page_table, pages):
        calls.append(len(pages))
        return original(self, page_table, pages)

    monkeypatch.setattr(NumaTopology, "first_touch_allocate", counted)
    return calls


def shape(num_pages=1000, capacities=(300, 900)):
    return list(zip([DDR5_LOCAL, CXL_DRAM_PROTO], capacities))


def make_engine(num_pages=1000, capacities=(300, 900), seed=1234, workload=None, policy=None):
    return SimulationEngine(
        workload or PageSpace(num_pages),
        shape(num_pages, capacities),
        policy or NullPolicy(),
        EngineConfig(seed=seed),
    )


def replayed(engine):
    """The warm-up without the table: the permutation through first-touch."""
    num_pages = engine.page_table.num_pages
    perm = np.random.default_rng(engine.config.seed ^ 0x5EED).permutation(num_pages)
    engine.topology.first_touch_allocate(engine.page_table, perm)
    return engine


def used_pages(engine):
    return [node.tier.used_pages for node in engine.topology.nodes]


def assert_same_placement(engine, reference):
    np.testing.assert_array_equal(engine.page_table.node_of_page, reference.page_table.node_of_page)
    assert used_pages(engine) == used_pages(reference)


def table_snapshot():
    return {key: (placement.copy(), reserved) for key, (placement, reserved) in table_items()}


def table_items():
    return list(engine_module._WARM_UPS.items())


def assert_table_equals(snapshot):
    assert [key for key, _ in table_items()] == list(snapshot)
    for key, (placement, reserved) in table_items():
        np.testing.assert_array_equal(placement, snapshot[key][0])
        assert reserved == snapshot[key][1]


# ----------------------------------------------------------------------
# every machine shape the benchmark's engine job lists build
# ----------------------------------------------------------------------
def job_list(name, seed):
    if name == "paper-grid":
        config = ExperimentConfig(seed=seed, **BENCH_SCALE)
        return fig11_jobs(config=config) + fig12_jobs(config=config) + fig17_jobs(config=config)
    if name == "colocation":
        config = ExperimentConfig(seed=seed, **BENCH_SCALE)
        solo_jobs, _ = colocation_sweep_solo_jobs(config=config)
        return colocation_sweep_jobs(config=config) + solo_jobs
    return kvcache_jobs(config=ExperimentConfig(seed=seed, **KVCACHE_SCALE))


class _WarmedUp(Exception):
    """Stops a job once its engine has warmed up."""


@pytest.mark.parametrize("seed", [777, 2718])
@pytest.mark.parametrize("name", ["paper-grid", "kvcache-tiers", "colocation"])
def test_every_job_shape_warms_up_as_a_fresh_replay(name, seed, monkeypatch, first_touch_calls):
    """Each job's own engine, built as the job builds it, warms up to the
    placement and per-node reservations of a fresh replay of its shape;
    only the first engine of each shape runs first-touch, and every
    shape of the list fits the table."""
    references = {}
    prefill = SimulationEngine.prefill

    def checked_prefill(engine):
        spec = [(node.tier.spec, node.tier.capacity_pages) for node in engine.topology.nodes]
        key = (engine.config.seed, engine.page_table.num_pages, *(c for _, c in spec))
        first = key not in references
        if first:
            fresh = SimulationEngine(PageSpace(key[1]), spec, NullPolicy(), engine.config)
            references[key] = replayed(fresh)
        calls = len(first_touch_calls)
        prefill(engine)
        assert len(first_touch_calls) - calls == first
        assert_same_placement(engine, references[key])
        raise _WarmedUp

    monkeypatch.setattr(SimulationEngine, "prefill", checked_prefill)
    for job in job_list(name, seed):
        with pytest.raises(_WarmedUp):
            resolve(job.runner)(job)
    assert len(engine_module._WARM_UPS) == len(references) <= engine_module._WARM_UPS_MAX
    assert {key[0] for key in references} == {seed}


# ----------------------------------------------------------------------
# what reads and records a placement
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "other",
    [
        dict(seed=99),
        dict(num_pages=1200),
        dict(capacities=(100, 1100)),
        dict(capacities=(300, 1000)),
    ],
    ids=["seed", "page-space", "fast-capacity", "slow-capacity"],
)
def test_each_shape_gets_its_own_placement(other, first_touch_calls):
    """Shapes that differ in the seed, the page space or one node's
    capacity alone each warm up as their own fresh replay."""
    make_engine().prefill()
    engine = make_engine(**other)
    engine.prefill()
    assert_same_placement(engine, replayed(make_engine(**other)))
    assert len(engine_module._WARM_UPS) == 2
    assert len(first_touch_calls) == 3


def test_a_fresh_engine_copies_its_shapes_placement(first_touch_calls):
    recorded, restored = make_engine(), make_engine()
    recorded.prefill()
    restored.prefill()
    assert len(first_touch_calls) == 1
    reference = replayed(make_engine())
    assert_same_placement(recorded, reference)
    assert_same_placement(restored, reference)
    [(placement, _)] = engine_module._WARM_UPS.values()
    assert not placement.flags.writeable
    assert not np.shares_memory(placement, restored.page_table.node_of_page)


@pytest.mark.parametrize("before", ["mapped", "reserved"])
def test_an_engine_with_pages_warms_up_as_before_and_records_nothing(before, first_touch_calls):
    """An engine that already maps or reserves pages runs the warm-up
    over them, neither reads nor records a placement, and a fresh engine
    of its shape afterwards still warms up as a fresh replay."""

    def partly_filled():
        engine = make_engine()
        if before == "mapped":
            engine.topology.first_touch_allocate(engine.page_table, np.arange(999, 899, -1))
        else:
            engine.topology.fast_node.tier.reserve(50)
        return engine

    make_engine(seed=7).prefill()  # an unrelated shape in the table
    snapshot = table_snapshot()
    engine = partly_filled()
    engine.prefill()
    assert_same_placement(engine, replayed(partly_filled()))
    assert_table_equals(snapshot)

    make_engine().prefill()  # records this shape for the first time
    fresh = make_engine()
    fresh.prefill()
    assert_same_placement(fresh, replayed(make_engine()))

    engine = partly_filled()
    engine.prefill()  # with the shape recorded: still the old path
    assert_same_placement(engine, replayed(partly_filled()))


@pytest.mark.parametrize("first", ["recorded", "restored"])
def test_a_second_prefill_is_a_no_op_that_leaves_the_table_alone(first, first_touch_calls):
    if first == "restored":
        make_engine().prefill()
    engine = make_engine()
    engine.prefill()
    snapshot = table_snapshot()
    calls = len(first_touch_calls)
    engine.prefill()
    assert len(first_touch_calls) == calls + 1  # today's path, which maps nothing
    assert_same_placement(engine, replayed(make_engine()))
    assert_table_equals(snapshot)


def test_migrations_after_a_restore_leave_the_placement_alone():
    """A restored engine owns its page table: its migrations move pages
    and tier counts, never the recorded placement."""
    make_engine(num_pages=4000, capacities=(1000, 3500)).prefill()
    snapshot = table_snapshot()
    engine = make_engine(
        num_pages=4000,
        capacities=(1000, 3500),
        workload=RandomPages(4000),
        policy=PromoteAllPolicy(),
    )
    engine.prefill()
    before = engine.page_table.node_of_page.copy()
    report = engine.run()
    assert report.total_promoted_pages > 0
    assert not np.array_equal(engine.page_table.node_of_page, before)
    assert_table_equals(snapshot)
    fresh = make_engine(num_pages=4000, capacities=(1000, 3500))
    fresh.prefill()
    np.testing.assert_array_equal(fresh.page_table.node_of_page, before)


def test_the_table_holds_at_most_its_bound(first_touch_calls):
    """The oldest shape goes first; an evicted shape replays again."""
    bound = engine_module._WARM_UPS_MAX
    for seed in range(bound + 8):
        make_engine(seed=seed).prefill()
        assert len(engine_module._WARM_UPS) == min(seed + 1, bound)
    assert {key[0] for key in engine_module._WARM_UPS} == set(range(8, bound + 8))
    calls = len(first_touch_calls)
    engine = make_engine(seed=0)
    engine.prefill()
    assert len(first_touch_calls) == calls + 1
    assert_same_placement(engine, replayed(make_engine(seed=0)))
    assert len(engine_module._WARM_UPS) == bound
