"""The warm-up table: an engine copies its shape's recorded placement.

Every engine runs the paper's warm-up in its constructor, on an empty
machine, and keeps per machine shape (seed, page space, node capacities)
the placement the first warm-up of that shape produced.  These tests
hold every copy to the placement the permutation and first-touch give on
a bare page table and topology (``replayed``), and check that nothing
but a warm-up first-touches.
"""

import numpy as np
import pytest

from repro.experiments.colocation import colocation_sweep_jobs, colocation_sweep_solo_jobs
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig11 import fig11_jobs
from repro.experiments.fig12 import fig12_jobs
from repro.experiments.fig17 import fig17_jobs
from repro.experiments.kvcache import kvcache_jobs
from repro.experiments.sweep import SweepExecutor, resolve
from repro.memsim import engine as engine_module
from repro.memsim.engine import EngineConfig, SimulationEngine
from repro.memsim.numa import NumaTopology
from repro.memsim.page_table import PageTable
from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL

BENCH_SCALE = dict(num_pages=12288, batches=36, batch_size=12288)
KVCACHE_SCALE = dict(num_pages=32768, batches=48, batch_size=32768)
TINY_SCALE = dict(num_pages=2048, batches=4, batch_size=2048)


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
    """Each ``first_touch_allocate`` call since the test started, as its
    machine shape (page space, node capacities) and the pages it mapped."""
    calls = []
    original = NumaTopology.first_touch_allocate

    def counted(self, page_table, pages):
        mapped = original(self, page_table, pages)
        capacities = (node.tier.capacity_pages for node in self.nodes)
        calls.append((page_table.num_pages, *capacities, mapped))
        return mapped

    monkeypatch.setattr(NumaTopology, "first_touch_allocate", counted)
    return calls


def shape_of(engine):
    """An engine's machine shape: seed, page space and node capacities."""
    capacities = (node.tier.capacity_pages for node in engine.topology.nodes)
    return (engine.config.seed, engine.page_table.num_pages, *capacities)


@pytest.fixture
def engines_built(monkeypatch):
    """The machine shape of each engine built since the test started."""
    shapes = []
    init = SimulationEngine.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shapes.append(shape_of(self))

    monkeypatch.setattr(SimulationEngine, "__init__", recorded)
    return shapes


def make_engine(num_pages=1000, capacities=(300, 900), seed=1234, workload=None, policy=None):
    return SimulationEngine(
        workload or PageSpace(num_pages),
        list(zip([DDR5_LOCAL, CXL_DRAM_PROTO], capacities)),
        policy or NullPolicy(),
        EngineConfig(seed=seed),
    )


def replayed(num_pages=1000, capacities=(300, 900), seed=1234, tiers=(DDR5_LOCAL, CXL_DRAM_PROTO)):
    """The warm-up without an engine or the table: the permutation
    through first-touch on a bare page table and topology of the shape."""
    table, topology = PageTable(num_pages), NumaTopology(list(zip(tiers, capacities)))
    perm = np.random.default_rng(seed ^ 0x5EED).permutation(num_pages)
    topology.first_touch_allocate(table, perm)
    return table.node_of_page, [node.tier.used_pages for node in topology.nodes]


def used_pages(engine):
    return [node.tier.used_pages for node in engine.topology.nodes]


def assert_same_placement(engine, reference):
    node_of_page, used = reference
    np.testing.assert_array_equal(engine.page_table.node_of_page, node_of_page)
    assert used_pages(engine) == used


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
def job_list(name, seed, scale=None):
    """A benchmark workload's job list, at bench scale unless ``scale``."""
    if name == "kvcache-tiers":
        return kvcache_jobs(config=ExperimentConfig(seed=seed, **(scale or KVCACHE_SCALE)))
    config = ExperimentConfig(seed=seed, **(scale or BENCH_SCALE))
    if name == "paper-grid":
        return fig11_jobs(config=config) + fig12_jobs(config=config) + fig17_jobs(config=config)
    solo_jobs, _ = colocation_sweep_solo_jobs(config=config)
    return colocation_sweep_jobs(config=config) + solo_jobs


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
    warm_up = SimulationEngine._warm_up

    def checked_warm_up(engine):
        key = shape_of(engine)
        first = key not in references
        if first:
            tiers = [node.tier.spec for node in engine.topology.nodes]
            references[key] = replayed(key[1], key[2:], key[0], tiers)
        calls = len(first_touch_calls)
        warm_up(engine)
        assert len(first_touch_calls) - calls == first
        assert_same_placement(engine, references[key])
        raise _WarmedUp

    monkeypatch.setattr(SimulationEngine, "_warm_up", checked_warm_up)
    for job in job_list(name, seed):
        with pytest.raises(_WarmedUp):
            resolve(job.runner)(job)
    assert len(engine_module._WARM_UPS) == len(references) <= engine_module._WARM_UPS_MAX
    assert {key[0] for key in references} == {seed}


@pytest.mark.parametrize("name", ["paper-grid", "kvcache-tiers", "colocation"])
def test_only_warm_ups_first_touch(name, first_touch_calls, engines_built):
    """Two passes of a job list on one executor: the first runs
    first-touch once per machine shape, each call mapping that shape's
    whole page space, and the second never runs it, though it builds
    every engine again.  No epoch maps a page."""
    jobs = job_list(name, seed=777, scale=TINY_SCALE)
    executor = SweepExecutor(workers=1, cache_dir="")
    executor.run(jobs)
    shapes = set(engines_built)
    assert sorted(first_touch_calls) == sorted((pages, *caps, pages) for _, pages, *caps in shapes)
    first_touch_calls.clear()
    engines_built.clear()
    executor.run(jobs)
    assert set(engines_built) == shapes
    assert first_touch_calls == []


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
    make_engine()
    engine = make_engine(**other)
    assert len(engine_module._WARM_UPS) == 2
    assert len(first_touch_calls) == 2
    assert_same_placement(engine, replayed(**other))


def test_a_fresh_engine_copies_its_shapes_placement(first_touch_calls):
    recorded, restored = make_engine(), make_engine()
    assert len(first_touch_calls) == 1
    reference = replayed()
    assert_same_placement(recorded, reference)
    assert_same_placement(restored, reference)
    [(placement, _)] = engine_module._WARM_UPS.values()
    assert not placement.flags.writeable
    assert not np.shares_memory(placement, restored.page_table.node_of_page)


def test_migrations_after_a_restore_leave_the_placement_alone():
    """A restored engine owns its page table: its migrations move pages
    and tier counts, never the recorded placement."""
    make_engine(num_pages=4000, capacities=(1000, 3500))
    snapshot = table_snapshot()
    engine = make_engine(
        num_pages=4000,
        capacities=(1000, 3500),
        workload=RandomPages(4000),
        policy=PromoteAllPolicy(),
    )
    before = engine.page_table.node_of_page.copy()
    report = engine.run()
    assert report.total_promoted_pages > 0
    assert not np.array_equal(engine.page_table.node_of_page, before)
    assert_table_equals(snapshot)
    fresh = make_engine(num_pages=4000, capacities=(1000, 3500))
    np.testing.assert_array_equal(fresh.page_table.node_of_page, before)


def test_the_table_holds_at_most_its_bound(first_touch_calls):
    """The oldest shape goes first; an evicted shape replays again."""
    bound = engine_module._WARM_UPS_MAX
    for seed in range(bound + 8):
        make_engine(seed=seed)
        assert len(engine_module._WARM_UPS) == min(seed + 1, bound)
    assert {key[0] for key in engine_module._WARM_UPS} == set(range(8, bound + 8))
    calls = len(first_touch_calls)
    engine = make_engine(seed=0)
    assert len(first_touch_calls) == calls + 1
    assert_same_placement(engine, replayed(seed=0))
    assert len(engine_module._WARM_UPS) == bound
