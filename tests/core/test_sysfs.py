"""Tests for the sysfs knob surface."""

from functools import partial

import pytest

from repro.core.daemon import NeoMemDaemon
from repro.core.sysfs import NeoMemSysfs, SysfsError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_policy, run_one

SMALL = ExperimentConfig(num_pages=4096, batches=8, batch_size=4096)


@pytest.fixture
def sysfs():
    return NeoMemSysfs(NeoMemDaemon(SMALL.num_pages))


class TestRead:
    def test_list_contains_core_knobs(self, sysfs):
        names = sysfs.list()
        for knob in ("hot_threshold", "migration_interval_ms", "p_min", "alpha"):
            assert knob in names

    def test_read_values_are_text(self, sysfs):
        assert isinstance(sysfs.read("hot_threshold"), str)
        assert float(sysfs.read("migration_interval_ms")) == pytest.approx(10.0)

    def test_read_statistics(self, sysfs):
        assert sysfs.read("nr_hot_pending") == "0"
        assert sysfs.read("nr_snooped") == "0"

    def test_read_unknown_raises(self, sysfs):
        with pytest.raises(SysfsError):
            sysfs.read("does_not_exist")


class TestWrite:
    def test_write_threshold_propagates_to_device(self, sysfs):
        sysfs.write("hot_threshold", "123")
        assert sysfs.read("hot_threshold") == "123"
        assert sysfs._daemon.device.detector.threshold == 123

    def test_write_migration_interval(self, sysfs):
        sysfs.write("migration_interval_ms", "25")
        assert sysfs._daemon.migration_interval_s == pytest.approx(0.025)

    def test_write_intervals(self, sysfs):
        sysfs.write("clear_interval_s", "0.5")
        sysfs.write("thr_update_interval_s", "0.25")
        cfg = sysfs._daemon.config
        assert cfg.clear_interval_s == 0.5
        assert cfg.thr_update_interval_s == 0.25
        assert sysfs.read("thr_update_interval_s") == "0.25"

    def test_write_hyper_parameters(self, sysfs):
        sysfs.write("alpha", "2.5")
        sysfs.write("beta", "0.5")
        tp = sysfs._daemon.config.threshold_policy
        assert tp.alpha == 2.5
        assert tp.beta == 0.5

    def test_write_readonly_raises(self, sysfs):
        with pytest.raises(SysfsError):
            sysfs.write("nr_snooped", "5")

    def test_write_unknown_raises(self, sysfs):
        with pytest.raises(SysfsError):
            sysfs.write("bogus", "1")

    def test_negative_threshold_rejected(self, sysfs):
        with pytest.raises(ValueError):
            sysfs.write("hot_threshold", "-3")


def _written_through_sysfs(knob, text, num_pages, config):
    daemon = build_policy("neomem", num_pages, config)
    NeoMemSysfs(daemon).write(knob, text)
    return daemon


class TestWritesReachTheRun:
    """A knob written before the run steers it like the built value."""

    @pytest.mark.parametrize(
        ("knob", "text", "field", "value"),
        [
            ("migration_interval_ms", "1.6", "migration_interval_s", 1.6e-3),
            ("demotion_watermark", "0.2", "demotion_watermark", 0.2),
        ],
    )
    def test_written_knob_matches_built_value(self, knob, text, field, value):
        written = partial(_written_through_sysfs, knob, text)
        built = {"neomem_config": SMALL.neomem_config(**{field: value})}
        via_sysfs = run_one("gups", "neomem", SMALL, policy_factory=written).summary()
        via_config = run_one("gups", "neomem", SMALL, policy_kwargs=built).summary()
        default = run_one("gups", "neomem", SMALL).summary()
        assert via_sysfs == via_config
        assert via_sysfs != default
