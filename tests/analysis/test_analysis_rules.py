"""Every rule code fires on its bad fixture and stays silent on its
good fixture — the per-code contract the ISSUE acceptance criteria name."""

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import all_codes, analyze_file

FIXTURES = Path(__file__).parent / "fixtures"


class TestDeterminism:
    def test_bad_fixture_fires_every_det_code(self, fixture_codes):
        codes = Counter(fixture_codes("det_bad"))
        assert codes["DET001"] == 5  # np.seed, np.rand, default_rng(), random.random, Random()
        assert codes["DET002"] == 1
        assert codes["DET003"] == 1
        assert codes["DET004"] == 2  # list({...}) and for-over-set

    def test_good_fixture_is_silent(self, fixture_codes):
        assert fixture_codes("det_good") == []


class TestHotPath:
    def test_bad_fixture_fires_every_hot_code(self, fixture_codes):
        codes = Counter(fixture_codes("hot_bad"))
        assert codes["HOT001"] == 2  # range(len()) and range(.size)
        assert codes["HOT002"] == 1
        assert codes["HOT003"] == 1
        assert codes["HOT004"] == 1
        assert codes["HOT005"] == 1  # the pre-PR-7 scalar H3 per-bit loop

    def test_would_have_caught_the_pre_pr7_h3_loop(self, fixture_ctx):
        """The motivating case: hash_batch's per-bit XOR reduction."""
        ctx = fixture_ctx("hot_bad")
        h3 = [f for f in ctx.findings if f.code == "HOT005"]
        assert len(h3) == 1
        assert "for bit in range(self.input_bits)" in h3[0].content

    def test_good_fixture_is_silent(self, fixture_codes):
        assert fixture_codes("hot_good") == []

    def test_unmarked_module_is_exempt(self, fixture_codes):
        """No ``# repro: hot-path`` pragma -> no HOT findings at all."""
        assert [c for c in fixture_codes("hot_unmarked") if c.startswith("HOT")] == []


class TestPicklability:
    def test_bad_fixture_fires_every_pkl_code(self, fixture_codes):
        codes = Counter(fixture_codes("pkl_bad"))
        assert codes["PKL001"] == 3  # bad module, bad attr, malformed path
        assert codes["PKL002"] == 2  # lambda and local def

    def test_good_fixture_is_silent(self, fixture_codes):
        assert fixture_codes("pkl_good") == []


class TestTelemetry:
    def test_bad_fixture_fires_every_tel_code(self, fixture_codes):
        codes = Counter(fixture_codes("tel_bad"))
        assert codes["TEL001"] == 1
        assert codes["TEL002"] == 2
        assert codes["TEL003"] == 1

    def test_good_fixture_is_silent(self, fixture_codes):
        assert fixture_codes("tel_good") == []


class TestLayering:
    """The rule keys on where a module sits, so each fixture is analyzed
    under the path of the package it stands in for."""

    @staticmethod
    def _codes(name, rel):
        return [f.code for f in analyze_file(FIXTURES / f"{name}.py", rel=rel).findings]

    @pytest.mark.parametrize("package", ["memsim", "core", "multitenant"])
    def test_simulation_packages_never_import_experiments(self, package):
        """Absolute, from-package, from-module, relative and deferred."""
        codes = self._codes("lay_bad", f"src/repro/{package}/lay_bad.py")
        assert codes == ["LAY001"] * 5

    def test_good_fixture_is_silent(self):
        assert self._codes("lay_good", "src/repro/memsim/lay_good.py") == []

    def test_telemetry_imports_no_other_repro_package(self):
        codes = self._codes("lay_tel_bad", "src/repro/telemetry/lay_tel_bad.py")
        assert codes == ["LAY002"] * 3

    @pytest.mark.parametrize(
        "rel", ["src/repro/experiments/lay_bad.py", "tests/memsim/lay_bad.py", "lay_bad.py"]
    )
    def test_harnesses_and_tests_are_exempt(self, rel):
        assert self._codes("lay_bad", rel) == []


class TestSyntaxError:
    def test_unparsable_file_yields_syn001_only(self, fixture_codes):
        assert fixture_codes("syn_bad") == ["SYN001"]


class TestCodeTable:
    def test_every_code_has_a_description(self):
        codes = all_codes()
        expected = {
            "DET001", "DET002", "DET003", "DET004",
            "HOT001", "HOT002", "HOT003", "HOT004", "HOT005",
            "PKL001", "PKL002",
            "TEL001", "TEL002", "TEL003",
            "LAY001", "LAY002",
            "SYN001", "SUP001", "SUP002",
        }
        assert set(codes) == expected
        assert all(codes[c] for c in codes)

    @pytest.mark.parametrize("family", ["DET", "HOT", "PKL", "TEL", "LAY"])
    def test_families_are_contiguous_from_001(self, family):
        nums = sorted(int(c[3:]) for c in all_codes() if c.startswith(family))
        assert nums == list(range(1, len(nums) + 1))
