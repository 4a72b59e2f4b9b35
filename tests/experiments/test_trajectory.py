"""Perf trajectory: schema migration, append-only records, the gate."""

import json

import pytest

from repro.experiments.trajectory import (
    TRAJECTORY_SCHEMA,
    append_record,
    evaluate_gate,
    latest_record,
    load_trajectory,
    main,
)


def rec(serial_s=1.0, speedup=2.0, **extra):
    return {"serial_s": serial_s, "speedup": speedup, "git_rev": "abc", **extra}


class TestLoadAndAppend:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_trajectory(tmp_path / "BENCH.json") == []
        assert latest_record(tmp_path / "BENCH.json") is None

    def test_legacy_blob_becomes_record_zero(self, tmp_path):
        path = tmp_path / "BENCH.json"
        legacy = {"jobs": 8, "serial_s": 1.8, "speedup": 0.4}
        path.write_text(json.dumps(legacy))
        assert load_trajectory(path) == [legacy]

    def test_append_migrates_legacy_in_place(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"serial_s": 1.8}))
        records = append_record(path, rec(serial_s=1.7))
        assert len(records) == 2
        payload = json.loads(path.read_text())
        assert payload["schema"] == TRAJECTORY_SCHEMA
        assert payload["records"][0] == {"serial_s": 1.8}
        assert payload["records"][1]["serial_s"] == 1.7

    def test_append_is_append_only(self, tmp_path):
        path = tmp_path / "BENCH.json"
        for i in range(4):
            append_record(path, rec(serial_s=float(i)))
        assert [r["serial_s"] for r in load_trajectory(path)] == [0.0, 1.0, 2.0, 3.0]
        assert latest_record(path)["serial_s"] == 3.0

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_records_must_be_a_list(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"schema": TRAJECTORY_SCHEMA, "records": {"serial_s": 1.0}}))
        with pytest.raises(ValueError, match="must be a list"):
            load_trajectory(path)


class TestGate:
    def test_empty_and_single_record_are_advisory(self):
        assert evaluate_gate([]).exit_code == 0
        assert evaluate_gate([rec()]).exit_code == 0

    def test_under_min_records_regression_is_advisory(self):
        records = [rec(serial_s=1.0), rec(serial_s=1.0), rec(serial_s=50.0)]
        verdict = evaluate_gate(records, min_records=3)
        assert not verdict.ok
        assert verdict.advisory
        assert verdict.exit_code == 0

    def test_steady_trajectory_passes(self):
        records = [rec(serial_s=1.0 + 0.01 * i, speedup=2.0) for i in range(5)]
        verdict = evaluate_gate(records, min_records=3)
        assert verdict.ok
        assert not verdict.advisory
        assert verdict.exit_code == 0

    def test_lower_better_regression_fails(self):
        records = [rec(serial_s=1.0), rec(serial_s=1.02), rec(serial_s=0.98),
                   rec(serial_s=1.01), rec(serial_s=3.0)]
        verdict = evaluate_gate(records, min_records=3)
        assert not verdict.ok and not verdict.advisory
        assert verdict.exit_code == 1
        assert any("serial_s" in line and "REGRESSION" in line for line in verdict.lines)

    def test_higher_better_regression_fails(self):
        records = [rec(speedup=2.0), rec(speedup=2.1), rec(speedup=1.9),
                   rec(speedup=2.0), rec(speedup=0.5)]
        assert evaluate_gate(records, min_records=3).exit_code == 1

    def test_improvement_never_gated(self):
        records = [rec(serial_s=1.0, speedup=2.0)] * 4 + [rec(serial_s=0.1, speedup=9.0)]
        assert evaluate_gate(records, min_records=3).ok

    def test_missing_metrics_are_skipped(self):
        records = [{"git_rev": "a"}, {"git_rev": "b"}, {"git_rev": "c"},
                   {"git_rev": "d"}]
        assert evaluate_gate(records, min_records=3).ok

    def test_slack_absorbs_jitter(self):
        # newest just past the band edge but inside the 10% slack
        records = [rec(serial_s=1.0), rec(serial_s=1.0), rec(serial_s=1.0),
                   rec(serial_s=1.0), rec(serial_s=1.05)]
        assert evaluate_gate(records, min_records=3, slack=0.10).ok
        assert evaluate_gate(records, min_records=3, slack=0.0).exit_code == 1


class TestEffectiveParallelGating:
    """ISSUE satellite: parallel-speedup metrics are not gated on
    runners that cannot express parallelism."""

    def test_one_cpu_speedup_regression_is_not_gated(self):
        records = [rec(speedup=2.0)] * 4 + [
            rec(speedup=0.4, effective_parallel=False)
        ]
        verdict = evaluate_gate(records, min_records=3)
        assert verdict.ok
        assert any("effective_parallel" in line for line in verdict.lines)

    def test_multi_cpu_speedup_regression_still_fails(self):
        records = [rec(speedup=2.0, effective_parallel=True)] * 4 + [
            rec(speedup=0.4, effective_parallel=True)
        ]
        assert evaluate_gate(records, min_records=3).exit_code == 1

    def test_non_parallel_priors_do_not_feed_the_band(self):
        """Speedups measured on 1-CPU runners would drag the band down
        and mask a real multi-CPU regression."""
        records = (
            [rec(speedup=0.4, effective_parallel=False)] * 3
            + [rec(speedup=2.0, effective_parallel=True)] * 4
            + [rec(speedup=0.9, effective_parallel=True)]
        )
        assert evaluate_gate(records, min_records=3).exit_code == 1

    def test_serial_metrics_still_gate_on_one_cpu(self):
        records = [rec(serial_s=1.0)] * 4 + [
            rec(serial_s=5.0, effective_parallel=False)
        ]
        assert evaluate_gate(records, min_records=3).exit_code == 1

    def test_legacy_records_without_flag_still_gate(self):
        records = [rec(speedup=2.0)] * 4 + [rec(speedup=0.4)]
        assert evaluate_gate(records, min_records=3).exit_code == 1

    def test_warm_replay_regression_gates(self):
        records = [rec(warm_replay_s=0.1)] * 4 + [rec(warm_replay_s=2.0)]
        assert evaluate_gate(records, min_records=3).exit_code == 1


class TestCli:
    def test_gate_cli_soft_then_hard(self, tmp_path, capsys):
        path = tmp_path / "BENCH.json"
        append_record(path, rec(serial_s=1.0))
        append_record(path, rec(serial_s=40.0))
        # one prior record: regression reported but advisory
        assert main(["gate", str(path)]) == 0
        assert "advisory" in capsys.readouterr().out
        append_record(path, rec(serial_s=1.0))
        append_record(path, rec(serial_s=1.0))
        append_record(path, rec(serial_s=1.0))
        append_record(path, rec(serial_s=40.0))
        assert main(["gate", str(path)]) == 1

    def test_show_cli(self, tmp_path, capsys):
        path = tmp_path / "BENCH.json"
        append_record(path, rec())
        assert main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 record(s)" in out and "rev=abc" in out

    def test_gate_cli_missing_file(self, tmp_path, capsys):
        assert main(["gate", str(tmp_path / "nope.json")]) == 0
        assert "nothing to compare" in capsys.readouterr().out


class TestBaselineReset:
    def test_reset_restarts_comparison_history(self):
        """A 5x optimization lands with baseline_reset: the old slow
        records must not drag the band — a follow-up run at the new
        level passes, and one regressing against the *new* baseline
        fails even though it would look like an improvement vs the old."""
        old = [rec(serial_s=2.0) for _ in range(4)]
        new = [rec(serial_s=0.40, baseline_reset=True)] + [
            rec(serial_s=0.41), rec(serial_s=0.39), rec(serial_s=0.40)
        ]
        steady = evaluate_gate(old + new + [rec(serial_s=0.42)], min_records=3)
        assert steady.ok and not steady.advisory
        # 1.0s would be a 2x improvement on the old baseline but is a
        # 2.5x regression on the new one: must fail
        regressed = evaluate_gate(old + new + [rec(serial_s=1.0)], min_records=3)
        assert not regressed.ok and not regressed.advisory
        assert regressed.exit_code == 1
        assert any("baseline reset" in line for line in regressed.lines)

    def test_newest_record_as_reset_is_advisory(self):
        """The reset record itself has no comparable priors."""
        records = [rec(serial_s=2.0)] * 4 + [rec(serial_s=0.4, baseline_reset=True)]
        verdict = evaluate_gate(records, min_records=3)
        assert verdict.ok and verdict.advisory
        assert verdict.exit_code == 0

    def test_records_after_reset_count_toward_min(self):
        """Advisory until enough post-reset history accumulates."""
        records = [rec(serial_s=2.0)] * 6 + [
            rec(serial_s=0.4, baseline_reset=True),
            rec(serial_s=0.41),
            rec(serial_s=5.0),  # clear regression, but only 2 priors since reset
        ]
        verdict = evaluate_gate(records, min_records=3)
        assert verdict.advisory
        assert verdict.exit_code == 0

    def test_only_latest_reset_applies(self):
        records = (
            [rec(serial_s=9.0, baseline_reset=True)]
            + [rec(serial_s=2.0, baseline_reset=True)]
            + [rec(serial_s=2.0)] * 3
            + [rec(serial_s=2.05)]
        )
        verdict = evaluate_gate(records, min_records=3)
        assert verdict.ok and not verdict.advisory

    def test_show_marks_reset_records(self, tmp_path, capsys):
        path = tmp_path / "BENCH.json"
        append_record(path, rec(serial_s=2.0))
        append_record(path, rec(serial_s=0.4, baseline_reset=True))
        assert main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[baseline reset]" in out
