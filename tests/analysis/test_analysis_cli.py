"""CLI behavior: exit codes and JSON schema — and the assertion that
the repo's own tree is clean."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args, cwd):
    """Invoke main() with an isolated cwd (finding paths are cwd-relative)."""
    import contextlib
    import io
    import os

    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            rc = main(args)
    finally:
        os.chdir(old)
    return rc, out.getvalue()


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        rc, out = run_cli([str(target)], tmp_path)
        assert rc == 0
        assert "0 new finding(s)" in out

    def test_findings_exit_one(self, tmp_path):
        rc, out = run_cli([str(FIXTURES / "det_bad.py")], tmp_path)
        assert rc == 1
        assert "DET001" in out

    def test_a_leftover_baseline_file_keeps_no_finding(self, tmp_path):
        """Only an inline ``# repro: noqa`` keeps a finding: an
        ``analysis-baseline.json`` listing it in the working directory
        is not read."""
        bad = FIXTURES / "det_bad.py"
        _, out = run_cli([str(bad), "--json"], tmp_path)
        findings = [
            {"path": f["path"], "code": f["code"], "content": f["content"]}
            for f in json.loads(out)["new"]
        ]
        baseline = {"schema": 1, "findings": findings}
        (tmp_path / "analysis-baseline.json").write_text(json.dumps(baseline))
        rc, out = run_cli([str(bad)], tmp_path)
        assert rc == 1
        assert "DET001" in out


class TestJsonOutput:
    def test_json_schema(self, tmp_path):
        rc, out = run_cli([str(FIXTURES / "det_bad.py"), "--json"], tmp_path)
        assert rc == 1
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"]["DET001"] == 5
        entry = payload["new"][0]
        assert set(entry) == {"path", "line", "col", "code", "message", "content"}

    def test_json_out_writes_file(self, tmp_path):
        report = tmp_path / "findings.json"
        rc, _ = run_cli(
            [str(FIXTURES / "det_bad.py"), "--json-out", str(report)], tmp_path
        )
        assert rc == 1
        payload = json.loads(report.read_text())
        assert payload["new"]

    def test_list_rules(self, tmp_path):
        rc, out = run_cli(["--list-rules"], tmp_path)
        assert rc == 0
        for code in ("DET001", "HOT005", "PKL002", "TEL003", "SUP002"):
            assert code in out


class TestRepoTree:
    """The shipped tree is clean — the ISSUE's acceptance criterion."""

    def test_module_entrypoint_clean_on_src_and_tests(self):
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "tests"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 new finding(s)" in proc.stdout


@pytest.mark.parametrize("flag", ["--help"])
def test_help_runs(flag, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
