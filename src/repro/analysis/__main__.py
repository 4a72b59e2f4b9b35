"""CLI for the repo static checker.

Exit status 0 when there are no findings, 1 otherwise.  A finding is
kept only by an inline ``# repro: noqa CODE — reason`` suppression,
which the ``SUP`` rules audit.  ``--json`` / ``--json-out`` emit
machine-readable results for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.engine import analyze_paths
from repro.analysis.rules import all_codes

DEFAULT_PATHS = ["src", "tests"]


def _result_payload(result) -> dict:
    return {
        "schema": 1,
        "files_scanned": result.files_scanned,
        "suppressed": result.suppressed,
        "counts": result.counts(),
        "new": [f.to_dict() for f in result.findings],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repo-aware static checks: determinism (DET), hot-path "
        "purity (HOT), sweep picklability (PKL), telemetry discipline (TEL).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=DEFAULT_PATHS,
        help=f"files or directories to check (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument("--json", action="store_true", help="print findings as JSON")
    parser.add_argument(
        "--json-out", type=Path, default=None, help="also write the JSON report here"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule code table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, description in all_codes().items():
            print(f"{code}  {description}")
        return 0

    result = analyze_paths(args.paths)
    findings = result.findings
    payload = _result_payload(result)
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        summary = (
            f"{result.files_scanned} file(s) scanned, {len(findings)} new finding(s), "
            f"{result.suppressed} suppressed"
        )
        print(summary if not findings else f"\n{summary}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
