"""Compare a structured ``nullcone-verify`` report with a workload's expected verdicts.

A workload file (``perfbench/workloads/<name>.json``) is written by hand from
the README's discussion of the C03 discrepancy and its scope notes, not
copied from a run.  It gives the expected number of checks, the expected
exit code, and the status of every check that is expected not to pass;
every other check is expected to pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Comparison:
    expected_checks: int
    wrong: int
    problems: tuple  # human-readable reasons, at most a few

    @property
    def wrong_share(self) -> float:
        return self.wrong / self.expected_checks


def digest(report_text: str) -> str:
    return hashlib.sha256(report_text.encode()).hexdigest()


def parse_report(report_text: str) -> dict:
    """check_id -> status of a ``nullcone-report/1`` document (header skipped)."""
    lines = report_text.splitlines()
    header = json.loads(lines[0])
    if header.get("schema") != "nullcone-report/1":
        raise ValueError(f"unexpected report schema {header.get('schema')!r}")
    statuses = {}
    for line in lines[1:]:
        record = json.loads(line)
        statuses[record["check_id"]] = record["status"]
    return statuses


def compare(expected: dict, report_text, exit_code) -> Comparison:
    """Count the checks whose verdict differs from ``expected``.

    ``report_text`` is None for a run that crashed or wrote no report.  A
    crash, an unreadable report, a wrong exit code or a wrong number of
    checks counts every expected check as wrong, so a run that checked
    nothing is never vacuously right.
    """
    total = expected["checks"]
    if total < 1:
        raise ValueError("a workload must expect at least one check")
    if report_text is None:
        return Comparison(total, total, ("no report",))
    try:
        statuses = parse_report(report_text)
    except (ValueError, KeyError, IndexError) as exc:
        return Comparison(total, total, (f"unreadable report: {exc}",))
    if exit_code != expected["exit_code"]:
        return Comparison(total, total, (f"exit code {exit_code}, expected {expected['exit_code']}",))
    if len(statuses) != total:
        return Comparison(total, total, (f"{len(statuses)} checks, expected {total}",))
    problems = [
        f"{check_id}: missing, expected {status}"
        for check_id, status in sorted(expected["not_pass"].items())
        if check_id not in statuses
    ]
    for check_id, status in sorted(statuses.items()):
        want = expected["not_pass"].get(check_id, "pass")
        if status != want:
            problems.append(f"{check_id}: {status}, expected {want}")
    return Comparison(total, min(total, len(problems)), tuple(problems[:5]))
