"""Output checks for the benchmark workloads.

Every check returns a list of problems; an operation (one CLI sweep or one
replay) whose checks return any problem counts as a failed operation.
The two chains known to be false are expected to FAIL: their verdicts,
and exit code 1 from a suite that holds them, are correct outputs.
"""
from __future__ import annotations

import json
from typing import Any, Callable

import jsonschema

from meancert.report import REPORT_SCHEMA, strip_volatile

OP_CASES = ("op-2.10", "op-2.3", "op-2.5", "op-2.6", "op-2.7-left",
            "op-2.7-refine", "op-2.7-right", "op-heron-zhao")
HS_CASES = ("hs-2.13", "hs-2.14", "hs-cor", "hs-thm8")
EXPECTED_FAILING = frozenset({"hs-2.13", "hs-thm8"})
SCALAR_CASES = 18
SCALAR_GRID_POINTS = 13 * 13 * 65


def read_report(path: str) -> tuple[dict[str, Any] | None, list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh), []
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"report {path!r} unreadable: {exc}"]


def schema_problems(report: dict[str, Any]) -> list[str]:
    try:
        jsonschema.validate(report, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        return [f"report fails REPORT_SCHEMA: {exc.message}"]
    return []


def matrix_report_problems(report: dict[str, Any], rc: int,
                           cases: tuple[str, ...], trials: int) -> list[str]:
    """Verdict set, trial counts, oracle agreement and exit code of one sweep."""
    problems = schema_problems(report)
    if problems:
        return problems
    got = sorted(c["case"] for c in report["cases"])
    if got != sorted(cases):
        return [f"report lists cases {got}, expected {sorted(cases)}"]
    for c in report["cases"]:
        cid = c["case"]
        if c["trials"] != trials:
            problems.append(f"{cid}: {c['trials']} trials, expected {trials}")
        should_fail = cid in EXPECTED_FAILING
        if c["passed"] == should_fail or (c["failures"] > 0) != should_fail:
            problems.append(f"{cid}: passed={c['passed']} failures={c['failures']}, "
                            f"expected {'FAIL' if should_fail else 'PASS'}")
        if c.get("oracle_violations", 0) != 0:
            problems.append(f"{cid}: {c['oracle_violations']} oracle violations")
    want_rc = 1 if EXPECTED_FAILING & set(cases) else 0
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    return problems


def scalar_report_problems(report: dict[str, Any], rc: int) -> list[str]:
    problems = schema_problems(report)
    if problems:
        return problems
    if len(report["cases"]) != SCALAR_CASES:
        problems.append(f"{len(report['cases'])} scalar cases, expected {SCALAR_CASES}")
    for c in report["cases"]:
        if not c["passed"] or c["failures"]:
            problems.append(f"{c['case']}: scalar chain failed on the grid")
        if c["trials"] + c.get("skipped", 0) != SCALAR_GRID_POINTS:
            problems.append(f"{c['case']}: {c['trials']} points + "
                            f"{c.get('skipped', 0)} skipped != {SCALAR_GRID_POINTS}")
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    return problems


def same_report(report: dict[str, Any], reference: dict[str, Any]) -> list[str]:
    """Sweeps of one run repeat the same inputs, so reports must match."""
    if strip_volatile(report) != strip_volatile(reference):
        return ["report differs from the run's first report beyond wall_time_s"]
    return []


def replay_problems(report: dict[str, Any],
                    replay: Callable[[dict[str, Any]], dict[str, Any]]) -> list[str]:
    """Replay every argmin and failure digest; min_slack must match bit for bit.

    On a pooled sweep this checks that worker output equals the serial
    single-trial path.
    """
    problems = []
    for c in report["cases"]:
        want = [(c["argmin"], c["min_slack"])]
        want += [(f["digest"], f["min_slack"]) for f in c["failure_digests"]]
        for digest, min_slack in want:
            try:
                got = replay(digest)["min_slack"]
            except Exception as exc:  # a raising replay is a failed check
                problems.append(f"{c['case']}: replay of {digest} raised {exc!r}")
                continue
            if got != min_slack:
                problems.append(f"{c['case']}: replayed min_slack {got!r} != "
                                f"reported {min_slack!r} for trial {digest.get('trial')}")
    return problems


def replay_record_problems(record: dict[str, Any], digest: dict[str, Any],
                           expected: tuple[bool, float]) -> list[str]:
    """A replay must give the verdict and slack of run_trial on the digest."""
    passed, min_slack = expected
    if record.get("digest") != digest:
        return [f"replay record carries another digest than {digest}"]
    if record["passed"] != passed or record["min_slack"] != min_slack:
        return [f"replay of {digest['case']} trial {digest['trial']}: "
                f"passed={record['passed']} min_slack={record['min_slack']!r}, "
                f"run_trial gave passed={passed} min_slack={min_slack!r}"]
    return []
