"""Machine-readable run reports.

Reports are plain JSON, validated against REPORT_SCHEMA (each digest is
checked as replay checks it) before they are written, and serialized
canonically (sorted keys, fixed indentation) so that two runs with
identical inputs produce byte-identical files apart from the wall_time_s
field.
"""
from __future__ import annotations

import functools
import json
from typing import Any

import jsonschema

from .runner import check_digest

SCHEMA_VERSION = "meancert.report/1"

_FAILURE = {
    "type": "object",
    "properties": {
        "digest": {"type": "object"},
        "min_slack": {"type": "number"},
        "worst_link": {"type": "string"},
    },
    "required": ["digest", "min_slack"],
}

_CASE = {
    "type": "object",
    "properties": {
        "case": {"type": "string"},
        "kind": {"enum": ["scalar", "operator", "hs"]},
        "links": {"type": "array", "items": {"type": "string"}},
        "trials": {"type": "integer", "minimum": 0},
        "asserted": {"type": "integer", "minimum": 0},
        "passes": {"type": "integer", "minimum": 0},
        "failures": {"type": "integer", "minimum": 0},
        "skipped": {"type": "integer", "minimum": 0},
        "passed": {"type": "boolean"},
        "min_slack": {"type": ["number", "null"]},
        "argmin": {"type": ["object", "null"]},
        "failure_digests": {"type": "array", "items": _FAILURE},
        "oracle_max_rel_err": {"type": ["number", "null"]},
        "oracle_violations": {"type": "integer", "minimum": 0},
        "advisory_trials": {"type": "integer", "minimum": 0},
        "advisory_held": {"type": "integer", "minimum": 0},
    },
    "required": ["case", "kind", "trials", "passes", "failures", "passed",
                 "min_slack", "argmin", "failure_digests"],
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "tool": {"type": "string"},
        "command": {"enum": ["scalar-sweep", "matrix-verify"]},
        "config": {"type": "object"},
        "cases": {"type": "array", "items": _CASE},
        "all_passed": {"type": "boolean"},
        "wall_time_s": {"type": "number", "minimum": 0},
    },
    "required": ["schema", "tool", "command", "config", "cases",
                 "all_passed", "wall_time_s"],
    "additionalProperties": False,
}


@functools.cache
def _validator() -> jsonschema.protocols.Validator:
    """The REPORT_SCHEMA validator, built on first use (checking the schema
    itself costs ten times as much as checking a report against it)."""
    cls = jsonschema.validators.validator_for(REPORT_SCHEMA)
    cls.check_schema(REPORT_SCHEMA)
    return cls(REPORT_SCHEMA)


def validate_report(report: dict[str, Any]) -> None:
    """Check the report against REPORT_SCHEMA and each digest as replay does.

    A report off the schema raises ``jsonschema.ValidationError``, the
    error that ``jsonschema.validate`` would raise.
    """
    error = jsonschema.exceptions.best_match(_validator().iter_errors(report))
    if error is not None:
        raise error
    for case in report["cases"]:
        if case["argmin"] is not None:
            check_digest(case["argmin"])
        for failure in case["failure_digests"]:
            check_digest(failure["digest"])


def build_report(command: str, config: dict[str, Any], cases: list[dict[str, Any]],
                 wall_time_s: float, tool: str) -> dict[str, Any]:
    report = {
        "schema": SCHEMA_VERSION,
        "tool": tool,
        "command": command,
        "config": config,
        "cases": sorted(cases, key=lambda c: c["case"]),
        "all_passed": all(c["passed"] for c in cases),
        "wall_time_s": float(wall_time_s),
    }
    validate_report(report)
    return report


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def strip_volatile(report: dict[str, Any]) -> dict[str, Any]:
    """Copy without timing fields, for byte-level comparisons across runs."""
    out = dict(report)
    out.pop("wall_time_s", None)
    return out
