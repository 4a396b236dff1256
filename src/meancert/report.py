"""Machine-readable run reports.

Reports are plain JSON, validated against REPORT_SCHEMA (each digest is
checked as replay checks it) before they are written, and serialized
canonically (sorted keys, fixed indentation) so that two runs with
identical inputs produce byte-identical files apart from the wall_time_s
field.  A report is checked by one pass compiled from REPORT_SCHEMA,
which names the first error it finds in jsonschema's words; jsonschema
itself is not needed to run.
"""
from __future__ import annotations

import functools
import json
from typing import Any, Callable

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
    "additionalProperties": False,
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
    "additionalProperties": False,
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


_DIALECT = "https://json-schema.org/draft/2020-12/schema"
# the exact Python types each JSON type admits; jsonschema admits more (1.0
# as an integer, subclasses of dict and list), never fewer
_TYPES = {"object": {dict}, "array": {list}, "string": {str}, "integer": {int},
          "number": {int, float}, "boolean": {bool}, "null": {type(None)}}
_NUMBERS = frozenset(_TYPES["number"])
# keywords that apply to values of one JSON type only, compiled only beside a
# "type": the exact type check ahead of them leaves them no value they skip
# that jsonschema would check
_TYPED = {"minimum", "properties", "required", "additionalProperties", "items"}
_KEYWORDS = _TYPED | {"type", "const", "enum"}


def _strings(values: list[Any]) -> frozenset[str]:
    if not all(type(v) is str for v in values):
        raise ValueError(f"cannot compile schema constants other than strings: {values!r}")
    return frozenset(values)


def compile_schema(schema: dict[str, Any], root: bool = True) -> Callable[[Any], str | None]:
    """One check that returns None for a value that jsonschema accepts, or
    else its first error: the path to the value at fault, as in
    ``['cases'][1]['trials']``, then ": " and jsonschema's message for it.

    It knows the keywords REPORT_SCHEMA uses, in their draft 2020-12
    meaning, and raises ValueError for any other keyword or form.  It
    checks exact types and refuses NaN under a minimum, so it may refuse a
    value that jsonschema accepts, but never accepts one that jsonschema
    refuses.  A missing key comes first of an object's errors, then the
    rest in the object's order.
    """
    if type(schema) is not dict:
        raise ValueError(f"cannot compile schema {schema!r}")
    unknown = schema.keys() - _KEYWORDS - ({"$schema"} if root else set())
    if unknown:
        raise ValueError(f"cannot compile schema keywords {sorted(unknown)}")
    if schema.get("$schema", _DIALECT) != _DIALECT:
        raise ValueError(f"cannot compile schema dialect {schema['$schema']!r}")
    if "type" not in schema and schema.keys() & _TYPED:
        raise ValueError(f"cannot compile {sorted(schema.keys() & _TYPED)} without a type")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("cannot compile additionalProperties other than false")
    checks: list[Callable[[Any], str | None]] = []
    if "type" in schema:
        names = schema["type"]
        names = [names] if type(names) is str else names
        if not all(name in _TYPES for name in names):
            raise ValueError(f"cannot compile type {schema['type']!r}")
        types = frozenset().union(*(_TYPES[name] for name in names))
        wanted = ", ".join(map(repr, names))
        checks.append(lambda v: None if type(v) in types else f": {v!r} is not of type {wanted}")
    if "const" in schema:
        const, = _strings([schema["const"]])
        checks.append(lambda v: None if type(v) is str and v == const
                      else f": {const!r} was expected")
    if "enum" in schema:
        members = _strings(schema["enum"])
        checks.append(lambda v: None if type(v) is str and v in members
                      else f": {v!r} is not one of {schema['enum']!r}")
    if "minimum" in schema:
        low = schema["minimum"]
        if type(low) not in _NUMBERS:
            raise ValueError(f"cannot compile minimum {low!r}")
        checks.append(lambda v: None if type(v) not in _NUMBERS or v >= low
                      else f": {v!r} is less than the minimum of {low!r}")
    if "items" in schema:
        item = compile_schema(schema["items"], root=False)
        checks.append(lambda v: next(f"[{i}]{e}" for i, e in enumerate(map(item, v)) if e)
                      if type(v) is list and any(map(item, v)) else None)
    if schema.keys() & {"properties", "required", "additionalProperties"}:
        props = {key: compile_schema(sub, root=False)
                 for key, sub in schema.get("properties", {}).items()}
        required = schema.get("required", [])
        needed = frozenset(required)
        closed = "additionalProperties" in schema

        def check_object(v: Any) -> str | None:
            if type(v) is not dict:
                return None
            if not v.keys() >= needed:
                return f": {next(key for key in required if key not in v)!r} is a required property"
            for key, value in v.items():
                check = props.get(key)
                if check is None:
                    if closed:
                        extra = sorted(v.keys() - props.keys(), key=str)
                        return (": Additional properties are not allowed (%s %s unexpected)" % (
                            ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"))
                elif error := check(value):
                    return f"[{key!r}]{error}"
            return None

        checks.append(check_object)
    if not checks:
        raise ValueError("cannot compile a schema without keywords")
    # the checks in order, each run only on what every earlier one accepted
    return functools.reduce(lambda first, then: lambda v: first(v) or then(v), checks)


@functools.cache
def _report_check() -> Callable[[Any], str | None]:
    """REPORT_SCHEMA compiled, on first use."""
    return compile_schema(REPORT_SCHEMA)


def validate_report(report: dict[str, Any]) -> None:
    """Check the report against REPORT_SCHEMA and each digest as replay does.

    A report off the schema raises ValueError "report off REPORT_SCHEMA:
    report['cases'][1]['trials']: -1 is less than the minimum of 0": the
    path of its first error and jsonschema's message for it.
    """
    error = _report_check()(report)
    if error is not None:
        raise ValueError(f"report off REPORT_SCHEMA: report{error}")
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
