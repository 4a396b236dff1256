"""Machine-readable run reports.

Reports are plain JSON, validated against REPORT_SCHEMA (each digest is
checked as replay checks it) before they are written, and serialized
canonically (sorted keys, fixed indentation) so that two runs with
identical inputs produce byte-identical files apart from the wall_time_s
field.  A report is checked by one pass compiled from REPORT_SCHEMA;
jsonschema is imported only to name the error of a report that pass
refuses.
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


def compile_schema(schema: dict[str, Any], root: bool = True) -> Callable[[Any], bool]:
    """One predicate that accepts a value only if jsonschema accepts it.

    It knows the keywords REPORT_SCHEMA uses, in their draft 2020-12
    meaning, and raises ValueError for any other keyword or form.  It
    checks exact types and refuses NaN under a minimum, so it may refuse a
    value that jsonschema accepts, but never accepts one that jsonschema
    refuses.
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
    checks: list[Callable[[Any], bool]] = []
    if "type" in schema:
        names = schema["type"]
        names = [names] if type(names) is str else names
        if not all(name in _TYPES for name in names):
            raise ValueError(f"cannot compile type {schema['type']!r}")
        types = frozenset().union(*(_TYPES[name] for name in names))
        checks.append(lambda v: type(v) in types)
    if "const" in schema:
        const, = _strings([schema["const"]])
        checks.append(lambda v: type(v) is str and v == const)
    if "enum" in schema:
        members = _strings(schema["enum"])
        checks.append(lambda v: type(v) is str and v in members)
    if "minimum" in schema:
        low = schema["minimum"]
        if type(low) not in _NUMBERS:
            raise ValueError(f"cannot compile minimum {low!r}")
        checks.append(lambda v: type(v) not in _NUMBERS or v >= low)
    if "items" in schema:
        item = compile_schema(schema["items"], root=False)
        checks.append(lambda v: type(v) is not list or all(map(item, v)))
    if schema.keys() & {"properties", "required", "additionalProperties"}:
        props = {key: compile_schema(sub, root=False)
                 for key, sub in schema.get("properties", {}).items()}
        required = frozenset(schema.get("required", ()))
        closed = "additionalProperties" in schema

        def check_object(v: Any) -> bool:
            if type(v) is not dict:
                return True
            if not v.keys() >= required:
                return False
            for key, value in v.items():
                check = props.get(key)
                if check is None:
                    if closed:
                        return False
                elif not check(value):
                    return False
            return True

        checks.append(check_object)
    if not checks:
        raise ValueError("cannot compile a schema without keywords")
    # the checks in order, each run only on what every earlier one accepted
    return functools.reduce(lambda first, then: lambda v: first(v) and then(v), checks)


@functools.cache
def _report_check() -> Callable[[Any], bool]:
    """REPORT_SCHEMA compiled, on first use."""
    return compile_schema(REPORT_SCHEMA)


@functools.cache
def _validator() -> Callable[[dict[str, Any]], Exception | None]:
    """jsonschema's REPORT_SCHEMA check, built on first use: it returns the
    best match of a report's schema errors, or None.  jsonschema is imported
    here, as only a report that the compiled pass refuses reaches it, and
    checking the schema itself costs ten times as much as checking a report
    against it."""
    import jsonschema

    cls = jsonschema.validators.validator_for(REPORT_SCHEMA)
    cls.check_schema(REPORT_SCHEMA)
    validator = cls(REPORT_SCHEMA)
    return lambda report: jsonschema.exceptions.best_match(validator.iter_errors(report))


def validate_report(report: dict[str, Any]) -> None:
    """Check the report against REPORT_SCHEMA and each digest as replay does.

    The pass compiled from REPORT_SCHEMA checks the report first; only a
    report it refuses goes to jsonschema, which has the final say.  A
    report off the schema raises ``jsonschema.ValidationError``, the error
    that ``jsonschema.validate`` would raise.
    """
    if not _report_check()(report):
        error = _validator()(report)
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
