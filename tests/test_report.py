"""The report check compiled from REPORT_SCHEMA, against jsonschema.

Real reports are mutated at every level. The compiled check must never
accept a mutant that jsonschema refuses, and ``validate_report`` must name
the error that ``jsonschema.validate`` names, at the same path, in a
ValueError. jsonschema is the reference here only: meancert runs without it.
"""
import contextlib
import json
import math

import jsonschema
import pytest

from meancert.cli import main
from meancert.linalg import DomainError
from meancert.report import REPORT_SCHEMA, compile_schema, validate_report

WRONG_TYPES = (True, 1.0, "1", None, [], {})
OUT_OF_RANGE = (-1, math.nan, math.inf)
DROP = object()  # a mutation that deletes the key

SWEEPS = {"scalar": ["scalar-sweep", "--case", "all"],
          "matrix": ["matrix-verify", "--case", "hs-2.13,op-2.3", "--trials", "40"]}
LEVELS = {"scalar": 2, "matrix": 3}  # a scalar report has no failures


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    reports = {}
    for name, argv in SWEEPS.items():
        path = out / f"{name}.json"
        assert main([*argv, "--out", str(path)]) in (0, 1)
        reports[name] = json.loads(path.read_text())
    assert any(case["failure_digests"] for case in reports["matrix"]["cases"])
    return reports


_VALIDATOR = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


def jsonschema_error(report):
    """The error ``jsonschema.validate(report, REPORT_SCHEMA)`` raises, or None;
    the same best match, with the validator built once."""
    return jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(report))


def representatives(items):
    """The first (key, member) of each shape: objects by their keys, anything else once."""
    seen = set()
    for key, member in items:
        shape = frozenset(member) if isinstance(member, dict) else type(member)
        if shape not in seen:
            seen.add(shape)
            yield key, member


def swaps(container, key, value):
    for new in WRONG_TYPES:
        yield container, key, new
    if type(value) in (int, float):
        for new in OUT_OF_RANGE:
            yield container, key, new


def mutations(node):
    """(container, key, value) for each mutation of ``node`` and, below it,
    of the first member of each shape in a list: drop each key, add an
    unknown key, put a value of each wrong type, or a negative, NaN or
    infinite number."""
    if isinstance(node, dict):
        yield node, "bogus", 1
        for key, value in node.items():
            yield node, key, DROP
        members = list(node.items())
    elif isinstance(node, list):
        members = list(representatives(enumerate(node)))
    else:
        return
    for key, member in members:
        yield from swaps(node, key, member)
        yield from mutations(member)


@contextlib.contextmanager
def mutated(container, key, value):
    missing = isinstance(container, dict) and key not in container
    old = None if missing else container[key]
    if value is DROP:
        del container[key]
    else:
        container[key] = value
    try:
        yield
    finally:
        if missing:
            del container[key]
        else:
            container[key] = old


@pytest.mark.parametrize("name", list(SWEEPS))
def test_compiled_check_never_accepts_what_jsonschema_refuses(reports, name):
    report = reports[name]
    check = compile_schema(REPORT_SCHEMA)
    assert check(report) is None and jsonschema_error(report) is None
    refused_more = set()
    todo = list(mutations(report))
    # every level is reached: the report, a case, a failure and a digest
    case = REPORT_SCHEMA["properties"]["cases"]["items"]
    levels = [REPORT_SCHEMA, case, case["properties"]["failure_digests"]["items"]]
    keys = {key for _, key, _ in todo}
    assert keys >= {key for level in levels[:LEVELS[name]] for key in level["required"]}
    assert keys >= {"nu", "a" if name == "scalar" else "x_kind"}
    for container, key, value in todo:
        with mutated(container, key, value):
            error = jsonschema_error(report)
            refused = check(report)
            if refused is None:
                assert error is None, (key, value)
                with contextlib.suppress(DomainError):  # a digest that replay rejects
                    validate_report(report)
                continue
            with pytest.raises(ValueError) as raised:
                validate_report(report)
            assert type(raised.value) is ValueError
            if error is None:
                refused_more.add(repr(value))
                assert str(raised.value).endswith((f"{value!r} is not of type 'integer'",
                                                   f"{value!r} is less than the minimum of 0"))
            else:
                assert str(raised.value) == "report off REPORT_SCHEMA: report" + where(error)
    # it refuses more only a float for an integer and NaN under a minimum
    assert refused_more <= {"1.0", "nan"}


def where(error):
    """jsonschema's ``error`` as the compiled check writes one: its path, as in
    ['cases'][1]['trials'], then ": " and its message."""
    return "".join(f"[{key!r}]" for key in error.absolute_path) + ": " + error.message


def test_jsonschema_error_is_the_error_of_validate(reports):
    report = reports["matrix"]
    with mutated(report["cases"][0], "trials", -1):
        with pytest.raises(jsonschema.ValidationError) as raised:
            jsonschema.validate(report, REPORT_SCHEMA)
        assert str(raised.value) == str(jsonschema_error(report))


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^m"},
    {"format": "date-time"},
    {"anyOf": [{"type": "string"}, {"type": "null"}]},
    {"type": "object", "properties": {"a": {"type": "string", "maxLength": 3}}},
    {"type": "object", "additionalProperties": {"type": "string"}},
    {"type": "array", "items": {"$schema": "https://json-schema.org/draft/2020-12/schema"}},
    {"$schema": "http://json-schema.org/draft-07/schema#"},
    {"items": {"type": "string"}},
    {"minimum": 0},
    {"type": "decimal"},
    {"type": "integer", "minimum": "0"},
    {"const": 1},
    {"enum": ["scalar", None]},
    {},
    True,
], ids=repr)
def test_a_keyword_outside_the_supported_set_raises(schema):
    with pytest.raises(ValueError, match="cannot compile"):
        compile_schema(schema)


def test_each_supported_keyword_checks():
    schema = {
        "type": "object",
        "properties": {"n": {"type": "integer", "minimum": 0},
                       "x": {"type": ["number", "null"], "minimum": 0},
                       "k": {"enum": ["a", "b"]},
                       "c": {"const": "v"},
                       "l": {"type": "array", "items": {"type": "string"}}},
        "required": ["n"],
        "additionalProperties": False,
    }
    check = compile_schema(schema)
    good = {"n": 0, "x": None, "k": "a", "c": "v", "l": ["s"]}
    assert check(good) is None and check({"n": 3, "x": 0.5}) is None
    validator = jsonschema.validators.validator_for(schema)(schema)
    for bad, want in (
            ({"x": 1}, ": 'n' is a required property"),
            (dict(good, n=-1), "['n']: -1 is less than the minimum of 0"),
            (dict(good, n=True), "['n']: True is not of type 'integer'"),
            (dict(good, x=-0.5), "['x']: -0.5 is less than the minimum of 0"),
            (dict(good, x="1"), "['x']: '1' is not of type 'number', 'null'"),
            (dict(good, k="z"), "['k']: 'z' is not one of ['a', 'b']"),
            (dict(good, c="w"), "['c']: 'v' was expected"),
            (dict(good, l=["s", 1]), "['l'][1]: 1 is not of type 'string'"),
            (dict(good, extra=1), ": Additional properties are not allowed "
                                  "('extra' was unexpected)"),
            (dict(good, y=1, extra=2), ": Additional properties are not allowed "
                                       "('extra', 'y' were unexpected)"),
            ([good], f": {[good]!r} is not of type 'object'")):
        assert check(bad) == want, bad
        error = jsonschema.exceptions.best_match(validator.iter_errors(bad))
        assert where(error) == want
