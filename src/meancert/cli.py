"""Command line interface.

Verbs:
  list           enumerate registered cases
  scalar-sweep   deterministic grid sweep of the scalar chains
  matrix-verify  seeded randomized certification of operator and norm cases
  replay         re-run one trial from its digest
  gap-profile    per-link slack profiles along nu, with tightness witnesses

Exit codes: 0 all checks passed, 1 certification failure, 2 usage or
domain error.  A JSON config file (--config) supplies defaults; explicit
flags win over the file, the file wins over built-ins.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace
from typing import Any

from . import __version__, runner, scalar
from .linalg import CERT_PSD_TOL, PSD_TOL, DomainError
from .randgen import DEFAULT_LAW
from .report import build_report, canonical_json

TOOL = f"meancert {__version__}"


def _split_tokens(values: list[str] | None) -> list[str] | None:
    if values is None:
        return None
    out: list[str] = []
    for v in values:
        out.extend(tok for tok in v.split(",") if tok)
    return out


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError(f"config {path!r} must hold a JSON object")
    return cfg


_KINDS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          str: ("a string", "strings")}


def _config_value(action: argparse.Action, key: str, value: Any) -> Any:
    """A config file's ``value`` for ``key``, checked against the type its flag parses to.

    An int stands for a float; a bool stands for no number, and nothing
    else is converted.  Anything else is a DomainError naming the key.
    """
    kind = action.type or str

    def fits(v: Any) -> bool:
        if kind is float:
            return type(v) in (int, float)
        return type(v) is kind and (action.choices is None or v in action.choices)

    if isinstance(action, argparse._StoreTrueAction):
        ok, want = type(value) is bool, "true or false"
    elif isinstance(action, argparse._AppendAction):
        ok = type(value) is list and all(fits(v) for v in value)
        want = f"a list of {_KINDS[kind][1]}, as repeated {action.option_strings[0]} flags"
    else:
        ok, want = fits(value), _KINDS[kind][0]
        if action.choices is not None:
            want = f"one of {', '.join(map(repr, action.choices))}"
    if not ok:
        raise DomainError(f"config key {key!r} must be {want}, got {value!r}")
    return float(value) if kind is float and type(value) is int else value


def _merge(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    """Resolve option values: CLI flag > config file > built-in default.

    A config value must have the type its flag parses to (``_config_value``);
    null stands for an option that defaults to null.
    """
    cfg = _load_config(getattr(args, "config", None))
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise DomainError(
            f"unknown config keys {sorted(unknown)}; expected {sorted(defaults)}"
        )
    flags = {action.dest: action for action in args.flags._actions}
    for key, val in cfg.items():
        if val is not None or defaults[key] is not None:
            cfg[key] = _config_value(flags[key], key, val)
    out = {}
    for key, builtin in defaults.items():
        val = getattr(args, key, None)
        if val is None:
            val = cfg.get(key)
        out[key] = builtin if val is None else val
    return out


def _fmt_argmin(argmin: dict[str, Any] | None) -> str:
    if not argmin:
        return ""
    if argmin.get("kind") == "scalar":
        return f" (a={argmin['a']:g} b={argmin['b']:g} nu={argmin['nu']:g})"
    return f" (dim={argmin['dim']} trial={argmin['trial']} nu={argmin['nu']:g})"


def _print_case_line(summary: dict[str, Any]) -> None:
    status = "PASS" if summary["passed"] else "FAIL"
    ms = summary["min_slack"]
    ms_s = "n/a" if ms is None else f"{ms:+.3e}"
    parts = [f"{summary['case']:<16}{status:<6}",
             f"trials={summary['trials']}",
             f"failures={summary['failures']}",
             f"min_slack={ms_s}{_fmt_argmin(summary.get('argmin'))}"]
    if summary.get("skipped"):
        parts.insert(2, f"skipped={summary['skipped']}")
    if summary.get("oracle_max_rel_err") is not None:
        parts.append(f"oracle_err={summary['oracle_max_rel_err']:.2e}")
    if summary.get("oracle_violations"):
        parts.append(f"oracle_violations={summary['oracle_violations']}")
    if summary.get("advisory_trials"):
        parts.append(f"advisory={summary['advisory_held']}/{summary['advisory_trials']} held")
    if summary["failures"] and summary["failure_digests"]:
        worst = summary["failure_digests"][0]
        parts.append(f"first_failure={json.dumps(worst['digest'], sort_keys=True)}")
    print("  ".join(parts))


def _finish(path: str | None, command: str, config: dict[str, Any],
            cases: list[dict[str, Any]], wall: float) -> int:
    """Print one line per case, write the report if asked; return the exit code."""
    for s in cases:
        _print_case_line(s)
    if path is not None:
        rep = build_report(command, config, cases, wall, tool=TOOL)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(rep))
    return 0 if all(s["passed"] for s in cases) else 1


def cmd_list(args: argparse.Namespace) -> int:
    opts = _merge(args, {"kind": "all", "format": "text"})
    kind = opts["kind"]
    cases = [case for case in runner.CASES.values() if kind in ("all", case.kind)]
    if opts["format"] == "json":
        payload = [{
            "case": case.case_id,
            "kind": case.kind,
            "nu_domain": case.nu_domain,
            "links": list(getattr(case, "links", ())),
            "formula": case.formula,
            "description": case.description,
        } for case in cases]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    width = max(len(case.nu_domain) for case in cases)
    for case in cases:
        links = ",".join(getattr(case, "links", ())) or "-"
        print(f"{case.case_id:<16}{case.kind:<10}{case.nu_domain:<{width}} "
              f"links={links:<28}{case.description}")
    return 0


def cmd_scalar_sweep(args: argparse.Namespace) -> int:
    opts = _merge(args, {"case": None, "tol": scalar.SCALAR_TOL,
                         "nu": None, "out": None})
    ids = runner.resolve_cases(_split_tokens(opts["case"]), ("scalar",))
    nus = scalar.NU_GRID_65 if opts["nu"] is None else (opts["nu"],)
    for cid in ids:  # a given nu off a case's domain would check no point of it
        runner.nu_grid_for(cid, opts["nu"])
    t0 = time.perf_counter()
    summaries = [runner.run_scalar_case(cid, nu_values=nus, tol=opts["tol"])
                 for cid in ids]
    wall = time.perf_counter() - t0
    grid = f"{len(scalar.A_GRID_13)}x{len(scalar.A_GRID_13)}x{len(nus)}"
    print(f"scalar-sweep  grid={grid}  tol={opts['tol']:g}  cases={len(ids)}")
    config = {"case": ids, "tol": opts["tol"], "nu": opts["nu"],
              "grid": grid}
    return _finish(opts["out"], "scalar-sweep", config, summaries, wall)


def cmd_matrix_verify(args: argparse.Namespace) -> int:
    opts = _merge(args, {
        "case": None, "trials": 10000, "seed": 0, "dim": None,
        "tol": CERT_PSD_TOL, "law": DEFAULT_LAW,
        "w_law": None, "nu": None, "complex": False, "lenient_x": False,
        "jobs": 1, "out": None,
    })
    ids = runner.resolve_cases(_split_tokens(opts["case"]), ("operator", "hs"))
    dims = runner.DEFAULT_DIMS
    if opts["dim"] is not None:
        toks = _split_tokens(opts["dim"])
        try:
            dims = tuple(int(t) for t in toks)
        except ValueError as exc:
            raise DomainError(f"bad --dim value: {exc}") from exc
    cfg = runner.RunConfig(
        trials=opts["trials"], seed=opts["seed"], dims=dims,
        law=opts["law"], w_law=opts["w_law"], nu=opts["nu"],
        tol=opts["tol"],
        complex_entries=opts["complex"], lenient_x=opts["lenient_x"],
        jobs=opts["jobs"],
    )
    t0 = time.perf_counter()
    summaries = runner.run_matrix_suite(ids, cfg)
    wall = time.perf_counter() - t0
    print(f"matrix-verify  trials={cfg.trials}  seed={cfg.seed}  dims={list(cfg.dims)}"
          f"  tol={cfg.tol:g}  law={cfg.law}  cases={len(ids)}")
    config = {"case": ids, "trials": cfg.trials, "seed": cfg.seed,
              "dims": list(cfg.dims), "law": cfg.law, "w_law": cfg.w_law,
              "nu": cfg.nu, "tol": cfg.tol, "psd_tol": cfg.psd_tol,
              "complex": cfg.complex_entries, "lenient_x": cfg.lenient_x}
    return _finish(opts["out"], "matrix-verify", config, summaries, wall)


def cmd_replay(args: argparse.Namespace) -> int:
    opts = _merge(args, {"digest": None, "tol": None})
    raw = opts["digest"]
    if raw is None:
        raise DomainError("replay needs --digest (inline JSON or @file)")
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read digest file: {exc}") from exc
    try:
        digest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(f"digest is not valid JSON: {exc}") from exc
    if not isinstance(digest, dict):
        raise DomainError("digest must be a JSON object")
    record = runner.replay_trial(digest, tol=opts["tol"])
    print(canonical_json(record), end="")
    return 0 if record["passed"] or record.get("advisory") else 1


def _profile_scalar(ids: list[str], nus: list[float],
                    opts: dict[str, Any]) -> tuple[list[str], list[list[Any]], list[str]]:
    a, b = opts["a"], opts["b"]
    scalar.check_pair(a, b)  # before sides(a, b, 0.5) counts the links
    cases = {cid: runner.CASES[cid] for cid in ids}
    nlinks = {cid: len(case.sides(a, b, 0.5)) - 1 for cid, case in cases.items()}
    header = ["nu"]
    for cid in ids:
        header.extend(f"{cid}:link{i}" for i in range(nlinks[cid]))
    rows: list[list[Any]] = []
    upper: dict[str, list[tuple[float, float]]] = {cid: [] for cid in ids}
    for nu in nus:
        row: list[Any] = [nu]
        for cid, case in cases.items():
            if case.in_domain(nu):
                trial = scalar.evaluate(case, a, b, nu)
                row.extend(trial.slacks)
                upper[cid].append((nu, trial.slacks[-1]))
            else:
                row.extend([""] * nlinks[cid])
        rows.append(row)
    notes: list[str] = []
    first = ids[0]
    have = dict(upper[first])
    for other in ids[1:]:
        shared = [(nu, have[nu], s) for nu, s in upper[other] if nu in have]
        tighter_first = [(nu, f, s) for nu, f, s in shared if f < s]
        tighter_other = [(nu, f, s) for nu, f, s in shared if s < f]
        if tighter_first:
            nu, f, s = min(tighter_first, key=lambda t: t[1] - t[2])
            notes.append(f"{first} tighter than {other} at a={a:g} b={b:g} nu={nu:g}: "
                         f"{f:.6g} < {s:.6g} ({len(tighter_first)} of {len(shared)} points)")
        if tighter_other:
            nu, f, s = min(tighter_other, key=lambda t: t[2] - t[1])
            notes.append(f"{other} tighter than {first} at a={a:g} b={b:g} nu={nu:g}: "
                         f"{s:.6g} < {f:.6g} ({len(tighter_other)} of {len(shared)} points)")
        for (n0, f0, s0), (n1, f1, s1) in zip(shared, shared[1:]):
            if (f0 - s0) * (f1 - s1) < 0.0:
                notes.append(f"crossing between nu={n0:g} and nu={n1:g}: "
                             f"{first}-{other} gap flips sign "
                             f"({f0 - s0:+.3g} to {f1 - s1:+.3g})")
    return header, rows, notes


def _profile_matrix(ids: list[str], nus: list[float],
                    opts: dict[str, Any]) -> tuple[list[str], list[list[Any]], list[str]]:
    header = ["nu"]
    cfg = runner.RunConfig(trials=1, seed=opts["seed"], dims=(opts["dim"],), law=opts["law"])
    for cid in ids:
        header.extend(f"{cid}:{name}" for name in runner.CASES[cid].links)
    rows = []
    notes = [f"inputs: dim={opts['dim']} seed={opts['seed']} "
             f"law={opts['law']} trial=0"]
    for nu in nus:
        row: list[Any] = [nu]
        for cid in ids:
            case = runner.CASES[cid]
            if not case.in_domain(nu):
                row.extend([""] * len(case.links))
                continue
            digest = runner.make_digest(cid, replace(cfg, nu=nu), 0)
            rec = runner.run_trial(digest, CERT_PSD_TOL, PSD_TOL)
            if case.kind == "operator":
                row.extend(lc.slack for lc in rec.links)
            else:
                row.extend(rec.slacks)
        rows.append(row)
    return header, rows, notes


def cmd_gap_profile(args: argparse.Namespace) -> int:
    opts = _merge(args, {"case": None, "a": 4.0, "b": 1.0, "dim": 3,
                         "seed": 0, "law": DEFAULT_LAW, "nu_points": 129,
                         "out": None})
    tokens = _split_tokens(opts["case"])
    if not tokens:
        raise DomainError("gap-profile needs at least one --case")
    n = opts["nu_points"]
    if n < 2:
        raise DomainError("--nu-points must be >= 2")
    nus = [i / (n - 1) for i in range(n)]
    ids = runner.resolve_cases(tokens, ("scalar", "operator", "hs"))
    kinds = {runner.CASES[cid].kind for cid in ids}
    if kinds <= {"scalar"}:
        header, rows, notes = _profile_scalar(ids, nus, opts)
    elif "scalar" not in kinds:
        header, rows, notes = _profile_matrix(ids, nus, opts)
    else:
        raise DomainError("gap-profile cannot mix scalar and matrix cases")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    if opts["out"] is None:
        sys.stdout.write(buf.getvalue())
    else:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        print(f"wrote {len(rows)} rows to {opts['out']}")
    for note in notes:
        print(note)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="meancert",
        description="Certify scalar, operator and Hilbert-Schmidt mean "
                    "inequalities with seeded randomized testing.")
    p.add_argument("--version", action="version", version=TOOL)
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("list", help="enumerate registered cases")
    sp.add_argument("--kind", choices=("all", "scalar", "operator", "hs"))
    sp.add_argument("--format", choices=("text", "json"))
    sp.add_argument("--config")
    sp.set_defaults(fn=cmd_list, flags=sp)

    sp = sub.add_parser("scalar-sweep", help="grid sweep of scalar chains")
    sp.add_argument("--case", action="append",
                    help="case id, 'scalar', or 'all' (repeatable, comma ok)")
    sp.add_argument("--tol", type=float, help="link tolerance (default 1e-12)")
    sp.add_argument("--nu", type=float, help="restrict to a single nu")
    sp.add_argument("--out", help="write JSON report here")
    sp.add_argument("--config")
    sp.set_defaults(fn=cmd_scalar_sweep, flags=sp)

    sp = sub.add_parser("matrix-verify",
                        help="randomized certification of matrix cases")
    sp.add_argument("--case", action="append",
                    help="case id, 'op', 'hs', or 'all' (repeatable, comma ok)")
    sp.add_argument("--trials", type=int, help="trials per case (default 10000)")
    sp.add_argument("--seed", type=int, help="base seed (default 0)")
    sp.add_argument("--dim", action="append",
                    help="dimension cycle (repeatable, comma ok; default 1,2,3,5,8)")
    sp.add_argument("--tol", type=float, help="certification tolerance (default 1e-8)")
    sp.add_argument("--law", help="spectrum law (default log-uniform:0.001:1000.0)")
    sp.add_argument("--w-law", dest="w_law",
                    help="spectrum law for the ordered-pair gap W")
    sp.add_argument("--nu", type=float, help="fix nu instead of cycling the grid")
    sp.add_argument("--complex", action="store_true", default=None,
                    help="draw complex Hermitian inputs")
    sp.add_argument("--lenient-x", dest="lenient_x", action="store_true", default=None,
                    help="feed general X into positive-definite-X cases (advisory)")
    sp.add_argument("--jobs", type=int, help="worker processes (default 1)")
    sp.add_argument("--out", help="write JSON report here")
    sp.add_argument("--config")
    sp.set_defaults(fn=cmd_matrix_verify, flags=sp)

    sp = sub.add_parser("replay", help="re-run one trial from its digest")
    sp.add_argument("--digest", help="JSON digest, or @path to a file")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--config")
    sp.set_defaults(fn=cmd_replay, flags=sp)

    sp = sub.add_parser("gap-profile", help="per-link slack profile along nu")
    sp.add_argument("--case", action="append",
                    help="case ids to profile (repeatable, comma ok)")
    sp.add_argument("--a", type=float, help="scalar first argument (default 4)")
    sp.add_argument("--b", type=float, help="scalar second argument (default 1)")
    sp.add_argument("--dim", type=int, help="matrix dimension (default 3)")
    sp.add_argument("--seed", type=int, help="matrix input seed (default 0)")
    sp.add_argument("--law", help="matrix spectrum law")
    sp.add_argument("--nu-points", dest="nu_points", type=int,
                    help="grid resolution on [0, 1] (default 129)")
    sp.add_argument("--out", help="write CSV here instead of stdout")
    sp.add_argument("--config")
    sp.set_defaults(fn=cmd_gap_profile, flags=sp)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
