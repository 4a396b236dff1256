import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

import meancert
from meancert.cli import main
from meancert.linalg import PSD_TOL, DomainError
from meancert.report import (REPORT_SCHEMA, canonical_json, strip_volatile,
                             validate_report)
from meancert import hsnorm, opmeans, scalar
from meancert import runner
from meancert.runner import (CASES, MAX_DIM, MAX_JOBS, RunConfig, check_digest, make_digest,
                             nu_grid_for, replay_trial, resolve_cases, run_case)

ALL_CASE_COUNT = 30  # 18 scalar + 8 operator + 4 hs


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        rep = json.load(fh)
    validate_report(rep)
    return rep


class TestResolveCases:
    def test_all_matrix(self):
        ids = resolve_cases(["all"], ("operator", "hs"))
        assert len(ids) == 12

    def test_kind_tokens(self):
        assert len(resolve_cases(["op"], ("operator", "hs"))) == 8
        assert len(resolve_cases(["hs"], ("operator", "hs"))) == 4
        assert len(resolve_cases(["scalar"], ("scalar",))) == 18

    def test_dedup_preserves_order(self):
        ids = resolve_cases(["op-2.3", "op-2.3", "op-2.5"], ("operator",))
        assert ids == ["op-2.3", "op-2.5"]

    def test_wrong_kind_rejected(self):
        with pytest.raises(DomainError, match="kind"):
            resolve_cases(["young-1.1"], ("operator", "hs"))

    def test_wrong_kind_token_rejected(self):
        with pytest.raises(DomainError, match="kind scalar"):
            resolve_cases(["scalar"], ("operator", "hs"))

    def test_unknown_id(self):
        with pytest.raises(DomainError, match="known ids"):
            resolve_cases(["zzz"], ("operator",))


class TestRunner:
    def test_scalar_case_of_another_kind_raises(self):
        with pytest.raises(DomainError, match="^case 'op-2.3' is of kind operator; "
                                              "this command handles scalar cases$"):
            runner.run_scalar_case("op-2.3")

    def test_nu_grid_respects_domain(self):
        grid = nu_grid_for("op-2.3", None)
        assert 0.0 not in grid and 1.0 in grid and len(grid) == 32
        assert nu_grid_for("op-2.10", None) == [k / 32 for k in range(33)]
        with pytest.raises(DomainError,
                           match=r"^case op-2\.3 requires nu in 0 < nu <= 1, got nu=0\.0$"):
            nu_grid_for("op-2.3", 0.0)

    def test_digest_round_trips_min_slack(self):
        cfg = RunConfig(trials=40, seed=5)
        summary = run_case("op-2.6", cfg)
        rec = replay_trial(dict(summary["argmin"]))
        assert rec["min_slack"] == summary["min_slack"]

    def test_chunk_merge_matches_serial(self):
        # 600 trials spans two chunks; a 2-worker pool must agree bit for bit
        cfg1 = RunConfig(trials=600, seed=3, jobs=1)
        cfg2 = RunConfig(trials=600, seed=3, jobs=2)
        from meancert.runner import run_matrix_suite
        s1 = run_matrix_suite(["op-2.3"], cfg1)
        s2 = run_matrix_suite(["op-2.3"], cfg2)
        assert canonical_json(s1) == canonical_json(s2)

    @pytest.mark.parametrize("jobs, trials, workers", [
        (2, 512, None), (MAX_JOBS, 600, 2), (2, 1100, 2), (4, 1100, 3),
    ])
    def test_pool_starts_a_worker_per_chunk_at_most(self, monkeypatch, jobs, trials, workers):
        sizes = []

        class Pool:  # records its size and runs each chunk in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(runner, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(runner, "_run_chunk", lambda *a: runner._Agg())
        runner.run_matrix_suite(["op-2.3", "hs-2.14"], RunConfig(trials=trials, jobs=jobs))
        assert sizes == ([] if workers is None else [workers])

    def test_failure_digests_capped(self):
        cfg = RunConfig(trials=700, seed=0, nu=0.5)
        summary = run_case("hs-2.13", cfg)
        assert summary["failures"] > 10
        assert len(summary["failure_digests"]) == 10

    def test_ordered_structure_for_op27(self):
        cfg = RunConfig(trials=4, seed=0)
        assert make_digest("op-2.7-refine", cfg, 0)["structure"] == "ordered-pair"
        assert make_digest("op-2.3", cfg, 0)["structure"] == "general-pd"

    def test_clamp_window_is_no_run_config_field(self):
        assert RunConfig().psd_tol == PSD_TOL
        with pytest.raises(TypeError):
            RunConfig(psd_tol=1e-6)

    def test_run_config_validation(self):
        with pytest.raises(DomainError):
            RunConfig(trials=0)
        with pytest.raises(DomainError):
            RunConfig(dims=())
        with pytest.raises(DomainError):
            RunConfig(law="bogus:1")
        with pytest.raises(DomainError):
            RunConfig(jobs=0)

    def test_replay_rejects_bad_digest(self):
        with pytest.raises(DomainError, match="case"):
            replay_trial({"kind": "operator"})
        with pytest.raises(DomainError, match="missing"):
            replay_trial({"case": "op-2.3", "kind": "operator"})


# each case's domain, pinned as literals: membership of DOMAIN_POINTS (0, 1/2
# and 1 with their float neighbours, then the neighbours outside [0, 1]), the
# first and last index of the contiguous part of NU_GRID_65 in the domain, and
# the length of nu_grid
DOMAIN_POINTS = (-0.0, 0.0, math.nextafter(0.0, 1.0), math.nextafter(0.5, 0.0), 0.5,
                 math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0), 1.0,
                 math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0))
DOMAINS = {
    "bhatia-heron": ("1111111100", 0, 64, 33),
    "bk-1.11": ("0000111100", 32, 64, 17),
    "bk-1.12": ("1111100000", 0, 32, 17),
    "cf-1.13": ("1111111100", 0, 64, 33),
    "comb-2.11": ("1111111100", 0, 64, 33),
    "comb-2.12": ("1111111100", 0, 64, 33),
    "heinz-1.14": ("1111111100", 0, 64, 33),
    "heron-1.15": ("1111111100", 0, 64, 33),
    "kai-1.10": ("0000111100", 32, 64, 17),
    "kai-1.9": ("1111100000", 0, 32, 17),
    "km-1.3": ("1111111100", 0, 64, 33),
    "km-1.4": ("1111111100", 0, 64, 33),
    "km-heinz-1.16": ("1111111100", 0, 64, 33),
    "new-2.1": ("0011111100", 1, 64, 32),
    "young-1.1": ("1111111100", 0, 64, 33),
    "zj-1.17": ("1111111100", 0, 64, 33),
    "zw-1.5": ("0011100000", 1, 32, 16),
    "zw-1.6": ("0000011000", 33, 63, 15),
    "op-2.10": ("1111111100", 0, 64, 33),
    "op-2.3": ("0011111100", 1, 64, 32),
    "op-2.5": ("0011111100", 1, 64, 32),
    "op-2.6": ("0011111100", 1, 64, 32),
    "op-2.7-left": ("1111111100", 0, 64, 33),
    "op-2.7-refine": ("1111111100", 0, 64, 33),
    "op-2.7-right": ("1111111100", 0, 64, 33),
    "op-heron-zhao": ("1111111100", 0, 64, 33),
    "hs-2.13": ("0011111100", 1, 64, 32),
    "hs-2.14": ("1111111100", 0, 64, 33),
    "hs-cor": ("1111111100", 0, 64, 33),
    "hs-thm8": ("1111111100", 0, 64, 33),
}


class TestCaseTable:
    def test_one_row_per_registered_case(self):
        assert len(CASES) == ALL_CASE_COUNT
        assert sorted(CASES) == sorted(DOMAINS)
        for kind, module in (("scalar", scalar), ("operator", opmeans), ("hs", hsnorm)):
            for case in module.registry():
                assert CASES[case.case_id] is case
                assert case.kind == kind
        ordered = {cid for cid, case in CASES.items()
                   if getattr(case, "structure", None) == "ordered-pair"}
        assert ordered == {"op-2.7-left", "op-2.7-right", "op-2.7-refine"}
        assert {case.structure for case in CASES.values() if case.kind != "scalar"
                and case.case_id not in ordered} == {"general-pd"}
        # op-2.7-refine draws ordered pairs but does not require them
        assert {cid for cid, case in CASES.items()
                if getattr(case, "requires_ordered", False)} == {"op-2.7-left", "op-2.7-right"}

    @pytest.mark.parametrize("case_id", sorted(DOMAINS))
    def test_domain_label_gives_the_stated_domain(self, case_id):
        case = CASES[case_id]
        members, first, last, grid = DOMAINS[case_id]
        assert "".join("01"[case.in_domain(nu)] for nu in DOMAIN_POINTS) == members
        inside = [nu for nu in scalar.NU_GRID_65 if case.in_domain(nu)]
        assert inside == list(scalar.NU_GRID_65[first:last + 1])
        assert case.nu_grid == tuple(nu for nu in scalar.NU_GRID_33 if case.in_domain(nu))
        assert len(case.nu_grid) == grid

    @pytest.mark.parametrize("label", ["nu in [0, 1]", "0 <= v <= 1", "0 =< nu <= 1",
                                       "0.5 <= nu <= 1", "0 <= nu <= 1/", "0 <= nu <= 1x",
                                       " 0 <= nu <= 1", "0 <= nu <=  1"])
    def test_label_outside_the_grammar_raises(self, label):
        with pytest.raises(ValueError, match="does not start with 'lo op nu op hi'"):
            scalar.ScalarCase("bad", "d", "f", label, lambda a, b, v: (a, b))
        with pytest.raises(ValueError, match="does not start with 'lo op nu op hi'"):
            dataclasses.replace(CASES["op-2.3"], nu_domain=label)

    def test_sweep_reads_the_table_not_the_registries(self, monkeypatch):
        calls = []
        for module in (scalar, opmeans, hsnorm):
            orig = module.registry
            monkeypatch.setattr(module, "registry",
                                lambda orig=orig: calls.append(1) or orig())
        run_case("op-2.7-left", RunConfig(trials=6))
        run_case("hs-cor", RunConfig(trials=6))
        replay_trial(make_digest("hs-2.14", RunConfig(), 3))
        assert calls == []


def hs_digest(**changes):
    digest = {"case": "hs-2.14", "kind": "hs", "structure": "general-pd",
              "dim": 2, "law": "log-uniform:0.001:1000.0", "seed": 0,
              "trial": 1, "nu": 0.25, "complex": False, "x_kind": "pd"}
    digest.update(changes)
    return digest


def ordered_digest(**changes):
    digest = make_digest("op-2.7-left", RunConfig(), 2)
    digest.update(changes)
    return digest


def replay_error(capsys, digest):
    """Exit code and stderr of replaying ``digest`` through the CLI."""
    capsys.readouterr()
    code = main(["replay", "--digest", json.dumps(digest)])
    return code, capsys.readouterr().err


class TestDigestChecks:
    def test_hs_digest_without_x_kind_rejected(self, capsys):
        digest = hs_digest()
        del digest["x_kind"]
        code, err = replay_error(capsys, digest)
        assert code == 2 and "'x_kind'" in err

    def test_kind_disagreeing_with_table_rejected(self, capsys):
        code, err = replay_error(capsys, hs_digest(kind="operator"))
        assert code == 2 and "'kind'" in err and "hs-2.14" in err

    def test_ordered_pair_digest_without_w_law_rejected(self, capsys):
        digest = ordered_digest()
        del digest["w_law"]
        code, err = replay_error(capsys, digest)
        assert code == 2 and "'w_law'" in err

    def test_ordered_pair_digest_without_structure_rejected(self, capsys):
        digest = ordered_digest()
        del digest["structure"]
        code, err = replay_error(capsys, digest)
        assert code == 2 and "'structure'" in err
        code, err = replay_error(capsys, ordered_digest(structure="general-pd"))
        assert code == 2 and "'structure'" in err

    def test_unknown_field_rejected(self, capsys):
        code, err = replay_error(capsys, hs_digest(x_knid="pd"))
        assert code == 2 and "'x_knid'" in err
        code, err = replay_error(capsys, {"case": "young-1.1", "kind": "scalar",
                                          "a": 4.0, "b": 1.0, "nu": 0.25, "dim": 1})
        assert code == 2 and "'dim'" in err

    def test_x_kind_must_be_general_or_pd(self, capsys):
        code, err = replay_error(capsys, hs_digest(x_kind="psd"))
        assert code == 2 and "'x_kind'" in err
        # a lenient digest (general X for a pd-X case) is still a valid digest
        assert replay_trial(hs_digest(x_kind="general"))["digest"]["x_kind"] == "general"

    @pytest.mark.parametrize("field, value", [
        ("complex", "no"), ("dim", 3.7), ("dim", True), ("dim", "3"), ("trial", 3.5),
        ("dim", 0), ("dim", -2), ("seed", 1.0), ("nu", "0.25"),
    ])
    def test_value_of_another_type_or_range_rejected(self, capsys, field, value):
        code, err = replay_error(capsys, hs_digest(**{field: value}))
        assert code == 2 and field in err

    def test_scalar_value_of_another_type_rejected(self, capsys):
        for value in ("4", True, None):
            code, err = replay_error(capsys, {"case": "young-1.1", "kind": "scalar",
                                              "a": value, "b": 1.0, "nu": 0.25})
            assert code == 2 and "'a'" in err

    def test_int_stands_for_float(self, capsys):
        capsys.readouterr()
        assert main(["replay", "--digest", json.dumps(hs_digest(nu=1))]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec == replay_trial(hs_digest(nu=1.0))
        assert rec["digest"]["nu"] == 1.0 and isinstance(rec["digest"]["nu"], float)
        rec = replay_trial({"case": "young-1.1", "kind": "scalar", "a": 4, "b": 1, "nu": 0})
        assert rec["digest"] == {"case": "young-1.1", "kind": "scalar",
                                 "a": 4.0, "b": 1.0, "nu": 0.0}
        assert all(isinstance(rec["digest"][k], float) for k in ("a", "b", "nu"))

    def test_report_digests_rewrite_to_themselves(self, tmp_path):
        runs = (["matrix-verify", "--case", "all", "--seed", "42", "--trials", "1100"],
                ["scalar-sweep", "--case", "all"])
        digests = []
        for i, argv in enumerate(runs):
            out = tmp_path / f"rep-{i}.json"
            main(argv + ["--out", str(out)])
            for case in read_report(out)["cases"]:
                digests.append(case["argmin"])
                digests.extend(f["digest"] for f in case["failure_digests"])
        assert len(digests) > 30 and None not in digests
        for digest in digests:
            rewrite = check_digest(digest)
            assert canonical_json(rewrite) == canonical_json(digest)

    def test_report_rejects_what_replay_rejects(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["matrix-verify", "--case", "hs-2.14", "--trials", "5",
                     "--out", str(out)]) == 0
        rep = read_report(out)
        del rep["cases"][0]["argmin"]["x_kind"]
        with pytest.raises(DomainError, match="'x_kind'"):
            replay_trial(rep["cases"][0]["argmin"])
        with pytest.raises(DomainError, match="'x_kind'"):
            validate_report(rep)


class TestRunConfigBounds:
    @pytest.mark.parametrize("flag, value, field", [
        ("--seed", "-1", "seed"), ("--dim", str(MAX_DIM + 1), "dim"),
    ])
    def test_rejected_before_any_trial_starts(self, capsys, monkeypatch, flag, value, field):
        started = []
        for name in ("_run_chunk", "build_inputs"):
            monkeypatch.setattr(runner, name, lambda *a: started.append(a))
        assert main(["matrix-verify", "--case", "op-2.3", "--trials", "2",
                     flag, value]) == 2
        assert field in capsys.readouterr().err
        code, err = replay_error(capsys, hs_digest(**{field: int(value)}))
        assert code == 2 and field in err
        assert started == []

    def test_dim_bound_is_inclusive(self):
        assert RunConfig(dims=(1, MAX_DIM)).dims == (1, MAX_DIM)


def cli(*args):
    """Exit code and stderr of the CLI in a fresh process, where every warning is printed."""
    src = Path(meancert.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "meancert.cli", *args], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    return run.returncode, run.stderr


# sweeps that end in a domain error: a draw, an operator input, and hs sides that
# are nan through overflow (1e150) and through underflow (1e-160)
SWEEP_ERRORS = {
    "draw": ["--case", "op-2.3", "--law", "explicit:1,2", "--dim", "2,1"],
    "op-overflow": ["--case", "op-2.7-right", "--law", "explicit:1e308", "--dim", "2"],
    "hs-overflow": ["--case", "hs", "--law", "explicit:1e150", "--dim", "2", "--trials", "40"],
    "hs-underflow": ["--case", "hs-cor", "--law", "explicit:1e-160", "--dim", "2",
                     "--trials", "40"],
}


class TestSweepErrors:
    def test_trial_error_names_case_and_digest(self, capsys):
        assert main(["matrix-verify", "--case", "op-2.3", "--trials", "3",
                     "--law", "explicit:1,2"]) == 2
        err = capsys.readouterr().err
        assert "op-2.3" in err and "explicit law lists 2 values but dim=1" in err
        digest = json.loads(err.split("digest: ", 1)[1])
        assert digest["case"] == "op-2.3" and digest["trial"] == 0
        # the digest replays to the same error
        code, err = replay_error(capsys, digest)
        assert code == 2 and "explicit law lists 2 values but dim=1" in err

    @pytest.mark.parametrize("flags", SWEEP_ERRORS.values(), ids=SWEEP_ERRORS)
    def test_error_replays_to_the_same_error(self, tmp_path, flags):
        out = tmp_path / "report.json"
        code, err = cli("matrix-verify", *flags, "--out", str(out))
        assert code == 2 and not out.exists()
        assert "Traceback" not in err and "RuntimeWarning" not in err
        message, digest = re.fullmatch(
            r"error: case \S+ trial \d+: (.*); digest: (\{.*\})\n", err).groups()
        assert cli("replay", "--digest", digest) == (2, f"error: {message}\n")


class TestNonFinite:
    """A chain side beyond the range of floats is a domain error, never a verdict."""

    @pytest.mark.parametrize("digest", [
        {"case": "cf-1.13", "kind": "scalar", "a": 1e200, "b": 1.0, "nu": 0.5},  # a float power
        {"case": "heinz-1.14", "kind": "scalar", "a": 1e308, "b": 1e308, "nu": 0.5},  # inf - inf
    ], ids=["overflow", "nan"])
    def test_scalar_replay_exits_2(self, digest):
        code, err = cli("replay", "--digest", json.dumps(digest))
        assert code == 2 and digest["case"] in err
        assert "Traceback" not in err and "RuntimeWarning" not in err


# settings that are not finite, not a tolerance at all, or out of range: each must
# exit 2 before any trial or grid point runs, never give a verdict or a traceback
BAD_SETTINGS = {
    "matrix-tol-nan": (["matrix-verify", "--case", "op-2.3", "--tol", "nan", "--trials", "5"],
                       "tol must be a finite number > 0, got nan"),
    "scalar-tol-nan": (["scalar-sweep", "--case", "new-2.1", "--tol", "nan"],
                       "tol must be a finite number > 0, got nan"),
    "scalar-nu-nan": (["scalar-sweep", "--case", "young-1.1", "--nu", "nan"],
                      "nu=nan outside [0, 1]"),
    "scalar-nu-inf": (["scalar-sweep", "--case", "young-1.1", "--nu", "inf"],
                      "nu=inf outside [0, 1]"),
    "scalar-nu-2": (["scalar-sweep", "--case", "young-1.1", "--nu", "2"],
                    "nu=2.0 outside [0, 1]"),
    # a nu off one case's domain once checked no point of that case and passed it
    "scalar-nu-off-domain": (["scalar-sweep", "--case", "km-1.3,new-2.1", "--nu", "0"],
                             "case new-2.1 requires nu in 0 < nu <= 1 (vacuous at nu = 0), "
                             "got nu=0.0"),
    "matrix-nu-off-domain": (["matrix-verify", "--case", "op-2.3", "--nu", "0"],
                             "case op-2.3 requires nu in 0 < nu <= 1, got nu=0.0"),
    "matrix-jobs-over-max": (["matrix-verify", "--case", "op-2.3", "--trials", "600",
                              "--jobs", "257"],
                             "jobs must lie in 1..256, got 257"),
    "law-inf-hi": (["matrix-verify", "--case", "op-2.3", "--law", "log-uniform:1:inf"],
                   "log-uniform needs finite 0 < lo <= hi, got 'log-uniform:1:inf'"),
    "law-explicit-nan": (["matrix-verify", "--case", "hs-2.14", "--law", "explicit:nan"],
                         "explicit law needs finite nonnegative values, got 'explicit:nan'"),
    "law-explicit-inf": (["matrix-verify", "--case", "op-2.3", "--law", "explicit:inf"],
                         "explicit law needs finite nonnegative values, got 'explicit:inf'"),
    "law-clustered-nan": (["matrix-verify", "--case", "op-2.3", "--law", "clustered:nan:0.1"],
                          "clustered law needs a finite center > 0 and 0 <= jitter < 1, "
                          "got 'clustered:nan:0.1'"),
    "law-malformed": (["matrix-verify", "--case", "op-2.3", "--law", "log-uniform:1:x"],
                      "malformed spectrum law 'log-uniform:1:x': "
                      "could not convert string to float: 'x'"),
}


class TestNonFiniteSettings:
    @pytest.mark.parametrize("argv, message", BAD_SETTINGS.values(), ids=BAD_SETTINGS)
    def test_sweep_exits_2_before_any_trial(self, capsys, monkeypatch, argv, message):
        started = []
        monkeypatch.setattr(runner, "_run_chunk", lambda *a: started.append(a))
        monkeypatch.setattr(scalar, "evaluate", lambda *a, **k: started.append(a))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert started == []

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("case_id", ["op-2.3", "hs-2.14", "km-1.3"])
    def test_replay_tol_exits_2(self, capsys, tol, case_id):
        digest = (scalar_digest_of(case_id) if CASES[case_id].kind == "scalar"
                  else make_digest(case_id, RunConfig(), 0))
        assert main(["replay", "--digest", json.dumps(digest), "--tol", tol]) == 2
        assert f"tol must be a finite number > 0, got {float(tol)!r}" in capsys.readouterr().err


def scalar_digest_of(case_id):
    return runner.scalar_digest(case_id, 2.0, 0.5, CASES[case_id].nu_grid[1])


class TestListVerb:
    def test_text_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == ALL_CASE_COUNT
        for cid in ("young-1.1", "op-2.10", "hs-thm8"):
            assert cid in out

    def test_text_columns_are_apart(self, capsys):
        # the domain column fits the longest label, so links= starts at one column
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in lines:
            assert re.search(r"\S\s+links=", line), line
        assert len({line.index("links=") for line in lines}) == 1

    def test_json_format(self, capsys):
        assert main(["list", "--format", "json", "--kind", "operator"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 8
        assert all(p["kind"] == "operator" for p in payload)

    def test_bad_kind_exits_2(self, capsys):
        # argparse rejects values outside the --kind choices itself
        with pytest.raises(SystemExit) as exc:
            main(["list", "--kind", "bogus"])
        assert exc.value.code == 2


class TestScalarSweepVerb:
    def test_single_case_report(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["scalar-sweep", "--case", "young-1.1", "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["command"] == "scalar-sweep"
        assert rep["all_passed"] is True
        case = rep["cases"][0]
        assert case["case"] == "young-1.1"
        assert case["trials"] == 13 * 13 * 65
        assert "PASS" in capsys.readouterr().out

    def test_nu_restriction(self, capsys):
        assert main(["scalar-sweep", "--case", "km-1.3", "--nu", "0.5"]) == 0
        assert "trials=169" in capsys.readouterr().out

    def test_wrong_kind_exits_2(self, capsys):
        assert main(["scalar-sweep", "--case", "op-2.3"]) == 2


class TestMatrixVerifyVerb:
    def test_passing_case_exit_0(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["matrix-verify", "--case", "op-2.3", "--trials", "24",
                     "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["all_passed"] is True
        assert rep["cases"][0]["trials"] == 24

    def test_failing_case_exit_1(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["matrix-verify", "--case", "hs-2.13", "--trials", "16",
                     "--nu", "0.5", "--out", str(out)]) == 1
        rep = read_report(out)
        assert rep["all_passed"] is False
        assert rep["cases"][0]["failures"] > 0
        assert rep["cases"][0]["failure_digests"]

    def test_usage_error_exit_2(self, capsys):
        assert main(["matrix-verify", "--case", "nope"]) == 2
        assert main(["matrix-verify", "--case", "op-2.3", "--law", "bad"]) == 2
        assert main(["matrix-verify", "--case", "op-2.3", "--trials", "0"]) == 2
        assert main(["matrix-verify", "--case", "op-2.3", "--nu", "0.0"]) == 2

    def test_dim_override_and_lenient(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["matrix-verify", "--case", "hs-2.14", "--trials", "12",
                     "--dim", "2,3", "--lenient-x", "--out", str(out)]) == 0
        case = read_report(out)["cases"][0]
        assert case["advisory_trials"] == 12
        assert case["passes"] == 0  # nothing asserted, nothing failed
        assert case["failures"] == 0

    def test_jobs_byte_identity(self, tmp_path):
        for entries in ([], ["--complex"]):
            reps = []
            for jobs in ("1", "2"):  # 600 trials are two chunks, so jobs 2 runs a pool
                out = tmp_path / f"rep{jobs}.json"
                assert main(["matrix-verify", "--case", "op-2.5,hs-2.14",
                             "--trials", "600", "--seed", "42", "--jobs", jobs,
                             *entries, "--out", str(out)]) == 0
                reps.append(strip_volatile(read_report(out)))
            assert canonical_json(reps[0]) == canonical_json(reps[1])

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": ["op-2.3"], "trials": 8, "seed": 4}))
        assert main(["matrix-verify", "--config", str(cfg)]) == 0
        assert "trials=8" in capsys.readouterr().out
        assert main(["matrix-verify", "--config", str(cfg), "--trials", "4"]) == 0
        assert "trials=4" in capsys.readouterr().out

    def test_clamp_window_is_no_option(self, tmp_path, capsys):
        # a digest does not record the clamp window, so no sweep may set it
        with pytest.raises(SystemExit) as exc:
            main(["matrix-verify", "--case", "op-2.3", "--psd-tol", "1e-6"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"psd_tol": 1e-6}))
        assert main(["matrix-verify", "--case", "op-2.3", "--config", str(cfg)]) == 2
        assert "unknown config keys ['psd_tol']" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trails": 8}))
        assert main(["matrix-verify", "--config", str(cfg)]) == 2
        assert "trails" in capsys.readouterr().err



class TestConfigValues:
    """A config value must have the type its flag parses to (int may stand for float)."""

    @pytest.mark.parametrize("config, key", [
        ({"complex": "no"}, "complex"),   # once ran a complex sweep
        ({"trials": 2.7}, "trials"),      # once ran 2 trials
        ({"seed": True}, "seed"),         # once ran seed 1
        ({"trials": "abc"}, "trials"),    # once a ValueError traceback
        ({"dim": [3.5]}, "dim"),          # once an AttributeError traceback
    ])
    def test_value_of_another_type_rejected(self, tmp_path, capsys, monkeypatch,
                                            config, key):
        started = []
        monkeypatch.setattr(runner, "_run_chunk", lambda *a: started.append(a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["matrix-verify", "--case", "op-2.3", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and "Traceback" not in err
        # a flag that overrides the key does not hide the bad value
        flag = ["--complex"] if key == "complex" else [f"--{key}", "1"]
        assert main(["matrix-verify", "--case", "op-2.3", "--config", str(cfg), *flag]) == 2
        assert started == []

    def test_typed_values_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": ["op-2.3"], "trials": 6, "tol": 1,
                                   "dim": ["2,3"], "complex": True, "nu": None}))
        out = tmp_path / "rep.json"
        assert main(["matrix-verify", "--config", str(cfg), "--out", str(out)]) == 0
        config = read_report(out)["config"]
        assert config["tol"] == 1.0 and type(config["tol"]) is float
        assert config["dims"] == [2, 3] and config["complex"] is True

    def test_null_only_where_the_default_is_null(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": None}))
        assert main(["matrix-verify", "--case", "op-2.3", "--config", str(cfg)]) == 2
        assert "config key 'trials'" in capsys.readouterr().err


class TestReplayVerb:
    def test_round_trip_from_report(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        main(["matrix-verify", "--case", "op-2.10", "--trials", "20",
              "--out", str(out)])
        argmin = read_report(out)["cases"][0]["argmin"]
        min_slack = read_report(out)["cases"][0]["min_slack"]
        capsys.readouterr()
        assert main(["replay", "--digest", json.dumps(argmin)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["min_slack"] == min_slack

    def test_digest_from_file(self, tmp_path, capsys):
        dpath = tmp_path / "digest.json"
        dpath.write_text(json.dumps({"case": "young-1.1", "kind": "scalar",
                                     "a": 4.0, "b": 1.0, "nu": 0.25}))
        assert main(["replay", "--digest", f"@{dpath}"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["passed"] is True

    def test_failing_digest_exit_1(self, capsys):
        digest = {"case": "hs-2.13", "kind": "hs", "structure": "general-pd",
                  "dim": 1, "law": "log-uniform:0.001:1000.0", "seed": 0,
                  "trial": 15, "nu": 0.5, "complex": False, "x_kind": "general"}
        assert main(["replay", "--digest", json.dumps(digest)]) == 1

    def test_bad_digest_exit_2(self, capsys):
        assert main(["replay", "--digest", "{not json"]) == 2
        assert main(["replay"]) == 2
        assert main(["replay", "--digest", "@/nonexistent/d.json"]) == 2


class TestGapProfileVerb:
    def test_matrix_profile_zero_at_half(self, tmp_path):
        out = tmp_path / "gp.csv"
        assert main(["gap-profile", "--case", "op-2.10", "--dim", "3",
                     "--nu-points", "5", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out)))
        mid = [r for r in rows if float(r["nu"]) == 0.5][0]
        for link in ("lower", "middle", "upper"):
            assert float(mid[f"op-2.10:{link}"]) == 0.0

    def test_scalar_profile_emits_witnesses(self, tmp_path, capsys):
        out = tmp_path / "gp.csv"
        assert main(["gap-profile", "--case", "new-2.1,zw-1.5,zw-1.6",
                     "--a", "1", "--b", "2", "--nu-points", "65",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "tighter than" in text
        rows = list(csv.reader(open(out)))
        assert rows[0][0] == "nu" and len(rows) == 66

    def test_mixed_kinds_rejected(self, capsys):
        assert main(["gap-profile", "--case", "op-2.3,young-1.1"]) == 2

    @pytest.mark.parametrize("case_id", [cid for cid, case in CASES.items()
                                         if case.kind == "scalar"])
    @pytest.mark.parametrize("a, b", [("-1", "1"), ("1", "0")])
    def test_non_positive_pair_exits_2(self, capsys, case_id, a, b):
        assert main(["gap-profile", "--case", case_id, "--a", a, "--b", b]) == 2
        assert capsys.readouterr().err == (
            f"error: means need finite a, b > 0, got a={float(a)!r}, b={float(b)!r}\n")

    def test_requires_case(self, capsys):
        assert main(["gap-profile"]) == 2


class TestReportModule:
    def test_schema_rejects_extra_fields(self):
        import jsonschema
        with pytest.raises(jsonschema.ValidationError):
            validate_report({"schema": "meancert.report/1", "bogus": 1})

    def test_validator_is_built_once_on_first_use(self, tmp_path):
        import jsonschema
        from meancert import report
        jsonschema.validators.validator_for(REPORT_SCHEMA).check_schema(REPORT_SCHEMA)
        out = tmp_path / "report.json"
        assert main(["matrix-verify", "--case", "op-2.3", "--trials", "5",
                     "--out", str(out)]) == 0
        rep = read_report(out)
        assert report._validator.cache_info().currsize == 1
        rep["cases"][0]["trials"] = -1
        with pytest.raises(jsonschema.ValidationError, match="-1 is less than the minimum"):
            validate_report(rep)
        # importing the package builds nothing
        src = Path(meancert.__file__).resolve().parents[1]
        probe = subprocess.run(
            [sys.executable, "-c", "import meancert.cli, meancert.report as r; "
             "print(r._validator.cache_info().currsize)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120)
        assert probe.stdout == "0\n"

    def test_canonical_json_sorted_and_newline(self):
        s = canonical_json({"b": 1, "a": 2})
        assert s.index('"a"') < s.index('"b"')
        assert s.endswith("\n")
        assert REPORT_SCHEMA["properties"]["schema"]["const"] == "meancert.report/1"
