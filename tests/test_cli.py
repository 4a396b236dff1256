import concurrent.futures
import csv
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import meancert
from meancert.cli import MAX_NU_POINTS, main
from meancert.linalg import PSD_TOL, DomainError
from meancert.report import (REPORT_SCHEMA, canonical_json, strip_volatile,
                             validate_report)
from meancert import hsnorm, linalg, opmeans, scalar
from meancert import runner
from meancert.runner import (CASES, MAX_DIM, MAX_JOBS, MAX_TRIALS, RunConfig, check_digest,
                             make_digest, nu_grid_for, replay_trial, resolve_cases, run_case)
from test_scalar import WIDE_GRIDS, WIDE_NUS

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

    def test_matrix_sweep_of_a_scalar_case_raises(self):
        with pytest.raises(DomainError, match="^case 'young-1.1' is of kind scalar; "
                                              "this command handles operator, hs cases$"):
            run_case("young-1.1", RunConfig(trials=2))

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

        # the suite imports the pool where it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
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

    def test_clamp_window_is_no_parameter(self):
        exported = [getattr(meancert, name) for name in meancert.__all__]
        for obj in [*exported, linalg.clamp_psd]:
            if callable(obj):
                fn = obj.__init__ if isinstance(obj, type) else obj
                assert "psd_tol" not in inspect.signature(fn).parameters, obj

    def test_run_trial_takes_only_the_fixed_clamp_window(self):
        cfg = RunConfig(trials=1, dims=(2,))
        digest = make_digest("op-2.3", cfg, 0)
        assert runner.run_trial(digest, cfg.tol, RunConfig.psd_tol).passed
        with pytest.raises(DomainError) as exc:
            runner.run_trial(digest, cfg.tol, 1e-6)
        assert str(exc.value) == "the clamp window is fixed at PSD_TOL = 1e-09, got 1e-06"

    def test_old_positional_clamp_window_is_a_type_error(self):
        eye = np.eye(2)
        with pytest.raises(TypeError):
            hsnorm.HsContext(eye, 2.0 * eye, eye, 1e-9)
        with pytest.raises(TypeError):
            hsnorm.certify_hs(CASES["hs-thm8"], eye, 2.0 * eye, eye, 0.5, 1e-8, 1e-9)

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


def fold_of_evaluate(case_id, a_values, nu_values):
    """The fields of a scalar sweep, from ``evaluate`` at each point in (nu, a, b) order."""
    case = CASES[case_id]
    out = {"trials": 0, "skipped": 0, "passes": 0, "min_slack": None, "argmin": None,
           "failure_digests": []}
    for nu in nu_values:
        if not case.in_domain(nu):
            out["skipped"] += len(a_values) ** 2
            continue
        for a in a_values:
            for b in a_values:
                trial = scalar.evaluate(case, a, b, nu)
                digest = runner.scalar_digest(case_id, a, b, nu)
                out["trials"] += 1
                if trial.passed:
                    out["passes"] += 1
                elif len(out["failure_digests"]) < runner.FAILURE_CAP:
                    out["failure_digests"].append({"digest": digest,
                                                   "min_slack": trial.min_slack})
                if out["min_slack"] is None or trial.min_slack < out["min_slack"]:
                    out["min_slack"], out["argmin"] = trial.min_slack, digest
    return out


# young-1.1's own sides, reversed: they take arrays as well as floats, as a sweep needs
REVERSED_YOUNG = scalar.ScalarCase(
    "young-1.1", "reversed Young inequality, false off the diagonal",
    "v a + (1-v) b <= a^v b^(1-v)", "0 <= nu <= 1",
    lambda a, b, v, young=CASES["young-1.1"].sides: young(a, b, v)[::-1])


def spy_scalar_judges(monkeypatch):
    """The case id of each ``scalar.judge_grid`` call, and "evaluate" for each
    ``scalar.evaluate`` call, in order."""
    calls = []
    grid = scalar.judge_grid
    monkeypatch.setattr(scalar, "judge_grid",
                        lambda case, *a: calls.append(case.case_id) or grid(case, *a))
    monkeypatch.setattr(scalar, "evaluate", lambda *a, **k: calls.append("evaluate"))
    return calls


class TestScalarSweep:
    def test_each_case_is_one_grid_judged_once(self, monkeypatch, capsys):
        calls = spy_scalar_judges(monkeypatch)
        assert main(["scalar-sweep", "--case", "all"]) == 0
        assert calls == resolve_cases(["all"], ("scalar",))

    @pytest.mark.parametrize("a_values, nu_values", [
        (scalar.A_GRID_13, scalar.NU_GRID_65), (scalar.A_GRID_13, (0.375,)),
        *((grid, WIDE_NUS) for grid in WIDE_GRIDS.values())], ids=["grid", "one-nu", *WIDE_GRIDS])
    @pytest.mark.parametrize("case_id", [cid for cid, c in CASES.items() if c.kind == "scalar"])
    def test_sweep_is_a_fold_of_evaluate(self, case_id, a_values, nu_values):
        got = runner.run_scalar_case(case_id, a_values=a_values, nu_values=nu_values)
        want = fold_of_evaluate(case_id, a_values, nu_values)
        assert {key: got[key] for key in want} == want

    # a and b take the same values, so the first pair of the grid that fails is
    # (a_values[0], b) for the first bad b, or (a_values[0], a_values[0])
    @pytest.mark.parametrize("a_values, bad", [
        ((-1.0, 2.0, 4.0), "a=-1.0, b=-1.0"),
        ((1.0, 2.0, 0.0, math.nan), "a=1.0, b=0.0"),
        ((*scalar.A_GRID_13, math.inf), "a=0.015625, b=inf"),
    ], ids=["first", "later", "last"])
    def test_a_bad_magnitude_is_the_first_failing_pair(self, monkeypatch, a_values, bad):
        nested = []
        for a in a_values:
            for b in a_values:
                try:
                    scalar.check_pair(a, b)
                except DomainError as exc:
                    nested.append(str(exc))
        pairs = []
        check = scalar.check_pair
        monkeypatch.setattr(scalar, "check_pair", lambda a, b: pairs.append((a, b)) or check(a, b))
        with pytest.raises(DomainError) as exc:
            runner.run_scalar_case("young-1.1", a_values=a_values)
        assert str(exc.value) == nested[0] == f"means need finite a, b > 0, got {bad}"
        assert pairs == [(a_values[0], b) for b in a_values[:len(pairs)]]

    def test_the_grid_is_checked_once_per_magnitude(self, monkeypatch):
        pairs = []
        monkeypatch.setattr(scalar, "check_pair", lambda a, b: pairs.append((a, b)))
        runner.run_scalar_case("young-1.1")
        # then once more, for the argmin's digest (young-1.1 keeps no failure)
        assert pairs[:-1] == [(scalar.A_GRID_13[0], b) for b in scalar.A_GRID_13]
        assert len(pairs) == len(scalar.A_GRID_13) + 1

    # cf-1.13 at nu in (0, 1): (a, b) = (1e-300, 1e150) gives the side inf (a finite
    # curvature term over 2 min(a, b)), and at (1e-300, 1e160) (a - b) ** 2 is past the
    # range of floats, so at nu = 0 the curvature term is 0 * inf, nan
    @pytest.mark.parametrize("nu_values, first", [
        ((0.5, 0.0), (1e-300, 1e150, 0.5)),
        ((0.0, 0.5), (1e-300, 1e160, 0.0)),
        ((0.5,), (1e-300, 1e150, 0.5)),
    ], ids=["inf-side-first", "overflow-first", "inf-side-alone"])
    def test_the_error_is_the_first_failing_points(self, nu_values, first):
        grid = (1e-300, 1e150, 1e160) if len(nu_values) > 1 else (1e-300, 1e150)
        errors = []
        for run in (lambda: runner.run_scalar_case("cf-1.13", a_values=grid,
                                                   nu_values=nu_values),
                    lambda: scalar.evaluate(CASES["cf-1.13"], *first),
                    lambda: replay_trial(runner.scalar_digest("cf-1.13", *first))):
            with pytest.raises(DomainError) as exc:
                run()
            errors.append(str(exc.value))
        assert errors == [errors[0]] * 3
        assert errors[0].startswith("side 2 of cf-1.13 at a=1e-300, b=1e+150, nu=0.5 is inf, "
                                    if first[2] else
                                    "side 0 of cf-1.13 at a=1e-300, b=1e+160, nu=0.0 is nan, ")

    def test_failures_are_counted_capped_and_replayed(self, monkeypatch):
        monkeypatch.setitem(CASES, "young-1.1", REVERSED_YOUNG)
        got = runner.run_scalar_case("young-1.1")
        grid = scalar.A_GRID_13
        strict = [(a, b, nu) for nu in scalar.NU_GRID_65 for a in grid for b in grid
                  if a != b and 0.0 < nu < 1.0]
        assert got["failures"] == len(strict) == 156 * 63
        assert got["passes"] == 169 * 65 - len(strict)
        assert len(got["failure_digests"]) == runner.FAILURE_CAP
        assert [f["digest"] for f in got["failure_digests"]] == [
            runner.scalar_digest("young-1.1", *point) for point in strict[:runner.FAILURE_CAP]]
        for failure in [*got["failure_digests"], {"digest": got["argmin"],
                                                  "min_slack": got["min_slack"]}]:
            replayed = replay_trial(failure["digest"])
            assert not replayed["passed"]
            assert replayed["min_slack"].hex() == failure["min_slack"].hex()

    @pytest.mark.parametrize("case_id, a_values, message", [
        ("cf-1.13", (1.0, 1e300),
         r"^side 0 of cf-1\.13 at a=1\.0, b=1e\+300, nu=0\.0 is nan, "),
        ("heinz-1.14", (1.7e308,),
         r"^side 0 of heinz-1\.14 at a=1\.7e\+308, b=1\.7e\+308, nu=0\.0 is inf, "
         r"not a finite number; "
         r"these inputs take the arithmetic out of the range of floats$"),
        # comb-2.11 takes its powers without a mean's check: the grid check must see these
        ("comb-2.11", (1.0, 0.0), r"^means need finite a, b > 0, got a=1\.0, b=0\.0$"),
        ("comb-2.11", (1.0, math.nan), r"^means need finite a, b > 0, got a=1\.0, b=nan$"),
    ], ids=["overflow", "inf-side", "zero", "nan"])
    def test_error_texts(self, case_id, a_values, message):
        with pytest.raises(DomainError, match=message):
            runner.run_scalar_case(case_id, a_values=a_values)


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

    def test_trials_bound(self, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(runner, "_run_chunk", lambda *a: started.append(a))
        assert main(["matrix-verify", "--case", "op-2.3", "--trials", str(MAX_TRIALS + 1)]) == 2
        assert capsys.readouterr().err == (
            f"error: trials must lie in 1..{MAX_TRIALS}, got {MAX_TRIALS + 1}\n")
        assert started == []
        assert RunConfig(trials=MAX_TRIALS).trials == MAX_TRIALS

    def test_trial_index_is_one_key_word(self, capsys):
        # the last index replays; the next would need a second word of the stream's key
        assert replay_trial(hs_digest(trial=MAX_TRIALS - 1))["digest"]["trial"] == MAX_TRIALS - 1
        for trial in (MAX_TRIALS, -1):
            code, err = replay_error(capsys, hs_digest(trial=trial))
            assert code == 2 and err == (f"error: digest field 'trial' must lie in "
                                         f"0..{MAX_TRIALS - 1}, got {trial}\n")


def cli(*args):
    """Exit code and stderr of the CLI in a fresh process, where every warning is printed."""
    src = Path(meancert.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "meancert.cli", *args], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    return run.returncode, run.stderr


# sweeps that end in a domain error: a draw, a spectrum drawn past the range of
# floats, an operator input, and hs sides that are nan through overflow (1e150)
# and through underflow (1e-160)
SWEEP_ERRORS = {
    "draw": ["--case", "op-2.3", "--law", "explicit:1,2", "--dim", "2,1"],
    "draw-overflow": ["--case", "op-2.3", "--law", "clustered:1.7e308:0.5", "--dim", "2",
                      "--trials", "3"],
    "op-overflow": ["--case", "op-2.7-right", "--law", "explicit:1e308", "--dim", "2"],
    "hs-overflow": ["--case", "hs", "--law", "explicit:1e150", "--dim", "2", "--trials", "40"],
    "hs-underflow": ["--case", "hs-cor", "--law", "explicit:1e-160", "--dim", "2",
                     "--trials", "40"],
    # nu**(nu - 2) is past the range of floats below nu of about 7.5e-155
    "tiny-nu-op-2.3": ["--case", "op-2.3", "--nu", "1e-160", "--trials", "3"],
    "tiny-nu-op-2.5": ["--case", "op-2.5", "--nu", "1e-300", "--trials", "3"],
    "tiny-nu-op-2.6": ["--case", "op-2.6", "--nu", "1e-160", "--trials", "3"],
    "tiny-nu-hs-2.13": ["--case", "hs-2.13", "--nu", "1e-300", "--trials", "3"],
}

# gap-profile runs each case's points as one stack of trial 0 at each nu: a
# draw, an operator input and hs sides that are nan through overflow
PROFILE_ERRORS = {
    "draw": ["--case", "hs-2.14", "--dim", "2", "--law", "explicit:0"],
    "op-overflow": ["--case", "op-2.7-right", "--law", "explicit:1e308", "--dim", "2"],
    "hs-overflow": ["--case", "hs", "--law", "explicit:1e150", "--dim", "2"],
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

    def test_zero_spectrum_error_prints_a_python_float(self, capsys):
        assert main(["matrix-verify", "--case", "hs-2.14", "--trials", "5", "--dim", "2",
                     "--law", "explicit:0,1"]) == 2
        assert capsys.readouterr().err == (
            "error: case hs-2.14 trial 0: positive definite generation needs a positive "
            'spectrum, got 0.0; digest: {"case": "hs-2.14", "complex": false, "dim": 2, '
            '"kind": "hs", "law": "explicit:0,1", "nu": 0.0, "seed": 0, '
            '"structure": "general-pd", "trial": 0, "x_kind": "pd"}\n')
        assert main(["gap-profile", "--case", "hs-2.14", "--dim", "2",
                     "--law", "explicit:0"]) == 2
        assert capsys.readouterr().err == (
            "error: case hs-2.14 trial 0: positive definite generation needs a positive "
            'spectrum, got 0.0; digest: {"case": "hs-2.14", "complex": false, "dim": 2, '
            '"kind": "hs", "law": "explicit:0", "nu": 0.0, "seed": 0, '
            '"structure": "general-pd", "trial": 0, "x_kind": "pd"}\n')

    @pytest.mark.parametrize("flags", SWEEP_ERRORS.values(), ids=SWEEP_ERRORS)
    def test_error_replays_to_the_same_error(self, tmp_path, flags):
        out = tmp_path / "report.json"
        code, err = cli("matrix-verify", *flags, "--out", str(out))
        assert code == 2 and not out.exists()
        assert_replays_to_the_same_error(err)

    def test_profile_error_names_the_first_point_in_row_order(self, capsys):
        # every point fails to draw; op-2.3 has no point at nu = 0, so the first
        # row's failure is op-2.10's, though op-2.3's stack is judged first
        assert main(["gap-profile", "--case", "op-2.3,op-2.10", "--law", "explicit:1,2",
                     "--dim", "3"]) == 2
        digest = json.loads(capsys.readouterr().err.split("digest: ", 1)[1])
        assert (digest["case"], digest["nu"]) == ("op-2.10", 0.0)

    @pytest.mark.parametrize("flags", PROFILE_ERRORS.values(), ids=PROFILE_ERRORS)
    def test_profile_error_replays_to_the_same_error(self, tmp_path, flags):
        out = tmp_path / "profile.csv"
        code, err = cli("gap-profile", *flags, "--out", str(out))
        assert code == 2 and not out.exists()
        assert_replays_to_the_same_error(err)


def assert_replays_to_the_same_error(err):
    """A sweep's error names its case, trial and digest; the digest replays to it."""
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
    # float() reads these, but a law that writes one into its digests has a
    # second spelling of the same draws
    "law-underscore": (["matrix-verify", "--case", "op-2.3", "--law", "explicit:1_000"],
                       "malformed spectrum law 'explicit:1_000': "
                       "whitespace or '_' in the number '1_000'"),
    "law-inner-space": (["matrix-verify", "--case", "op-2.3", "--law", "explicit: 1"],
                        "malformed spectrum law 'explicit: 1': "
                        "whitespace or '_' in the number ' 1'"),
    "law-trailing-space": (["matrix-verify", "--case", "op-2.3",
                            "--law", "log-uniform:1e-3:1e3 "],
                           "malformed spectrum law 'log-uniform:1e-3:1e3 ': "
                           "whitespace or '_' in the number '1e3 '"),
}


class TestNonFiniteSettings:
    @pytest.mark.parametrize("argv, message", BAD_SETTINGS.values(), ids=BAD_SETTINGS)
    def test_sweep_exits_2_before_any_trial(self, capsys, monkeypatch, argv, message):
        started = []
        monkeypatch.setattr(runner, "_run_chunk", lambda *a: started.append(a))
        monkeypatch.setattr(scalar, "evaluate", lambda *a, **k: started.append(a))
        monkeypatch.setattr(scalar, "judge_grid", lambda *a: started.append(a))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert started == []

    def test_replay_of_a_law_with_an_underscore_exits_2(self, capsys):
        code, err = replay_error(capsys, hs_digest(law="explicit:1_000"))
        assert code == 2
        assert ("malformed spectrum law 'explicit:1_000': "
                "whitespace or '_' in the number '1_000'") in err

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



class TestUnwritableOut:
    VERBS = {"scalar-sweep": ("report", ["scalar-sweep", "--case", "young-1.1"]),
             "matrix-verify": ("report", ["matrix-verify", "--case", "op-2.3", "--trials", "5"]),
             "gap-profile": ("CSV", ["gap-profile", "--case", "op-2.3"])}

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("verb", list(VERBS))
    def test_exits_2_naming_the_path(self, tmp_path, capsys, verb, target):
        # the job runs, then its output cannot be written: a usage error, not a failure
        what, argv = self.VERBS[verb]
        path = str(tmp_path / "missing" / "out") if target == "missing-dir" else str(tmp_path)
        assert main([*argv, "--out", path]) == 2
        err = capsys.readouterr().err
        reason = "No such file or directory" if target == "missing-dir" else "Is a directory"
        assert err.startswith(f"error: cannot write {what} {path!r}: ")
        assert reason in err and err.count("\n") == 1


class TestCachedParser:
    def test_a_call_leaves_nothing_for_the_next(self, tmp_path):
        # the second sweep gives neither --tol nor --config: its config is a fresh process's
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu": 0.5}))
        first, second, fresh = (tmp_path / f"{name}.json" for name in ("first", "second", "fresh"))
        assert main(["scalar-sweep", "--case", "young-1.1", "--tol", "1e-6",
                     "--config", str(cfg), "--out", str(first)]) == 0
        assert read_report(first)["config"]["nu"] == 0.5
        assert main(["scalar-sweep", "--out", str(second)]) == 0
        src = Path(meancert.__file__).resolve().parents[1]
        subprocess.run([sys.executable, "-m", "meancert.cli", "scalar-sweep", "--out", str(fresh)],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert read_report(second)["config"] == read_report(fresh)["config"]

    def test_repeated_flags_start_empty_on_each_call(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["matrix-verify", "--case", "op-2.3", "--case", "op-2.5", "--dim", "2",
                     "--dim", "3", "--trials", "2", "--out", str(out)]) == 0
        assert main(["matrix-verify", "--case", "op-2.6", "--dim", "1", "--trials", "2",
                     "--out", str(out)]) == 0
        config = read_report(out)["config"]
        assert (config["case"], config["dims"]) == (["op-2.6"], [1])


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

    def test_matrix_profile_is_one_stack_per_case(self, tmp_path, monkeypatch):
        stacks = []
        certify = runner._certify
        monkeypatch.setattr(runner, "_certify", lambda case, stack, tol: stacks.append(
            (case.case_id, len(stack.trials))) or certify(case, stack, tol))
        ids = ["op-2.10", "hs-2.14"]
        out = tmp_path / "gp.csv"
        assert main(["gap-profile", "--case", ",".join(ids), "--dim", "3", "--nu-points", "33",
                     "--out", str(out)]) == 0
        nus = [i / 32 for i in range(33)]
        assert stacks == [(cid, sum(map(CASES[cid].in_domain, nus))) for cid in ids]
        # each point is the record of its trial run alone
        cfg = RunConfig(trials=1, dims=(3,))
        for row, nu in zip(list(csv.reader(open(out)))[1:], nus):
            want = [f"{nu:.17g}"]
            for cid in ids:
                case = CASES[cid]
                if not case.in_domain(nu):
                    want += [""] * len(case.links)
                    continue
                rec = runner.run_trial(make_digest(cid, dataclasses.replace(cfg, nu=nu), 0),
                                       cfg.tol)
                slacks = [lc.slack for lc in rec.links] if case.kind == "operator" else rec.slacks
                want += [f"{v:.17g}" for v in slacks]
            assert row == want

    def test_scalar_profile_emits_witnesses(self, tmp_path, capsys):
        out = tmp_path / "gp.csv"
        assert main(["gap-profile", "--case", "new-2.1,zw-1.5,zw-1.6",
                     "--a", "1", "--b", "2", "--nu-points", "65",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "tighter than" in text
        rows = list(csv.reader(open(out)))
        assert rows[0][0] == "nu" and len(rows) == 66

    @pytest.mark.parametrize("flags", [[], ["--nu-points", "2"]], ids=["129", "2"])
    def test_scalar_profile_is_one_grid_per_case(self, monkeypatch, capsys, flags):
        calls = spy_scalar_judges(monkeypatch)
        ids = ["new-2.1", "zw-1.5", "zw-1.6", "young-1.1"]  # zw-1.5 has no point at 2
        assert main(["gap-profile", "--case", ",".join(ids), *flags]) == 0
        assert calls == ids

    def test_scalar_profile_that_overflows_exits_2_as_replay_does(self, capsys):
        # the profile judges only its own points, so its first row, nu = 0, fails first
        assert main(["gap-profile", "--case", "cf-1.13", "--a", "1e300", "--b", "1"]) == 2
        err = capsys.readouterr().err
        digest = {"case": "cf-1.13", "kind": "scalar", "a": 1e300, "b": 1.0, "nu": 0.0}
        assert replay_error(capsys, digest) == (2, err)
        assert err.startswith("error: side 0 of cf-1.13 at a=1e+300, b=1.0, nu=0.0 is nan, ")

    def test_a_case_without_points_keeps_its_header(self, capsys):
        # zw-1.5 (0 < nu <= 1/2) holds neither 0 nor 1; a grid of no point has its link rows
        assert main(["gap-profile", "--case", "zw-1.5", "--nu-points", "2"]) == 0
        assert capsys.readouterr().out == "nu,zw-1.5:link0,zw-1.5:link1\n0,,\n1,,\n"

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

    @pytest.mark.parametrize("n", [1, MAX_NU_POINTS + 1, 10**9])
    def test_nu_points_bound(self, tmp_path, capsys, monkeypatch, n):
        started = []
        monkeypatch.setattr(runner, "profile", lambda *a: started.append(a))
        want = f"error: nu_points must lie in 2..{MAX_NU_POINTS}, got {n}\n"
        assert main(["gap-profile", "--case", "op-2.3", "--nu-points", str(n)]) == 2
        assert capsys.readouterr().err == want
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"case": ["op-2.3"], "nu_points": n}))
        assert main(["gap-profile", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == want
        assert started == []

    def test_nu_points_bound_is_inclusive(self, tmp_path):
        out = tmp_path / "gp.csv"
        assert main(["gap-profile", "--case", "young-1.1", "--nu-points", str(MAX_NU_POINTS),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + MAX_NU_POINTS


class TestReportModule:
    def test_schema_rejects_extra_fields(self):
        report = {"schema": "meancert.report/1", "tool": "t", "command": "scalar-sweep",
                  "config": {}, "cases": [], "all_passed": True, "wall_time_s": 0.0}
        validate_report(report)
        with pytest.raises(ValueError) as raised:
            validate_report(dict(report, bogus=1))
        assert str(raised.value) == ("report off REPORT_SCHEMA: report: Additional properties "
                                     "are not allowed ('bogus' was unexpected)")

    def test_schema_rejects_unknown_case_and_failure_fields(self):
        from meancert.report import build_report
        hs = run_case("hs-2.13", RunConfig(trials=20, nu=0.5))
        scalar_case = runner.run_scalar_case("young-1.1")
        assert hs["failure_digests"]
        build_report("matrix-verify", {}, [hs], 0.0, tool="t")
        unexpected = ": Additional properties are not allowed ('bogus' was unexpected)"
        for bad, path in ((dict(hs, bogus=1), "['cases'][0]"),
                          (dict(scalar_case, bogus=1), "['cases'][0]"),
                          (dict(hs, failure_digests=[dict(hs["failure_digests"][0], bogus=1)]),
                           "['cases'][0]['failure_digests'][0]")):
            with pytest.raises(ValueError) as raised:
                build_report("matrix-verify", {}, [bad], 0.0, tool="t")
            assert str(raised.value) == f"report off REPORT_SCHEMA: report{path}{unexpected}"

    def test_report_schema_is_a_valid_schema(self):
        # no run checks the schema itself: meancert runs without jsonschema
        import jsonschema
        jsonschema.validators.validator_for(REPORT_SCHEMA).check_schema(REPORT_SCHEMA)

    def test_validator_is_built_once_on_first_use(self, tmp_path):
        # REPORT_SCHEMA is compiled on the first report checked, once, and
        # the same check then refuses a report off the schema
        from meancert import report
        report._report_check.cache_clear()
        out = tmp_path / "report.json"
        assert main(["matrix-verify", "--case", "op-2.3", "--trials", "5",
                     "--out", str(out)]) == 0
        rep = read_report(out)
        rep["cases"][0]["trials"] = -1
        for _ in range(2):
            with pytest.raises(ValueError, match="-1 is less than the minimum of 0"):
                validate_report(rep)
        info = report._report_check.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        # importing the package builds nothing: no check, no parser
        src = Path(meancert.__file__).resolve().parents[1]
        probe = subprocess.run(
            [sys.executable, "-c", "import meancert.cli as c, meancert.report as r; "
             "print(*(f.cache_info().currsize for f in (r._report_check, c.build_parser)))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120)
        assert probe.stdout == "0 0\n"

    def test_a_passing_sweep_loads_no_jsonschema(self, tmp_path):
        # a passing sweep checks its report, and a refused report names its
        # error, without jsonschema
        src = Path(meancert.__file__).resolve().parents[1]
        probe = subprocess.run([sys.executable, "-c", textwrap.dedent("""
            import json, sys
            import meancert.cli as c, meancert.report as r
            print(c.main(['scalar-sweep', '--case', 'young-1.1', '--out', sys.argv[1]]))
            with open(sys.argv[1]) as fh:
                report = json.load(fh)
            report['cases'][0]['trials'] = -1
            try:
                r.validate_report(report)
            except ValueError as exc:
                print(type(exc).__name__, exc)
            print(sorted(m for m in sys.modules
                         if m.split('.')[0] in ('jsonschema', 'referencing', 'rpds')))
            """), str(tmp_path / "report.json")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120)
        assert probe.stdout.splitlines()[-3:] == [
            "0", "ValueError report off REPORT_SCHEMA: report['cases'][0]['trials']: "
            "-1 is less than the minimum of 0", "[]"]
        read_report(tmp_path / "report.json")

    def test_importing_the_cli_loads_no_jsonschema(self):
        # nor the process pool, which only a sweep with --jobs > 1 starts, nor
        # numpy.random, whose generator the first draw builds
        src = Path(meancert.__file__).resolve().parents[1]
        probe = subprocess.run(
            [sys.executable, "-c", "import sys, numpy, meancert.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('jsonschema', 'referencing', 'rpds') or m in "
             "('concurrent.futures.process', 'numpy.random')))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120)
        assert probe.stdout == "[]\n"

    def test_canonical_json_sorted_and_newline(self):
        s = canonical_json({"b": 1, "a": 2})
        assert s.index('"a"') < s.index('"b"')
        assert s.endswith("\n")
        assert REPORT_SCHEMA["properties"]["schema"]["const"] == "meancert.report/1"
