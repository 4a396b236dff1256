"""The stacked trial kernel: a sweep's records equal single-trial runs bit for bit.

A sweep draws each trial from its own stream, stacks the trials of a chunk
by dim and certifies each stack at once; ``run_trial`` and replay run the
same code on a stack of one.  These tests hold the two to each other,
field by field, and check the error and memory rules of the stacks.
"""
import ast
import dataclasses
import hashlib
import json
import math
import pathlib
import random
import sys

import numpy as np
import pytest

from meancert import hsnorm, linalg, opmeans, runner, scalar
from meancert.cli import main
from meancert.linalg import CERT_PSD_TOL, DomainError
from meancert.report import canonical_json, strip_volatile
from meancert.runner import CASES, RunConfig, inputs, make_digest, run_case, run_trial
from meancert.scalar import Verdicts

OPERATOR = [cid for cid, case in CASES.items() if case.kind == "operator"]
HS = [cid for cid, case in CASES.items() if case.kind == "hs"]
LAWS = [{}, {"law": "clustered:1:0.5"}, {"w_law": "explicit:0"}]


def verdict_row(v: Verdicts, i: int) -> Verdicts:
    """Row i of a stack's Verdicts, as the Verdicts of a stack of one."""
    def one(column):
        return None if column is None else [column[i]]
    return Verdicts(one(v.min_slack), one(v.passed), one(v.worst_link),
                    [[link[i]] for link in v.slacks], one(v.advisory), one(v.oracle_rel_err))


def record_verdicts(case, rec) -> Verdicts:
    """The verdict fields of a trial record, as the Verdicts of a stack of one."""
    hs = case.kind == "hs"
    slacks = rec.slacks if hs else [lc.slack for lc in rec.links]
    return Verdicts([rec.min_slack], [rec.passed], [case.links.index(rec.worst_link)],
                    [[s] for s in slacks], [rec.advisory] if hs else None,
                    [rec.oracle_rel_err] if hs else None)


def stack_records(case, stack, tol):
    """The trial records of a stack, drawn and certified at once."""
    return runner._on_inputs(case, stack, tol, opmeans.certify_operator, hsnorm.certify_hs)


def row_digest(stack, i):
    """The digest of row i of a stack: its template's, at the row's trial and nu."""
    return {**stack.template, "trial": stack.trials[i], "nu": stack.nus[i]}


def spy_stacks(monkeypatch, seen):
    """Have every stack a sweep judges give its records as well: append
    (digest, record, Verdicts row) of each of its trials to ``seen``, once
    each record's verdict fields are checked, bit for bit, against its row of
    the Verdicts the sweep folds.  Returns the unpatched ``runner._certify``."""
    certify = runner._certify

    def spy(case, stack, tol):
        got = certify(case, stack, tol)
        for i, rec in enumerate(stack_records(case, stack, tol)):
            row = verdict_row(got, i)
            assert repr(record_verdicts(case, rec)) == repr(row)
            seen.append((row_digest(stack, i), rec, row))
        return got

    monkeypatch.setattr(runner, "_certify", spy)
    return certify


def swept(monkeypatch, case_id, cfg):
    """The summary of a sweep, and (digest, record, Verdicts row) of every trial
    of it in trial order, asked of the stacks the sweep judges."""
    seen = []
    certify = spy_stacks(monkeypatch, seen)
    summary = run_case(case_id, cfg)
    monkeypatch.setattr(runner, "_certify", certify)
    seen.sort(key=lambda entry: entry[0]["trial"])
    assert [d for d, _, _ in seen] == [make_digest(case_id, cfg, t) for t in range(cfg.trials)]
    return summary, seen


def assert_same_record(rec, ref):
    """Every field equal, floats by repr (so -0.0 differs from 0.0), arrays bit for bit."""
    assert type(rec) is type(ref)
    for f in dataclasses.fields(ref):
        got, want = getattr(rec, f.name), getattr(ref, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert got.tobytes() == want.tobytes(), f.name
        else:
            assert repr(got) == repr(want), f.name


def assert_sweep_equals_run_trial(monkeypatch, case_id, cfg):
    _, seen = swept(monkeypatch, case_id, cfg)
    for digest, rec, _ in seen:
        assert_same_record(rec, run_trial(digest, cfg.tol, cfg.psd_tol))


@pytest.mark.parametrize("nu", [None, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("cx", [False, True])
@pytest.mark.parametrize("law", LAWS, ids=["log-uniform", "clustered", "w-explicit-0"])
@pytest.mark.parametrize("seed", [0, 3])
def test_operator_sweep_records_equal_run_trial(monkeypatch, seed, law, cx, nu):
    cfg = RunConfig(trials=30, seed=seed, dims=(1, 4, 2), nu=nu, complex_entries=cx, **law)
    for case_id in OPERATOR:
        if nu is None or CASES[case_id].in_domain(nu):
            assert_sweep_equals_run_trial(monkeypatch, case_id, cfg)


@pytest.mark.parametrize("cx", [False, True])
def test_hs_sweep_records_equal_run_trial(monkeypatch, cx):
    cfg = RunConfig(trials=30, seed=1, dims=(1, 4, 2), complex_entries=cx)
    for case_id in HS:
        assert_sweep_equals_run_trial(monkeypatch, case_id, cfg)


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize("nu", [None, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("cx", [False, True])
@pytest.mark.parametrize("law", LAWS, ids=["log-uniform", "clustered", "w-explicit-0"])
@pytest.mark.parametrize("seed", [0, 3])
def test_hs_sweep_records_equal_run_trial_on_every_config(monkeypatch, seed, law, cx, nu,
                                                          lenient):
    cfg = RunConfig(trials=30, seed=seed, dims=(1, 4, 2), nu=nu, complex_entries=cx,
                    lenient_x=lenient, **law)
    for case_id in HS:
        if nu is None or CASES[case_id].in_domain(nu):
            assert_sweep_equals_run_trial(monkeypatch, case_id, cfg)


@pytest.mark.parametrize("cx", [False, True])
@pytest.mark.parametrize("case_id", OPERATOR + HS)
def test_certifying_inputs_equals_run_trial(case_id, cx):
    """A library caller certifying ``inputs(digest)`` gets the record replay gets."""
    case = CASES[case_id]
    cfg = RunConfig(seed=2, dims=(1, 3, 8), complex_entries=cx)
    for trial in range(6):
        digest = make_digest(case_id, cfg, trial)
        got = inputs(digest)
        assert got["A"].shape == got["B"].shape == (cfg.dims[trial % 3],) * 2
        if case.kind == "operator":
            rec = opmeans.certify_operator(case, got["A"], got["B"], got["nu"],
                                           tol=cfg.tol)
        else:
            rec = hsnorm.certify_hs(case, got["A"], got["B"], got["X"], got["nu"],
                                    tol=cfg.tol, oracle=got["oracle"])
        assert_same_record(rec, run_trial(digest, cfg.tol))


# eigh calls (through linalg.lapack) of one stacked certify_operator: one for A, one for
# X = A^-1/2 B A^-1/2, one per link, one for the order check of an
# ordered-only case, and one for B only where a link reads B^-1
EIGH_PER_STACK = {"op-2.3": 3, "op-2.5": 3, "op-2.6": 3, "op-2.7-left": 5,
                  "op-2.7-right": 4, "op-2.7-refine": 5, "op-2.10": 5, "op-heron-zhao": 3}
# at a weight of 0 or 1 shared by the whole stack every mean is A or B exactly,
# so X is never built, and A and B are decomposed only where a link reads A^-1
# or B^-1; the other cases still read A^1/2 and X through A # B
EIGH_PER_STACK_AT_AN_END = {"op-2.7-left": 3, "op-2.7-right": 3, "op-2.7-refine": 3}

# sha256 of replay's record of trial 5 (seed 0, dim 3) of each operator case,
# as written when every operand was decomposed on construction: deciding
# which operands to decompose changes no bit of a record
REPLAY_SHA256 = {
    "op-2.10": "62911c69db09b9ffe3a6d5693ce51c76f77f6bdf27b9fa9936c97fdf7fe78efa",
    "op-2.3": "28bc2877f3e5af067197b3a1c4192e20736123191274ff0b5258e1699b83bb1b",
    "op-2.5": "224b1c117072570aab9146cd1fd9a03ec13058f63d40ce8d724df6e7e28f21e8",
    "op-2.6": "f04b7858fecb92fdae0cba5abb5875e42d63fb31b204a0eb1498e1735e764fa7",
    "op-2.7-left": "4248b9c51e5782c278bebdeac8a0b41f55925d06c286a84f014f8d647fb50642",
    "op-2.7-refine": "01eac99b42f524edeae115c0103ab0b05d07375a1ffbd07bc38d3bbfb770b2f7",
    "op-2.7-right": "6e04725dbf4406d3a9ef3511a3cc61bbadd4790ee96b9a178a484452e16a6db4",
    "op-heron-zhao": "1054d0216db5286ed830aaae7783a17148d9b09a7934e65dcd9211370b1b534d",
}


@pytest.mark.parametrize("case_id", OPERATOR)
def test_a_stack_decomposes_only_what_its_links_read(monkeypatch, case_id):
    lapack = linalg.lapack
    for nu in (None, 0.0, 0.5, 1.0):  # cycling the grid, then shared by the stack
        if nu is not None and not CASES[case_id].in_domain(nu):
            continue
        digests = [make_digest(case_id, RunConfig(dims=(3,), nu=nu), t) for t in range(8)]
        built = runner.Stack.of(digests)
        stack = runner.build_inputs(built, runner.draw_stack(built))
        calls = []
        # every LAPACK call is recorded, so one that is not an eigh shows too
        monkeypatch.setattr(linalg, "lapack",
                            lambda op, M: calls.append(M.shape) or lapack(op, M))
        records = opmeans.certify_operator(CASES[case_id], stack["A"], stack["B"], stack["nu"])
        monkeypatch.setattr(linalg, "lapack", lapack)
        want = EIGH_PER_STACK[case_id]
        if nu in (0.0, 1.0):
            want = EIGH_PER_STACK_AT_AN_END.get(case_id, want)
        assert calls == [(8, 3, 3)] * want, nu
        assert_same_record(records[5], run_trial(digests[5], CERT_PSD_TOL))
    record = canonical_json(runner.replay_trial(make_digest(case_id, RunConfig(dims=(3,)), 5)))
    assert hashlib.sha256(record.encode()).hexdigest() == REPLAY_SHA256[case_id]


# sha256 of replay's record of trial 5 (seed 0, dim 3) of each hs case, as
# written when each trial's chain was judged alone as a row of Python floats
HS_REPLAY_SHA256 = {
    "hs-2.13": "bb7bd7eb5b4130c78bda5e26677372b1fe935872669ac49dda2004bc1e4eaef7",
    "hs-2.14": "f4a185b4a0aa008c4bf1955e05cd5d24865ceddceaf3bf3ea2134dd32d4f3192",
    "hs-cor": "02612c175d3ae056f78a48c32610060f32f7668a5d89b4885879a3d1cc99d2cb",
    "hs-thm8": "758c73e25623402a44149b09599d9113cd0cb1f1673844f072433daaa7f8febe",
}

# sha256 of the scalar-sweep report without its timings, for every case on the
# full grid and for the cases whose domain holds nu = 0.375 at that nu alone,
# as written when each grid point was judged alone as a row of Python floats
SCALAR_REPORT_SHA256 = {
    "grid": "4fd439f85ee53f1af3aeda55a611e5d9f1a71874064b85ff7ff4add466945627",
    "one-nu": "fa2accc31be519fbe3fc865e0ac1f606d0dd9fa9e20818238cb2d82cbb5b1dc6",
}


@pytest.mark.parametrize("case_id", HS)
def test_hs_replay_record_is_pinned(case_id):
    record = canonical_json(runner.replay_trial(make_digest(case_id, RunConfig(dims=(3,)), 5)))
    assert hashlib.sha256(record.encode()).hexdigest() == HS_REPLAY_SHA256[case_id]


@pytest.mark.parametrize("which", SCALAR_REPORT_SHA256)
def test_scalar_report_is_pinned(tmp_path, capsys, which):
    if which == "grid":
        flags = ["--case", "all"]
    else:
        flags = ["--case", ",".join(cid for cid, case in CASES.items()
                                    if case.kind == "scalar" and case.in_domain(0.375)),
                 "--nu", "0.375"]
    out = tmp_path / "report.json"
    assert main(["scalar-sweep", *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        text = canonical_json(strip_volatile(json.load(fh)))
    assert hashlib.sha256(text.encode()).hexdigest() == SCALAR_REPORT_SHA256[which]


# sha256 of the matrix-verify report of every matrix case (seed 42, 600 trials)
# without its timings, and of the gap-profile CSV of every matrix case at dim 3,
# as written when each judge computed a trial's verdict twice, once for a
# sweep's fold and once for its record, and gap-profile read records.  The
# report holds the fold, the kept failures with their worst links, the argmins
# and the oracle keys.  Like every hash pinned here, these hold only in one
# numeric environment (README, Determinism).
MATRIX_REPORT_SHA256 = "0e8917917f272b81bf41546d87cf77699f2372fbe0e635a03fb228eb4b36faa1"
GAP_PROFILE_SHA256 = "27706356cd3fdeeedfa4cd5b55229b6d827ee82c2fa43021ab3a4a26eb70c381"


def test_matrix_report_is_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["matrix-verify", "--case", "all", "--seed", "42", "--trials", "600",
                 "--out", str(out)]) == 1  # hs-2.13 and hs-thm8 fail
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        text = canonical_json(strip_volatile(json.load(fh)))
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_REPORT_SHA256


# The design aim's byte-identity report, `matrix-verify --case all --seed 42` at its
# full 10^4 trials, run with --jobs 2: its report equals the --jobs 1 report.  Each
# case's compact row (passed, failures, repr(min_slack), and the argmin's dim, trial
# and nu) is pinned beside the hash, so that a failure names the case that moved.
# Like every hash pinned here, these hold only in one numeric environment.
DESIGN_AIM_REPORT_SHA256 = "88e405f4d104fd43895fd456d58cb9d6ce77a024dd1796bf58a84e42c0ffe0dd"
DESIGN_AIM_ROWS = {
    "hs-2.13": (False, 5527, "-0.9950736158591214", 1, 6355, 0.625),
    "hs-2.14": (True, 0, "0.0", 1, 0, 0.0),
    "hs-cor": (True, 0, "0.0", 1, 0, 0.0),
    "hs-thm8": (False, 7469, "-0.9999712396998093", 1, 8215, 0.96875),
    "op-2.10": (True, 0, "0.0", 1, 0, 0.0),
    "op-2.3": (True, 0, "2.081660115733575e-08", 3, 2367, 1.0),
    "op-2.5": (True, 0, "1.6651399156207413e-08", 5, 3358, 0.96875),
    "op-2.6": (True, 0, "4.342181018037482e-09", 8, 4319, 1.0),
    "op-2.7-left": (True, 0, "-2.665043696663605e-10", 5, 5398, 0.59375),
    "op-2.7-refine": (True, 0, "-1.0077005444141715e-11", 5, 4018, 0.78125),
    "op-2.7-right": (True, 0, "-2.4599876604876943e-10", 2, 1531, 0.40625),
    "op-heron-zhao": (True, 0, "-1.0114197306400849e-13", 3, 3747, 0.5625),
}


def test_the_design_aim_report_is_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["matrix-verify", "--case", "all", "--seed", "42", "--jobs", "2",
                 "--out", str(out)]) == 1  # hs-2.13 and hs-thm8 fail
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        report = strip_volatile(json.load(fh))
    rows = {c["case"]: (c["passed"], c["failures"], repr(c["min_slack"]),
                        c["argmin"]["dim"], c["argmin"]["trial"], c["argmin"]["nu"])
            for c in report["cases"]}
    assert rows == DESIGN_AIM_ROWS
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == DESIGN_AIM_REPORT_SHA256


def test_gap_profile_csv_is_pinned(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert main(["gap-profile", "--case", "op,hs", "--dim", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GAP_PROFILE_SHA256


# sha256 of the stdout of scalar gap-profile runs (the CSV, then the notes), and
# of replay's record of each argmin digest of `scalar-sweep --case all`, as
# written when each scalar point of gap-profile and replay was judged as a row
# of Python floats and the grid was folded by its own fold.  The second profile
# holds a case with no point in its domain.  They hold only in one numeric
# environment (README, Determinism).
SCALAR_PROFILE_SHA256 = {
    "new-2.1,zw-1.5,zw-1.6": (
        (), "d69159d48f53b3a0986450a151fc54109799136b00eaf0c8332012b140ae7300"),
    "zw-1.5,young-1.1": (
        ("--nu-points", "2"), "419b94b1495d10691cda7f5bf5e56b3c044451e813d15af4be5e4d984186a348"),
}
SCALAR_ARGMIN_REPLAY_SHA256 = {
    "bhatia-heron": "9d2199174339ce2c8f83227dee2eb9f919b47ac9470dfb42e9ed580083e39bee",
    "bk-1.11": "64b6f10b929f753f80a16dd969235c8e2bcc2d7e206e5e5537626d75b36b6c47",
    "bk-1.12": "c50946649d85d9f60c45829cc477ec485e4260f084f7b2049357962cc1cd1384",
    "cf-1.13": "b8b1da2c06c076b5c2dc486c625a04366bf4d19cdc7863e4503cd49e40341ef1",
    "comb-2.11": "268cbb92309d45bccc9bd463a58838bc5c4646bff10d3bdce3834acfb54e290a",
    "comb-2.12": "3de5e57af96cb04ca387322d7e36f941a0b896d2040762ecf4b162d8e1e2d836",
    "heinz-1.14": "a79a40ab054a2c9b6f9e1bbe07aa480555a7837855f4e60062a497ff7389edab",
    "heron-1.15": "5c0231e7296a7c7b03efd93c12fe6e4c8810ba64ab0f32f9547a21840b68ba22",
    "kai-1.10": "c674f0bfa5a2f74cd8b14b841e9f9f3d4229df2056a1f62a697d2ff3a37afd61",
    "kai-1.9": "ee961510690c149fa10aefcc9506030fc86517f159cd96bc793ef2907cdc134d",
    "km-1.3": "7f76d1ed2c656037a8c8419384e59216806145144daff78e734e316a00026728",
    "km-1.4": "a4d1928d1bb5683cfb46a227912fbfb700b101c0c86fd717fae8430ec43e04f8",
    "km-heinz-1.16": "003e55ba09f39eb2b45372d1b26e5895299c466bb3d75009ae1ae15e3a92847f",
    "new-2.1": "9cf78b744827f6b15171794dadde6c917943c38953da1dcd3648f2af37ca1f11",
    "young-1.1": "ab7daccab7fdd20df5b309dd0df3c26fcfc161461f2026d8b8b720c36a44df0f",
    "zj-1.17": "6ae7d728a2d1bbf4e9f8755445a3a738eb5537e0cd017e296492ff612e3d2102",
    "zw-1.5": "234427460a281b8a84311ef31a4de8d62d59465f76a4d6844fb90303f2b665fe",
    "zw-1.6": "92869c3e16d74bd0eccbd384d81fc76277211cd96b32e05a1517c06242aff5a1",
}


@pytest.mark.parametrize("cases", SCALAR_PROFILE_SHA256)
def test_scalar_gap_profile_is_pinned(capsys, cases):
    flags, want = SCALAR_PROFILE_SHA256[cases]
    assert main(["gap-profile", "--case", cases, *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_scalar_argmin_replays_are_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["scalar-sweep", "--case", "all", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        argmins = {entry["case"]: entry["argmin"] for entry in json.load(fh)["cases"]}
    got = {cid: hashlib.sha256(canonical_json(runner.replay_trial(d)).encode()).hexdigest()
           for cid, d in argmins.items()}
    assert got == SCALAR_ARGMIN_REPLAY_SHA256


# sha256 of each scalar case's judge_grid over the full sweep grid (A_GRID_13
# squared, NU_GRID_65 in the domain): min_slack, passed, worst_link (as int64),
# the slack rows, then the extras (sides, raws), each as the bytes of its
# C-contiguous link-major array (one row per side or link), as written when the
# judge took its chains point-major, one row per point.  No other pin holds a
# per-point bit of the grid: the report keeps only its fold.  The sides go
# through CPython's float ``**`` (the C library's pow) and numpy's sqrt and
# arithmetic, so these hold only in one numeric environment (README,
# Determinism): here CPython 3.11, numpy 2.4 on x86-64 with AVX-512.
SCALAR_GRID_SHA256 = {
    "bhatia-heron": "934a2ea7355c5bc8f0fc2c52067b4a1a3bfc95518faff3c3e866618081afa251",
    "bk-1.11": "a060f29237e95739ca532f452c3c8fc63661041ed7c97893715fe1bed44140cf",
    "bk-1.12": "9430f00fff32a151d941143aac3eb1258967bac2da37f6921d8b3f12ae678b2d",
    "cf-1.13": "565035fbbb2374472575ec4d9bae45ce0e2b66a15fe348f3cf7e590c064dbbe3",
    "comb-2.11": "d2cdb0820165736d5f2d871334df345c046fa0e9a61fd8711ef8a14d192f72b4",
    "comb-2.12": "f735b072ae395d610db61bc2eb95823555dadca9ab47ea49d6c93d3b6a25a1f1",
    "heinz-1.14": "0f93a35c2f83e35990f7ee312282f4645a1c4acbe09f2b485209bd4e8a22754a",
    "heron-1.15": "00476a248ebb6555303d9bd98b0fc7cefe4fed3a8c90d6ae211c8b7f1a60a0ed",
    "kai-1.10": "53bff9b5a3a8baf437726efc980e1107294deb3f663ba030937af27104756e07",
    "kai-1.9": "724cb726852a8676f6c6fe35d6a0efec93a82d2f8f21a371af1f160f19128036",
    "km-1.3": "a45cd7c83d1c662ae15a0c1a5365117063924149f071b6273e97631926850ce6",
    "km-1.4": "dad7c56d898ee448d161d5365b8cf923ef8f1a1d4f8dd61a553ca9dc87f38265",
    "km-heinz-1.16": "6a3731b5dab08929d0629f97eea6978df732c268375b41fb4d86ae42957324f0",
    "new-2.1": "317b1da7fc005bd146179b279c7a7b2ce9b826f88fed82fe350b35a01b2acb61",
    "young-1.1": "3cddad733cd6a3eff9e158f7cd67d6b2fc5f2e52d3c5bb44cd8337bf2dd62224",
    "zj-1.17": "4aa03e30fdbe65860a95c141a29f0e69a4b463c0116f5f13e2f1ca02fefae438",
    "zw-1.5": "79379e507b19172907b55697a61c82f06632f81e41a4263c32bf0e6b55030d02",
    "zw-1.6": "7d25396a665e8466cc03e5f4e3ecf3425d612918553f189d0a83583cfa283e95",
}


@pytest.mark.parametrize("case_id", SCALAR_GRID_SHA256)
def test_scalar_grid_verdicts_are_pinned(case_id):
    case = CASES[case_id]
    nus = [nu for nu in scalar.NU_GRID_65 if case.in_domain(nu)]
    v, (sides, raws) = scalar.judge_grid(case, nus, scalar.A_GRID_13, scalar.A_GRID_13)
    h = hashlib.sha256()
    for column in (v.min_slack, v.passed, v.worst_link.astype(np.int64), v.slacks, sides, raws):
        h.update(np.ascontiguousarray(column).tobytes())
    assert h.hexdigest() == SCALAR_GRID_SHA256[case_id]


# sha256 of every trial record of a 128-trial sweep (seed 0, default dims and
# draws) of each matrix case, real and complex, as written when a stack raised
# its spectra to each distinct exponent in a separate power call.  The replays
# pinned above are stacks of one; these hold the stacked powers.
STACKED_SWEEP_SHA256 = {
    False: {
        "op-2.10": "ea03b5a926d049f74ce239d00eb54baeda9469429b035bdc5eeae142667b0735",
        "op-2.3": "5885c9195ef64c13b0e03f4e7a0f0b6da25d23023080ef726b7f1ba8eeebedb7",
        "op-2.5": "57e926809e5d4046adee4e889429bcdc53110c0b9dd2f787391e40b520ac1783",
        "op-2.6": "b3fb3e917334da210f4a4a41a6d2672ebcb23c189615b6620a95ee6506f3b300",
        "op-2.7-left": "e1c56e4f4637145b3a9b851f52dffb29f5d84f98d26ba66370fa01a45f022c18",
        "op-2.7-refine": "7b44bbd6d6bdcd03cd2b98afe36d37ca1875ee79cfee1303c76f34a19ef73da9",
        "op-2.7-right": "419a92ded719961b938d1a05c5af55ea805bdc5f75ec4e7300be7506fa16bda4",
        "op-heron-zhao": "5fc4ecf6831a676b24a1e99b01f017e7c7c0430e5428b02eef56af55cb3f093d",
        "hs-2.13": "060c5ee161620121fc4192720544e3bc10295c9bda548e50a439c7ba4e796120",
        "hs-2.14": "5f3f155825c6e2e8b889d88f120d87d4298a2fb5723dbe35e69471792a7863a3",
        "hs-cor": "c2df3f0e535fb0e2d8b6916cb06956da86e7962607e213dc6c402aee19ddf01c",
        "hs-thm8": "656e4ab78b97e94706ff3766402092d414240e91204a152e676349d3b3738d3e",
    },
    True: {
        "op-2.10": "257550c47fcc34e15ca02bd92bce34218a2de111be667b769a85bd4041cd8d3d",
        "op-2.3": "6730a72ddc8f1daa4e24f0f34679dc1047dfec1a6df11bda313ac9a68893a013",
        "op-2.5": "e4e434057717a5236e110aea0abd59adf246ae4f9d2c09d498f2c5371ee0e014",
        "op-2.6": "b72e580ee495b62e05496bf6b1755eb431a5979892c0f55d60f56e3df3da0579",
        "op-2.7-left": "1da71a2a67d3f3db0db2aeca56180e8cce4dbcdcefdd9db5a14d146ceef4d6dc",
        "op-2.7-refine": "00a94b4651f8563028b4fad2c6602991304110e671581641eb51ea4a1ea23c74",
        "op-2.7-right": "e8a39c9561333bd331c4ec2366e3b4ec69f7595732e79d83631eb6011fba432e",
        "op-heron-zhao": "1993f2b972721d4f37e9107a29a39d1ea9cd3392f1ed54aef78df257cf7bf860",
        "hs-2.13": "c46d0d3fc5482a2c9b45664569fe0a4b429c2d159a7f02decf3e5ae8a2ba8be4",
        "hs-2.14": "e652568df8948903eb9a147d8b002d89fe3dfbd8dc2dbaddf5fb309dde6fde8b",
        "hs-cor": "494dfdb5eb16398b2c32a4bdf4f606826aae9f9977bfd7cb89bde2b0144ce3a1",
        "hs-thm8": "5d982e90e5a1bba698d400c798d046a3d6e83c5a5405e3dfedac29f86cd4b9c6",
    },
}


# the same, for the cases whose domain holds nu, at nu shared by every trial
SHARED_SWEEP_SHA256 = {
    False: {
        0.0: {
            "op-2.10": "764f7936c6ebadc2bcf8d221aae474e722ed4d1ba079a3ed32469e6c53a262d2",
            "op-2.7-left": "39838f3b4a5ba69716d629dd66512f104d7eb2fdff9ff42101171619e57ea268",
            "op-2.7-refine": "902d3f15e88608909eb9d357ea5534ddc4a157bc097c50ab69de4296f8cac651",
            "op-2.7-right": "8b0b7b4d939a58c18e7a571e99d70b282fe575f27ac7b14ac329042d79d55dd1",
            "op-heron-zhao": "58e39c1b6083367a82e03c46a0217d75aa660620be7cf2d5bcf50853fa4816f3",
            "hs-2.14": "b43648a53061a818497cc3d700d647fe5cec739c91fa4b8c2c94176f535ab6a2",
            "hs-cor": "8a5092316f62e34a1ba946c3876bcd5846a8cf146fbd931c785ec510d3c6491a",
            "hs-thm8": "e7056dbf1b525e50941d038b398330fcb79518d80bba0553969f9912b8f1893f",
        },
        0.5: {
            "op-2.10": "fd617cd7ea548fa871bc6b2cec682c03efed797ed339b2d5298815fb10dc9cdf",
            "op-2.3": "08a8a4ea6867876a37a262a7927d34145e66b833d2720cc34d5b212bb0d930d3",
            "op-2.5": "11d8d36ebf8de53842e66aa7b4be26b685e1d6994698ecca29c2769b33d85f6f",
            "op-2.6": "915dd1947a3d2713ffaf6301d61285262bc82c5e28d40e174f911bad088b817d",
            "op-2.7-left": "81fe6921cea48e9a3d7bfd517bb27c00b7dbb8e41047589da1c52d5894fd2f60",
            "op-2.7-refine": "7a06cd450ead679964b8f0d2932f3a520df545f763279218836251c30b7137bf",
            "op-2.7-right": "01d2c336384081ed690fbe31a50161eec8a09ddb5c6389ae672a624fc9b315db",
            "op-heron-zhao": "4e2899b8ccf5a5e7bd0aac8a8ad03eddb23befaf7c36668925f0e85dadb74fa5",
            "hs-2.13": "af2e71f4a0e08cc1d71ae84ba6931e0e07d12efafb1daff5e953dbb3d780d943",
            "hs-2.14": "29119991e81c33d19e188996b31be4a7c777ca5648106601b09526135d749b71",
            "hs-cor": "8a515aa6008b095cd9b847b1c180ab4d34d095e23433375032bbdcc856bf449a",
            "hs-thm8": "be240a210db09f65441cdd10d544ffff6953cde39532866b113e88b947023237",
        },
        1.0: {
            "op-2.10": "3842ef11edfca5c15f7561d8a83fdb752265cecae5b4210d8b5f67c6a1a9e194",
            "op-2.3": "315e7ba8aecb6650926d24bba0f4bc5e905ce608becb43161c59708ca9c46f65",
            "op-2.5": "900511e57493d78b50b47c8d1d426d8174683c4b424ae2e0a60b8fab551b8913",
            "op-2.6": "649a11425c307d4a3953b04eb8ff57d9d16069b29f3584cbe6e824b3927db746",
            "op-2.7-left": "b07346a1a99f78407a315035d64aaeb781f9c348d85450be0f91e29092e463ad",
            "op-2.7-refine": "6755b05e938c5c2a0f065f604ea2e57895bad8e2f2f0313876397890f01eb91d",
            "op-2.7-right": "c390488e1cf44405a69fdbdd3d3dcadf7f3be06a604c33ed8844b7f6dfd0ddfd",
            "op-heron-zhao": "03efaff931abacf5feecc438b96a4118960bc9520b44fd2adcb84e0154417782",
            "hs-2.13": "604a315fd367f9ede12f6168f67638bd524f81139cbc10ded883007c324690ef",
            "hs-2.14": "069a19492cb4bb15b27760631cf8c2387e64882e81253d069faf2550c7b4a23a",
            "hs-cor": "cc40e9296882f0beb29e6ca6d0cd341444e14945e4836a5b0ad995742cd410eb",
            "hs-thm8": "0724e8d11ed319a71ccfb65b3f996bb7e22a34588bab4930c586b2d97564b96e",
        },
    },
    True: {
        0.0: {
            "op-2.10": "83648e19f07d18da861feca5dac12eecae3282385ca730b6fbe2a082091763ad",
            "op-2.7-left": "92a2557388833077152f589b5118fb5bae1f6895df364ddc95807a753b622a04",
            "op-2.7-refine": "d42b0bbcc393212de363fe78e9271fc1bcc375b8fddf3d15e5ccbb74763b066d",
            "op-2.7-right": "0a0b85622b6963aabf94fe5c0cc6390f87301afcdf75550306331d3e24a02974",
            "op-heron-zhao": "5478d579c7057630defb717307f0879373e3b0f92305279087595522414cc9b1",
            "hs-2.14": "cf19ba1f152771bced10b5007aaf454ba61c4b09172af90822a1c75fec22647b",
            "hs-cor": "6b3e090e387ab08d84e6ba497d1911e31e7585b48a8b2799b263ba42c62e7ba2",
            "hs-thm8": "f80d1018bc4380dfdd85f40cab7a7ed270731c80d49d2d700fbe8570e6d0b7f3",
        },
        0.5: {
            "op-2.10": "18e80895b263a55df1bc2cc364699e013fc3cfcb30e35c9d2d3eafb5976af1d8",
            "op-2.3": "cc959f7d2e7917ff6ecca6ad921dde9db8943df43e4981109f21d0b904dca500",
            "op-2.5": "ba1f666dc022ab0add9d4ba3b25839b2d967ce47d508c08263136545d7d7d002",
            "op-2.6": "63d4ddade63eced4bdbab6242eaa2ec1d1de7db13a6f7e1728849a96d1c98a7b",
            "op-2.7-left": "4826e4b1ff44d1a42a5d7e4ebfee75e36b9b813e54fa647c53b14a915d415cb9",
            "op-2.7-refine": "f89ea387044c396e064f8503a3ec62d47f933b7e340d1c56d3ecbe19d7631f83",
            "op-2.7-right": "d57295b2635dc13710632de37d261a472456830bc841b31132d8b072cdd77758",
            "op-heron-zhao": "64b7a057673a5fe8cb8b58f1dfdbe7cae6494f7e6d3f9121b80c992d38b91d48",
            "hs-2.13": "84c836cd3a4c0f3c64b086fed516e6700f55cb3194ab47fa1fb4f2ecb4721234",
            "hs-2.14": "d050da3da8714339f38dfebf6497c247d02c5947f8e94cfb6654c4e76424fc56",
            "hs-cor": "f16196761d3c433787923b0d75e42d1c9ae6133a6d8b1f7dc3da3f2855db8514",
            "hs-thm8": "d6c39ad579e34549f9b7a51f13576f123f935e36854dcfa96ea00aef36148ed5",
        },
        1.0: {
            "op-2.10": "f52a503366a8dbebe97d7ba19cebbf8bddaf3d31e6cf320260951b70b02ec081",
            "op-2.3": "5fdc5eb9cb9c3598bdcfee024eb0961db24a642d38d915571aa523956da5f9d9",
            "op-2.5": "92a35da68c6fccac0331444950dd65771698ae68bd9d2bf55f3004a0b40efb99",
            "op-2.6": "05ee2fa7e5a72941d930b932d62967f08d883a60b56007e86642ad5f4a43de60",
            "op-2.7-left": "d9792206b1f94b827a380801a176ac3ba2da902a4571465f0e6618ad9dc928b6",
            "op-2.7-refine": "6e3812bb026ae398949c49d878ea917fb61d22a3e01cebe23b2941b515d93003",
            "op-2.7-right": "db2d832faf732da15c2c7a77060a7dfe407d4b70beb17a4d9d9db64b85a77acb",
            "op-heron-zhao": "05fbcc3bfd1db40d1d9b8c911ab7a82ee762772269df43dcd7cd63095fd87f97",
            "hs-2.13": "b956d5f097a4b5875e7ab6c0f9f400bd81331e26233c7f7277bfc96fab5a0c25",
            "hs-2.14": "bede5978afc58956e6fd26a2e5c31ae52ed79165aff09c929abac88919ea59b3",
            "hs-cor": "b4f5a6f2a7d4e5126fc014cb531aa880424878882a34d9a355eb689c45b175f8",
            "hs-thm8": "afaed75c0fc5d16d9c9d4ebd68318d9c940fc15893a4d9d60f927c3a051a2fda",
        },
    },
}


def record_bits(rec) -> str:
    """Every field of a trial record: floats by ``float.hex``, arrays by their bytes."""
    def enc(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, np.ndarray):
            return f"{v.dtype.str}{v.shape}{v.tobytes().hex()}"
        if isinstance(v, tuple):
            return "(" + ",".join(enc(x) for x in v) + ")"
        return repr(v)
    return ";".join(enc(getattr(rec, f.name)) for f in dataclasses.fields(rec))


@pytest.mark.parametrize("cx", [False, True], ids=["real", "complex"])
def test_stacked_sweep_records_are_pinned(monkeypatch, cx):
    seen = []
    spy_stacks(monkeypatch, seen)
    for nu, want in ((None, STACKED_SWEEP_SHA256[cx]), *SHARED_SWEEP_SHA256[cx].items()):
        seen.clear()
        runner.run_matrix_suite(list(want), RunConfig(trials=128, seed=0, nu=nu,
                                                      complex_entries=cx))
        recs = {}
        for digest, rec, _ in sorted(seen, key=lambda entry: entry[0]["trial"]):
            recs.setdefault(digest["case"], []).append(record_bits(rec))
        assert {cid: len(bits) for cid, bits in recs.items()} == dict.fromkeys(want, 128)
        got = {cid: hashlib.sha256("\n".join(bits).encode()).hexdigest()
               for cid, bits in recs.items()}
        assert got == want, nu


def folded_in_trial_order(case, digests, verdicts):
    """The summary of each trial's Verdicts, a stack of one, folded alone through
    ``fold_trial`` in trial order, as the fallback folds them."""
    agg = runner._Agg()
    for t, (digest, v) in enumerate(zip(digests, verdicts)):
        agg.fold_trial(digest, t, v, case.links)
    return agg.summary(case)


FOLD_SWEEPS = {
    # failures on most trials, interleaved over the stacks of three dims and two chunks
    "failure-cap": ("hs-2.13", RunConfig(trials=700, dims=(1, 3, 2), seed=4)),
    # X drawn general for a case that hypothesizes a PSD X
    "lenient-x": ("hs-2.14", RunConfig(trials=120, dims=(2, 1), lenient_x=True)),
    # many trials at slack 0.0 (nu = 0 and 1), in stacks of two dims and two chunks
    "ties": ("op-2.10", RunConfig(trials=600, dims=(1, 2), seed=1)),
}


@pytest.mark.parametrize("case_id, cfg", FOLD_SWEEPS.values(), ids=FOLD_SWEEPS)
def test_the_stack_fold_of_a_sweep_is_the_fold_of_each_trial(monkeypatch, case_id, cfg):
    summary, seen = swept(monkeypatch, case_id, cfg)
    want = folded_in_trial_order(CASES[case_id], *zip(*[(d, row) for d, _, row in seen]))
    assert repr(summary) == repr(want)
    # and so is the merge of chunks folded in two worker processes
    pooled = runner.run_matrix_suite([case_id], dataclasses.replace(cfg, jobs=2))
    assert repr(pooled) == repr([want])


@pytest.mark.parametrize("kind", ["operator", "hs"])
def test_the_stack_fold_of_any_stacks_is_the_fold_of_each_trial(kind):
    # made-up verdicts, so that every rule of the fold is met often: slacks tie
    # at 0.0 and -0.0, failures outnumber the cap in each stack, advisory trials
    # pass and fail, and the oracle's error passes ORACLE_TOL
    case = CASES["op-2.10" if kind == "operator" else "hs-thm8"]
    rng = random.Random(7)
    rows = []  # (min_slack, passed, worst_link, advisory, oracle_rel_err) of each trial
    for _ in range(300):
        slack = rng.choice([0.0, -0.0, 1e-9, -1e-9, -2e-8, -0.5, 0.25])
        rows.append((slack, slack >= -CERT_PSD_TOL, rng.randrange(len(case.links)),
                     rng.random() < 0.2, rng.choice([0.0, 1e-13, 2e-10])))

    def verdicts(trials):
        mins, passed, at, advisory, errs = map(list, zip(*[rows[t] for t in trials]))
        hs = kind == "hs"
        return Verdicts(mins, passed, at, [mins] * len(case.links),
                        advisory if hs else None, errs if hs else None)

    digest = [{"case": case.case_id, "trial": t} for t in range(len(rows))]
    want = folded_in_trial_order(case, digest, [verdicts([t]) for t in range(len(rows))])
    assert want["failures"] > runner.FAILURE_CAP
    if kind == "hs":
        assert want["advisory_trials"] > want["advisory_held"] > 0
        assert want["oracle_violations"] > 0
    agg = runner._Agg()
    for start, stop in ((0, 170), (170, 300)):  # two chunks, merged in order
        # three dims, each cut into stacks of 1 to 40 trials, folded in any order
        stacks = []
        for dim in range(3):
            trials = list(range(start + dim, stop, 3))
            while trials:
                size = rng.randint(1, 40)
                stacks.append(trials[:size])
                trials = trials[size:]
        rng.shuffle(stacks)
        chunk = runner._Agg()
        for trials in stacks:
            chunk.fold_stack(trials, verdicts(trials), case.links)
        chunk.write_digests(digest.__getitem__)
        agg.merge(chunk)
    assert repr(agg.summary(case)) == repr(want)


def as_arrays(v: Verdicts) -> Verdicts:
    """``v`` with numpy array columns, as ``scalar.judge_grid`` gives them."""
    return Verdicts(*(None if column is None else np.array(column) for column in v))


def plain(value) -> bool:
    """Whether a summary value is built of Python values only, no numpy scalar."""
    if isinstance(value, (dict, list)):
        return all(map(plain, value.values() if isinstance(value, dict) else value))
    return type(value) in (int, float, bool, str, type(None))


# made-up slacks of one stack: its smallest slack -0.0, tied with 0.0 after it,
# or more failures than the fold keeps, with passing rows on both sides
FOLD_STACKS = {"signed-zero-tie": [0.5, -0.0, 0.0, 1e-9, -0.0, 0.25],
               "failure-cap": [0.1, 0.2, *[-1e-3 * i for i in range(1, 25)], 0.0]}


@pytest.mark.parametrize("slacks", FOLD_STACKS.values(), ids=FOLD_STACKS)
@pytest.mark.parametrize("case_id", ["op-2.10", "hs-2.14", "young-1.1"])
def test_the_fold_reads_list_and_array_columns_alike(case_id, slacks):
    case = CASES[case_id]
    links = getattr(case, "links", ())  # a scalar case has none
    hs, k = case.kind == "hs", len(slacks)
    v = Verdicts(slacks, [s >= -CERT_PSD_TOL for s in slacks],
                 [t % max(1, len(links)) for t in range(k)], [slacks] * max(1, len(links)),
                 # advisory rows that pass and that fail, and oracle errors past ORACLE_TOL
                 [t % 3 == 1 for t in range(k)] if hs else None,
                 [2e-10 if t % 4 == 0 else 1e-13 for t in range(k)] if hs else None)
    trials = list(range(10, 10 + k))
    aggs = []
    for columns in (v, as_arrays(v)):
        agg = runner._Agg()
        agg.fold_stack(trials, columns, links)
        agg.write_digests(lambda t: {"case": case_id, "trial": t})
        aggs.append(agg)
    # the dataclass repr shows every field, and numpy scalars as np.float64(...)
    assert repr(aggs[1]) == repr(aggs[0])
    summary = aggs[1].summary(case)
    assert plain(summary)
    first = slacks.index(min(slacks))
    assert (repr(summary["min_slack"]), summary["argmin"]) == (
        repr(slacks[first]), {"case": case_id, "trial": trials[first]})
    kept = summary["failure_digests"]
    assert all(("worst_link" in entry) == bool(links) for entry in kept)
    if len(slacks) > len(FOLD_STACKS["signed-zero-tie"]):
        assert summary["failures"] > len(kept) == runner.FAILURE_CAP
        if hs:
            assert summary["advisory_trials"] > summary["advisory_held"] > 0
            assert summary["oracle_violations"] > 0
    else:
        assert summary["min_slack"] == 0.0 and math.copysign(1.0, summary["min_slack"]) < 0


@pytest.mark.parametrize("case_id", ["hs-2.13", "op-2.10"])
def test_a_sweep_writes_a_digest_per_dim_and_per_kept_trial(monkeypatch, case_id):
    written = []
    make = runner.make_digest
    monkeypatch.setattr(runner, "make_digest",
                        lambda cid, cfg, t: written.append(t) or make(cid, cfg, t))
    cfg = RunConfig(trials=300, dims=(2, 3, 1, 3))  # one chunk, one stack per dim
    summary = run_case(case_id, cfg)
    kept = [f["digest"]["trial"] for f in summary["failure_digests"]]
    assert len(kept) == (runner.FAILURE_CAP if summary["failures"] else 0)
    argmin = summary["argmin"]["trial"]
    # the template of each dim (trials 0, 1 and 2), then each kept trial once
    assert written == [0, 1, 2] + kept + ([] if argmin in kept else [argmin])


# inputs past the range of floats: matrices drawn not finite (op), and hs sides
# that turn nan through overflow (1e200) and through underflow (1e-160)
NOT_FINITE = {"op-overflow": ("op-2.7-right", "explicit:1e308", 0),
              "hs-overflow": ("hs-2.14", "explicit:1e200", 1),
              "hs-underflow": ("hs-cor", "explicit:1e-160", 1)}


@pytest.mark.parametrize("case_id, law, trial", NOT_FINITE.values(), ids=NOT_FINITE)
def test_certifying_inputs_past_floats_raises_without_a_warning(case_id, law, trial):
    """A library caller gets replay's DomainError; the suite makes any RuntimeWarning
    an error, so a warning on the way would fail here instead."""
    digest = make_digest(case_id, RunConfig(dims=(2,), law=law), trial)
    with pytest.raises(DomainError) as replayed:
        run_trial(digest, CERT_PSD_TOL)
    got = inputs(digest)
    case = CASES[case_id]
    with pytest.raises(DomainError) as direct:
        if case.kind == "operator":
            opmeans.certify_operator(case, got["A"], got["B"], got["nu"])
        else:
            hsnorm.certify_hs(case, got["A"], got["B"], got["X"], got["nu"],
                              oracle=got["oracle"])
    assert str(direct.value) == str(replayed.value)


def _changed(case_id, drop=None, **changes):
    digest = {**make_digest(case_id, RunConfig(dims=(3,)), 1), **changes}
    digest.pop(drop, None)
    return digest


BAD_DIGESTS = {
    "dim-float": _changed("hs-2.14", dim=3.7),
    "dim-bool": _changed("hs-2.14", dim=True),
    "dim-zero": _changed("hs-2.14", dim=0),
    "seed-float": _changed("hs-2.14", seed=1.0),
    "nu-string": _changed("hs-2.14", nu="0.25"),
    "complex-string": _changed("hs-2.14", complex="no"),
    "law-unknown": _changed("hs-2.14", law="nope:1"),
    "x-kind-missing": _changed("hs-2.14", drop="x_kind"),
    "x-kind-psd": _changed("hs-2.14", x_kind="psd"),
    "kind-wrong": _changed("hs-2.14", kind="operator"),
    "field-unknown": _changed("op-2.3", x_knid="pd"),
    "w-law-missing": _changed("op-2.7-left", drop="w_law"),
    "structure-wrong": _changed("op-2.7-left", structure="general-pd"),
    "case-missing": {"kind": "operator"},
}


@pytest.mark.parametrize("digest", BAD_DIGESTS.values(), ids=BAD_DIGESTS)
def test_inputs_rejects_what_replay_rejects(digest):
    with pytest.raises(DomainError) as replayed:
        runner.replay_trial(digest)
    with pytest.raises(DomainError) as built:
        inputs(digest)
    assert str(built.value) == str(replayed.value)


def test_inputs_of_a_scalar_digest_is_an_error():
    with pytest.raises(DomainError, match="scalar case"):
        inputs(runner.scalar_digest("young-1.1", 4.0, 1.0, 0.25))


def test_hs_stack_is_certified_in_one_call(monkeypatch):
    sizes = []
    judge = hsnorm.judge_hs

    def spy(case, A, B, X, nu, **kwargs):
        sizes.append((np.shape(A), len(nu)))
        return judge(case, A, B, X, nu, **kwargs)

    monkeypatch.setattr(hsnorm, "judge_hs", spy)
    run_case("hs-cor", RunConfig(trials=20, dims=(3, 1)))
    assert sizes == [((10, 3, 3), 10), ((10, 1, 1), 10)]


def test_stack_budget_of_one_row_keeps_the_report(tmp_path, monkeypatch):
    def report(name):
        out = tmp_path / name
        rc = main(["matrix-verify", "--case", "all", "--trials", "120", "--seed", "5",
                   "--out", str(out)])
        with open(out, encoding="utf-8") as fh:
            return rc, canonical_json(strip_volatile(json.load(fh)))

    stacked = report("stacked.json")
    monkeypatch.setattr(runner, "STACK_BUDGET", 1)
    assert report("one-row.json") == stacked


def test_large_dim_group_is_split_under_the_budget(monkeypatch):
    sizes, held = [], [0]
    draw, build = runner.draw_stack, runner.build_inputs

    def draw_spy(stack):
        held.append(held[-1] + len(stack.trials))  # trials drawn and not yet built
        return draw(stack)

    def build_spy(stack, columns):
        sizes.append(len(stack.trials))
        held.append(held[-1] - len(stack.trials))
        return build(stack, columns)

    monkeypatch.setattr(runner, "draw_stack", draw_spy)
    monkeypatch.setattr(runner, "build_inputs", build_spy)
    cfg = RunConfig(trials=20, dims=(4, 1))
    whole = run_case("op-2.10", cfg)
    assert sizes == [10, 10]
    sizes.clear()
    held[:] = [0]
    monkeypatch.setattr(runner, "STACK_BUDGET", 3 * 4 * 4 + 5)  # three 4x4 matrices
    assert run_case("op-2.10", cfg) == whole
    assert sorted(sizes) == [1, 3, 3, 3, 10]  # the dim-1 stack stays whole
    assert max(held) <= 3 + 10  # no more than one stack per dim is ever held


def test_draw_error_names_the_first_trial_that_fails(capsys):
    # trial 0 (dim 2) draws two values; trial 1 (dim 1) cannot
    assert main(["matrix-verify", "--case", "op-2.3", "--trials", "6",
                 "--law", "explicit:1,2", "--dim", "2,1"]) == 2
    digest = make_digest("op-2.3", RunConfig(trials=6, law="explicit:1,2", dims=(2, 1)), 1)
    assert capsys.readouterr().err == (
        "error: case op-2.3 trial 1: explicit law lists 2 values but dim=1; "
        f"digest: {json.dumps(digest, sort_keys=True)}\n")


def patch_rows(monkeypatch, change):
    """Let ``change(inputs, row, digest)`` edit the built inputs of every trial."""
    build = runner.build_inputs

    def patched(stack, draws):
        inputs = build(stack, draws)
        for row in range(len(stack.trials)):
            change(inputs, row, row_digest(stack, row))
        return inputs

    monkeypatch.setattr(runner, "build_inputs", patched)


def test_stack_error_names_the_lowest_trial_that_fails_alone(monkeypatch):
    def change(inputs, row, digest):
        if digest["trial"] == 7:  # fails late: X = A^-1/2 B A^-1/2 is negative definite
            inputs["B"][row] = -inputs["B"][row]
        if digest["trial"] == 12:  # fails at the first stage: A is not finite
            inputs["A"][row, 0, 0] = np.nan

    patch_rows(monkeypatch, change)
    cfg = RunConfig(trials=20, dims=(3,))  # one stack, trial 7 is its row 7
    digest = make_digest("op-2.3", cfg, 7)
    with pytest.raises(DomainError) as alone:
        run_trial(digest, cfg.tol)
    assert "the base of t**" in str(alone.value)
    with pytest.raises(DomainError) as sweep:
        run_case("op-2.3", cfg)
    assert str(sweep.value) == (f"case op-2.3 trial 7: {alone.value}; "
                                f"digest: {json.dumps(digest, sort_keys=True)}")


def test_a_stack_that_raises_where_no_trial_alone_does_folds_each_trial_alone(monkeypatch):
    # a stack builds X = A^-1/2 B A^-1/2 for every pair once any weight is interior,
    # so trial 0's singular A makes its stack raise; alone, at nu = 0, it takes A
    # and B exactly and passes.  The fallback then folds every trial's own verdicts.
    def change(inputs, row, digest):
        if digest["trial"] == 0:
            inputs["A"][row] = np.diag([1.0, 0.0])
            inputs["B"][row] = inputs["A"][row] + np.eye(2)

    patch_rows(monkeypatch, change)
    cfg, case = RunConfig(trials=33, dims=(2,)), CASES["op-2.7-refine"]
    [stack] = runner._chunk_stacks(case.case_id, cfg, 0, cfg.trials)
    with pytest.raises(DomainError, match=r"eigenvalue 0\.000000e\+00 blocks t\*\*-0\.5"):
        runner._certify(case, stack, cfg.tol)
    digests = [make_digest(case.case_id, cfg, t) for t in range(cfg.trials)]
    assert digests[0]["nu"] == 0.0 and run_trial(digests[0], cfg.tol).passed
    fallbacks = []
    alone = runner._alone
    monkeypatch.setattr(runner, "_alone",
                        lambda ds, tol: fallbacks.append(len(ds)) or alone(ds, tol))
    summary = run_case(case.case_id, cfg)
    assert fallbacks == [cfg.trials]
    assert (summary["passed"], summary["failures"], summary["passes"]) == (True, 0, 33)
    each = [runner._certify(case, runner.Stack.of([d]), cfg.tol) for d in digests]
    assert repr(summary) == repr(folded_in_trial_order(case, digests, each))


def test_zero_imaginary_matrix_stays_in_its_complex_stack(monkeypatch):
    def change(inputs, row, digest):
        if digest["trial"] % 4 == 1:  # a complex matrix with no imaginary part
            inputs["A"][row] = inputs["A"][row].real

    patch_rows(monkeypatch, change)
    cfg = RunConfig(trials=16, dims=(2,), complex_entries=True)
    stacks = []
    certify = runner._certify
    monkeypatch.setattr(runner, "_certify",
                        lambda case, stack, *a, **kw: stacks.append(len(stack.trials))
                        or certify(case, stack, *a, **kw))
    assert_sweep_equals_run_trial(monkeypatch, "op-2.10", cfg)
    assert stacks == [16]  # one stack; its records and run_trial's are not judged here


# Python-level calls a trial adds to a sweep's stack: (calls(26) - calls(1)) / 25
# for runner._certify, which gives a stack's Verdicts, on stacks of trials 0..25
# and of trial 0 alone, at dim 3, on CPython 3.11 (where a comprehension is a
# call of its own).  What remains per trial is its weight's check, one per
# distinct nu (three calls, and these 26 trials hold 26 nu), and the share of a
# stack's calls that depends on its mix of nu; the chain coefficients are
# computed once per stack, and no record is built.  A helper called per trial in
# the draw or verdict loops shows here as a count, where a timing could not tell it.
CALLS_PER_TRIAL = {
    "op-2.10": 4.52, "op-2.3": 3.12, "op-2.5": 3.56, "op-2.6": 3.56, "op-2.7-left": 5.2,
    "op-2.7-refine": 5.2, "op-2.7-right": 5.08, "op-heron-zhao": 4.04,
    "hs-2.13": 3.04, "hs-2.14": 3.4, "hs-cor": 3.4, "hs-thm8": 3.88,
}


def python_calls(run, c_methods=()) -> int:
    """Python-level calls (sys.setprofile "call" events) of ``run()``, or its
    calls of the C functions and methods named in ``c_methods`` ("c_call"
    events), after a first run has filled the caches it reads."""
    run()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if c_methods:
            calls += event == "c_call" and getattr(arg, "__name__", None) in c_methods
        else:
            calls += event == "call"

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def verdict_calls(case, digests) -> int:
    """``python_calls`` of runner._certify on the stack of ``digests``, less the
    one call of the counted function itself."""
    stack = runner.Stack.of(digests)
    return python_calls(lambda: runner._certify(case, stack, CERT_PSD_TOL)) - 1


@pytest.mark.parametrize("case_id", OPERATOR + HS)
def test_python_calls_per_trial_stay_bounded(case_id):
    digests = [make_digest(case_id, RunConfig(dims=(3,)), t) for t in range(26)]
    case = CASES[case_id]
    per_trial = (verdict_calls(case, digests) - verdict_calls(case, digests[:1])) / 25
    assert per_trial <= CALLS_PER_TRIAL[case_id]


# Python-level calls of replay's record path, runner.run_trial, on one digest
# (trial 5 at dim 3), a stack of one, counted with every weight and exponent a
# (k,) array inside the package, each power deciding its exponents once, and
# each LAPACK call going through linalg.lapack, past numpy.linalg's wrappers,
# and each reduction a ufunc's own, past the Python wrappers of ndarray.min,
# .max, .all, .any and .sum.  Every replay is a stack of one, so this count
# shows a rise in its fixed cost that a noisy host hides in the timings.
CALLS_PER_STACK_OF_ONE = {
    "op-2.10": 142, "op-2.3": 121, "op-2.5": 107, "op-2.6": 107, "op-2.7-left": 124,
    "op-2.7-refine": 123, "op-2.7-right": 121, "op-heron-zhao": 119,
    "hs-2.13": 151, "hs-2.14": 151, "hs-cor": 157, "hs-thm8": 151,
}
# The tolist and reshape calls of the same run, which sys.setprofile reports as
# "c_call" events and the count above leaves out.  A power turns its exponents
# into Python floats and their set once, and raises its spectrum in the shape
# it has; going through tolist/set again below Powers.pow_rows, or reshaping
# the spectrum there and back, shows here.
ROUND_TRIPS_PER_STACK_OF_ONE = {
    "op-2.10": 22, "op-2.3": 15, "op-2.5": 12, "op-2.6": 12, "op-2.7-left": 18,
    "op-2.7-refine": 17, "op-2.7-right": 18, "op-heron-zhao": 14,
    "hs-2.13": 21, "hs-2.14": 18, "hs-cor": 20, "hs-thm8": 19,
}


@pytest.mark.parametrize("case_id", OPERATOR + HS)
def test_python_calls_of_a_stack_of_one_stay_bounded(case_id):
    digest = make_digest(case_id, RunConfig(dims=(3,)), 5)

    def replay():
        run_trial(digest, CERT_PSD_TOL)

    assert python_calls(replay) - 1 <= CALLS_PER_STACK_OF_ONE[case_id]
    assert python_calls(replay, ("tolist", "reshape")) <= ROUND_TRIPS_PER_STACK_OF_ONE[case_id]


@pytest.mark.parametrize("case_id", OPERATOR + HS)
def test_each_distinct_weight_is_checked_once(monkeypatch, case_id):
    # check_nu checks each distinct nu once, in order of first appearance, and
    # the gaps of an operator chain take the unchecked kernels of the means
    digests = [make_digest(case_id, RunConfig(dims=(2,)), t) for t in range(40)]
    built = runner.Stack.of(digests)
    stack = runner.build_inputs(built, runner.draw_stack(built))
    seen = []
    check = scalar.check_unit
    monkeypatch.setattr(scalar, "check_unit", lambda name, t: seen.append(t) or check(name, t))
    # and the chains of both take the unchecked kernels of their blocks
    monkeypatch.setattr(opmeans, "checked_weight", None)
    monkeypatch.setattr(hsnorm, "checked_weight", None)
    case = CASES[case_id]
    if case.kind == "operator":
        opmeans.certify_operator(case, stack["A"], stack["B"], stack["nu"])
    else:
        hsnorm.certify_hs(case, stack["A"], stack["B"], stack["X"], stack["nu"],
                          oracle=stack["oracle"] if "oracle" in stack else None)
    assert seen == list(dict.fromkeys(stack["nu"]))
    assert len(seen) < len(digests)


# Every entry that takes a stack's weights, with the name its weights go by:
# each reads them through scalar.stack_weights, so all name a fault alike.
WEIGHT_ENTRIES = {
    "PairContext.nabla": ("nu", lambda A, B, X, nu: opmeans.PairContext(A, B).nabla(nu)),
    "PairContext.geom": ("nu", lambda A, B, X, nu: opmeans.PairContext(A, B).geom(nu)),
    "PairContext.heinz": ("nu", lambda A, B, X, nu: opmeans.PairContext(A, B).heinz(nu)),
    "PairContext.heron": ("alpha", lambda A, B, X, nu: opmeans.PairContext(A, B).heron(nu)),
    "HsContext.heinz_block": ("nu", lambda A, B, X, nu: hsnorm.HsContext(A, B, X).heinz_block(nu)),
    "judge_operator": ("nu", lambda A, B, X, nu: opmeans.judge_operator(
        CASES["op-2.3"], *(m if m.ndim == 3 else m[None] for m in (A, B)), nu)),
    "judge_hs": ("nu", lambda A, B, X, nu: hsnorm.judge_hs(
        CASES["hs-2.14"], *(m if m.ndim == 3 else m[None] for m in (A, B, X)), nu)),
    "certify_operator": ("nu", lambda A, B, X, nu: opmeans.certify_operator(
        CASES["op-2.3"], A, B, nu)),
    "certify_hs": ("nu", lambda A, B, X, nu: hsnorm.certify_hs(CASES["hs-2.14"], A, B, X, nu)),
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRIES))
def test_every_entry_names_a_bad_weight_before_a_wrong_count(entry, k):
    # positive definite A, B and X, in every case's domain; k = 1 is one
    # matrix, which the judges take as the stack of one
    rows = [inputs(make_digest("hs-2.14", RunConfig(dims=(3,)), t)) for t in range(k)]
    A, B, X = (np.stack([row[key] for row in rows]) for key in ("A", "B", "X"))
    if k == 1:
        A, B, X = A[0], B[0], X[0]
    name, run = WEIGHT_ENTRIES[entry]
    with pytest.raises(DomainError) as bad:
        run(A, B, X, [0.5, 2.0])  # a weight outside [0, 1], and a count of 2
    assert str(bad.value) == f"{name}=2.0 outside [0, 1]"
    with pytest.raises(DomainError) as count:
        run(A, B, X, [0.5, 0.25])
    assert str(count.value) == f"{name} has 2 values for a stack of {k}"


# The functions that may branch on the shape of their input: the public entries
# that take one matrix or one float and add or drop the stack axis once, the two
# judges, which refuse one matrix, the check of outside input, and scalar's
# float/array namespace, where one formula serves a float and an array alike.  Below them every function takes a stack
# (k, n, n) and a (k,) float array of weights.
SHAPE_ENTRIES = {
    "linalg.validate_hermitian", "linalg.is_psd",
    "opmeans.PairContext.__init__", "opmeans.certify_operator", "opmeans.judge_operator",
    "hsnorm.HsContext.__init__", "hsnorm.certify_hs", "hsnorm.judge_hs",
    "scalar._pow", "scalar._sqrt", "scalar._where",
}


def shape_branches(sources: dict[str, str], allowed=()) -> list[str]:
    """``module.function: expression`` of each ``isinstance(..., np.ndarray)``,
    ``np.ndim(...)`` or comparison of an ``.ndim`` in a function or method of
    ``sources`` (module name -> source) that ``allowed`` does not name."""
    found = []
    for module, source in sources.items():
        units = []
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                units.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                units += [(f"{module}.{node.name}.{f.name}", f) for f in node.body
                          if isinstance(f, ast.FunctionDef)]
        for name, unit in units:
            if name in allowed:
                continue
            for n in ast.walk(unit):
                if (isinstance(n, ast.Call) and ast.unparse(n.func) == "isinstance"
                        and "ndarray" in ast.unparse(n.args[-1])
                        or isinstance(n, ast.Call) and ast.unparse(n.func) == "np.ndim"
                        or isinstance(n, ast.Compare)
                        and any(isinstance(x, ast.Attribute) and x.attr == "ndim"
                                for x in [n.left, *n.comparators])):
                    found.append(f"{name}: {ast.unparse(n)}")
    return found


def test_the_scan_sees_a_shape_branch():
    source = ("def entry(M):\n    return M[None] if M.ndim == 2 else M\n"
              "def inner(nu):\n    return nu if isinstance(nu, np.ndarray) else [nu]\n"
              "class C:\n    def f(self, t):\n        return np.ndim(t) == 0\n"
              "    def g(self, M):\n        return 3 > M.ndim\n"
              "    def h(self, M):\n        return M.reshape(M.ndim * (1,))\n")
    assert shape_branches({"m": source}, allowed={"m.entry"}) == [
        "m.inner: isinstance(nu, np.ndarray)", "m.C.f: np.ndim(t)", "m.C.g: 3 > M.ndim"]


def test_only_the_public_entries_branch_on_shape():
    sources = {m.__name__.rsplit(".", 1)[-1]: pathlib.Path(m.__file__).read_text(encoding="utf-8")
               for m in (linalg, opmeans, hsnorm, scalar)}
    assert shape_branches(sources, SHAPE_ENTRIES) == []
    # and each entry named still branches, so the list names no more than it must
    assert {hit.split(":")[0] for hit in shape_branches(sources)} == SHAPE_ENTRIES
