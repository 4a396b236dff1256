"""The stacked trial kernel: a sweep's records equal single-trial runs bit for bit.

A sweep draws each trial from its own stream, stacks the trials of a chunk
by dim and certifies each stack at once; ``run_trial`` and replay run the
same code on a stack of one.  These tests hold the two to each other,
field by field, and check the error and memory rules of the stacks.
"""
import dataclasses
import json

import numpy as np
import pytest

from meancert import hsnorm, opmeans, runner
from meancert.cli import main
from meancert.linalg import DomainError
from meancert.report import canonical_json, strip_volatile
from meancert.runner import CASES, RunConfig, inputs, make_digest, run_case, run_trial

OPERATOR = [cid for cid, case in CASES.items() if case.kind == "operator"]
HS = [cid for cid, case in CASES.items() if case.kind == "hs"]
LAWS = [{}, {"law": "clustered:1:0.5"}, {"w_law": "explicit:0"}]


def swept(monkeypatch, case_id, cfg):
    """(digest, record) of every trial of a sweep, in the order they are folded."""
    seen = []
    fold = runner._Agg.fold_trial

    def spy(agg, digest, trial_no, rec, kind):
        seen.append((digest, rec))
        fold(agg, digest, trial_no, rec, kind)

    monkeypatch.setattr(runner._Agg, "fold_trial", spy)
    summary = run_case(case_id, cfg)
    monkeypatch.setattr(runner._Agg, "fold_trial", fold)
    assert [d["trial"] for d, _ in seen] == list(range(cfg.trials))
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
    for digest, rec in seen:
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
        assert_same_record(rec, run_trial(digest, cfg.tol, cfg.psd_tol))


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
    certify = hsnorm.certify_hs

    def spy(case, A, B, X, nu, **kwargs):
        sizes.append((np.shape(A), len(nu)))
        return certify(case, A, B, X, nu, **kwargs)

    monkeypatch.setattr(hsnorm, "certify_hs", spy)
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
    draw, build = runner.draw_trial, runner.build_inputs

    def draw_spy(digest):
        held.append(held[-1] + 1)  # trials drawn and not yet built
        return draw(digest)

    def build_spy(digests, draws):
        sizes.append(len(digests))
        held.append(held[-1] - len(digests))
        return build(digests, draws)

    monkeypatch.setattr(runner, "draw_trial", draw_spy)
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

    def patched(digests, draws):
        inputs = build(digests, draws)
        for row, digest in enumerate(digests):
            change(inputs, row, digest)
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
        run_trial(digest, cfg.tol, cfg.psd_tol)
    assert "the base of t**" in str(alone.value)
    with pytest.raises(DomainError) as sweep:
        run_case("op-2.3", cfg)
    assert str(sweep.value) == (f"case op-2.3 trial 7: {alone.value}; "
                                f"digest: {json.dumps(digest, sort_keys=True)}")


def test_zero_imaginary_matrix_stays_in_its_complex_stack(monkeypatch):
    def change(inputs, row, digest):
        if digest["trial"] % 4 == 1:  # a complex matrix with no imaginary part
            inputs["A"][row] = inputs["A"][row].real

    patch_rows(monkeypatch, change)
    cfg = RunConfig(trials=16, dims=(2,), complex_entries=True)
    stacks = []
    certify = runner._certify
    monkeypatch.setattr(runner, "_certify",
                        lambda case, digests, *a: stacks.append(len(digests))
                        or certify(case, digests, *a))
    assert_sweep_equals_run_trial(monkeypatch, "op-2.10", cfg)
    assert stacks == [16] + [1] * 16  # one stack, then only the comparison's run_trial calls
