"""End-to-end acceptance checks for the certification stack.

Each test pins one shipped guarantee at its stated tolerance and budget:
the exhaustive scalar grid, the full-scale randomized operator and norm
suites, cross-route oracle agreement, scalar/matrix verdict coincidence
on commuting inputs, structural identities, non-dominance witnesses, and
byte-level report determinism.

Two registered norm chains (hs-2.13 link "hinge", hs-thm8 link "lower")
are violated on genuine inputs; the certifier's job is to find and report
that, so the literal zero-failure checks for those two cases are marked
xfail(strict=True) and a companion test proves the counterexamples are
real at extended precision.
"""
import csv
import json
import math
import re
import time

import mpmath
import numpy as np
import pytest
from operator_cells import CELLS

from meancert import hsnorm, opmeans, scalar
from meancert.cli import main
from meancert.report import canonical_json, strip_volatile
from meancert.runner import (DEFAULT_DIMS, RunConfig, case_by_id, inputs, make_digest,
                             run_matrix_suite, run_scalar_case)

OP_IDS = [c.case_id for c in opmeans.registry()]
HS_IDS = [c.case_id for c in hsnorm.registry()]
SCALAR_IDS = [c.case_id for c in scalar.registry()]


def rel_close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


@pytest.fixture(scope="module")
def operator_suite():
    cfg = RunConfig(trials=10000, seed=0)
    t0 = time.perf_counter()
    summaries = run_matrix_suite(OP_IDS, cfg)
    return cfg, summaries, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hs_suite():
    cfg = RunConfig(trials=10000, seed=0)
    t0 = time.perf_counter()
    summaries = run_matrix_suite(HS_IDS, cfg)
    return cfg, summaries, time.perf_counter() - t0


def test_criterion_1_scalar_grid_exhaustive():
    """All 18 scalar chains pass the full 13x13x65 grid at 1e-12 in <10 s."""
    t0 = time.perf_counter()
    summaries = [run_scalar_case(cid, tol=1e-12) for cid in SCALAR_IDS]
    elapsed = time.perf_counter() - t0
    assert len(summaries) == 18
    for s in summaries:
        assert s["failures"] == 0, f"{s['case']}: {s['failure_digests'][:1]}"
        assert s["passed"] is True
        assert s["trials"] + s["skipped"] == 13 * 13 * 65
    assert elapsed < 10.0, f"scalar grid took {elapsed:.2f}s"


def test_criterion_2_equality_structure():
    """new-2.1 slack vanishes at (a, a, 1) and is >1e-6 at (4, 1, 1/2).

    Both values are checked against a 50-digit restatement of the chain.
    """
    case = case_by_id("new-2.1")
    mpmath.mp.dps = 50

    def mp_slack(a, b, nu):
        a, b, nu = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(nu)
        rhs = nu ** (nu - 2) * a ** nu * b ** (1 - nu) + (mpmath.sqrt(a) - mpmath.sqrt(b)) ** 2
        lhs = (1 - nu ** 2 + nu ** 3) * a + (1 - nu ** 2) * b
        return rhs - lhs

    for a in (0.25, 1.0, 3.7, 64.0):
        got = scalar.evaluate(case, a, a, 1.0).slacks[-1]
        assert abs(got) <= 1e-12
        assert abs(float(mp_slack(a, a, 1))) <= 1e-40

    got = scalar.evaluate(case, 4.0, 1.0, 0.5).slacks[-1]
    want = float(mp_slack(4, 1, "0.5"))
    assert got > 1e-6
    assert rel_close(got, want, 1e-12)
    assert rel_close(want, 4.0 * math.sqrt(2.0) - 3.25, 1e-15)


def test_criterion_3_operator_suite(operator_suite):
    """Every Loewner chain passes 10^4 seeded trials in under 2 minutes."""
    cfg, summaries, elapsed = operator_suite
    assert cfg.trials == 10000
    assert cfg.dims == DEFAULT_DIMS == (1, 2, 3, 5, 8)
    assert cfg.law == "log-uniform:0.001:1000.0"  # condition numbers up to 1e6
    assert cfg.tol == 1e-8
    assert [s["case"] for s in summaries] == OP_IDS and len(summaries) == 8
    for s in summaries:
        assert s["trials"] == 10000
        assert s["failures"] == 0, f"{s['case']}: min_slack={s['min_slack']}"
        assert s["passed"] is True
    assert elapsed < 120.0, f"operator suite took {elapsed:.2f}s"


def test_criterion_4_hs_oracle_agreement(hs_suite):
    """Both evaluation routes agree to 1e-10 on every one of 4x10^4 trials,
    and the two chains that are actually true pass them all."""
    cfg, summaries, elapsed = hs_suite
    assert cfg.trials == 10000
    assert [s["case"] for s in summaries] == HS_IDS and len(summaries) == 4
    for s in summaries:
        assert s["trials"] == 10000
        assert s["oracle_violations"] == 0
        assert s["oracle_max_rel_err"] <= 1e-10
    by_id = {s["case"]: s for s in summaries}
    for cid in ("hs-2.14", "hs-cor"):
        assert by_id[cid]["failures"] == 0
        assert by_id[cid]["passed"] is True
    assert elapsed < 120.0, f"hs suite took {elapsed:.2f}s"


@pytest.mark.xfail(strict=True, reason="the hinge link of hs-2.13 is violated "
                   "on genuine inputs; see the companion counterexample test")
def test_criterion_4_literal_hs_2_13(hs_suite):
    _, summaries, _ = hs_suite
    s = {x["case"]: x for x in summaries}["hs-2.13"]
    assert s["failures"] == 0 and s["passed"] is True


@pytest.mark.xfail(strict=True, reason="the lower link of hs-thm8 is violated "
                   "on genuine inputs; see the companion counterexample test")
def test_criterion_4_literal_hs_thm8(hs_suite):
    _, summaries, _ = hs_suite
    s = {x["case"]: x for x in summaries}["hs-thm8"]
    assert s["failures"] == 0 and s["passed"] is True


def test_criterion_4_counterexamples_genuine(hs_suite):
    """The hs-2.13 / hs-thm8 failures are real violations, not tolerance noise.

    Both chains fail on a large fraction of trials, and each has a frozen
    low-dimensional counterexample whose sides are confirmed by exact integer
    arithmetic or a 50-digit recomputation.
    """
    _, summaries, _ = hs_suite
    by_id = {s["case"]: s for s in summaries}
    assert by_id["hs-2.13"]["failures"] > 1000
    assert by_id["hs-thm8"]["failures"] > 1000

    one = np.eye(1)
    # hs-2.13 at (A, B, X, nu) = (4, 1, 1, 1): sides are exactly (5, 3, 13)
    t = hsnorm.certify_hs(case_by_id("hs-2.13"), 4.0 * one, one, one, 1.0)
    assert t.sides == (5.0, 3.0, 13.0)
    assert not t.passed and t.worst_link == "hinge"
    assert t.worst_cell is not None and t.worst_cell[-1] < 0.0
    # integer check: side1 = 1*(2-1)*(4+1) = 5, side2 = |1*5 - 4*2| = 3
    assert 5 > 3

    # hs-thm8 at (4, 1, 1, 0.1): the lower link loses by a wide margin
    t8 = hsnorm.certify_hs(case_by_id("hs-thm8"), 4.0 * one, one, one, 0.1)
    assert not t8.passed and t8.worst_link == "lower"
    mpmath.mp.dps = 50
    r = mpmath.mpf(1) / 10
    h = (mpmath.mpf(4) ** r + mpmath.mpf(4) ** (1 - r)) / 2
    side1 = abs(r ** (2 * r) * h + (2 * r - 1) * mpmath.mpf("2.5"))
    side2 = 2 * r ** 2 * 2
    assert side1 > side2 + mpmath.mpf("0.4")
    assert rel_close(t8.sides[0], float(side1), 1e-12)
    assert rel_close(t8.sides[1], float(side2), 1e-12)


def test_criterion_5_diagonal_equivalence():
    """On commuting (diagonal / 1x1) inputs the matrix verdicts coincide with
    the scalar ones: per-link eigenvalue extremes match the scalar cells, and
    1x1 norm sides match the scalar chain (Heinz blocks carry a factor 2).
    The references are the tests' own: ``operator_cells.CELLS``, which folds
    in the convention swap, and ``_scalar_twin_sides``."""
    rng = np.random.default_rng(20240817)
    mismatches = 0
    op_trials = 0
    for case in opmeans.registry():
        grid = [nu for nu in scalar.NU_GRID_33 if case.in_domain(nu)]
        for _ in range(63):
            dim = int(rng.choice((1, 2, 3, 5)))
            lams = 10.0 ** rng.uniform(-3, 3, dim)
            if case.requires_ordered:
                mus = lams + 10.0 ** rng.uniform(-3, 3, dim)
            else:
                mus = 10.0 ** rng.uniform(-3, 3, dim)
            nu = float(rng.choice(grid))
            trial = opmeans.certify_operator(case, np.diag(lams), np.diag(mus), nu)
            cells = np.array([CELLS[case.case_id](l, m, nu) for l, m in zip(lams, mus)])
            scalar_pass = True
            for j, link in enumerate(trial.links):
                col = cells[:, j]
                scale = max(1.0, float(np.abs(col).max()))
                assert abs(link.lam_min - col.min()) <= 1e-8 * scale
                if col.min() < -1e-8 * scale:
                    scalar_pass = False
            mismatches += trial.passed is not scalar_pass
            op_trials += 1

    hs_trials = 0
    for case in hsnorm.registry():
        grid = [nu for nu in scalar.NU_GRID_33 if case.in_domain(nu)]
        for _ in range(125):
            a, b = 10.0 ** rng.uniform(-3, 3, 2)
            x = float(rng.standard_normal())
            if case.x_kind == "pd":
                x = abs(x)
            nu = float(rng.choice(grid))
            t = hsnorm.certify_hs(case, np.array([[a]]), np.array([[b]]),
                                  np.array([[x]]), nu)
            twin = _scalar_twin_sides(case.case_id, a, b, x, nu)
            assert len(twin) == len(t.sides)
            twin_pass = True
            for i, (s, w) in enumerate(zip(t.sides, twin)):
                assert abs(s - w) <= 1e-10 * max(1.0, s, w)
                if i and (twin[i] - twin[i - 1]) < -1e-8 * max(1.0, twin[i - 1], twin[i]):
                    twin_pass = False
            mismatches += t.passed is not twin_pass
            hs_trials += 1

    assert op_trials + hs_trials == 8 * 63 + 4 * 125  # 1004 >= 10^3
    assert mismatches == 0


def _scalar_twin_sides(case_id, a, b, x, nu):
    """The 1x1 value of each norm side, restated in scalar arithmetic."""
    h = scalar.heinz(a, b, nu)
    g = math.sqrt(a * b)
    ax = abs(x)
    if case_id == "hs-2.13":
        k = nu ** (nu - 2.0)
        return (nu * nu * (2.0 - nu) * (a + b) * ax,
                abs(2.0 * k * h - 4.0 * g) * ax,
                (2.0 * k * h + 4.0 * g) * ax)
    c = nu * (1.0 - nu) / max(a, b)
    d = (a - b) ** 2
    if case_id == "hs-2.14":
        return ((2.0 * h + c * d) * ax, (a + b) * ax)
    if case_id == "hs-cor":
        return (2.0 * h * ax,
                math.sqrt((2.0 * h) ** 2 + (c * d) ** 2) * ax,
                (2.0 * h + c * d) * ax,
                (a + b) * ax)
    if case_id == "hs-thm8":
        r, R = min(nu, 1.0 - nu), max(nu, 1.0 - nu)
        return (abs(r ** (2.0 * r) * h + (2.0 * r - 1.0) * (a + b) / 2.0) * ax,
                2.0 * r * r * g * ax,
                2.0 * R * R * g * ax,
                abs(R ** (2.0 * R) * h + (2.0 * R - 1.0) * (a + b) / 2.0) * ax)
    raise AssertionError(case_id)


def test_criterion_6_geometric_mean_swap_identity():
    """A #_nu B equals B #_(1-nu) A to 1e-9 relative on 10^3 PD pairs.

    The two sides are computed through congruences with different base
    points, so their floating-point agreement degrades with conditioning
    (measured roughly kappa^1.5 * eps: 2e-7 at kappa 1e6, 2e-10 at 1e4,
    6e-12 at 1e3).  Spectra are drawn with kappa <= 1e4 per matrix, the
    harshest law compatible with the 1e-9 bound.
    """
    law = "log-uniform:0.01:100.0"
    worst = 0.0
    for trial in range(1000):
        dim = DEFAULT_DIMS[trial % len(DEFAULT_DIMS)]
        cx = trial % 3 == 0
        got = inputs(make_digest("op-2.3", RunConfig(seed=314, dims=(dim,), law=law,
                                                     complex_entries=cx), trial))
        A, B = got["A"], got["B"]
        fwd = opmeans.PairContext(A, B)
        rev = opmeans.PairContext(B, A)
        for nu in scalar.NU_GRID_33:
            g1 = fwd.geom(nu)
            g2 = rev.geom(1.0 - nu)
            err = np.linalg.norm(g1 - g2, 2) / np.linalg.norm(g1, 2)
            worst = max(worst, err)
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"


def test_criterion_7_chain_collapse_at_half():
    """At nu = 1/2 every four-sided chain degenerates: all sides agree
    pairwise to 1e-10 relative, in scalar, Loewner, and norm form."""
    case = case_by_id("comb-2.12")
    for a in scalar.A_GRID_13:
        for b in scalar.A_GRID_13:
            sides = case.sides(a, b, 0.5)
            assert len(sides) == 4
            for i in range(4):
                for j in range(i + 1, 4):
                    assert rel_close(sides[i], sides[j], 1e-10)

    for k in range(30):
        dim = DEFAULT_DIMS[k % len(DEFAULT_DIMS)]
        got = inputs(make_digest("hs-thm8", RunConfig(seed=7, dims=(dim,),
                                                      complex_entries=k % 2 == 1), k))
        A, B, X = got["A"], got["B"], got["X"]
        ctx = opmeans.PairContext(A, B)
        h, g, n = ctx.heinz(0.5), ctx.geom(0.5), ctx.nabla(0.5)
        sides = (0.5 * h + 0.0 * n, 0.5 * g, 0.5 * g, 0.5 * h + 0.0 * n)
        scale = max(1.0, np.linalg.norm(sides[0], 2))
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(sides[i] - sides[j], 2) <= 1e-10 * scale

        t = hsnorm.certify_hs(case_by_id("hs-thm8"), A, B, X, 0.5)
        for i in range(4):
            for j in range(i + 1, 4):
                assert rel_close(t.sides[i], t.sides[j], 1e-10)


def test_criterion_8_non_dominance_witnesses(tmp_path, capsys):
    """The upper bound of new-2.1 neither dominates nor is dominated by the
    zw-1.5/zw-1.6 pair: gap-profile names a witness in each direction, and
    each witness's final-link slacks, as its CSV holds them, are the ones
    that ``evaluate`` gives."""
    out = tmp_path / "profile.csv"
    assert main(["gap-profile", "--case", "new-2.1,zw-1.5,zw-1.6",
                 "--a", "1", "--b", "2", "--nu-points", "65",
                 "--out", str(out)]) == 0
    notes = re.findall(r"^(\S+) tighter than (\S+) at a=1 b=2 nu=(\S+):",
                       capsys.readouterr().out, re.M)
    with open(out, encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    profile = {float(row[0]): row for row in rows}
    witnesses = set()
    for tighter, looser, nu in notes:
        row = profile[float(nu)]
        upper = {}
        for cid in (tighter, looser):
            last = max(i for i, name in enumerate(header) if name.startswith(f"{cid}:"))
            upper[cid] = float(row[last])
            assert upper[cid] == scalar.evaluate(case_by_id(cid), 1.0, 2.0,
                                                 float(nu)).slacks[-1]
        assert upper[tighter] < upper[looser]
        witnesses.add("new-2.1" if tighter == "new-2.1" else "zw")
    assert witnesses == {"new-2.1", "zw"}


def test_criterion_9_report_determinism(tmp_path):
    """matrix-verify --case all --seed 42 yields byte-identical reports
    (wall time aside) regardless of worker count.

    1100 trials spans three scheduling chunks, so jobs=1 and jobs=2 partition
    the work differently and still must merge to the same bytes; every trial
    is generated from (seed, trial) alone, so byte identity at this size
    exercises the same machinery as any larger run.
    """
    reports = []
    codes = []
    for jobs in ("1", "2"):
        out = tmp_path / f"report-{jobs}.json"
        codes.append(main(["matrix-verify", "--case", "all", "--seed", "42",
                           "--trials", "1100", "--jobs", jobs,
                           "--out", str(out)]))
        with open(out, "r", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    assert codes[0] == codes[1]
    assert reports[0]["wall_time_s"] >= 0.0
    blobs = [canonical_json(strip_volatile(r)) for r in reports]
    assert blobs[0] == blobs[1]
