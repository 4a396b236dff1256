import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meancert.linalg import DomainError
from meancert.runner import case_by_id
from meancert.scalar import (NU_GRID_33, NU_GRID_65, alpha_of_nu, evaluate, heinz, heron,
                             judge_chain, registry, weighted_arith, weighted_geom)

ALL_IDS = {
    "young-1.1", "km-1.3", "km-1.4", "zw-1.5", "zw-1.6", "kai-1.9",
    "kai-1.10", "bk-1.11", "bk-1.12", "cf-1.13", "heinz-1.14", "heron-1.15",
    "km-heinz-1.16", "zj-1.17", "bhatia-heron", "new-2.1", "comb-2.11",
    "comb-2.12",
}

pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestMeans:
    def test_weighted_geom_exact(self):
        assert weighted_geom(4.0, 1.0, 0.5) == 2.0
        assert weighted_geom(8.0, 2.0, 0.5) == pytest.approx(4.0, rel=1e-15)

    def test_weighted_arith_exact(self):
        assert weighted_arith(4.0, 1.0, 0.25) == 1.75

    def test_heinz_closed_form(self):
        # (9^(1/4) 4^(3/4) + 9^(3/4) 4^(1/4))/2 = (2 sqrt6 + 3 sqrt6)/2
        assert heinz(9.0, 4.0, 0.25) == pytest.approx(5.0 * math.sqrt(6.0) / 2.0,
                                                      rel=1e-15)

    def test_heinz_endpoints(self):
        assert heinz(4.0, 1.0, 0.5) == pytest.approx(2.0, rel=1e-15)
        assert heinz(4.0, 1.0, 1.0) == 2.5

    def test_heinz_symmetry_exact_on_grid(self):
        for nu in NU_GRID_33:
            assert heinz(3.7, 0.2, nu) == heinz(3.7, 0.2, 1.0 - nu)

    def test_heron_endpoints(self):
        assert heron(4.0, 1.0, 0.0) == 2.0
        assert heron(4.0, 1.0, 1.0) == 2.5

    def test_alpha_of_nu(self):
        assert alpha_of_nu(0.0) == 1.0
        assert alpha_of_nu(0.5) == 0.0
        assert alpha_of_nu(1.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            weighted_geom(-1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            weighted_geom(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            heinz(1.0, 2.0, 1.5)
        with pytest.raises(DomainError):
            heron(1.0, 2.0, -0.1)

    @given(pos, pos, unit)
    @settings(max_examples=200, deadline=None)
    def test_heinz_between_geometric_and_arithmetic(self, a, b, nu):
        h = heinz(a, b, nu)
        scale = max(1.0, a, b)
        assert math.sqrt(a * b) - 1e-12 * scale <= h <= (a + b) / 2 + 1e-12 * scale

    @given(pos, pos, unit)
    @settings(max_examples=200, deadline=None)
    def test_young(self, a, b, nu):
        g, m = weighted_geom(a, b, nu), weighted_arith(a, b, nu)
        assert g <= m + 1e-12 * max(1.0, g, m)


class TestRegistry:
    def test_exactly_these_cases(self):
        assert {c.case_id for c in registry()} == ALL_IDS
        assert len(registry()) == 18

    def test_lookup_roundtrip(self):
        for case in registry():
            assert case_by_id(case.case_id) is case

    def test_unknown_id_lists_known(self):
        with pytest.raises(DomainError, match="young-1.1"):
            case_by_id("nope")

    def test_every_case_has_formula_and_domain(self):
        for case in registry():
            assert case.formula and case.description and case.nu_domain
            assert case.in_domain(0.5) or case.case_id in ("zw-1.5", "zw-1.6")


class TestEvaluate:
    def test_frozen_young_point(self):
        t = evaluate(case_by_id("young-1.1"), 4.0, 1.0, 0.25)
        assert t.sides == (pytest.approx(math.sqrt(2.0), rel=1e-15), 1.75)
        assert t.slacks[0] == pytest.approx(1.75 - math.sqrt(2.0), rel=1e-14)
        assert t.passed

    def test_equality_point_passes(self):
        t = evaluate(case_by_id("young-1.1"), 3.0, 3.0, 0.5)
        assert t.passed
        assert t.min_slack == pytest.approx(0.0, abs=1e-15)

    def test_out_of_domain_raises(self):
        with pytest.raises(DomainError, match="zw-1.5"):
            evaluate(case_by_id("zw-1.5"), 1.0, 2.0, 0.75)
        with pytest.raises(DomainError, match="new-2.1"):
            evaluate(case_by_id("new-2.1"), 1.0, 2.0, 0.0)

    def test_judge_chain_slacks_and_first_worst_link(self):
        raws, norms, worst = judge_chain((0.5, 0.25, 4.0, 2.0))
        assert raws == [-0.25, 3.75, -2.0]
        # below unit scale the slack is raw; above, it is relative to the larger side
        assert norms == [-0.25, 0.9375, -0.5]
        assert worst == 2
        # ties go to the first link
        assert judge_chain((1.0, 0.0, 1.0, 0.0))[2] == 0

    def test_judge_chain_rejects_what_is_not_finite(self):
        with pytest.raises(DomainError, match="side 1 of op-x is nan"):
            judge_chain((1.0, math.nan, 2.0), "op-x")
        # finite sides whose difference overflows
        with pytest.raises(DomainError, match="slack of link 0 of op-x is inf"):
            judge_chain((-1e308, 1e308), "op-x")

    @given(pos, pos, st.sampled_from(NU_GRID_65))
    @settings(max_examples=300, deadline=None)
    def test_all_chains_hold(self, a, b, nu):
        for case in registry():
            if case.in_domain(nu):
                assert evaluate(case, a, b, nu).passed, (case.case_id, a, b, nu)


# Independent high-precision restatements of a few representative chains.
# These are written directly from the inequality statements, not by calling
# the module, so they cross-check the float implementation.

def _mp_sides(case_id, a, b, nu):
    a, b, nu = mp.mpf(a), mp.mpf(b), mp.mpf(nu)
    one = mp.mpf(1)
    sq = (mp.sqrt(a) - mp.sqrt(b)) ** 2
    hz = lambda v: (a ** v * b ** (one - v) + a ** (one - v) * b ** v) / 2
    if case_id == "young-1.1":
        return [a ** nu * b ** (one - nu), nu * a + (one - nu) * b]
    if case_id == "zw-1.5":
        g = a ** (one - nu) * b ** nu
        mid = (one - nu) * a + nu * b
        q = (a * b) ** mp.mpf("0.25")
        r1 = min(2 * nu, one - 2 * nu)
        return [g + nu * sq + r1 * (q - mp.sqrt(a)) ** 2, mid,
                g + (one - nu) * sq - r1 * (q - mp.sqrt(b)) ** 2]
    if case_id == "kai-1.9":
        return [(nu ** 2 * a) ** nu * b ** (one - nu) + nu ** 2 * sq,
                nu ** 2 * a + (one - nu) ** 2 * b]
    if case_id == "new-2.1":
        return [(one - nu ** 2 + nu ** 3) * a + (one - nu ** 2) * b,
                nu ** (nu - 2) * a ** nu * b ** (one - nu) + sq]
    if case_id == "comb-2.12":
        r, R = min(nu, one - nu), max(nu, one - nu)
        am, gm = (a + b) / 2, mp.sqrt(a * b)
        rr = r ** (2 * r) if r > 0 else one
        RR = R ** (2 * R)
        return [rr * hz(nu) + (2 * r - one) * am, 2 * r * r * gm,
                2 * R * R * gm, RR * hz(nu) + (2 * R - one) * am]
    raise KeyError(case_id)


MP_POINTS = [
    ("young-1.1", 4.0, 1.0, 0.25),
    ("young-1.1", 0.015625, 64.0, 0.8125),
    ("zw-1.5", 8.0, 0.015625, 0.25),
    ("zw-1.5", 2.0, 3.0, 0.46875),
    ("kai-1.9", 100.0, 0.01, 0.375),
    ("new-2.1", 4.0, 1.0, 0.5),
    ("new-2.1", 0.125, 32.0, 0.96875),
    ("comb-2.12", 5.0, 0.2, 0.15625),
    ("comb-2.12", 1.0, 2.0, 0.5),
]


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("case_id,a,b,nu", MP_POINTS)
    def test_sides_match_extended_precision(self, case_id, a, b, nu):
        with mp.workdps(50):
            want = _mp_sides(case_id, a, b, nu)
            got = evaluate(case_by_id(case_id), a, b, nu).sides
            assert len(want) == len(got)
            for w, g in zip(want, got):
                assert abs(mp.mpf(g) - w) <= mp.mpf("1e-13") * max(1, abs(w))

    @pytest.mark.parametrize("case_id,a,b,nu", MP_POINTS)
    def test_chain_monotone_in_extended_precision(self, case_id, a, b, nu):
        with mp.workdps(50):
            want = _mp_sides(case_id, a, b, nu)
            for lo, hi in zip(want, want[1:]):
                assert lo <= hi + mp.mpf("1e-45")

