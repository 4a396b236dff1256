import ast
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_judge import judge_chain, judge_point
from meancert.linalg import DomainError
from meancert.runner import case_by_id, run_scalar_case
from meancert import scalar
from meancert.scalar import (A_GRID_13, NU_GRID_33, NU_GRID_65, SCALAR_TOL, ScalarCase,
                             alpha_of_nu, evaluate, heinz, heron, judge_chains, judge_grid,
                             registry, weighted_arith, weighted_geom)

ALL_IDS = {
    "young-1.1", "km-1.3", "km-1.4", "zw-1.5", "zw-1.6", "kai-1.9",
    "kai-1.10", "bk-1.11", "bk-1.12", "cf-1.13", "heinz-1.14", "heron-1.15",
    "km-heinz-1.16", "zj-1.17", "bhatia-heron", "new-2.1", "comb-2.11",
    "comb-2.12",
}

# magnitude grids other than A_GRID_13, seeded: uniform on [1e-3, 1e3], and log-normal
# with sigma 5 (about 1e-6 to 1e6)
WIDE_GRIDS = {
    "uniform": tuple(np.random.default_rng(0).uniform(1e-3, 1e3, 6).tolist()),
    "log-normal": tuple(np.exp(np.random.default_rng(1).normal(0.0, 5.0, 6)).tolist()),
}
# the domain endpoints, zj-1.17's branch points 1/4 and 3/4, and random weights
WIDE_NUS = (0.0, 0.25, 0.5, 0.75, 1.0, *np.random.default_rng(2).uniform(0.0, 1.0, 6).tolist())

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
        # two chains, given link-major: one row per side, one column per chain
        raws, norms, worst = judge_chains(np.array([(0.5, 0.25, 4.0, 2.0),
                                                    (1.0, 0.0, 1.0, 0.0)]).T, "op-x")
        assert raws[:, 0].tolist() == [-0.25, 3.75, -2.0]
        # below unit scale the slack is raw; above, it is relative to the larger side
        assert norms[:, 0].tolist() == [-0.25, 0.9375, -0.5]
        # ties go to the first link
        assert worst.tolist() == [2, 0]

    def test_judge_chain_rejects_what_is_not_finite(self):
        with pytest.raises(DomainError, match="side 1 of op-x is nan"):
            judge_chains(np.array([(1.0, 2.0, 3.0), (1.0, math.nan, 2.0)]).T, "op-x")
        # finite sides whose difference overflows
        with pytest.raises(DomainError, match="slack of link 0 of op-x is inf"):
            judge_chains(np.array([(-1e308, 1e308)]).T, "op-x")

    @given(pos, pos, st.sampled_from(NU_GRID_65))
    @settings(max_examples=300, deadline=None)
    def test_all_chains_hold(self, a, b, nu):
        for case in registry():
            if case.in_domain(nu):
                assert evaluate(case, a, b, nu).passed, (case.case_id, a, b, nu)


def hexes(values):
    return [float(v).hex() for v in values]


def assert_judged_as_reference(sides, raws, norms, worst, who="op-x"):
    """Each chain (column) of a link-major judgement equals the per-point
    reference, bit for bit, and so does its smallest slack read at its worst link."""
    mins = norms[worst, np.arange(len(worst))]
    for col, (s, r, n, w, least) in enumerate(zip(sides.T.tolist(), raws.T.tolist(),
                                                  norms.T.tolist(), worst.tolist(), mins)):
        ref_raws, ref_norms, ref_worst = judge_chain(s, who)
        assert ((hexes(r), hexes(n), w, least.hex())
                == (hexes(ref_raws), hexes(ref_norms), ref_worst, ref_norms[ref_worst].hex())), col


def reference_error(sides, who="op-x"):
    with pytest.raises(DomainError) as exc:
        judge_chain(sides, who)
    return str(exc.value)


# stacks of chains of 2, 3 and 4 sides; in each, the second chain holds a tie
# (an equality for 2 sides), the third 0.0 against -0.0 (a tie of its own), the
# fourth only sides below unit size
HAND_ROWS = [
    [(0.5, 0.25), (3.0, 3.0), (0.0, -0.0), (0.25, -0.75), (-1e308, 0.0), (7.0, 2.0)],
    [(0.5, 0.25, 4.0), (1.0, 0.0, -1.0), (-0.0, 0.0, -0.0), (0.3, 0.1, 0.2),
     (5e-324, 0.0, 1e-300), (2.0, 1.0, 2.0)],
    [(0.5, 0.25, 4.0, 2.0), (1.0, 0.0, 1.0, 0.0), (0.0, -0.0, 0.0, -0.0),
     (0.9, -0.9, 0.5, -0.1), (1e300, 1e300, 1e300, 1e300), (-3.0, 4.0, -3.0, 4.0)],
]


class TestStackedJudge:
    """``judge_chains`` judges a stack as the per-point reference judges each row."""

    @pytest.mark.parametrize("case_id", sorted(ALL_IDS))
    def test_every_grid_row_matches_the_reference(self, case_id):
        case = case_by_id(case_id)
        pairs = [(a, b) for a in A_GRID_13 for b in A_GRID_13]
        for nu in filter(case.in_domain, NU_GRID_65):
            trials = [evaluate(case, a, b, nu) for a, b in pairs]
            ref = [tuple(map(float, case.sides(a, b, nu))) for a, b in pairs]
            assert [hexes(t.sides) for t in trials] == [hexes(s) for s in ref]
            sides = np.array(ref).T
            raws, norms, worst = judge_chains(sides, case_id)
            assert [hexes(t.slacks) for t in trials] == [hexes(r) for r in raws.T.tolist()]
            assert_judged_as_reference(sides, raws, norms, worst, case_id)

    @pytest.mark.parametrize("rows", HAND_ROWS, ids=["2-sides", "3-sides", "4-sides"])
    def test_hand_rows_match_the_reference(self, rows):
        sides = np.array(rows).T
        assert_judged_as_reference(sides, *judge_chains(sides, "op-x"))

    def test_stacks_of_one_and_of_thousands_match_the_reference(self):
        # chains of 4 sides whose links tie, 0.0 against -0.0 too, across links 0
        # and 2 (link 1 above them), each way round, then seeded chains of small
        # integers with zeros of either sign, so that most chains hold a tie
        ties = [(0.0, -0.0, 1.0, 1.0), (-0.0, 0.0, 1.0, 1.0), (-1.0, -1.0, 0.0, -0.0),
                (2.0, 2.0, 3.0, 3.0), (0.0, -0.0, 1.0, 0.5), (1.0, 0.0, 1.0, 0.0)]
        rng = np.random.default_rng(3)
        drawn = rng.integers(-2, 3, (4099, 4)).astype(float)
        drawn[(drawn == 0.0) & (rng.random(drawn.shape) < 0.5)] = -0.0
        chains = np.concatenate([np.array(ties), drawn])
        assert len(chains) >= 4096
        sides = chains.T.copy()
        assert_judged_as_reference(sides, *judge_chains(sides, "op-x"))
        for chain in chains[:200]:
            one = chain[:, None].copy()
            assert_judged_as_reference(one, *judge_chains(one, "op-x"))

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_side_not_finite_at_each_position(self, m, bad):
        for pos in range(m):
            row = [float(i) for i in range(m)]
            row[pos] = bad
            later = [math.nan] * m  # a later chain's error never comes first
            with pytest.raises(DomainError) as exc:
                judge_chains(np.array([list(range(m)), row, later], dtype=float).T, "op-x")
            assert str(exc.value) == reference_error(row)
            assert f"side {pos} of op-x is {bad!r}" in str(exc.value)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_slack_not_finite_at_each_link(self, m):
        for link in range(m - 1):
            # finite sides whose difference at ``link`` overflows
            row = [-1e308] * (link + 1) + [1e308] * (m - link - 1)
            with pytest.raises(DomainError) as exc:
                judge_chains(np.array([[0.0] * m, row]).T, "op-x")
            assert str(exc.value) == reference_error(row)
            assert f"the slack of link {link} of op-x is inf" in str(exc.value)

    def test_the_error_is_the_first_failing_points(self):
        # a * b is inf past the range of floats, and b ** (2 nu) is past it at
        # (1, 1e200, 1), where float ** raises and an array holds inf; both grids
        # pass at (1, 1), and each error names its point
        case = ScalarCase("t", "d", "f", "0 <= nu <= 1",
                          lambda a, b, v: (a * b, scalar._pow(b, 2.0 * v)))
        grid = ([1.0, 1e300], [1.0, 1e10, 1e200])
        inf_side = r"^side 0 of t at a=1e\+300, b=10000000000\.0, nu=0\.5 is inf, "
        overflow = r"^side 1 of t at a=1\.0, b=1e\+200, nu=1\.0 is inf, "
        for nus, first in (([0.5, 1.0], inf_side), ([1.0, 0.5], overflow)):
            with pytest.raises(DomainError, match=first):
                judge_grid(case, nus, *grid)
        with pytest.raises(DomainError, match=inf_side):
            evaluate(case, 1e300, 1e10, 0.5)
        with pytest.raises(DomainError, match=overflow):
            evaluate(case, 1.0, 1e200, 1.0)

    @pytest.mark.parametrize("case_id", sorted(ALL_IDS))
    def test_the_grid_names_the_point_that_evaluate_names_first(self, case_id):
        # past the range of floats a power is inf on arrays where float ** raises;
        # a chain that hid one (behind a min, a where or a divisor) would let the
        # grid pass a point that the float reference refuses, or name a later one.
        # On this grid cf-1.13 and new-2.1 overflow as floats, five chains reach an
        # inf or nan side and the rest pass.
        case = case_by_id(case_id)
        mags = (1e-300, 1.0, 1e160, 1e300)
        nus = [nu for nu in (1e-300, 0.25, 0.5, 1.0) if case.in_domain(nu)]
        failures = []  # (point, error) wherever the float reference fails
        for nu in nus:
            for a in mags:
                for b in mags:
                    try:
                        judge_point(case, a, b, nu)
                    except DomainError as exc:
                        failures.append(((a, b, nu), str(exc)))
        try:
            judge_grid(case, nus, mags, mags)
            grid = None
        except DomainError as exc:
            grid = str(exc)
        if not failures:
            assert grid is None
            return
        (a, b, nu), ref = failures[0]
        at = f" of {case_id} at a={a!r}, b={b!r}, nu={nu!r} is "
        assert at in grid
        if not ref.startswith("a side of"):  # not finite as floats too: the same words
            assert grid == ref.replace(f" of {case_id} is ", at)
        with pytest.raises(DomainError) as exc:  # and evaluate, the one-point grid, agrees
            evaluate(case, a, b, nu)
        assert str(exc.value) == grid


def assert_same_bits(got, want):
    assert [(g.dtype, g.shape, g.tobytes()) for g in got] == [
        (w.dtype, w.shape, w.tobytes()) for w in want]


class TestGridPass:
    """``judge_grid`` reads each chain on broadcast arrays bit for bit as
    ``case.sides`` reads it on Python floats, and judges it as ``judge_chains``."""

    @pytest.mark.parametrize("grid", [A_GRID_13, *WIDE_GRIDS.values()],
                             ids=["a-grid-13", *WIDE_GRIDS])
    @pytest.mark.parametrize("case_id", sorted(ALL_IDS))
    def test_grid_equals_its_rows(self, case_id, grid):
        case = case_by_id(case_id)
        nus = [nu for nu in (*NU_GRID_65, *WIDE_NUS) if case.in_domain(nu)]
        sides = np.array([case.sides(a, b, nu) for nu in nus for a in grid for b in grid]).T
        raws, norms, worst = judge_chains(sides, case_id)
        mins = np.array([col[w] for col, w in zip(norms.T.tolist(), worst.tolist())])
        v, got = judge_grid(case, nus, grid, grid)
        assert_same_bits([*got, v.slacks, v.worst_link, v.min_slack, v.passed],
                         [sides, raws, norms, worst, mins, mins >= -SCALAR_TOL])
        assert (v.advisory, v.oracle_rel_err) == (None, None)

    def test_slacks_are_contiguous_link_rows(self):
        case = case_by_id("comb-2.12")
        v, (sides, raws) = judge_grid(case, NU_GRID_65, A_GRID_13, A_GRID_13)
        points = len(NU_GRID_65) * len(A_GRID_13) ** 2
        assert [(x.shape, x.flags.c_contiguous) for x in (v.slacks, sides, raws)] == [
            ((3, points), True), ((4, points), True), ((3, points), True)]

    @pytest.mark.parametrize("helper", [scalar.heinz_weight, scalar.cubic_weight,
                                        scalar.cubic_side_weights, scalar.tail_weights])
    def test_coefficient_helpers_read_arrays_as_floats(self, helper):
        nus = [nu for nu in (*NU_GRID_65, *WIDE_NUS) if nu > 0.0]  # nu**(nu - 2) needs nu > 0
        floats = [helper(nu) for nu in nus]
        got = helper(np.array(nus).reshape(-1, 1, 1))
        if not isinstance(got, tuple):
            floats, got = [(f,) for f in floats], (got,)
        assert {type(v) for f in floats for v in f} == {float}
        assert_same_bits([g.ravel() for g in got], [np.array(col) for col in zip(*floats)])

    def test_pow_takes_float_pow_on_each_element(self):
        x = np.array(WIDE_GRIDS["log-normal"]).reshape(-1, 1)
        y = np.array(WIDE_NUS)
        want = np.array([[p ** q for q in WIDE_NUS] for p in x.ravel().tolist()])
        assert_same_bits([scalar._pow(x, y)], [want])
        assert scalar._pow(2.0, 0.5) == 2.0 ** 0.5
        # where float ** raises, an array holds C's pow: inf past the range of floats
        # and for 0 to a negative power; where it gives a complex number, nan
        with pytest.raises(OverflowError):
            scalar._pow(1e200, 2)
        with pytest.raises(ZeroDivisionError):
            scalar._pow(0.0, -2.0)
        assert isinstance(scalar._pow(-2.0, 0.5), complex)
        assert_same_bits([scalar._pow(np.array([1.0, 1e200]), 2),
                          scalar._pow(np.array([2.0, 0.0]), -2.0)],
                         [np.array([1.0, math.inf]), np.array([0.25, math.inf])])
        got = scalar._pow(np.array([4.0, -2.0]), 0.5)
        assert got[0] == 2.0 and math.isnan(got[1])
        x = [math.nan, math.inf, 2.0, math.inf, -math.inf, 1.0]
        y = [2.0, -1.0, math.nan, 0.5, 3.0, math.inf]
        assert_same_bits([scalar._pow(np.array(x), np.array(y))],
                         [np.array([p ** q for p, q in zip(x, y)])])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(min_value=1e-100, max_value=1e100),
                              st.floats(min_value=-3.0, max_value=3.0)), min_size=1, max_size=40),
           st.lists(st.tuples(st.floats(min_value=-1e100, max_value=-1e-100),
                              st.sampled_from([2, 3])), max_size=40))
    def test_pow_has_the_bits_of_float_pow(self, positive, negative):
        # np.float_power's float64 loop is the C library's pow, as float ** is; a numpy
        # that gives it a loop of its own (as np.power has) fails here
        x, y = (np.array(col, dtype=float) for col in zip(*positive, *negative))
        want = np.array([p ** q for p, q in zip(x.tolist(), y.tolist())])
        assert_same_bits([scalar._pow(x, y)], [want])

    def test_pow_has_the_bits_of_float_pow_on_a_sweeps_grid(self, monkeypatch):
        pairs, pow_ = [], scalar._pow
        def spy(x, y):
            if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                pairs.append([c.ravel() for c in np.broadcast_arrays(x, y)])
            return pow_(x, y)
        monkeypatch.setattr(scalar, "_pow", spy)
        for case in registry():
            run_scalar_case(case.case_id)
        x, y = (np.concatenate(col) for col in zip(*pairs))
        # new-2.1's nu**(nu - 2) at nu = 21/32, which np.power rounds differently
        assert ((x == 0.65625) & (y == -1.34375)).any()
        want = np.array([p ** q for p, q in zip(x.tolist(), y.tolist())])
        assert_same_bits([pow_(x, y)], [want])

    def test_min_max_and_where_keep_pythons_rules(self):
        # ties of 0.0 and -0.0, and NaN, go as Python's min and max take them
        x, y = [0.0, -0.0, 1.0, math.nan, 2.0], [-0.0, 0.0, math.nan, 1.0, 1.0]
        for op, ref in ((scalar._min, min), (scalar._max, max)):
            want = hexes([ref(p, q) for p, q in zip(x, y)])
            assert hexes(op(np.array(x), np.array(y))) == want
            assert hexes([op(p, q) for p, q in zip(x, y)]) == want
        assert scalar._where(True, 1.0, 2.0) == 1.0
        assert scalar._where(np.array([True, False]), 1.0, 2.0).tolist() == [1.0, 2.0]


# the only functions of scalar.py that may take float ``**`` and math.sqrt themselves
EXACT_HELPERS = {"_pow", "_sqrt"}


def inexact_ops(source: str) -> list[str]:
    """``line: expression`` of each ``**``, ``math.sqrt``, ``np.power``,
    ``np.float_power``, ``pow``, ``min`` or ``max`` in a function or lambda of
    ``source`` other than the exact helpers: on arrays each would round
    differently from floats, or fail."""
    tree = ast.parse(source)
    def inside(pick):
        return {id(n) for f in ast.walk(tree) if pick(f) for n in ast.walk(f)}
    scanned = (inside(lambda f: isinstance(f, (ast.FunctionDef, ast.Lambda)))
               - inside(lambda f: isinstance(f, ast.FunctionDef) and f.name in EXACT_HELPERS))
    found = []
    for node in ast.walk(tree):
        if id(node) not in scanned:
            continue
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
                or isinstance(node, ast.Attribute)
                and ast.unparse(node) in ("math.sqrt", "np.power", "numpy.power",
                                          "np.float_power", "numpy.float_power")
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("min", "max", "pow")):
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"{line}: {text}" for line, _, text in sorted(found)]


def test_the_scan_sees_an_inexact_op():
    source = ("GRID = [2.0 ** k for k in range(3)]\n"
              "def _pow(x, y):\n    return x ** y\n"
              "def _sqrt(x):\n    return math.sqrt(x)\n"
              "def side(a, b, v):\n    v **= 2\n    return a ** v, math.sqrt(a), min(a, b)\n"
              "side2 = lambda a, b: max(a, b) + np.power(a, b)\n"
              "side3 = lambda a, b: np.float_power(a, b) * numpy.float_power(b, a)\n")
    assert inexact_ops(source) == ["7: v **= 2", "8: a ** v", "8: math.sqrt",
                                   "8: min(a, b)", "9: max(a, b)", "9: np.power",
                                   "10: np.float_power", "10: numpy.float_power"]


def test_sides_and_coefficients_take_exact_ops_only():
    assert inexact_ops(pathlib.Path(scalar.__file__).read_text(encoding="utf-8")) == []


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

