import numpy as np
import pytest
from operator_cells import CELLS

from meancert import scalar
from meancert.hsnorm import certify_hs
from meancert.linalg import DomainError, Powers, is_psd
from meancert.opmeans import (OperatorCase, PairContext, certify_operator, geom,
                              judge_operator, registry)
from meancert.runner import RunConfig, case_by_id, inputs, make_digest

ALL_IDS = {"op-2.3", "op-2.5", "op-2.6", "op-2.7-left", "op-2.7-right",
           "op-2.7-refine", "op-2.10", "op-heron-zhao"}


def pair(seed, dim=4, complex_entries=False, case="op-2.3", trial=0,
         law="log-uniform:0.1:10.0"):
    """(A, B) of one trial of ``case``, rebuilt from its digest."""
    cfg = RunConfig(dims=(dim,), law=law, seed=seed, complex_entries=complex_entries)
    got = inputs(make_digest(case, cfg, trial))
    return got["A"], got["B"]


def gaps_of(case, ctx, nu):
    """A case's gaps on the stack of one of a pair's context, at one weight, each (n, n)."""
    return [gap[0] for gap in case.gaps(ctx, np.array([nu]))]


def rel_close(x, y, tol):
    norm = np.linalg.norm
    return norm(x - y, 2) <= tol * max(1.0, norm(x, 2), norm(y, 2))


class TestMeans:
    def test_geom_boundaries_exact(self):
        a, b = pair(0)
        assert np.array_equal(geom(a, b, 0.0), a)
        assert np.array_equal(geom(a, b, 1.0), b)

    def test_geom_identity_left_gives_power(self):
        _, b = pair(1)
        for nu in (0.25, 0.5, 0.75):
            assert rel_close(geom(np.eye(4), b, nu), Powers(b).pow(nu), 1e-12)

    def test_geom_scalars_commute(self):
        # commuting pair: geometric mean reduces to eigenvalue formula
        a = np.diag([1.0, 4.0])
        b = np.diag([9.0, 16.0])
        got = geom(a, b, 0.25)
        want = np.diag([1.0 ** 0.75 * 9.0 ** 0.25, 4.0 ** 0.75 * 16.0 ** 0.25])
        assert np.allclose(got, want, rtol=1e-13)

    def test_swap_identity(self):
        a, b = pair(2)
        for nu in (0.0, 0.125, 0.5, 0.9, 1.0):
            assert rel_close(geom(a, b, nu), geom(b, a, 1.0 - nu), 1e-9)

    def test_congruence_invariance(self):
        a, b = pair(3)
        s = np.triu(np.ones((4, 4))) + np.eye(4)
        lhs = s @ geom(a, b, 0.3) @ s.conj().T
        rhs = geom(s @ a @ s.conj().T, s @ b @ s.conj().T, 0.3)
        assert rel_close(lhs, rhs, 1e-8)

    def test_geom_nabla_ordering(self):
        a, b = pair(4)
        for nu in (0.2, 0.5, 0.8):
            assert is_psd(PairContext(a, b).nabla(nu) - geom(a, b, nu), 1e-8).ok

    def test_heinz_symmetric(self):
        a, b = pair(5)
        ctx = PairContext(a, b)
        assert np.allclose(ctx.heinz(0.2), ctx.heinz(0.8), atol=1e-12)

    def test_heron_endpoints(self):
        a, b = pair(6)
        ctx = PairContext(a, b)
        assert np.array_equal(ctx.heron(1.0), PairContext(a, b).nabla(0.5))
        assert np.allclose(ctx.heron(0.0), geom(a, b, 0.5))

    def test_heinz_half_is_geom(self):
        a, b = pair(7)
        assert np.array_equal(PairContext(a, b).heinz(0.5), geom(a, b, 0.5))

    def test_complex_pair(self):
        a, b = pair(8, complex_entries=True)
        g = geom(a, b, 0.5)
        assert np.allclose(g, g.conj().T)
        assert is_psd(PairContext(a, b).nabla(0.5) - g, 1e-8).ok

    def test_domain_errors(self):
        a, b = pair(9)
        with pytest.raises(DomainError):
            geom(a, b, 1.5)
        with pytest.raises(DomainError):
            PairContext(a, b).heron(-0.2)
        with pytest.raises(DomainError):
            geom(np.diag([1.0, -1.0]), b, 0.5)  # A must be PD
        with pytest.raises(DomainError):
            PairContext(a, np.eye(3))  # shape mismatch


class TestRegistry:
    def test_ids(self):
        assert {c.case_id for c in registry()} == ALL_IDS

    def test_ordered_flags(self):
        assert case_by_id("op-2.7-left").requires_ordered
        assert case_by_id("op-2.7-right").requires_ordered
        assert not case_by_id("op-2.7-refine").requires_ordered

    def test_unknown_id(self):
        with pytest.raises(DomainError, match="op-2.3"):
            case_by_id("op-9.9")


class TestGapStructure:
    def test_op23_at_nu_one_is_twice_arith_minus_geom(self):
        a, b = pair(10)
        ctx = PairContext(a, b)
        (gap,) = gaps_of(case_by_id("op-2.3"), ctx, 1.0)
        want = 2.0 * (ctx.nabla(0.5) - ctx.geom(0.5))
        assert np.allclose(gap, want, atol=1e-10 * np.linalg.norm(want, 2))

    def test_op210_collapses_at_half(self):
        a, b = pair(11)
        ctx = PairContext(a, b)
        for gap in gaps_of(case_by_id("op-2.10"), ctx, 0.5):
            assert np.linalg.norm(gap, 2) == 0.0

    def test_diagonal_gaps_match_scalar_cells(self):
        # commuting case: each link's gap eigenvalues are the scalar slacks
        lams = np.array([0.5, 2.0, 7.0])
        mus = np.array([1.5, 3.0, 9.0])  # elementwise >= lams for ordered cases
        ctx = PairContext(np.diag(lams), np.diag(mus))
        for case in registry():
            nu = 0.3125 if case.in_domain(0.3125) else 0.5
            gaps = gaps_of(case, ctx, nu)
            for k, gap in enumerate(gaps):
                got = np.diag(gap)
                want = [CELLS[case.case_id](la, mu, nu)[k] for la, mu in zip(lams, mus)]
                assert np.allclose(got, want, rtol=1e-10, atol=1e-12), case.case_id
                off = gap - np.diag(np.diag(gap))
                assert np.linalg.norm(off, 2) <= 1e-10 * max(1.0, np.linalg.norm(gap, 2))


class TestCoefficientBinding:
    def test_patching_a_scalar_helper_moves_every_chain_that_reads_it(self, monkeypatch):
        # each coefficient helper is looked up through the scalar module, on every route
        hs = inputs(make_digest("hs-2.13", RunConfig(dims=(3,), seed=20), 0))
        a, b, x = hs["A"], hs["B"], hs["X"]

        def reads():
            t = certify_hs(case_by_id("hs-2.13"), a, b, x, 0.25)
            return (scalar.evaluate(case_by_id("new-2.1"), 2.0, 3.0, 0.25).sides,
                    gaps_of(case_by_id("op-2.3"), PairContext(a, b), 0.25)[0],
                    t.sides, t.oracle_sides)

        before = reads()
        weight = scalar.heinz_weight
        monkeypatch.setattr(scalar, "heinz_weight", lambda nu: 2.0 * weight(nu))
        for name, was, now in zip(["new-2.1", "op-2.3", "hs direct", "hs oracle"],
                                  before, reads(), strict=True):
            assert not np.array_equal(was, now), name


class TestCertify:
    def test_passes_random_pair(self):
        a, b = pair(12)
        t = certify_operator(case_by_id("op-2.3"), a, b, 0.5)
        assert t.passed and t.min_slack > -1e-8
        assert t.links[0].name == "main"

    def test_witness_attains_lam_min(self):
        a, b = pair(13)
        case = case_by_id("op-2.10")
        t = certify_operator(case, a, b, 0.25)
        ctx = PairContext(a, b)
        idx = case.links.index(t.worst_link)
        gap = gaps_of(case, ctx, 0.25)[idx]
        w = t.witness
        assert np.linalg.norm(w) == pytest.approx(1.0)
        lam = float(np.real(w.conj() @ gap @ w))
        assert lam == pytest.approx(t.links[idx].lam_min, abs=1e-10)

    def test_nu_domain_error_names_range(self):
        a, b = pair(14)
        with pytest.raises(DomainError, match="0 < nu <= 1"):
            certify_operator(case_by_id("op-2.3"), a, b, 0.0)

    def test_ordered_requirement_enforced(self):
        with pytest.raises(DomainError, match="Loewner"):
            certify_operator(case_by_id("op-2.7-left"),
                             2.0 * np.eye(3), np.eye(3), 0.5)

    def test_ordered_pair_accepted(self):
        a, b = pair(15, case="op-2.7-left")
        for cid in ("op-2.7-left", "op-2.7-right", "op-2.7-refine"):
            assert certify_operator(case_by_id(cid), a, b, 0.375).passed

    def test_boundary_equality_at_a_equals_b(self):
        a, _ = pair(16, dim=3)
        t = certify_operator(case_by_id("op-2.7-left"), a, a.copy(), 0.5)
        assert t.passed
        assert abs(t.min_slack) < 1e-10

    def test_deterministic(self):
        a, b = pair(17)
        t1 = certify_operator(case_by_id("op-2.6"), a, b, 0.25)
        t2 = certify_operator(case_by_id("op-2.6"), a, b, 0.25)
        assert t1.min_slack == t2.min_slack
        assert t1.links == t2.links

    # one gap each whose normalized slack lam_min / scale lands on -tol's last bit:
    # just below it, then exactly at it
    @pytest.mark.parametrize("diag, slack", [
        ((-2.2953345904918222e-06, 229.5334590491822), -1.0000000000000002e-08),
        ((-5.704293345425039e-06, 570.4293345425039), -1e-08),
    ], ids=["below", "at"])
    def test_a_verdict_agrees_with_its_slack_at_the_tolerance(self, diag, slack):
        tol, gap = 1e-8, np.diag(diag)
        res = is_psd(gap, tol)
        assert (res.lam_min / res.scale, res.ok) == (slack, slack >= -tol)
        case = OperatorCase("op-x", "one fixed gap", "0 <= G", "0 <= nu <= 1", False,
                            "general-pd", ("main",), lambda ctx, nu: (gap[None],))
        eye = np.eye(2)[None]
        v, _ = judge_operator(case, eye, eye, 0.5, tol)
        assert (v.min_slack, v.passed) == ([slack], [slack >= -tol])
        t = certify_operator(case, eye[0], eye[0], 0.5, tol)
        assert (t.min_slack, t.passed, t.links[0].ok) == (slack, slack >= -tol, slack >= -tol)

    def test_all_true_cases_pass_spot_check(self):
        # each case on its own trial: an ordered pair for every op-2.7 variant
        for case in registry():
            a, b = pair(18, dim=5, case=case.case_id, trial=3, law="log-uniform:0.01:100.0")
            for nu in (0.03125, 0.5, 1.0):
                if case.in_domain(nu):
                    t = certify_operator(case, a, b, nu)
                    assert t.passed, (case.case_id, nu, t.min_slack)


class TestStacks:
    def test_the_judge_takes_stacks_only(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        B = np.diag([3.0, 1.0])
        case = case_by_id("op-2.3")
        got = judge_operator(case, A[None], B[None], 0.5)[0]
        rec = certify_operator(case, A, B, 0.5)
        assert got.min_slack == [rec.min_slack] == [0.4775922500725171]
        assert got.slacks == [[lc.slack] for lc in rec.links]
        with pytest.raises(DomainError) as exc:
            judge_operator(case, A, B, 0.5)
        assert str(exc.value) == "judge_operator takes stacks (k, n, n), got A of shape (2, 2)"

    def test_certify_over_a_stack_equals_each_pair_alone(self):
        pairs = [pair(19, dim=3, case="op-2.7-left", trial=t, law="log-uniform:0.01:100.0")
                 for t in range(6)]
        A, B = np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs])
        nus = [0.0, 0.25, 1.0, 0.5, 0.03125, 0.25]
        for case in registry():
            ok = [nu for nu in nus if case.in_domain(nu)]
            got = certify_operator(case, A[:len(ok)], B[:len(ok)], ok)
            for (a, b), nu, trial in zip(pairs, ok, got):
                one = certify_operator(case, a, b, nu)
                assert repr(trial.links) == repr(one.links), case.case_id
                assert trial.witness.tobytes() == one.witness.tobytes()

    def test_stacked_gaps_equal_the_gaps_of_each_pair(self):
        # one weight per pair: coefficients such as nu**(nu - 2) and the
        # spectral powers must round as they do for one pair and a float nu
        nus = np.array(scalar.NU_GRID_33)
        pairs = [pair(22, dim=3, case="op-2.7-left", trial=t, law="log-uniform:0.01:100.0")
                 for t in range(len(nus))]
        for case in registry():
            keep = [i for i, nu in enumerate(nus) if case.in_domain(nu)]
            ctx = PairContext(np.stack([pairs[i][0] for i in keep]),
                              np.stack([pairs[i][1] for i in keep]))
            gaps = case.gaps(ctx, nus[keep])
            for row, i in enumerate(keep):
                alone = gaps_of(case, PairContext(*pairs[i]), float(nus[i]))
                for gap, one in zip(gaps, alone, strict=True):
                    assert gap[row].tobytes() == one.tobytes(), (case.case_id, nus[i])

    @pytest.mark.parametrize("case_id", ["op-2.3", "op-2.5", "op-2.6", "hs-2.13"])
    def test_a_weight_whose_coefficient_overflows_reads_as_that_weight_alone(self, case_id):
        # nu**(nu - 2) at nu = 1e-160 is past the range of floats
        case = case_by_id(case_id)
        cfg = RunConfig(dims=(3,), seed=26)
        trials = [inputs(make_digest(case_id, cfg, t)) for t in range(3)]
        def certify(rows, nu):
            A, B = (np.stack([trials[r][key] for r in rows]) for key in "AB")
            if case.kind == "operator":
                return certify_operator(case, A, B, nu)
            return certify_hs(case, A, B, np.stack([trials[r]["X"] for r in rows]), nu)
        with pytest.raises(DomainError) as one:
            certify([1], [1e-160])
        with pytest.raises(DomainError) as many:
            certify([0, 1, 2], [0.5, 1e-160, 1e-300])
        assert str(many.value) == str(one.value)
        assert str(one.value).startswith("heinz_weight is not finite at nu=1e-160; ")

    @pytest.mark.parametrize("cx", [False, True])
    def test_every_gap_and_x_is_exactly_hermitian(self, cx):
        # certify_operator checks only the finiteness of X = A^-1/2 B A^-1/2, of
        # B - A and of each gap, which holds them Hermitian to the last bit
        nus = np.array(scalar.NU_GRID_33)
        pairs = [pair(25, dim=4, complex_entries=cx, case="op-2.7-left", trial=t,
                      law="log-uniform:0.001:1000.0") for t in range(len(nus))]
        for case in registry():
            keep = [i for i, nu in enumerate(nus) if case.in_domain(nu)]
            ctx = PairContext(np.stack([pairs[i][0] for i in keep]),
                              np.stack([pairs[i][1] for i in keep]))
            for w in (nus[keep], np.full(len(keep), nus[keep[1]])):
                for m in (*case.gaps(ctx, w), ctx._x().matrix, ctx.B - ctx.A):
                    assert np.array_equal(m, m.conj().swapaxes(-1, -2)), case.case_id

    def test_weights_per_pair(self):
        a, b = pair(20)
        c, d = pair(21)
        ctx = PairContext(np.stack([a, c]), np.stack([b, d]))
        g = ctx.geom(np.array([0.0, 0.375]))
        assert np.array_equal(g[0], a)
        assert np.array_equal(g[1], PairContext(c, d).geom(0.375))
        h = ctx.heinz(np.array([0.25, 1.0]))
        assert np.array_equal(h[0], PairContext(a, b).heinz(0.25))
        assert np.array_equal(h[1], PairContext(c, d).heinz(1.0))
        with pytest.raises(DomainError, match="nu=1.5"):
            ctx.geom(np.array([0.5, 1.5]))

    @pytest.mark.parametrize("bad", [1.5, -0.25, 1.0000000000000002, -5e-324,
                                     float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("row", [0, 2])
    def test_a_bad_weight_in_a_stack_reads_as_that_weight_alone(self, bad, row):
        pairs = [pair(24 + t) for t in range(3)]
        ctx = PairContext(np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs]))
        weights = np.array([0.25, 0.5, 0.75])
        weights[row] = bad
        if row == 0:
            weights[2] = 2.0  # a later bad weight is not the one reported
        for name, stacked, alone in (("nabla", ctx.nabla, PairContext(*pairs[row]).nabla),
                                     ("geom", ctx.geom, PairContext(*pairs[row]).geom),
                                     ("heinz", ctx.heinz, PairContext(*pairs[row]).heinz),
                                     ("heron", ctx.heron, PairContext(*pairs[row]).heron)):
            with pytest.raises(DomainError) as one:
                alone(bad)
            with pytest.raises(DomainError) as many:
                stacked(weights)
            assert str(many.value) == str(one.value), name

    @pytest.mark.parametrize("nus", [[0.25, 0.5], [0.5, 0.5], [0.25, 0.5, 0.75, 1.0]])
    @pytest.mark.parametrize("case_id", ["op-2.3", "op-2.7-refine"])
    def test_certify_takes_one_nu_per_pair(self, case_id, nus):
        # a shared nu given for fewer pairs than the stack holds is an error,
        # not a shorter list of trials
        pairs = [pair(26, case="op-2.7-left", trial=t) for t in range(3)]
        A, B = (np.stack(m) for m in zip(*pairs))
        with pytest.raises(DomainError) as exc:
            certify_operator(case_by_id(case_id), A, B, nus)
        assert str(exc.value) == f"nu has {len(nus)} values for a stack of 3"

    @pytest.mark.parametrize("nu", [0.5, [0.5], np.float64(0.5), np.array(0.5)],
                             ids=["float", "list-of-one", "numpy-float", "0-d-array"])
    @pytest.mark.parametrize("case_id", ["op-2.3", "op-2.10"])
    def test_certify_takes_one_nu_for_every_pair(self, case_id, nu):
        # as a mean of PairContext takes it: for a stack, and for one pair
        pairs = [pair(26, case="op-2.7-left", trial=t) for t in range(3)]
        A, B = (np.stack(m) for m in zip(*pairs))
        case = case_by_id(case_id)
        want = certify_operator(case, A, B, [0.5] * 3)
        assert repr(certify_operator(case, A, B, nu)) == repr(want)
        assert repr(certify_operator(case, *pairs[1], nu)) == repr(want[1])
        with pytest.raises(DomainError) as exc:
            certify_operator(case, *pairs[1], [0.5, 0.5])
        assert str(exc.value) == "nu has 2 values for a stack of 1"

    @pytest.mark.parametrize("weights", [[0.25, 0.5], [0.25, 0.5, 0.75, 1.0]])
    def test_a_mean_takes_one_weight_or_one_per_pair(self, weights):
        pairs = [pair(27 + t) for t in range(3)]
        ctx = PairContext(*(np.stack(m) for m in zip(*pairs)))
        for mean in (ctx.nabla, ctx.geom, ctx.heinz, ctx.heron):
            with pytest.raises(DomainError) as exc:
                mean(weights)
            assert str(exc.value).endswith(f" has {len(weights)} values for a stack of 3")
            assert mean([0.25]).tobytes() == mean(0.25).tobytes()

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.71875, 1.0])
    def test_equal_weights_per_pair_are_one_weight(self, nu):
        # the per-pair path takes each distinct weight once, as a float, and
        # puts back A and B exactly at 0 and 1
        pairs = [pair(23, case="op-2.7-left", trial=t) for t in range(8)]
        ctx = PairContext(np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs]))
        assert ctx.geom(np.full(8, nu)).tobytes() == ctx.geom(nu).tobytes()
        assert ctx.heinz(np.full(8, nu)).tobytes() == ctx.heinz(nu).tobytes()
