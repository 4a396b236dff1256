import numpy as np
import pytest

from meancert import scalar
from meancert.linalg import DomainError, Powers, is_psd
from meancert.opmeans import PairContext, certify_operator, geom, registry
from meancert.runner import RunConfig, case_by_id, inputs, make_digest

ALL_IDS = {"op-2.3", "op-2.5", "op-2.6", "op-2.7-left", "op-2.7-right",
           "op-2.7-refine", "op-2.10", "op-heron-zhao"}


def pair(seed, dim=4, complex_entries=False, case="op-2.3", trial=0,
         law="log-uniform:0.1:10.0"):
    """(A, B) of one trial of ``case``, rebuilt from its digest."""
    cfg = RunConfig(dims=(dim,), law=law, seed=seed, complex_entries=complex_entries)
    got = inputs(make_digest(case, cfg, trial))
    return got["A"], got["B"]


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
        (gap,) = case_by_id("op-2.3").gaps(ctx, 1.0)
        want = 2.0 * (ctx.nabla(0.5) - ctx.geom(0.5))
        assert np.allclose(gap, want, atol=1e-10 * np.linalg.norm(want, 2))

    def test_op210_collapses_at_half(self):
        a, b = pair(11)
        ctx = PairContext(a, b)
        for gap in case_by_id("op-2.10").gaps(ctx, 0.5):
            assert np.linalg.norm(gap, 2) == 0.0

    def test_diagonal_gaps_match_scalar_cells(self):
        # commuting case: each link's gap eigenvalues are the scalar slacks
        lams = np.array([0.5, 2.0, 7.0])
        mus = np.array([1.5, 3.0, 9.0])  # elementwise >= lams for ordered cases
        ctx = PairContext(np.diag(lams), np.diag(mus))
        for case in registry():
            nu = 0.3125 if case.in_domain(0.3125) else 0.5
            gaps = case.gaps(ctx, nu)
            for k, gap in enumerate(gaps):
                got = np.diag(gap)
                want = [case.cells(la, mu, nu)[k] for la, mu in zip(lams, mus)]
                assert np.allclose(got, want, rtol=1e-10, atol=1e-12), case.case_id
                off = gap - np.diag(np.diag(gap))
                assert np.linalg.norm(off, 2) <= 1e-10 * max(1.0, np.linalg.norm(gap, 2))


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
        gap = case.gaps(ctx, 0.25)[idx]
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

    def test_all_true_cases_pass_spot_check(self):
        # each case on its own trial: an ordered pair for every op-2.7 variant
        for case in registry():
            a, b = pair(18, dim=5, case=case.case_id, trial=3, law="log-uniform:0.01:100.0")
            for nu in (0.03125, 0.5, 1.0):
                if case.in_domain(nu):
                    t = certify_operator(case, a, b, nu)
                    assert t.passed, (case.case_id, nu, t.min_slack)


class TestStacks:
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
                alone = case.gaps(PairContext(*pairs[i]), float(nus[i]))
                for gap, one in zip(gaps, alone, strict=True):
                    assert gap[row].tobytes() == one.tobytes(), (case.case_id, nus[i])

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
