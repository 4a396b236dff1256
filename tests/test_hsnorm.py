import dataclasses
import math

import numpy as np
import pytest

from meancert import hsnorm, scalar
from meancert.hsnorm import ORACLE_TOL, Cells, HsContext, certify_hs, registry
from meancert.linalg import DomainError, hs_norms
from meancert.runner import RunConfig, case_by_id, inputs, make_digest

ALL_IDS = {"hs-2.13", "hs-2.14", "hs-cor", "hs-thm8"}


def triple(seed, dim=4, complex_entries=False, x_pd=False):
    """(A, B, X) of trial 0 of an hs case whose X is PD (hs-2.14) or general (hs-2.13)."""
    cfg = RunConfig(dims=(dim,), law="log-uniform:0.1:10.0", seed=seed,
                    complex_entries=complex_entries)
    got = inputs(make_digest("hs-2.14" if x_pd else "hs-2.13", cfg, 0))
    return got["A"], got["B"], got["X"]


def one_by_one(a, b, x):
    return np.array([[a]]), np.array([[b]]), np.array([[x]])


class TestHeinzBlock:
    def test_half_is_twice_geom_block(self):
        a, b, x = triple(0)
        ctx = HsContext(a, b, x)
        assert np.array_equal(ctx.heinz_block(0.5), 2.0 * ctx.geom_block()
                              ) or np.allclose(ctx.heinz_block(0.5),
                                               2.0 * ctx.geom_block(), atol=1e-13)

    def test_endpoints_are_sum_block(self):
        a, b, x = triple(1)
        ctx = HsContext(a, b, x)
        assert np.allclose(ctx.heinz_block(0.0), ctx.sum_block(), atol=1e-13)
        assert np.allclose(ctx.heinz_block(1.0), ctx.sum_block(), atol=1e-13)

    def test_scalar_factor_two(self):
        # at 1x1 the block carries a factor 2 against the Heinz mean
        got = HsContext(np.array([[9.0]]), np.array([[4.0]]),
                        np.array([[1.7]])).heinz_block(0.25)[0, 0, 0]
        assert got == pytest.approx(2.0 * scalar.heinz(9.0, 4.0, 0.25) * 1.7,
                                    rel=1e-14)

    def test_symmetric_in_nu(self):
        a, b, x = triple(2)
        ctx = HsContext(a, b, x)
        assert np.allclose(ctx.heinz_block(0.2), ctx.heinz_block(0.8), atol=1e-12)

    @pytest.mark.parametrize("nu", [1.5, np.array([0.5, 1.5])], ids=["float", "row"])
    def test_rejects_a_weight_outside_the_unit_interval(self, nu):
        eye = np.eye(2) * np.ones(np.shape(nu) + (1, 1))  # one triple per weight
        with pytest.raises(DomainError, match=r"^nu=1\.5 outside \[0, 1\]$"):
            HsContext(eye, 2.0 * eye, eye).heinz_block(nu)

    def test_rejects_indefinite_operand(self):
        with pytest.raises(DomainError, match="positive semidefinite"):
            HsContext(np.diag([1.0, -1.0]), np.eye(2), np.eye(2)).heinz_block(0.5)


class TestDualRoute:
    @pytest.mark.parametrize("cid", sorted(ALL_IDS))
    @pytest.mark.parametrize("cx", [False, True])
    def test_oracle_agrees_with_direct(self, cid, cx):
        case = case_by_id(cid)
        for seed in range(4):
            a, b, x = triple(seed + 10, dim=3 + seed % 3, complex_entries=cx,
                             x_pd=case.x_kind == "pd")
            for nu in (0.03125, 0.5, 0.96875):
                if not case.in_domain(nu):
                    continue
                t = certify_hs(case, a, b, x, nu)
                assert t.oracle_rel_err <= ORACLE_TOL, (cid, nu, t.oracle_rel_err)

    def test_construction_oracle_route(self):
        # decompositions from the generator, independent of the eigensolver
        rng = np.random.default_rng(5)
        la = np.array([0.5, 2.0, 8.0])
        mu = np.array([1.0, 3.0, 9.0])
        qa, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        qb, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = (qa * la) @ qa.T
        b = (qb * mu) @ qb.T
        x = rng.standard_normal((3, 3))
        t = certify_hs(case_by_id("hs-thm8"), a, b, x, 0.25,
                       oracle=((la, qa), (mu, qb)))
        assert t.oracle_rel_err <= ORACLE_TOL

    def test_malformed_oracle_is_a_domain_error(self):
        a, b, x = triple(7, dim=3)
        (la, qa), (mu, qb) = np.linalg.eigh(a), np.linalg.eigh(b)
        case = case_by_id("hs-thm8")
        for oracle in [((la[:1], qa), (mu, qb)), ((la, qa), (mu, np.hstack([qb, qb]))),
                       ((la, qa),)]:
            with pytest.raises(DomainError, match="oracle"):
                certify_hs(case, a, b, x, 0.25, oracle=oracle)
        # a stack's oracle is stacked like A and B
        with pytest.raises(DomainError, match="oracle"):
            certify_hs(case, a[None], b[None], x[None], [0.25], oracle=((la, qa), (mu, qb)))

    @pytest.mark.parametrize("link", [0, 1])
    def test_oracle_side_not_finite_is_an_error(self, link):
        # a nan after the first side once left the oracle's relative error finite
        case = case_by_id("hs-2.14")

        def spoiled(ops, nu):
            sides, blocks = case.chain(ops, nu)
            if isinstance(ops, Cells):
                sides = tuple(s * math.nan if i == link else s for i, s in enumerate(sides))
            return sides, blocks

        a, b, x = triple(3, dim=3, x_pd=True)
        with pytest.raises(DomainError, match=f"^side {link} of the oracle route of hs-2.14 "
                                              "is nan, not a finite number"):
            certify_hs(dataclasses.replace(case, chain=spoiled), a, b, x, 0.5)

    def test_zero_x_degenerate(self):
        a, b, _ = triple(6)
        t = certify_hs(case_by_id("hs-thm8"), a, b, np.zeros((4, 4)), 0.25)
        assert t.sides == (0.0, 0.0, 0.0, 0.0)
        assert t.oracle_rel_err == 0.0
        assert t.passed


class TestFrozenPoints:
    def test_hs_213_passing_1x1(self):
        t = certify_hs(case_by_id("hs-2.13"), *one_by_one(1.0, 1.0, 1.0), 0.5)
        k = 0.5 ** -1.5  # 2 sqrt 2
        assert t.sides[0] == pytest.approx(0.75, rel=1e-14)
        assert t.sides[1] == pytest.approx(2.0 * k - 4.0, rel=1e-13)  # 4 sqrt2 - 4
        assert t.sides[2] == pytest.approx(2.0 * k + 4.0, rel=1e-13)
        assert t.passed

    def test_hs_213_counterexample_1x1(self):
        # integer-exact violation of the first link: sides (5, 3, 13)
        t = certify_hs(case_by_id("hs-2.13"), *one_by_one(4.0, 1.0, 1.0), 1.0)
        assert t.sides[0] == 5.0
        assert t.sides[1] == 3.0
        assert t.sides[2] == 13.0
        assert not t.passed
        assert t.worst_link == "hinge"
        assert t.worst_cell is not None and t.worst_cell[4] < 0.0

    def test_hs_213_counterexample_spread(self):
        t = certify_hs(case_by_id("hs-2.13"), *one_by_one(100.0, 0.01, 1.0), 0.5)
        assert t.sides[0] == pytest.approx(0.375 * 100.01, rel=1e-14)
        assert t.sides[1] == pytest.approx(4.0 * math.sqrt(2.0) - 4.0, rel=1e-13)
        assert not t.passed and t.worst_link == "hinge"

    def test_hs_thm8_counterexample_1x1(self):
        t = certify_hs(case_by_id("hs-thm8"), *one_by_one(4.0, 1.0, 1.0), 0.1)
        r = 0.1
        want0 = abs(r ** (2 * r) * scalar.heinz(4.0, 1.0, 0.1)
                    + (2 * r - 1.0) * 2.5)
        assert t.sides[0] == pytest.approx(want0, rel=1e-13)
        assert t.sides[1] == pytest.approx(2.0 * r * r * 2.0, rel=1e-14)
        assert not t.passed and t.worst_link == "lower"

    def test_hs_thm8_four_sides_collapse_at_half(self):
        a, b, x = triple(7)
        t = certify_hs(case_by_id("hs-thm8"), a, b, x, 0.5)
        g = np.linalg.norm(HsContext(a, b, x).geom_block())
        for s in t.sides:
            assert s == pytest.approx(0.5 * g, rel=1e-14)
        assert t.passed

    def test_hs_thm8_matches_scalar_comb_at_1x1(self):
        comb = case_by_id("comb-2.12")
        for a, b, nu in [(4.0, 1.0, 0.25), (0.5, 8.0, 0.8125), (3.0, 3.0, 0.5)]:
            t = certify_hs(case_by_id("hs-thm8"), *one_by_one(a, b, 1.0), nu)
            sc = scalar.evaluate(comb, a, b, nu).sides
            assert t.sides[0] == pytest.approx(abs(sc[0]), rel=1e-13)
            assert t.sides[1] == pytest.approx(abs(sc[1]), rel=1e-13)
            assert t.sides[2] == pytest.approx(abs(sc[2]), rel=1e-13)
            assert t.sides[3] == pytest.approx(abs(sc[3]), rel=1e-13)

    def test_hs_214_passes_pd_x(self):
        a, b, x = triple(8, x_pd=True)
        for nu in (0.0, 0.25, 0.5, 1.0):
            t = certify_hs(case_by_id("hs-2.14"), a, b, x, nu)
            assert t.passed and t.hypothesis_met

    def test_hs_cor_chain_order(self):
        a, b, x = triple(9, x_pd=True)
        t = certify_hs(case_by_id("hs-cor"), a, b, x, 0.375)
        assert t.passed
        assert t.sides[0] <= t.sides[1] <= t.sides[2] + 1e-12 <= t.sides[3] + 2e-12


class TestHypothesisHandling:
    def test_strict_rejects_indefinite_x(self):
        a, b, _ = triple(10)
        x = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(DomainError, match="hypothesizes"):
            certify_hs(case_by_id("hs-2.14"), a, b, x, 0.5)

    def test_lenient_marks_advisory(self):
        a, b, _ = triple(11)
        x = np.diag([1.0, -1.0, 1.0, 1.0])
        t = certify_hs(case_by_id("hs-2.14"), a, b, x, 0.5, lenient=True)
        assert not t.hypothesis_met
        assert t.advisory

    def test_lenient_no_op_when_hypothesis_met(self):
        a, b, x = triple(12, x_pd=True)
        t = certify_hs(case_by_id("hs-2.14"), a, b, x, 0.5, lenient=True)
        assert t.hypothesis_met and not t.advisory

    def test_general_case_ignores_lenient(self):
        a, b, x = triple(13)
        t = certify_hs(case_by_id("hs-thm8"), a, b, x, 0.25, lenient=True)
        assert t.hypothesis_met and not t.advisory

    def test_nu_domain(self):
        a, b, x = triple(14)
        with pytest.raises(DomainError, match="hs-2.13"):
            certify_hs(case_by_id("hs-2.13"), a, b, x, 0.0)


class TestWorstCell:
    def test_failing_trial_localizes_damage(self):
        a, b, x = triple(15, dim=3)
        t = certify_hs(case_by_id("hs-2.13"), a, b, x, 0.5)
        i, j, lam, mu, damage = t.worst_cell
        ctx = HsContext(a, b, x)
        la, mu_all, y2 = ctx.cell_parts()  # of the stack of one that holds the triple
        assert lam == la[0, i] and mu == mu_all[0, j]
        _, (lhs, rhs) = case_by_id("hs-2.13").chain(Cells(la, mu_all, y2),
                                                    hsnorm.Weights(np.array([0.5])))
        full = ((rhs * rhs - lhs * lhs) * y2)[0]
        assert damage == full[i, j] == full.min()

    def test_registry(self):
        assert {c.case_id for c in registry()} == ALL_IDS
        with pytest.raises(DomainError, match="hs-2.14"):
            case_by_id("hs-9.9")


def scaled_stack(rng, k, n, cx):
    """k matrices of size n with entries at scales e^-30 ... e^30."""
    scale = np.exp(rng.uniform(-30.0, 30.0, (k, 1, 1)))
    m = rng.standard_normal((k, n, n)) * scale
    if cx:
        m = m + 1j * rng.standard_normal((k, n, n)) * scale
    return m


class TestStackedSums:
    """The stacked norms and cell sums add in the order of one matrix alone."""

    @pytest.mark.parametrize("cx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
    def test_hs_norm_of_a_stack_is_linalg_norm_of_each(self, n, cx):
        m = scaled_stack(np.random.default_rng(n), 60, n, cx)
        want = np.array([np.linalg.norm(x) for x in m])
        assert hs_norms(m)[:, 0, 0].tobytes() == want.tobytes()
        assert np.array([hs_norms(x)[0, 0] for x in m]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
    def test_cell_sums_of_a_stack_are_sums_of_each(self, n):
        rng = np.random.default_rng(100 + n)
        coef = scaled_stack(rng, 60, n, False)
        y2 = np.abs(scaled_stack(rng, 60, n, True)) ** 2
        want = [math.sqrt(float(np.sum(c * c * y))) for c, y in zip(coef, y2)]
        assert hsnorm._qs(coef, y2)[:, 0, 0].tolist() == want
        assert np.sum(coef, axis=(-2, -1)).tolist() == [float(np.sum(c)) for c in coef]


class TestStacks:
    def test_stack_equals_each_triple_alone(self):
        trips = [triple(30 + i, dim=3, complex_entries=True, x_pd=True) for i in range(6)]
        a, b, x = (np.array(m) for m in zip(*trips))
        x[2] = -x[2]  # this X breaks the hypothesis of the PSD-X cases
        for case in registry():
            nus = [v if case.in_domain(v) else 0.125 for v in (0.0, 0.25, 0.5, 0.25, 0.96875, 1.0)]
            if case.x_kind == "pd":
                with pytest.raises(DomainError, match="hypothesizes"):
                    certify_hs(case, a, b, x, nus)
            got = certify_hs(case, a, b, x, nus, lenient=True)
            alone = [certify_hs(case, *t, nu, lenient=True) for t, nu in zip(zip(a, b, x), nus)]
            assert repr(got) == repr(alone)
            assert [t.hypothesis_met for t in got] == [case.x_kind == "general" or i != 2
                                                      for i in range(6)]


    def test_the_judge_takes_stacks_only(self):
        a, b, x = triple(35, dim=3)
        case = case_by_id("hs-2.14")
        got = hsnorm.judge_hs(case, a[None], b[None], x[None], 0.5, lenient=True)[0]
        rec = certify_hs(case, a, b, x, 0.5, lenient=True)
        assert got.advisory == [rec.advisory] == [True]
        assert got.slacks == [[s] for s in rec.slacks]
        with pytest.raises(DomainError, match=r"stacks \(k, n, n\), got X of shape \(3, 3\)"):
            hsnorm.judge_hs(case, a, b, x, 0.5, lenient=True)

    @pytest.mark.parametrize("nus", [[0.25, 0.5], [0.5, 0.5], [0.25, 0.5, 0.75, 1.0]])
    @pytest.mark.parametrize("case_id", sorted(ALL_IDS))
    def test_certify_takes_one_nu_per_triple(self, case_id, nus):
        a, b, x = (np.array(m) for m in zip(*[triple(36 + i, dim=3, x_pd=True)
                                              for i in range(3)]))
        with pytest.raises(DomainError) as exc:
            certify_hs(case_by_id(case_id), a, b, x, nus)
        assert str(exc.value) == f"nu has {len(nus)} values for a stack of 3"

    @pytest.mark.parametrize("nu", [0.5, [0.5], np.float64(0.5), np.array(0.5)],
                             ids=["float", "list-of-one", "numpy-float", "0-d-array"])
    @pytest.mark.parametrize("case_id", sorted(ALL_IDS))
    def test_certify_takes_one_nu_for_every_triple(self, case_id, nu):
        trips = [triple(36 + i, dim=3, x_pd=True) for i in range(3)]
        a, b, x = (np.array(m) for m in zip(*trips))
        case = case_by_id(case_id)
        want = certify_hs(case, a, b, x, [0.5] * 3)
        assert repr(certify_hs(case, a, b, x, nu)) == repr(want)
        assert repr(certify_hs(case, *trips[1], nu)) == repr(want[1])
        with pytest.raises(DomainError) as exc:
            certify_hs(case, *trips[1], [0.5, 0.5])
        assert str(exc.value) == "nu has 2 values for a stack of 1"

    @pytest.mark.parametrize("nus", [[0.5, 0.25], [0.5, 0.25, 0.75, 1.0]])
    def test_heinz_block_takes_one_weight_or_one_per_triple(self, nus):
        ctx = HsContext(*(np.array(m) for m in zip(*[triple(39 + i, dim=3) for i in range(3)])))
        with pytest.raises(DomainError) as exc:
            ctx.heinz_block(nus)
        assert str(exc.value) == f"nu has {len(nus)} values for a stack of 3"
        assert ctx.heinz_block([0.25]).tobytes() == ctx.heinz_block(0.25).tobytes()


class TestSharedSides:
    """hs-cor's last two sides are hs-2.14's, built from the same blocks on both routes."""

    @pytest.mark.parametrize("nus", [[0.375] * 16, [(7 * i % 33) / 32 for i in range(16)]],
                             ids=["shared-nu", "mixed-nu"])  # mixed: 0 and 1 among others
    @pytest.mark.parametrize("cx", [False, True], ids=["real", "complex"])
    def test_cor_tail_is_hs_214_bit_for_bit(self, cx, nus):
        cfg = RunConfig(dims=(3,), seed=40, complex_entries=cx)
        trials = [inputs(make_digest("hs-cor", cfg, t)) for t in range(len(nus))]
        a, b, x = (np.array([t[key] for t in trials]) for key in "ABX")
        oracle = tuple((np.array([t["oracle"][i][0] for t in trials]),
                        np.array([t["oracle"][i][1] for t in trials])) for i in range(2))
        for extra in ({}, {"oracle": oracle}):
            cor = certify_hs(case_by_id("hs-cor"), a, b, x, nus, **extra)
            base = certify_hs(case_by_id("hs-2.14"), a, b, x, nus, **extra)
            for c, t in zip(cor, base, strict=True):
                assert repr(c.sides[2:]) == repr(t.sides)
                assert repr(c.oracle_sides[2:]) == repr(t.oracle_sides)
                assert repr(c.worst_cell) == repr(t.worst_cell)
