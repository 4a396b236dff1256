"""Operator means on positive definite matrices and certified Loewner chains.

Weight convention: nu weights the SECOND operand, so
PairContext(A, B).nabla(0) == A and geom(A, B, 1) == B.  The scalar
module weights the first argument; on commuting pairs geom(A, B, nu)
therefore matches weighted_geom(a, b, 1 - nu) eigenvalue by eigenvalue.
The two conventions are never mixed inside a formula: every registered
case is written entirely in the operator convention, and its ``cells``
callable restates the same chain through the scalar module for diagonal
cross-checks.

The geometric mean is computed as
A^(1/2) (A^(-1/2) B A^(-1/2))^nu A^(1/2), never via Cholesky, so A must be
positive definite while B may be positive semidefinite.

Certification is pairwise: a chain M1 <= M2 <= ... is judged link by link
through is_psd(M[i+1] - M[i]); each link reports its minimum eigenvalue,
its tolerance scale, and the worst link ships an eigenvector witness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import scalar
from .linalg import (CERT_PSD_TOL, PSD_TOL, DomainError, Powers, col, each,
                     hermitianize, is_psd)
from .scalar import (Case, check_unit, cubic_side_weights, cubic_weight,
                     first_worst, heinz_weight, tail_weights)


def _unit(name: str, t):
    """Check a weight in [0, 1], or each of a stack's weights (one per matrix).

    Returns a float, or a 1-D float array for a sequence of weights.
    """
    if np.ndim(t) == 0:
        check_unit(name, t)
        return float(t)
    t = np.asarray(t, dtype=float)
    for v in t.tolist():
        check_unit(name, v)
    return t


def _uniform(nu) -> float | None:
    """The weight every row shares, or None when the rows differ."""
    if not isinstance(nu, np.ndarray):
        return nu
    first, *rest = nu.tolist()
    return first if all(v == first for v in rest) else None


class PairContext:
    """Shared eigendecomposition cache for one (A, B) pair, or a stack of pairs.

    Building the context validates both operands; each derived quantity
    (powers of A and B, powers of X = A^(-1/2) B A^(-1/2), the congruence
    corrections) is computed once and reused across the means and across
    the registered cases.  A and B may be stacks (k, n, n); a weight is
    then a float for every pair or a 1-D array with one per pair, and each
    pair's result equals its result alone, bit for bit.
    """

    def __init__(self, A, B, psd_tol: float = PSD_TOL):
        self.pa = Powers(A, psd_tol)
        self.pb = Powers(B, psd_tol)
        if self.pa.matrix.shape != self.pb.matrix.shape:
            raise DomainError(
                f"operand shapes differ: {self.pa.matrix.shape} vs {self.pb.matrix.shape}"
            )
        self.psd_tol = psd_tol
        self._px: Powers | None = None

    @property
    def A(self) -> np.ndarray:
        return self.pa.matrix

    @property
    def B(self) -> np.ndarray:
        return self.pb.matrix

    def _x(self) -> Powers:
        if self._px is None:
            ai = self.pa.pow(-0.5)
            self._px = Powers(hermitianize(ai @ self.B @ ai), self.psd_tol)
        return self._px

    def nabla(self, nu=0.5) -> np.ndarray:
        w = col(_unit("nu", nu))
        return (1.0 - w) * self.A + w * self.B

    def geom(self, nu=0.5) -> np.ndarray:
        nu = _unit("nu", nu)
        # Boundary identities are exact; the congruence route would only
        # reconstruct A or B through kappa(A)-amplified rounding.
        v = _uniform(nu)
        if v is not None:
            if v == 0.0:
                return self.A
            if v == 1.0:
                return self.B
            ah = self.pa.pow(0.5)
            return hermitianize(ah @ self._x().pow(v) @ ah)
        ah = self.pa.pow(0.5)
        g = hermitianize(ah @ self._x().pow_rows(nu) @ ah)
        lo, hi = (nu == 0.0)[:, None, None], (nu == 1.0)[:, None, None]
        if lo.any() or hi.any():  # those pairs take A or B exactly, as alone
            g = np.where(lo, self.A, np.where(hi, self.B, g))
        return g

    def heinz(self, nu) -> np.ndarray:
        """Heinz mean (geom(nu) + geom(1-nu)) / 2, symmetric in nu <-> 1-nu."""
        nu = _unit("nu", nu)
        return (self.geom(nu) + self.geom(1.0 - nu)) / 2.0

    def heron(self, alpha) -> np.ndarray:
        """Heron mean (1-alpha) geom(0.5) + alpha nabla(0.5)."""
        a = col(_unit("alpha", alpha))
        return (1.0 - a) * self.geom(0.5) + a * self.nabla(0.5)

    def corr_lower(self) -> np.ndarray:
        """B - 2A + A B^(-1) A, the PSD correction attached to the lower Heinz bound."""
        return self.B - 2.0 * self.A + hermitianize(self.A @ self.pb.pow(-1.0) @ self.A)

    def corr_upper(self) -> np.ndarray:
        """A - 2B + B A^(-1) B."""
        return self.A - 2.0 * self.B + hermitianize(self.B @ self.pa.pow(-1.0) @ self.B)


def geom(A, B, nu: float = 0.5) -> np.ndarray:
    """Weighted geometric mean A^(1/2) (A^(-1/2) B A^(-1/2))^nu A^(1/2)."""
    return PairContext(A, B).geom(nu)


@dataclass(frozen=True)
class OperatorCase(Case):
    """One Loewner chain: gaps(ctx, nu) yields RHS - LHS per link, all PSD when true.

    nu is a float, or one weight per pair of a stacked context.
    """

    kind: ClassVar[str] = "operator"
    requires_ordered: bool
    # how a trial draws (A, B): "ordered-pair" (B = A + W, W drawn from its own
    # law) or "general-pd" (A and B drawn alike)
    structure: str
    links: tuple[str, ...]
    gaps: Callable[[PairContext, float], tuple[np.ndarray, ...]]
    # scalar restatement of each link's gap at a commuting eigenvalue pair
    # (lam from A, mu from B; ordered cases assume lam <= mu)
    cells: Callable[[float, float, float], tuple[float, ...]]


def _gaps_23(ctx: PairContext, nu):
    k, w = col(nu, heinz_weight), col(nu, cubic_weight)
    return (k * ctx.heinz(nu) - w * ctx.nabla(0.5) - 2.0 * ctx.geom(0.5),)


def _cubic_gap(ctx: PairContext, nu, first, second, g):
    """rhs - lhs of op-2.5 and op-2.6, where lhs weights ``first`` by 1 - nu^2 + nu^3."""
    k = col(nu, heinz_weight)
    p, q = col(nu, cubic_side_weights)
    lhs = p * first + q * second
    return k * g + ctx.A + ctx.B - 2.0 * ctx.geom(0.5) - lhs


def _gaps_25(ctx: PairContext, nu):
    return (_cubic_gap(ctx, nu, ctx.A, ctx.B, ctx.geom(1.0 - nu)),)


def _gaps_26(ctx: PairContext, nu):
    return (_cubic_gap(ctx, nu, ctx.B, ctx.A, ctx.geom(nu)),)


def _corr_weight(nu: float) -> float:
    """nu(1 - nu)/2, the weight on the Heinz correction terms of op-2.7."""
    return nu * (1.0 - nu) / 2.0


def _gaps_27_left(ctx: PairContext, nu):
    c = col(nu, _corr_weight)
    return (ctx.nabla(0.5) - ctx.heinz(nu) - c * ctx.corr_lower(),)


def _gaps_27_right(ctx: PairContext, nu):
    c = col(nu, _corr_weight)
    return (ctx.heinz(nu) + c * ctx.corr_upper() - ctx.nabla(0.5),)


def _gaps_27_refine(ctx: PairContext, nu):
    return (ctx.corr_lower(), ctx.nabla(0.5) - ctx.heinz(nu))


def _gaps_210(ctx: PairContext, nu):
    r, R, rr, RR = col(nu, tail_weights)
    g, h, n = ctx.geom(0.5), ctx.heinz(nu), ctx.nabla(0.5)
    return (
        2.0 * r * r * g - rr * h - (2.0 * r - 1.0) * n,
        (2.0 * R * R - 2.0 * r * r) * g,
        RR * h + (2.0 * R - 1.0) * n - 2.0 * R * R * g,
    )


def _gaps_heron_zhao(ctx: PairContext, nu):
    return (ctx.heron(each(nu, scalar.alpha_of_nu)) - ctx.heinz(nu),)


def _cells_23(lam: float, mu: float, nu: float):
    k = heinz_weight(nu)
    return (
        k * scalar.heinz(lam, mu, nu)
        - cubic_weight(nu) * (lam + mu) / 2.0
        - 2.0 * math.sqrt(lam * mu),
    )


def _cells_27_left(lam: float, mu: float, nu: float):
    c = _corr_weight(nu)
    corr = mu - 2.0 * lam + lam * lam / mu
    return ((lam + mu) / 2.0 - scalar.heinz(lam, mu, nu) - c * corr,)


def _cells_27_right(lam: float, mu: float, nu: float):
    c = _corr_weight(nu)
    corr = lam - 2.0 * mu + mu * mu / lam
    return (scalar.heinz(lam, mu, nu) + c * corr - (lam + mu) / 2.0,)


def _cells_27_refine(lam: float, mu: float, nu: float):
    return (
        mu - 2.0 * lam + lam * lam / mu,
        (lam + mu) / 2.0 - scalar.heinz(lam, mu, nu),
    )


def _scalar_cells(case_id: str, swap: bool = False):
    """Cells of a chain with a scalar twin: the twin's raw slacks at
    (lam, mu), or at (mu, lam) with ``swap``."""
    case = {c.case_id: c for c in scalar.registry()}[case_id]
    if swap:
        return lambda lam, mu, nu: scalar.evaluate(case, mu, lam, nu).slacks
    return lambda lam, mu, nu: scalar.evaluate(case, lam, mu, nu).slacks


def _build_registry() -> tuple[OperatorCase, ...]:
    return (
        OperatorCase(
            "op-2.3",
            "cubic-weight lower bound on the scaled Heinz mean",
            "v^2 (v-2) (A nabla B) + 2 (A # B) <= v^(v-2) H_v(A, B)",
            "0 < nu <= 1",
            False,
            "general-pd",
            ("main",),
            _gaps_23,
            _cells_23,
        ),
        OperatorCase(
            "op-2.5",
            "cubic-weight bound against the rescaled geometric mean, weight on A",
            "(1 - v^2 + v^3) A + (1 - v^2) B <= v^(v-2) (A #_{1-v} B) + A + B - 2 (A # B)",
            "0 < nu <= 1",
            False,
            "general-pd",
            ("main",),
            _gaps_25,
            _scalar_cells("new-2.1"),
        ),
        OperatorCase(
            "op-2.6",
            "cubic-weight bound against the rescaled geometric mean, weight on B",
            "(1 - v^2 + v^3) B + (1 - v^2) A <= v^(v-2) (A #_v B) + A + B - 2 (A # B)",
            "0 < nu <= 1",
            False,
            "general-pd",
            ("main",),
            _gaps_26,
            _scalar_cells("new-2.1", swap=True),
        ),
        OperatorCase(
            "op-2.7-left",
            "corrected lower Heinz bound on an ordered pair",
            "H_v(A, B) + v(1-v)/2 (B - 2A + A B^(-1) A) <= A nabla B,  for A <= B",
            "0 <= nu <= 1",
            True,
            "ordered-pair",
            ("main",),
            _gaps_27_left,
            _cells_27_left,
        ),
        OperatorCase(
            "op-2.7-right",
            "corrected upper Heinz bound on an ordered pair",
            "A nabla B <= H_v(A, B) + v(1-v)/2 (A - 2B + B A^(-1) B),  for A <= B",
            "0 <= nu <= 1",
            True,
            "ordered-pair",
            ("main",),
            _gaps_27_right,
            _cells_27_right,
        ),
        OperatorCase(
            "op-2.7-refine",
            "positivity of the Heinz correction term and the implied Heinz bound",
            "0 <= B - 2A + A B^(-1) A  and  H_v(A, B) <= A nabla B",
            "0 <= nu <= 1",
            False,
            "ordered-pair",  # the population of op-2.7-left and -right, to compare
            ("correction", "heinz"),
            _gaps_27_refine,
            _cells_27_refine,
        ),
        OperatorCase(
            "op-2.10",
            "four-term Heinz chain through the scaled geometric mean",
            "r^(2r) H_v + (2r-1)(A nabla B) <= 2 r^2 (A # B) <= 2 R^2 (A # B) "
            "<= R^(2R) H_v + (2R-1)(A nabla B)",
            "0 <= nu <= 1",
            False,
            "general-pd",
            ("lower", "middle", "upper"),
            _gaps_210,
            _scalar_cells("comb-2.12"),
        ),
        OperatorCase(
            "op-heron-zhao",
            "Heinz mean dominated by the Heron mean at the matched weight",
            "H_v(A, B) <= F_{alpha(v)}(A, B),  alpha(v) = 1 - 4(v - v^2)",
            "0 <= nu <= 1",
            False,
            "general-pd",
            ("main",),
            _gaps_heron_zhao,
            _scalar_cells("bhatia-heron"),
        ),
    )


_REGISTRY = _build_registry()


def registry() -> tuple[OperatorCase, ...]:
    """All registered operator cases, in fixed order."""
    return _REGISTRY


class LinkCheck(NamedTuple):
    name: str
    lam_min: float
    scale: float
    slack: float  # lam_min / scale, comparable to -tol
    ok: bool


@dataclass(frozen=True)
class OperatorTrial:
    case_id: str
    nu: float
    links: tuple[LinkCheck, ...]
    min_slack: float
    worst_link: str
    passed: bool
    witness: np.ndarray  # unit eigenvector attaining the worst link's lam_min


def certify_operator(case: OperatorCase, A, B, nu,
                     tol: float = CERT_PSD_TOL,
                     psd_tol: float = PSD_TOL):
    """Judge every link of one chain at (A, B, nu).

    A and B may be stacks (k, n, n) with one nu per pair; the result is
    then a list of k trials, each equal bit for bit to the trial of its
    pair alone, which is how one pair is judged: as a stack of one.

    Domain violations (nu outside the case's range, an unordered pair fed
    to an ordered-only case, operands that are not PD where required)
    raise DomainError naming the violated predicate.
    """
    A = np.asarray(A)
    if A.ndim == 2:
        return certify_operator(case, A[None], np.asarray(B)[None], [nu], tol, psd_tol)[0]
    nus = [float(v) for v in nu]
    for v in nus:
        case.check_nu(v)
    ctx = PairContext(A, B, psd_tol)
    if case.requires_ordered:
        order = is_psd(ctx.B - ctx.A, tol)
        if not all(order.ok):
            i = order.ok.index(False)
            raise DomainError(
                f"case {case.case_id} requires A <= B in Loewner order; "
                f"lam_min(B - A) = {order.lam_min[i]:.6e} at scale {order.scale[i]:.3e}"
            )
    # a weight shared by every pair goes in as a float, as for one pair
    gaps = case.gaps(ctx, nus[0] if len(set(nus)) == 1 else np.array(nus))
    links = [(name, is_psd(gap, tol)) for name, gap in zip(case.links, gaps, strict=True)]
    trials = []
    for i, v in enumerate(nus):
        checks = [LinkCheck(name, res.lam_min[i], res.scale[i],
                            res.lam_min[i] / res.scale[i], res.ok[i])
                  for name, res in links]
        worst = first_worst([c.slack for c in checks])
        trials.append(OperatorTrial(
            case_id=case.case_id,
            nu=v,
            links=tuple(checks),
            min_slack=checks[worst].slack,
            worst_link=checks[worst].name,
            passed=all(c.ok for c in checks),
            witness=links[worst][1].witness[i],
        ))
    return trials
