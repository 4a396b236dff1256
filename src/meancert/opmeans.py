"""Operator means on positive definite matrices and certified Loewner chains.

Weight convention: nu weights the SECOND operand, so nabla(A, B, 0) == A
and geom(A, B, 1) == B.  The scalar module weights the first argument;
on commuting pairs geom(A, B, nu) therefore matches
weighted_geom(a, b, 1 - nu) eigenvalue by eigenvalue.  The two conventions
are never mixed inside a formula: every registered case is written
entirely in the operator convention, and its ``cells`` callable restates
the same chain through the scalar module for diagonal cross-checks.

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
from typing import Callable, NamedTuple

import numpy as np

from . import scalar
from .linalg import PSD_TOL, DomainError, Powers, hermitianize, is_psd
from .scalar import Case, check_unit, find_case, first_worst

CERT_PSD_TOL = 1e-8


class PairContext:
    """Shared eigendecomposition cache for one (A, B) pair.

    Building the context validates both operands; each derived quantity
    (powers of A and B, powers of X = A^(-1/2) B A^(-1/2), the congruence
    corrections) is computed once and reused across the means and across
    the registered cases.
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

    def nabla(self, nu: float = 0.5) -> np.ndarray:
        check_unit("nu", nu)
        return (1.0 - nu) * self.A + nu * self.B

    def geom(self, nu: float = 0.5) -> np.ndarray:
        check_unit("nu", nu)
        # Boundary identities are exact; the congruence route would only
        # reconstruct A or B through kappa(A)-amplified rounding.
        if nu == 0.0:
            return self.A
        if nu == 1.0:
            return self.B
        ah = self.pa.pow(0.5)
        return hermitianize(ah @ self._x().pow(nu) @ ah)

    def harmonic(self, nu: float = 0.5) -> np.ndarray:
        check_unit("nu", nu)
        blend = Powers((1.0 - nu) * self.pa.pow(-1.0) + nu * self.pb.pow(-1.0), self.psd_tol)
        return blend.pow(-1.0)

    def heinz(self, nu: float) -> np.ndarray:
        check_unit("nu", nu)
        return (self.geom(nu) + self.geom(1.0 - nu)) / 2.0

    def heron(self, alpha: float) -> np.ndarray:
        check_unit("alpha", alpha)
        return (1.0 - alpha) * self.geom(0.5) + alpha * self.nabla(0.5)

    def corr_lower(self) -> np.ndarray:
        """B - 2A + A B^(-1) A, the PSD correction attached to the lower Heinz bound."""
        return self.B - 2.0 * self.A + hermitianize(self.A @ self.pb.pow(-1.0) @ self.A)

    def corr_upper(self) -> np.ndarray:
        """A - 2B + B A^(-1) B."""
        return self.A - 2.0 * self.B + hermitianize(self.B @ self.pa.pow(-1.0) @ self.B)


def nabla(A, B, nu: float = 0.5) -> np.ndarray:
    """Weighted arithmetic mean (1-nu) A + nu B."""
    return PairContext(A, B).nabla(nu)


def geom(A, B, nu: float = 0.5) -> np.ndarray:
    """Weighted geometric mean A^(1/2) (A^(-1/2) B A^(-1/2))^nu A^(1/2)."""
    return PairContext(A, B).geom(nu)


def harmonic(A, B, nu: float = 0.5) -> np.ndarray:
    """Weighted harmonic mean ((1-nu) A^(-1) + nu B^(-1))^(-1)."""
    return PairContext(A, B).harmonic(nu)


def heinz(A, B, nu: float) -> np.ndarray:
    """Heinz mean (geom(A,B,nu) + geom(A,B,1-nu)) / 2, symmetric in nu <-> 1-nu."""
    return PairContext(A, B).heinz(nu)


def heron(A, B, alpha: float) -> np.ndarray:
    """Heron mean (1-alpha) geom(A,B) + alpha nabla(A,B)."""
    return PairContext(A, B).heron(alpha)


@dataclass(frozen=True)
class OperatorCase(Case):
    """One Loewner chain: gaps(ctx, nu) yields RHS - LHS per link, all PSD when true."""

    requires_ordered: bool
    links: tuple[str, ...]
    gaps: Callable[[PairContext, float], tuple[np.ndarray, ...]]
    # scalar restatement of each link's gap at a commuting eigenvalue pair
    # (lam from A, mu from B; ordered cases assume lam <= mu)
    cells: Callable[[float, float, float], tuple[float, ...]]


def _gaps_23(ctx: PairContext, nu: float):
    k = nu ** (nu - 2.0)
    return (k * ctx.heinz(nu) - nu * nu * (nu - 2.0) * ctx.nabla(0.5) - 2.0 * ctx.geom(0.5),)


def _gaps_25(ctx: PairContext, nu: float):
    k = nu ** (nu - 2.0)
    lhs = (1.0 - nu * nu + nu ** 3) * ctx.A + (1.0 - nu * nu) * ctx.B
    rhs = k * ctx.geom(1.0 - nu) + ctx.A + ctx.B - 2.0 * ctx.geom(0.5)
    return (rhs - lhs,)


def _gaps_26(ctx: PairContext, nu: float):
    k = nu ** (nu - 2.0)
    lhs = (1.0 - nu * nu + nu ** 3) * ctx.B + (1.0 - nu * nu) * ctx.A
    rhs = k * ctx.geom(nu) + ctx.A + ctx.B - 2.0 * ctx.geom(0.5)
    return (rhs - lhs,)


def _gaps_27_left(ctx: PairContext, nu: float):
    c = nu * (1.0 - nu) / 2.0
    return (ctx.nabla(0.5) - ctx.heinz(nu) - c * ctx.corr_lower(),)


def _gaps_27_right(ctx: PairContext, nu: float):
    c = nu * (1.0 - nu) / 2.0
    return (ctx.heinz(nu) + c * ctx.corr_upper() - ctx.nabla(0.5),)


def _gaps_27_refine(ctx: PairContext, nu: float):
    return (ctx.corr_lower(), ctx.nabla(0.5) - ctx.heinz(nu))


def _gaps_210(ctx: PairContext, nu: float):
    r, R = min(nu, 1.0 - nu), max(nu, 1.0 - nu)
    rr, RR = r ** (2.0 * r), R ** (2.0 * R)
    g, h, n = ctx.geom(0.5), ctx.heinz(nu), ctx.nabla(0.5)
    return (
        2.0 * r * r * g - rr * h - (2.0 * r - 1.0) * n,
        (2.0 * R * R - 2.0 * r * r) * g,
        RR * h + (2.0 * R - 1.0) * n - 2.0 * R * R * g,
    )


def _gaps_heron_zhao(ctx: PairContext, nu: float):
    return (ctx.heron(scalar.alpha_of_nu(nu)) - ctx.heinz(nu),)


def _cells_23(lam: float, mu: float, nu: float):
    k = nu ** (nu - 2.0)
    return (
        k * scalar.heinz(lam, mu, nu)
        - nu * nu * (nu - 2.0) * (lam + mu) / 2.0
        - 2.0 * math.sqrt(lam * mu),
    )


def _cells_27_left(lam: float, mu: float, nu: float):
    c = nu * (1.0 - nu) / 2.0
    corr = mu - 2.0 * lam + lam * lam / mu
    return ((lam + mu) / 2.0 - scalar.heinz(lam, mu, nu) - c * corr,)


def _cells_27_right(lam: float, mu: float, nu: float):
    c = nu * (1.0 - nu) / 2.0
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
    case = scalar.case_by_id(case_id)
    if swap:
        return lambda lam, mu, nu: scalar.evaluate(case, mu, lam, nu).slacks
    return lambda lam, mu, nu: scalar.evaluate(case, lam, mu, nu).slacks


def _build_registry() -> tuple[OperatorCase, ...]:
    full = lambda nu: 0.0 <= nu <= 1.0
    pos = lambda nu: 0.0 < nu <= 1.0
    return (
        OperatorCase(
            "op-2.3",
            "cubic-weight lower bound on the scaled Heinz mean",
            "v^2 (v-2) (A nabla B) + 2 (A # B) <= v^(v-2) H_v(A, B)",
            "0 < nu <= 1",
            pos,
            False,
            ("main",),
            _gaps_23,
            _cells_23,
        ),
        OperatorCase(
            "op-2.5",
            "cubic-weight bound against the rescaled geometric mean, weight on A",
            "(1 - v^2 + v^3) A + (1 - v^2) B <= v^(v-2) (A #_{1-v} B) + A + B - 2 (A # B)",
            "0 < nu <= 1",
            pos,
            False,
            ("main",),
            _gaps_25,
            _scalar_cells("new-2.1"),
        ),
        OperatorCase(
            "op-2.6",
            "cubic-weight bound against the rescaled geometric mean, weight on B",
            "(1 - v^2 + v^3) B + (1 - v^2) A <= v^(v-2) (A #_v B) + A + B - 2 (A # B)",
            "0 < nu <= 1",
            pos,
            False,
            ("main",),
            _gaps_26,
            _scalar_cells("new-2.1", swap=True),
        ),
        OperatorCase(
            "op-2.7-left",
            "corrected lower Heinz bound on an ordered pair",
            "H_v(A, B) + v(1-v)/2 (B - 2A + A B^(-1) A) <= A nabla B,  for A <= B",
            "0 <= nu <= 1",
            full,
            True,
            ("main",),
            _gaps_27_left,
            _cells_27_left,
        ),
        OperatorCase(
            "op-2.7-right",
            "corrected upper Heinz bound on an ordered pair",
            "A nabla B <= H_v(A, B) + v(1-v)/2 (A - 2B + B A^(-1) B),  for A <= B",
            "0 <= nu <= 1",
            full,
            True,
            ("main",),
            _gaps_27_right,
            _cells_27_right,
        ),
        OperatorCase(
            "op-2.7-refine",
            "positivity of the Heinz correction term and the implied Heinz bound",
            "0 <= B - 2A + A B^(-1) A  and  H_v(A, B) <= A nabla B",
            "0 <= nu <= 1",
            full,
            False,
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
            full,
            False,
            ("lower", "middle", "upper"),
            _gaps_210,
            _scalar_cells("comb-2.12"),
        ),
        OperatorCase(
            "op-heron-zhao",
            "Heinz mean dominated by the Heron mean at the matched weight",
            "H_v(A, B) <= F_{alpha(v)}(A, B),  alpha(v) = 1 - 4(v - v^2)",
            "0 <= nu <= 1",
            full,
            False,
            ("main",),
            _gaps_heron_zhao,
            _scalar_cells("bhatia-heron"),
        ),
    )


_REGISTRY = _build_registry()


def registry() -> tuple[OperatorCase, ...]:
    """All registered operator cases, in fixed order."""
    return _REGISTRY


def case_by_id(case_id: str) -> OperatorCase:
    return find_case(_REGISTRY, "operator", case_id)


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


def certify_operator(case: OperatorCase, A, B, nu: float,
                     tol: float = CERT_PSD_TOL,
                     psd_tol: float = PSD_TOL) -> OperatorTrial:
    """Judge every link of one chain at (A, B, nu).

    Domain violations (nu outside the case's range, an unordered pair fed
    to an ordered-only case, operands that are not PD where required)
    raise DomainError naming the violated predicate.
    """
    case.check_nu(nu)
    ctx = PairContext(A, B, psd_tol)
    if case.requires_ordered:
        order = is_psd(ctx.B - ctx.A, tol)
        if not order.ok:
            raise DomainError(
                f"case {case.case_id} requires A <= B in Loewner order; "
                f"lam_min(B - A) = {order.lam_min:.6e} at scale {order.scale:.3e}"
            )
    checks = []
    witnesses = []
    for name, gap in zip(case.links, case.gaps(ctx, nu), strict=True):
        res = is_psd(gap, tol)
        slack = res.lam_min / res.scale
        checks.append(LinkCheck(name, res.lam_min, res.scale, slack, res.ok))
        witnesses.append(res.witness)
    worst = first_worst([c.slack for c in checks])
    return OperatorTrial(
        case_id=case.case_id,
        nu=float(nu),
        links=tuple(checks),
        min_slack=checks[worst].slack,
        worst_link=checks[worst].name,
        passed=all(c.ok for c in checks),
        witness=witnesses[worst],
    )
