"""Operator means on positive definite matrices and certified Loewner chains.

Weight convention: nu weights the SECOND operand, so
PairContext(A, B).nabla(0) == A and geom(A, B, 1) == B.  The scalar
module weights the first argument; on commuting pairs geom(A, B, nu)
therefore matches weighted_geom(a, b, 1 - nu) eigenvalue by eigenvalue.
The two conventions are never mixed inside a formula: every registered
case is written entirely in the operator convention.  Its coefficients
come from the scalar module's helpers, looked up through the module, so
each helper is bound in one place for the scalar, operator and hs chains.

The geometric mean is computed as
A^(1/2) (A^(-1/2) B A^(-1/2))^nu A^(1/2), never via Cholesky, so A must be
positive definite while B may be positive semidefinite.

Certification is pairwise: a chain M1 <= M2 <= ... is judged link by link
through is_psd(M[i+1] - M[i]); each link reports its minimum eigenvalue,
its tolerance scale, and the worst link ships an eigenvector witness.
``judge_operator`` checks each weight once, and the gap builders take the
context's unchecked kernels (``_nabla``, ``_geom``, ``_heinz``, ``_heron``);
the public means check their weights, all through ``scalar.stack_weights``.
A gap, and X = A^(-1/2) B A^(-1/2), is exactly Hermitian by construction,
so only its finiteness is checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import ge, truediv
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import scalar
from .linalg import CERT_PSD_TOL, DomainError, Powers, col, hermitianize, is_psd
from .scalar import Case, Verdicts, check_unit, stack_weights


def checked_weight(name: str, t, k: int) -> np.ndarray:
    """The weight of each of k matrices, checked in [0, 1], as a (k,) float
    array: ``stack_weights`` with ``check_unit``."""
    return np.array(stack_weights(t, k, lambda v: check_unit(name, v), name))


class PairContext:
    """Shared eigendecomposition cache for a stack (k, n, n) of (A, B) pairs.

    Building the context validates both operands; each derived quantity
    (powers of A and B, powers of X = A^(-1/2) B A^(-1/2), the congruence
    corrections) is computed once and reused across the means and across
    the registered cases.  Each pair's result equals its result alone, bit
    for bit.  A weight of a public mean is a float for every pair or an
    array with one per pair.  One pair (n, n) is held as a stack of one,
    whose public means drop the stack axis again.
    """

    def __init__(self, A, B):
        self.pa = Powers(A)
        self.pb = Powers(B)
        self._shape = self.pa.matrix.shape
        if self.pb.matrix.shape != self._shape:
            raise DomainError(
                f"operand shapes differ: {self._shape} vs {self.pb.matrix.shape}"
            )
        if self.pa.matrix.ndim == 2:
            self.pa, self.pb = (Powers(p.matrix[None], hermitian=True) for p in (self.pa, self.pb))
        self.A, self.B = self.pa.matrix, self.pb.matrix
        self._half = np.array([0.5] * len(self.A))  # the weight 1/2 of every pair
        self._px: Powers | None = None

    def _x(self) -> Powers:
        if self._px is None:
            ai = self.pa.pow(-0.5)
            self._px = Powers(hermitianize(ai @ self.B @ ai), hermitian=True)
        return self._px

    def nabla(self, nu=0.5) -> np.ndarray:
        return self._nabla(checked_weight("nu", nu, len(self.A))).reshape(self._shape)

    def geom(self, nu=0.5) -> np.ndarray:
        return self._geom(checked_weight("nu", nu, len(self.A))).reshape(self._shape)

    def heinz(self, nu) -> np.ndarray:
        """Heinz mean (geom(nu) + geom(1-nu)) / 2, symmetric in nu <-> 1-nu."""
        return self._heinz(checked_weight("nu", nu, len(self.A))).reshape(self._shape)

    def heron(self, alpha) -> np.ndarray:
        """Heron mean (1-alpha) geom(0.5) + alpha nabla(0.5)."""
        a = checked_weight("alpha", alpha, len(self.A))
        return self._heron(col(a)).reshape(self._shape)

    # The kernels of the means take checked weights, a (k,) float array.

    def _nabla(self, nu: np.ndarray) -> np.ndarray:
        w = col(nu)
        return (1.0 - w) * self.A + w * self.B

    def _geom(self, nu: np.ndarray) -> np.ndarray:
        # Boundary identities are exact; the congruence route would only
        # reconstruct A or B through kappa(A)-amplified rounding.  So X is
        # built only for a weight strictly between 0 and 1.
        weights = set(nu.tolist())
        if weights <= {0.0, 1.0}:
            g = self.B
        else:
            ah = self.pa.pow(0.5)
            g = hermitianize(ah @ self._x().pow_rows(nu) @ ah)
        if weights & {0.0, 1.0}:  # those pairs take A or B exactly, as alone
            lo, hi = (nu == 0.0)[:, None, None], (nu == 1.0)[:, None, None]
            g = np.where(lo, self.A, np.where(hi, self.B, g))
        return g

    def _heinz(self, nu: np.ndarray) -> np.ndarray:
        return (self._geom(nu) + self._geom(1.0 - nu)) / 2.0

    def _heron(self, a: np.ndarray) -> np.ndarray:
        """The Heron mean at the weights ``a``, as ``col`` gives them."""
        return (1.0 - a) * self._geom(self._half) + a * self._nabla(self._half)

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

    nu is a (k,) array, one weight per pair of the context's stack.
    """

    kind: ClassVar[str] = "operator"
    requires_ordered: bool
    # how a trial draws (A, B): "ordered-pair" (B = A + W, W drawn from its own
    # law) or "general-pd" (A and B drawn alike)
    structure: str
    links: tuple[str, ...]
    gaps: Callable[[PairContext, np.ndarray], tuple[np.ndarray, ...]]


def _gaps_23(ctx: PairContext, nu):
    k, w = col(nu, scalar.heinz_weight), col(nu, scalar.cubic_weight)
    return (k * ctx._heinz(nu) - w * ctx._nabla(ctx._half) - 2.0 * ctx._geom(ctx._half),)


def _cubic_gap(ctx: PairContext, nu, first, second, g):
    """rhs - lhs of op-2.5 and op-2.6, where lhs weights ``first`` by 1 - nu^2 + nu^3."""
    k = col(nu, scalar.heinz_weight)
    p, q = col(nu, scalar.cubic_side_weights)
    lhs = p * first + q * second
    return k * g + ctx.A + ctx.B - 2.0 * ctx._geom(ctx._half) - lhs


def _gaps_25(ctx: PairContext, nu):
    return (_cubic_gap(ctx, nu, ctx.A, ctx.B, ctx._geom(1.0 - nu)),)


def _gaps_26(ctx: PairContext, nu):
    return (_cubic_gap(ctx, nu, ctx.B, ctx.A, ctx._geom(nu)),)


def _corr_weight(nu: float) -> float:
    """nu(1 - nu)/2, the weight on the Heinz correction terms of op-2.7."""
    return nu * (1.0 - nu) / 2.0


def _gaps_27_left(ctx: PairContext, nu):
    c = col(nu, _corr_weight)
    return (ctx._nabla(ctx._half) - ctx._heinz(nu) - c * ctx.corr_lower(),)


def _gaps_27_right(ctx: PairContext, nu):
    c = col(nu, _corr_weight)
    return (ctx._heinz(nu) + c * ctx.corr_upper() - ctx._nabla(ctx._half),)


def _gaps_27_refine(ctx: PairContext, nu):
    return (ctx.corr_lower(), ctx._nabla(ctx._half) - ctx._heinz(nu))


def _gaps_210(ctx: PairContext, nu):
    r, R, rr, RR = col(nu, scalar.tail_weights)
    g, h, n = ctx._geom(ctx._half), ctx._heinz(nu), ctx._nabla(ctx._half)
    return (
        2.0 * r * r * g - rr * h - (2.0 * r - 1.0) * n,
        (2.0 * R * R - 2.0 * r * r) * g,
        RR * h + (2.0 * R - 1.0) * n - 2.0 * R * R * g,
    )


def _gaps_heron_zhao(ctx: PairContext, nu):
    return (ctx._heron(col(nu, scalar._alpha)) - ctx._heinz(nu),)


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


# A result past the range of floats is a DomainError (a matrix that is not
# finite), never a verdict; numpy need not warn on the way there.
@np.errstate(over="ignore", invalid="ignore")
def judge_operator(case: OperatorCase, A, B, nu, tol: float = CERT_PSD_TOL):
    """Judge every link of one chain on a stack (k, n, n) of pairs, with one nu
    for every pair or one per pair: the stack's ``Verdicts``, from the lists
    ``is_psd`` returns, and what a record reads besides, each pair's nu and
    each link's ``is_psd`` check, as ``(verdicts, (nus, checks))``.

    Domain violations raise DomainError naming the violated predicate: an A
    that is not a stack, then nu outside the case's range, then a count of
    nu that is neither 1 nor the count of pairs (``stack_weights``), then
    the operands (not Hermitian, not ordered where required, not PD).
    """
    A = np.asarray(A)
    if A.ndim != 3:  # one pair is the stack of one that certify_operator makes of it
        raise DomainError(f"judge_operator takes stacks (k, n, n), got A of shape {A.shape}")
    k = len(A)
    nus = stack_weights(nu, k, case.check_nu)
    ctx = PairContext(A, B)
    if case.requires_ordered:
        order = is_psd(ctx.B - ctx.A, tol, hermitian=True)
        if not all(order.ok):
            i = order.ok.index(False)
            raise DomainError(
                f"case {case.case_id} requires A <= B in Loewner order; "
                f"lam_min(B - A) = {order.lam_min[i]:.6e} at scale {order.scale[i]:.3e}"
            )
    # each link's check and slacks over the stack, then each trial's first smallest slack
    checks, slacks = [], []
    for _, gap in zip(case.links, case.gaps(ctx, np.array(nus)), strict=True):
        res = is_psd(gap, tol, hermitian=True)
        checks.append(res)
        slacks.append(list(map(truediv, res.lam_min, res.scale)))
    worst, at = slacks[0], [0] * k
    if len(checks) > 1:
        worst = list(worst)
        for j in range(1, len(checks)):
            for i, s in enumerate(slacks[j]):
                if s < worst[i]:
                    worst[i], at[i] = s, j
    # a trial passes by its worst normalized slack, the rule of every link and judge
    return Verdicts(worst, list(map(ge, worst, repeat(-tol))), at, slacks), (nus, checks)


def certify_operator(case: OperatorCase, A, B, nu, tol: float = CERT_PSD_TOL):
    """Judge every link of one chain at (A, B, nu), as ``judge_operator``, into
    a record: a trial's row of the ``Verdicts``, its nu, its link checks and
    the witness of its worst link.  Stacks (k, n, n) give a list of k trials,
    each equal bit for bit to its pair's alone, which is judged as a stack of one.
    """
    A = np.asarray(A)
    one = A.ndim == 2
    if one:
        A, B = A[None], np.asarray(B)[None]
    v, (nus, checks) = judge_operator(case, A, B, nu, tol)
    rows = zip(*[map(LinkCheck, repeat(name), res.lam_min, res.scale, s, res.ok)
                 for name, res, s in zip(case.links, checks, v.slacks)])
    trials = []
    for i, (t_nu, links, slack, j, ok) in enumerate(
            zip(nus, rows, v.min_slack, v.worst_link, v.passed)):
        trials.append(OperatorTrial(case.case_id, t_nu, links, slack, case.links[j], ok,
                                    checks[j].witness[i]))
    return trials[0] if one else trials
