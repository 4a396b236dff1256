"""Hilbert-Schmidt norm chains for Heinz-type blocks.

Every registered chain is evaluated through two independent routes per
trial.  The direct route forms the matrix expressions and takes Frobenius
norms.  The oracle route diagonalizes A = Ua diag(la) Ua* and
B = Ub diag(mu) Ub*, transports X into the eigenbases as Y = Ua* X Ub,
and rewrites each side as sqrt(sum_ij c(la_i, mu_j)^2 |y_ij|^2).  The two
routes must agree tightly (ORACLE_TOL); the cell form also localizes a
failure to the most damaging eigenvalue pair.  Both routes take a stack of
triples (k, n, n) at once and treat each triple as they treat it alone,
bit for bit.

Chains whose hypotheses demand a positive semidefinite X enforce that
hypothesis by default; a lenient mode accepts arbitrary X and records
whether the inequality happened to hold, without asserting it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import numpy as np

from .linalg import (CERT_PSD_TOL, PSD_TOL, DomainError, Powers, clamp_psd, col, hs_norms,
                     power_rows, validate_hermitian)
from .scalar import (Case, cubic_weight, heinz_weight, judge_chain, require_finite,
                     tail_weights)

ORACLE_TOL = 1e-10


class HsContext:
    """Cached quantities for one (A, B, X) triple, or for a stack (k, n, n) of them.

    A weight ``nu`` is a float, for every triple, or a 1-D array with one
    per triple of a stack.  Every block, coefficient and norm of a triple
    equals its value for that triple alone, bit for bit; a norm or a
    coefficient that depends on the matrices is a (k, 1, 1) column for a
    stack, (1, 1) for one triple.  ``oracle`` optionally supplies
    construction-time decompositions ((la, Ua), (mu, Ub)) of A and B,
    stacked like them, making the cell route independent of the
    eigensolver; otherwise the context's own decompositions are used.
    """

    def __init__(self, A, B, X, psd_tol: float = PSD_TOL, oracle=None):
        self.pa = Powers(A, psd_tol)
        self.pb = Powers(B, psd_tol)
        X = np.asarray(X)
        shape = self.pa.matrix.shape
        if self.pb.matrix.shape != shape or X.shape != shape:
            raise DomainError(
                f"shape mismatch: A is {shape}, B is {self.pb.matrix.shape}, X is {X.shape}"
            )
        if not np.isfinite(X).all():
            raise DomainError("X contains non-finite entries")
        self.X = X
        self.psd_tol = psd_tol
        self._oracle = oracle
        self._hb: dict = {}
        self._g = None
        self._s = None
        self._d = None
        self._alpha = None
        self._cells = None
        # both operands feed fractional powers, so demand PSD up front
        clamp_psd(self.pa.eigenvalues, psd_tol, "A")
        clamp_psd(self.pb.eigenvalues, psd_tol, "B")

    def heinz_block(self, nu) -> np.ndarray:
        """A^nu X B^(1-nu) + A^(1-nu) X B^nu; at 1x1 it is 2 * heinz(a, b, nu) * x."""
        pa, pb = self.pa, self.pb
        if isinstance(nu, np.ndarray):
            key, pa_pow, pb_pow = tuple(nu.tolist()), pa.pow_rows, pb.pow_rows
        else:  # one weight for every triple: its powers are cached
            key, pa_pow, pb_pow = nu, pa.pow, pb.pow
        got = self._hb.get(key)
        if got is None:
            X = self.X
            got = pa_pow(nu) @ X @ pb_pow(1.0 - nu) + pa_pow(1.0 - nu) @ X @ pb_pow(nu)
            self._hb[key] = got
        return got

    def geom_block(self) -> np.ndarray:
        """A^(1/2) X B^(1/2)."""
        if self._g is None:
            self._g = self.pa.pow(0.5) @ self.X @ self.pb.pow(0.5)
        return self._g

    def sum_block(self) -> np.ndarray:
        """A X + X B."""
        if self._s is None:
            self._s = self.pa.matrix @ self.X + self.X @ self.pb.matrix
        return self._s

    def curvature_block(self) -> np.ndarray:
        """A^2 X + X B^2 - 2 A X B."""
        if self._d is None:
            axb = self.pa.matrix @ self.X @ self.pb.matrix
            self._d = self.pa.pow(2.0) @ self.X + self.X @ self.pb.pow(2.0) - 2.0 * axb
        return self._d

    def alpha(self) -> np.ndarray:
        """min(1/||A||, 1/||B||) for PSD operands, per triple."""
        if self._alpha is None:
            # eigenvalues ascend, so each spectrum's largest is its last
            top = np.maximum(self.pa.eigenvalues[..., -1], self.pb.eigenvalues[..., -1])
            if (top <= 0.0).any():
                raise DomainError("alpha undefined: both operands have zero spectral norm")
            self._alpha = 1.0 / top[..., None, None]
        return self._alpha

    def curv_weight(self, nu) -> np.ndarray:
        """nu(1-nu) alpha, the weight on the curvature block."""
        nu = col(nu)
        return nu * (1.0 - nu) * self.alpha()

    def cell_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(la, mu, |Y|^2) with Y = Ua* X Ub, spectra clamped to [0, inf)."""
        if self._cells is None:
            if self._oracle is not None:
                (la, ua), (mu, ub) = self._oracle
                la, mu = np.asarray(la, dtype=float), np.asarray(mu, dtype=float)
                ua, ub = np.asarray(ua), np.asarray(ub)
            else:
                la, ua = self.pa.eigenvalues, self.pa.eigenvectors
                mu, ub = self.pb.eigenvalues, self.pb.eigenvectors
            la = clamp_psd(la, self.psd_tol, "A")
            mu = clamp_psd(mu, self.psd_tol, "B")
            y = ua.conj().swapaxes(-1, -2) @ self.X @ ub
            self._cells = (la, mu, np.abs(y) ** 2)
        return self._cells


def _qs(coef: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """sqrt(sum_ij coef_ij^2 y2_ij) per matrix, as a column like ``hs_norms``'s."""
    return np.sqrt((coef * coef * y2).sum(axis=(-2, -1), keepdims=True))


def _pows(v: np.ndarray, e) -> np.ndarray:
    """v ** e, where e is one exponent or one per row of v (see ``power_rows``).

    ``**`` takes shortcuts for some exponents, such as a square root for
    0.5, that ``np.power`` does not, so it stays the operator of one triple.
    """
    if not isinstance(e, np.ndarray):
        return v ** e
    return power_rows(v, e.tolist(), operator.pow)


def _h_cells(la, mu, nu):
    rest = 1.0 - nu
    return (_pows(la, nu)[..., :, None] * _pows(mu, rest)[..., None, :]
            + _pows(la, rest)[..., :, None] * _pows(mu, nu)[..., None, :])


def _g_cells(la, mu):
    return np.sqrt(la[..., :, None] * mu[..., None, :])


def _s_cells(la, mu):
    return la[..., :, None] + mu[..., None, :]


def _d_cells(la, mu):
    return (la[..., :, None] - mu[..., None, :]) ** 2


@dataclass(frozen=True)
class HsCase(Case):
    """One norm chain: sides must be nondecreasing when the chain holds.

    ``sides(ctx, nu)`` returns each side as a column of ``HsContext``'s
    shape.  ``oracle(la, mu, y2, nu)`` returns the sides rebuilt from the
    eigenvalue cells, in the same shape, and the (lhs, rhs) coefficient
    arrays of the diagnosed link (link 0; the final link for hs-cor) for
    the worst-cell diagnosis.  nu is a float, or one weight per triple of
    a stack.
    """

    kind: ClassVar[str] = "hs"
    structure: ClassVar[str] = "general-pd"  # how a trial draws (A, B), as for an operator case
    x_kind: str  # "general" or "pd"
    links: tuple[str, ...]
    sides: Callable[[HsContext, Any], tuple[np.ndarray, ...]]
    oracle: Callable[[np.ndarray, np.ndarray, np.ndarray, Any],
                     tuple[tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray]]]


def _sides_213(ctx: HsContext, nu):
    k = col(nu, heinz_weight)
    h, g = ctx.heinz_block(nu), ctx.geom_block()
    return (
        hs_norms(col(nu, cubic_weight) * ctx.sum_block()),
        hs_norms(k * h - 4.0 * g),
        k * hs_norms(h) + 4.0 * hs_norms(g),
    )


def _oracle_213(la, mu, y2, nu):
    k = col(nu, heinz_weight)
    w = -col(nu, cubic_weight)
    h, g, s = _h_cells(la, mu, nu), _g_cells(la, mu), _s_cells(la, mu)
    rhs = k * h - 4.0 * g
    sides = (
        w * _qs(s, y2),
        _qs(rhs, y2),
        k * _qs(h, y2) + 4.0 * _qs(g, y2),
    )
    return sides, (w * s, rhs)


def _sides_214(ctx: HsContext, nu):
    c = ctx.curv_weight(nu)
    return (
        hs_norms(ctx.heinz_block(nu) + c * ctx.curvature_block()),
        hs_norms(ctx.sum_block()),
    )


def _curved_cells(la, mu, nu):
    """(h, d, c): the Heinz and curvature cells and the curvature weight
    nu(1-nu) alpha of the cell route, alpha = 1/max(la, mu)."""
    v = col(nu)
    top = np.maximum(la.max(axis=-1), mu.max(axis=-1))[..., None, None]
    return _h_cells(la, mu, nu), _d_cells(la, mu), v * (1.0 - v) / top


def _oracle_214(la, mu, y2, nu, cells=None):
    h, d, c = cells or _curved_cells(la, mu, nu)
    lhs = h + c * d
    rhs = _s_cells(la, mu)
    return (_qs(lhs, y2), _qs(rhs, y2)), (lhs, rhs)


def _sides_cor(ctx: HsContext, nu):
    # the last two sides are hs-2.14's
    c = ctx.curv_weight(nu)
    p = hs_norms(ctx.heinz_block(nu))
    d = hs_norms(ctx.curvature_block())
    return (p, np.sqrt(p * p + c * c * d * d)) + _sides_214(ctx, nu)


def _oracle_cor(la, mu, y2, nu):
    h, d, c = cells = _curved_cells(la, mu, nu)
    tail, pair = _oracle_214(la, mu, y2, nu, cells)
    p = _qs(h, y2)
    dd = _qs(d, y2)
    return (p, np.sqrt(p * p + c * c * dd * dd)) + tail, pair


def _sides_thm8(ctx: HsContext, nu):
    r, R, rr, RR = col(nu, tail_weights)
    hb2 = ctx.heinz_block(nu) / 2.0
    s2 = ctx.sum_block() / 2.0
    g = hs_norms(ctx.geom_block())
    return (
        hs_norms(rr * hb2 + (2.0 * r - 1.0) * s2),
        2.0 * r * r * g,
        2.0 * R * R * g,
        hs_norms(RR * hb2 + (2.0 * R - 1.0) * s2),
    )


def _oracle_thm8(la, mu, y2, nu):
    r, R, rr, RR = col(nu, tail_weights)
    h2 = _h_cells(la, mu, nu) / 2.0
    s2 = _s_cells(la, mu) / 2.0
    gc = _g_cells(la, mu)
    g = _qs(gc, y2)
    lhs = rr * h2 + (2.0 * r - 1.0) * s2
    sides = (
        _qs(lhs, y2),
        2.0 * r * r * g,
        2.0 * R * R * g,
        _qs(RR * h2 + (2.0 * R - 1.0) * s2, y2),
    )
    return sides, (lhs, 2.0 * r * r * gc)


def _build_registry() -> tuple[HsCase, ...]:
    return (
        HsCase(
            "hs-2.13",
            "cubic-weight norm chain around the doubled geometric block",
            "||v^2 (v-2)(AX + XB)||_2 <= ||v^(v-2) Hb_v(A, X, B) - 4 A^(1/2) X B^(1/2)||_2 "
            "<= v^(v-2) ||Hb_v||_2 + 4 ||A^(1/2) X B^(1/2)||_2",
            "0 < nu <= 1",
            "general",
            ("hinge", "triangle"),
            _sides_213,
            _oracle_213,
        ),
        HsCase(
            "hs-2.14",
            "curvature-corrected Heinz block dominated by the arithmetic block",
            "||Hb_v(A, X, B) + v(1-v) alpha (A^2 X + X B^2 - 2 A X B)||_2 <= ||A X + X B||_2, "
            "alpha = min(1/||A||, 1/||B||)",
            "0 <= nu <= 1",
            "pd",
            ("main",),
            _sides_214,
            _oracle_214,
        ),
        HsCase(
            "hs-cor",
            "quadratic cross-term refinement of the corrected Heinz bound",
            "||Hb_v||_2 <= sqrt(||Hb_v||_2^2 + c^2 ||D||_2^2) <= ||Hb_v + c D||_2 "
            "<= ||A X + X B||_2,  c = v(1-v) alpha,  D = A^2 X + X B^2 - 2 A X B",
            "0 <= nu <= 1",
            "pd",
            ("monotone", "cross-term", "final"),
            _sides_cor,
            _oracle_cor,
        ),
        HsCase(
            "hs-thm8",
            "four-term weighted Heinz norm chain through the geometric block",
            "||r^(2r) Hb_v/2 + (2r-1)(AX + XB)/2||_2 <= 2 r^2 ||A^(1/2) X B^(1/2)||_2 "
            "<= 2 R^2 ||A^(1/2) X B^(1/2)||_2 <= ||R^(2R) Hb_v/2 + (2R-1)(AX + XB)/2||_2",
            "0 <= nu <= 1",
            "general",
            ("lower", "middle", "upper"),
            _sides_thm8,
            _oracle_thm8,
        ),
    )


_REGISTRY = _build_registry()


def registry() -> tuple[HsCase, ...]:
    """All registered Hilbert-Schmidt cases, in fixed order."""
    return _REGISTRY


@dataclass(frozen=True)
class HsTrial:
    case_id: str
    nu: float
    sides: tuple[float, ...]
    slacks: tuple[float, ...]  # normalized adjacent slacks
    min_slack: float
    worst_link: str
    passed: bool
    hypothesis_met: bool
    advisory: bool  # True when lenient mode waived a failed hypothesis
    oracle_sides: tuple[float, ...]
    oracle_rel_err: float
    worst_cell: tuple  # (i, j, lam_i, mu_j, damage) for the diagnosed link


def _x_hypothesis(case: HsCase, X: np.ndarray, psd_tol: float, lenient: bool) -> list[bool]:
    """Whether each X of a stack meets the case's hypothesis of a PSD X.

    The stack is checked at once.  If that fails, a violation raises
    DomainError unless ``lenient`` is set; then each X is judged as a stack
    of one, as it is alone.
    """
    if case.x_kind != "pd":
        return [True] * len(X)
    try:
        xh = validate_hermitian(X)
        clamp_psd(np.linalg.eigvalsh(xh), psd_tol, "X")
        return [True] * len(X)
    except DomainError as exc:
        if not lenient:
            raise DomainError(
                f"case {case.case_id} hypothesizes a positive semidefinite X: {exc}"
            ) from exc
        if len(X) == 1:
            return [False]
    return [_x_hypothesis(case, x[None], psd_tol, lenient)[0] for x in X]


def _rows(sides) -> list[tuple[float, ...]]:
    """Columns of side values, one per side, as rows of floats, one per triple."""
    return list(zip(*(s.ravel().tolist() for s in sides)))


def certify_hs(case: HsCase, A, B, X, nu,
               tol: float = CERT_PSD_TOL,
               psd_tol: float = PSD_TOL,
               lenient: bool = False,
               oracle=None):
    """Judge one norm chain at (A, B, X, nu) through both evaluation routes.

    A, B and X may be stacks (k, n, n) with one nu per triple, and
    ``oracle`` stacked like them; the result is then a list of k trials,
    each equal bit for bit to the trial of its triple alone, which is how
    one triple is judged: as a stack of one.

    When the case hypothesizes a PSD X, a violating X raises DomainError
    unless ``lenient`` is set, in which case the trial is marked advisory:
    the verdict is recorded but carries no certification weight.  A side of
    either route that is not finite raises DomainError naming the route.
    """
    A = np.asarray(A)
    if A.ndim == 2:
        if oracle is not None:
            oracle = tuple((np.asarray(lam)[None], np.asarray(q)[None]) for lam, q in oracle)
        return certify_hs(case, A[None], np.asarray(B)[None], np.asarray(X)[None], [nu],
                          tol, psd_tol, lenient, oracle)[0]
    nus = [float(v) for v in nu]
    for v in nus:
        case.check_nu(v)
    X = np.asarray(X)
    met = _x_hypothesis(case, X, psd_tol, lenient)
    ctx = HsContext(A, B, X, psd_tol, oracle=oracle)
    # a weight shared by every triple goes in as a float, as for one triple
    w = nus[0] if len(set(nus)) == 1 else np.array(nus)
    sides = _rows(case.sides(ctx, w))
    judged = [judge_chain(s, f"the direct route of {case.case_id}") for s in sides]
    la, mu, y2 = ctx.cell_parts()
    osides, (lhs, rhs) = case.oracle(la, mu, y2, w)
    damage = (rhs * rhs - lhs * lhs) * y2
    n = damage.shape[-1]
    cells = damage.reshape(len(nus), -1).argmin(axis=1).tolist()
    trials = []
    for r, (s, o, (_, slacks, worst)) in enumerate(zip(sides, _rows(osides), judged)):
        rel_err = max(abs(a - b) / max(1.0, abs(a)) for a, b in zip(s, o, strict=True))
        if not math.isfinite(rel_err):
            require_finite(o, "side", f"the oracle route of {case.case_id}")
        i, j = divmod(cells[r], n)
        trials.append(HsTrial(
            case_id=case.case_id,
            nu=nus[r],
            sides=s,
            slacks=tuple(slacks),
            min_slack=slacks[worst],
            worst_link=case.links[worst],
            passed=slacks[worst] >= -tol,
            hypothesis_met=met[r],
            advisory=lenient and not met[r],
            oracle_sides=o,
            oracle_rel_err=rel_err,
            worst_cell=(i, j, float(la[r, i]), float(mu[r, j]), float(damage[r, i, j])),
        ))
    return trials
