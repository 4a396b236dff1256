"""Hilbert-Schmidt norm chains for Heinz-type blocks.

Every registered chain is evaluated through two independent routes per
trial.  The direct route forms the matrix expressions and takes Frobenius
norms.  The oracle route diagonalizes A = Ua diag(la) Ua* and
B = Ub diag(mu) Ub*, transports X into the eigenbases as Y = Ua* X Ub,
and rewrites each side as sqrt(sum_ij c(la_i, mu_j)^2 |y_ij|^2).  The two
routes must agree tightly (ORACLE_TOL); the cell form also localizes a
failure to the most damaging eigenvalue pair.

Chains whose hypotheses demand a positive semidefinite X enforce that
hypothesis by default; a lenient mode accepts arbitrary X and records
whether the inequality happened to hold, without asserting it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (PSD_TOL, DomainError, Powers, clamp_psd, hs_norm,
                     validate_hermitian)
from .scalar import (Case, check_unit, cubic_weight, find_case, heinz_weight,
                     judge_chain, require_finite, tail_weights)

CERT_HS_TOL = 1e-8
ORACLE_TOL = 1e-10


class HsContext:
    """Cached quantities for one (A, B, X) triple.

    ``oracle`` optionally supplies construction-time decompositions
    ((la, Ua), (mu, Ub)) of A and B, making the cell route independent of
    the eigensolver; otherwise the context's own decompositions are used.
    """

    def __init__(self, A, B, X, psd_tol: float = PSD_TOL, oracle=None):
        self.pa = Powers(A, psd_tol)
        self.pb = Powers(B, psd_tol)
        X = np.asarray(X)
        n = self.pa.dim
        if self.pb.dim != n or X.shape != (n, n):
            raise DomainError(
                f"shape mismatch: A is {self.pa.matrix.shape}, B is "
                f"{self.pb.matrix.shape}, X is {X.shape}"
            )
        if not np.isfinite(X).all():
            raise DomainError("X contains non-finite entries")
        self.X = X
        self.psd_tol = psd_tol
        self._oracle = oracle
        self._hb: dict[float, np.ndarray] = {}
        self._g = None
        self._s = None
        self._d = None
        self._cells = None
        # both operands feed fractional powers, so demand PSD up front
        clamp_psd(self.pa.eigenvalues, psd_tol, "A")
        clamp_psd(self.pb.eigenvalues, psd_tol, "B")

    def heinz_block(self, nu: float) -> np.ndarray:
        got = self._hb.get(nu)
        if got is None:
            pa, pb, X = self.pa, self.pb, self.X
            got = pa.pow(nu) @ X @ pb.pow(1.0 - nu) + pa.pow(1.0 - nu) @ X @ pb.pow(nu)
            self._hb[nu] = got
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

    def alpha(self) -> float:
        """min(1/||A||, 1/||B||) for PSD operands."""
        top = max(float(self.pa.eigenvalues.max()), float(self.pb.eigenvalues.max()))
        if top <= 0.0:
            raise DomainError("alpha undefined: both operands have zero spectral norm")
        return 1.0 / top

    def curv_weight(self, nu: float) -> float:
        """nu(1-nu) alpha, the weight on the curvature block."""
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
            y = ua.conj().T @ self.X @ ub
            self._cells = (la, mu, np.abs(y) ** 2)
        return self._cells


def heinz_block(A, X, B, nu: float, psd_tol: float = PSD_TOL) -> np.ndarray:
    """A^nu X B^(1-nu) + A^(1-nu) X B^nu for PSD A, B and arbitrary X.

    At scalars this carries the factor 2 against the Heinz mean:
    heinz_block(a, x, b, nu) == 2 * heinz(a, b, nu) * x.
    """
    check_unit("nu", nu)
    return HsContext(A, B, X, psd_tol).heinz_block(nu)


def _qs(coef: np.ndarray, y2: np.ndarray) -> float:
    return math.sqrt(float(np.sum(coef * coef * y2)))


def _h_cells(la, mu, nu):
    return np.outer(la ** nu, mu ** (1.0 - nu)) + np.outer(la ** (1.0 - nu), mu ** nu)


def _g_cells(la, mu):
    return np.sqrt(np.outer(la, mu))


def _s_cells(la, mu):
    return la[:, None] + mu[None, :]


def _d_cells(la, mu):
    return (la[:, None] - mu[None, :]) ** 2


@dataclass(frozen=True)
class HsCase(Case):
    """One norm chain: sides must be nondecreasing when the chain holds.

    ``oracle(la, mu, y2, nu)`` returns the sides rebuilt from the eigenvalue
    cells, and the (lhs, rhs) coefficient arrays of the diagnosed link
    (link 0; the final link for hs-cor) for the worst-cell diagnosis.
    """

    x_kind: str  # "general" or "pd"
    links: tuple[str, ...]
    sides: Callable[[HsContext, float], tuple[float, ...]]
    oracle: Callable[[np.ndarray, np.ndarray, np.ndarray, float],
                     tuple[tuple[float, ...], tuple[np.ndarray, np.ndarray]]]


def _sides_213(ctx: HsContext, nu: float):
    k = heinz_weight(nu)
    return (
        hs_norm(cubic_weight(nu) * ctx.sum_block()),
        hs_norm(k * ctx.heinz_block(nu) - 4.0 * ctx.geom_block()),
        k * hs_norm(ctx.heinz_block(nu)) + 4.0 * hs_norm(ctx.geom_block()),
    )


def _oracle_213(la, mu, y2, nu):
    k = heinz_weight(nu)
    w = -cubic_weight(nu)
    h, g, s = _h_cells(la, mu, nu), _g_cells(la, mu), _s_cells(la, mu)
    rhs = k * h - 4.0 * g
    sides = (
        w * _qs(s, y2),
        _qs(rhs, y2),
        k * _qs(h, y2) + 4.0 * _qs(g, y2),
    )
    return sides, (w * s, rhs)


def _sides_214(ctx: HsContext, nu: float):
    c = ctx.curv_weight(nu)
    return (
        hs_norm(ctx.heinz_block(nu) + c * ctx.curvature_block()),
        hs_norm(ctx.sum_block()),
    )


def _curv_weight(la, mu, nu):
    """Curvature weight nu(1-nu) alpha of the cell route, alpha = 1/max(la, mu)."""
    return nu * (1.0 - nu) / max(float(la.max()), float(mu.max()))


def _oracle_214(la, mu, y2, nu):
    c = _curv_weight(la, mu, nu)
    lhs = _h_cells(la, mu, nu) + c * _d_cells(la, mu)
    rhs = _s_cells(la, mu)
    return (_qs(lhs, y2), _qs(rhs, y2)), (lhs, rhs)


def _sides_cor(ctx: HsContext, nu: float):
    # the last two sides are hs-2.14's
    c = ctx.curv_weight(nu)
    p = hs_norm(ctx.heinz_block(nu))
    d = hs_norm(ctx.curvature_block())
    return (p, math.sqrt(p * p + c * c * d * d)) + _sides_214(ctx, nu)


def _oracle_cor(la, mu, y2, nu):
    tail, pair = _oracle_214(la, mu, y2, nu)
    c = _curv_weight(la, mu, nu)
    p = _qs(_h_cells(la, mu, nu), y2)
    dd = _qs(_d_cells(la, mu), y2)
    return (p, math.sqrt(p * p + c * c * dd * dd)) + tail, pair


def _sides_thm8(ctx: HsContext, nu: float):
    r, R, rr, RR = tail_weights(nu)
    hb2 = ctx.heinz_block(nu) / 2.0
    s2 = ctx.sum_block() / 2.0
    g = hs_norm(ctx.geom_block())
    return (
        hs_norm(rr * hb2 + (2.0 * r - 1.0) * s2),
        2.0 * r * r * g,
        2.0 * R * R * g,
        hs_norm(RR * hb2 + (2.0 * R - 1.0) * s2),
    )


def _oracle_thm8(la, mu, y2, nu):
    r, R, rr, RR = tail_weights(nu)
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
    full = lambda nu: 0.0 <= nu <= 1.0
    pos = lambda nu: 0.0 < nu <= 1.0
    return (
        HsCase(
            "hs-2.13",
            "cubic-weight norm chain around the doubled geometric block",
            "||v^2 (v-2)(AX + XB)||_2 <= ||v^(v-2) Hb_v(A, X, B) - 4 A^(1/2) X B^(1/2)||_2 "
            "<= v^(v-2) ||Hb_v||_2 + 4 ||A^(1/2) X B^(1/2)||_2",
            "0 < nu <= 1",
            pos,
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
            full,
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
            full,
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
            full,
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


def case_by_id(case_id: str) -> HsCase:
    return find_case(_REGISTRY, "hs", case_id)


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


def certify_hs(case: HsCase, A, B, X, nu: float,
               tol: float = CERT_HS_TOL,
               psd_tol: float = PSD_TOL,
               lenient: bool = False,
               oracle=None) -> HsTrial:
    """Judge one norm chain at (A, B, X, nu) through both evaluation routes.

    When the case hypothesizes a PSD X, a violating X raises DomainError
    unless ``lenient`` is set, in which case the trial is marked advisory:
    the verdict is recorded but carries no certification weight.  A side of
    either route that is not finite raises DomainError naming the route.
    """
    case.check_nu(nu)
    hypothesis_met = True
    if case.x_kind == "pd":
        try:
            xh = validate_hermitian(np.asarray(X))
            clamp_psd(np.linalg.eigvalsh(xh), psd_tol, "X")
        except DomainError as exc:
            if not lenient:
                raise DomainError(
                    f"case {case.case_id} hypothesizes a positive semidefinite X: {exc}"
                ) from exc
            hypothesis_met = False
    ctx = HsContext(A, B, X, psd_tol, oracle=oracle)
    sides = tuple(float(s) for s in case.sides(ctx, nu))
    _, slacks, worst = judge_chain(sides, f"the direct route of {case.case_id}")
    la, mu, y2 = ctx.cell_parts()
    osides, (lhs, rhs) = case.oracle(la, mu, y2, nu)
    osides = tuple(float(s) for s in osides)
    rel_err = max(
        abs(s - o) / max(1.0, abs(s)) for s, o in zip(sides, osides, strict=True)
    )
    if not math.isfinite(rel_err):
        require_finite(osides, "side", f"the oracle route of {case.case_id}")
    damage = (rhs * rhs - lhs * lhs) * y2
    i, j = np.unravel_index(int(np.argmin(damage)), damage.shape)
    return HsTrial(
        case_id=case.case_id,
        nu=float(nu),
        sides=sides,
        slacks=tuple(slacks),
        min_slack=slacks[worst],
        worst_link=case.links[worst],
        passed=slacks[worst] >= -tol,
        hypothesis_met=hypothesis_met,
        advisory=lenient and not hypothesis_met,
        oracle_sides=osides,
        oracle_rel_err=float(rel_err),
        worst_cell=(int(i), int(j), float(la[i]), float(mu[j]), float(damage[i, j])),
    )
