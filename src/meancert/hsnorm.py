"""Hilbert-Schmidt norm chains for Heinz-type blocks.

Each registered chain is one function ``chain(ops, w)`` over a small set
of blocks (Heinz, geometric, sum, curvature), their ``norm`` and the
curvature weight, and every trial runs it under two interpreters, which
share the stack's weights and coefficients ``w`` (``Weights``).  The
direct route, ``HsContext``, forms the blocks as matrices and takes
Frobenius norms.  The oracle route, ``Cells``, diagonalizes
A = Ua diag(la) Ua* and B = Ub diag(mu) Ub*, transports X into the
eigenbases as Y = Ua* X Ub, and reads each block as its coefficients
c(la_i, mu_j) on the cells, so that a norm is
sqrt(sum_ij c(la_i, mu_j)^2 |y_ij|^2) (the Schur-multiplier form of the
hs norm).  The two routes must agree tightly (ORACLE_TOL); the cell form
also localizes a failure to the most damaging eigenvalue pair.  Both
routes take a stack of triples (k, n, n) at once, with a (k,) array of
weights, and treat each triple as they treat it alone, bit for bit.

Chains whose hypotheses demand a positive semidefinite X enforce that
hypothesis by default; a lenient mode accepts arbitrary X and records
whether the inequality happened to hold, without asserting it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import numpy as np

from . import scalar
from .linalg import (CERT_PSD_TOL, DomainError, Powers, clamp_psd, col, hs_norms, lapack,
                     power_rows, validate_hermitian)
from .opmeans import checked_weight
from .scalar import Case, Verdicts, judge_chains, require_finite, stack_weights

ORACLE_TOL = 1e-10


class HsContext:
    """The decompositions of a stack (k, n, n) of (A, B, X) triples, and the
    blocks and coefficients the chains are built from: the direct route's
    interpreter of a chain, whose ``norm`` is the Frobenius norm.

    A weight ``nu`` is a (k,) array with one per triple.  Every block,
    coefficient and norm of a triple equals its value for that triple
    alone, bit for bit; a norm or a coefficient that depends on the
    matrices is a (k, 1, 1) column.  One triple (n, n) is held as a stack
    of one.  Each method computes afresh: a chain that reads a block twice
    computes it once itself.  ``oracle`` optionally supplies
    construction-time decompositions ((la, Ua), (mu, Ub)) of A and B,
    stacked like them, making the cell route independent of the
    eigensolver; otherwise the context's own decompositions are used.
    """

    norm = staticmethod(hs_norms)

    def __init__(self, A, B, X, *, oracle=None):
        self.pa = Powers(A)
        self.pb = Powers(B)
        X = np.asarray(X)
        shape = self.pa.matrix.shape
        if self.pb.matrix.shape != shape or X.shape != shape:
            raise DomainError(
                f"shape mismatch: A is {shape}, B is {self.pb.matrix.shape}, X is {X.shape}"
            )
        if not np.logical_and.reduce(np.isfinite(X), axis=None):
            raise DomainError("X contains non-finite entries")
        if oracle is not None:
            shapes = [np.asarray(part).shape for pair in oracle for part in pair]
            if shapes != [shape[:-1], shape] * 2:
                raise DomainError(f"oracle ((la, Ua), (mu, Ub)) has shapes {shapes}, "
                                  f"not those of eigendecompositions of A and B {shape}")
        if X.ndim == 2:
            self.pa, self.pb = (Powers(p.matrix[None], hermitian=True) for p in (self.pa, self.pb))
            X = X[None]
            if oracle is not None:
                oracle = tuple((np.asarray(lam)[None], np.asarray(q)[None]) for lam, q in oracle)
        self.X = X
        self._oracle = oracle
        # both operands feed fractional powers, so demand PSD up front
        clamp_psd(self.pa.eigenvalues, "A")
        clamp_psd(self.pb.eigenvalues, "B")

    def heinz_block(self, nu) -> np.ndarray:
        """A^nu X B^(1-nu) + A^(1-nu) X B^nu for nu in [0, 1], one float for every
        triple or one per triple; at 1x1 it is 2 * heinz(a, b, nu) * x."""
        return self._heinz_block(checked_weight("nu", nu, len(self.X)))

    def _heinz_block(self, nu: np.ndarray) -> np.ndarray:
        """``heinz_block`` at the (k,) weights that judge_hs has checked: the
        kernel that the chains read."""
        pa, pb, X, rest = self.pa, self.pb, self.X, 1.0 - nu
        return pa.pow_rows(nu) @ X @ pb.pow_rows(rest) + pa.pow_rows(rest) @ X @ pb.pow_rows(nu)

    def geom_block(self) -> np.ndarray:
        """A^(1/2) X B^(1/2)."""
        return self.pa.pow(0.5) @ self.X @ self.pb.pow(0.5)

    def sum_block(self) -> np.ndarray:
        """A X + X B."""
        return self.pa.matrix @ self.X + self.X @ self.pb.matrix

    def curvature_block(self) -> np.ndarray:
        """A^2 X + X B^2 - 2 A X B."""
        axb = self.pa.matrix @ self.X @ self.pb.matrix
        return self.pa.pow(2.0) @ self.X + self.X @ self.pb.pow(2.0) - 2.0 * axb

    def alpha(self) -> np.ndarray:
        """min(1/||A||, 1/||B||) for PSD operands, per triple."""
        # eigenvalues ascend, so each spectrum's largest is its last
        top = np.maximum(self.pa.eigenvalues[..., -1], self.pb.eigenvalues[..., -1])
        if np.logical_or.reduce(top <= 0.0, axis=None):
            raise DomainError("alpha undefined: both operands have zero spectral norm")
        return 1.0 / top[..., None, None]

    def curv_weight(self, v) -> np.ndarray:
        """v(1-v) alpha, the weight on the curvature block, at the weights'
        column ``v`` (``Weights.col()``)."""
        return v * (1.0 - v) * self.alpha()

    def cell_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(la, mu, |Y|^2) with Y = Ua* X Ub, spectra clamped to [0, inf)."""
        if self._oracle is not None:
            (la, ua), (mu, ub) = self._oracle
            la, mu = np.asarray(la, dtype=float), np.asarray(mu, dtype=float)
            ua, ub = np.asarray(ua), np.asarray(ub)
        else:
            la, ua = self.pa.eigenvalues, self.pa.eigenvectors
            mu, ub = self.pb.eigenvalues, self.pb.eigenvectors
        la = clamp_psd(la, "A")
        mu = clamp_psd(mu, "B")
        y = ua.conj().swapaxes(-1, -2) @ self.X @ ub
        return la, mu, np.abs(y) ** 2


def _qs(coef: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """sqrt(sum_ij coef_ij^2 y2_ij) per matrix, as a column like ``hs_norms``'s."""
    return np.sqrt(np.add.reduce(coef * coef * y2, axis=(-2, -1), keepdims=True))


class Cells:
    """The oracle route's reading of the blocks of ``HsContext``: each block
    is its coefficient c(la_i, mu_j) on the eigenvalue cells, an (n, n)
    array per triple, and its norm sums c^2 against y2 = |Ua* X Ub|^2.

    la and mu are the clamped spectra (k, n) of A and B, as
    ``HsContext.cell_parts`` returns them with y2.  A power of a spectrum
    is ``**``'s, as for a triple alone, which takes a square root at 0.5.
    """

    def __init__(self, la: np.ndarray, mu: np.ndarray, y2: np.ndarray):
        self.la, self.mu, self.y2 = la, mu, y2

    def norm(self, coef: np.ndarray) -> np.ndarray:
        return _qs(coef, self.y2)

    def _heinz_block(self, nu: np.ndarray) -> np.ndarray:
        rest = 1.0 - nu
        la, mu, pw = self.la, self.mu, operator.pow
        d_nu, d_rest = set(nu.tolist()), set(rest.tolist())
        return (power_rows(la, nu, d_nu, pw)[..., :, None]
                * power_rows(mu, rest, d_rest, pw)[..., None, :]
                + power_rows(la, rest, d_rest, pw)[..., :, None]
                * power_rows(mu, nu, d_nu, pw)[..., None, :])

    def geom_block(self) -> np.ndarray:
        return np.sqrt(self.la[..., :, None] * self.mu[..., None, :])

    def sum_block(self) -> np.ndarray:
        return self.la[..., :, None] + self.mu[..., None, :]

    def curvature_block(self) -> np.ndarray:
        return (self.la[..., :, None] - self.mu[..., None, :]) ** 2

    def curv_weight(self, v) -> np.ndarray:
        """v(1-v)/max(la, mu): alpha divides here, where ``HsContext`` multiplies
        by its reciprocal; each route keeps its own rounding."""
        top = np.maximum(np.maximum.reduce(self.la, axis=-1),
                         np.maximum.reduce(self.mu, axis=-1))[..., None, None]
        return v * (1.0 - v) / top


class Weights:
    """The checked (k,) weights ``nu`` of a stack, and the coefficient columns
    ``col(nu, f)`` of the chains, each computed on first read.  Both routes
    of a chain read one ``Weights``, which lives as long as the
    certification of its stack, so a coefficient is computed once per stack
    and both routes take the same bits."""

    def __init__(self, nu: np.ndarray):
        self.nu = nu
        self._cols: dict[Any, Any] = {}

    def col(self, f=None):
        """``col(nu, f)``: the weights' column, or the columns of f's values."""
        got = self._cols.get(f)
        if got is None:
            got = self._cols[f] = col(self.nu, f)
        return got


@dataclass(frozen=True)
class HsCase(Case):
    """One norm chain: sides must be nondecreasing when the chain holds.

    ``chain(ops, w)`` builds the chain from the blocks of ``ops``, an
    ``HsContext`` (the direct route) or a ``Cells`` (the oracle route), and
    returns (sides, (lhs, rhs)): each side as a column of the context's
    shape, and the two blocks of the diagnosed link (link 0; the final link
    for hs-cor), which the cell route's worst-cell diagnosis reads.  ``w``
    is the stack's ``Weights``, one weight per triple.
    """

    kind: ClassVar[str] = "hs"
    structure: ClassVar[str] = "general-pd"  # how a trial draws (A, B), as for an operator case
    x_kind: str  # "general" or "pd"
    links: tuple[str, ...]
    chain: Callable[[Any, Any], tuple[tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray]]]


def _chain_213(ops, w):
    k = w.col(scalar.heinz_weight)
    h, g = ops._heinz_block(w.nu), ops.geom_block()
    lhs, rhs = w.col(scalar.cubic_weight) * ops.sum_block(), k * h - 4.0 * g
    return (ops.norm(lhs), ops.norm(rhs), k * ops.norm(h) + 4.0 * ops.norm(g)), (lhs, rhs)


def _chain_214(ops, w):
    lhs = ops._heinz_block(w.nu) + ops.curv_weight(w.col()) * ops.curvature_block()
    rhs = ops.sum_block()
    return (ops.norm(lhs), ops.norm(rhs)), (lhs, rhs)


def _chain_cor(ops, w):
    # the last two sides are hs-2.14's, from the same blocks
    c = ops.curv_weight(w.col())
    h, d = ops._heinz_block(w.nu), ops.curvature_block()
    lhs, rhs = h + c * d, ops.sum_block()
    p, dn = ops.norm(h), ops.norm(d)
    return (p, np.sqrt(p * p + c * c * dn * dn), ops.norm(lhs), ops.norm(rhs)), (lhs, rhs)


def _chain_thm8(ops, w):
    r, R, rr, RR = w.col(scalar.tail_weights)
    hb2 = ops._heinz_block(w.nu) / 2.0
    s2 = ops.sum_block() / 2.0
    gb = ops.geom_block()
    g = ops.norm(gb)
    lhs = rr * hb2 + (2.0 * r - 1.0) * s2
    sides = (
        ops.norm(lhs),
        2.0 * r * r * g,
        2.0 * R * R * g,
        ops.norm(RR * hb2 + (2.0 * R - 1.0) * s2),
    )
    return sides, (lhs, 2.0 * r * r * gb)


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
            _chain_213,
        ),
        HsCase(
            "hs-2.14",
            "curvature-corrected Heinz block dominated by the arithmetic block",
            "||Hb_v(A, X, B) + v(1-v) alpha (A^2 X + X B^2 - 2 A X B)||_2 <= ||A X + X B||_2, "
            "alpha = min(1/||A||, 1/||B||)",
            "0 <= nu <= 1",
            "pd",
            ("main",),
            _chain_214,
        ),
        HsCase(
            "hs-cor",
            "quadratic cross-term refinement of the corrected Heinz bound",
            "||Hb_v||_2 <= sqrt(||Hb_v||_2^2 + c^2 ||D||_2^2) <= ||Hb_v + c D||_2 "
            "<= ||A X + X B||_2,  c = v(1-v) alpha,  D = A^2 X + X B^2 - 2 A X B",
            "0 <= nu <= 1",
            "pd",
            ("monotone", "cross-term", "final"),
            _chain_cor,
        ),
        HsCase(
            "hs-thm8",
            "four-term weighted Heinz norm chain through the geometric block",
            "||r^(2r) Hb_v/2 + (2r-1)(AX + XB)/2||_2 <= 2 r^2 ||A^(1/2) X B^(1/2)||_2 "
            "<= 2 R^2 ||A^(1/2) X B^(1/2)||_2 <= ||R^(2R) Hb_v/2 + (2R-1)(AX + XB)/2||_2",
            "0 <= nu <= 1",
            "general",
            ("lower", "middle", "upper"),
            _chain_thm8,
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


def _x_hypothesis(case: HsCase, X: np.ndarray, lenient: bool) -> list[bool]:
    """Whether each X of a stack meets the case's hypothesis of a PSD X.

    The stack is checked at once.  If that fails, a violation raises
    DomainError unless ``lenient`` is set; then each X is judged as a stack
    of one, as it is alone.
    """
    if case.x_kind != "pd":
        return [True] * len(X)
    try:
        xh = validate_hermitian(X)
        clamp_psd(lapack("eigvalsh", xh), "X")
        return [True] * len(X)
    except DomainError as exc:
        if not lenient:
            raise DomainError(
                f"case {case.case_id} hypothesizes a positive semidefinite X: {exc}"
            ) from exc
        if len(X) == 1:
            return [False]
    return [_x_hypothesis(case, x[None], lenient)[0] for x in X]


# A result past the range of floats is a DomainError (a matrix or a chain side
# that is not finite), never a verdict; numpy need not warn on the way there.
@np.errstate(over="ignore", invalid="ignore")
def judge_hs(case: HsCase, A, B, X, nu, *,
             tol: float = CERT_PSD_TOL,
             lenient: bool = False,
             oracle=None):
    """Judge one norm chain through both routes on a stack (k, n, n) of triples,
    with one nu for every triple or one per triple and ``oracle`` stacked like
    A and B: ``(verdicts, (nus, met, sides, oracle_sides, cells, blocks))``,
    the stack's ``Verdicts``, then each triple's nu and hypothesis, both
    routes' sides (k, m), and the oracle's ``Cells`` with the two blocks of the
    diagnosed link, where a record seeks its worst cell.

    When the case hypothesizes a PSD X, a violating X raises DomainError
    unless ``lenient`` is set, in which case the trial is marked advisory:
    the verdict is recorded but carries no certification weight.  A side of
    either route that is not finite raises DomainError naming the route, and
    so do, before any matrix is checked, an X that is not a stack, then nu
    outside the case's range, then a count of nu that is neither 1 nor the
    count of triples (``stack_weights``).
    """
    X = np.asarray(X)
    if X.ndim != 3:  # one triple is the stack of one that certify_hs makes of it
        raise DomainError(f"judge_hs takes stacks (k, n, n), got X of shape {X.shape}")
    k = len(X)
    nus = stack_weights(nu, k, case.check_nu)
    met = _x_hypothesis(case, X, lenient)
    ctx = HsContext(A, B, X, oracle=oracle)
    w = Weights(np.array(nus))
    # each side is a (k, 1, 1) column: a chain per row of (k, m), a side per row of its .T
    sides = np.concatenate(case.chain(ctx, w)[0], axis=-1).reshape(k, -1)
    _, slacks, worst = judge_chains(sides.T, f"the direct route of {case.case_id}")
    cells = Cells(*ctx.cell_parts())
    osides, blocks = case.chain(cells, w)
    osides = np.concatenate(osides, axis=-1).reshape(k, -1)
    rel_errs = np.maximum.reduce(np.abs(sides - osides) / np.maximum(np.abs(sides), 1.0), axis=1)
    finite = np.isfinite(rel_errs)  # the direct sides are finite, so an oracle side is not
    if not np.logical_and.reduce(finite):
        require_finite(osides[int(finite.argmin())].tolist(), "side",
                       f"the oracle route of {case.case_id}")
    links, at = slacks.tolist(), worst.tolist()
    mins = [links[j][r] for r, j in enumerate(at)]
    v = Verdicts(mins, [s >= -tol for s in mins], at, links,
                 [not m for m in met] if lenient else [False] * k, rel_errs.tolist())
    return v, (nus, met, sides, osides, cells, blocks)


@np.errstate(over="ignore", invalid="ignore")
def certify_hs(case: HsCase, A, B, X, nu, *,
               tol: float = CERT_PSD_TOL,
               lenient: bool = False,
               oracle=None):
    """Judge one norm chain at (A, B, X, nu), as ``judge_hs``, into a record: a
    trial's row of the ``Verdicts``, its nu and hypothesis, both routes' sides
    and its worst cell.  Stacks (k, n, n), with ``oracle`` stacked like them,
    give a list of k trials, each equal bit for bit to its triple's alone,
    which is judged as a stack of one.
    """
    A, X = np.asarray(A), np.asarray(X)
    one = A.ndim == 2
    if one:
        A, B, X = A[None], np.asarray(B)[None], X[None]
        if oracle is not None:
            oracle = tuple((np.asarray(lam)[None], np.asarray(q)[None]) for lam, q in oracle)
    v, (nus, met, sides, osides, cells, (lhs, rhs)) = judge_hs(
        case, A, B, X, nu, tol=tol, lenient=lenient, oracle=oracle)
    damage = (rhs * rhs - lhs * lhs) * cells.y2
    k, n = len(damage), damage.shape[-1]
    worst_cells = damage.reshape(k, -1).argmin(axis=1).tolist()
    trials = []
    for r, (s, o, row) in enumerate(zip(sides.tolist(), osides.tolist(), zip(*v.slacks))):
        i, j = divmod(worst_cells[r], n)
        trials.append(HsTrial(
            case_id=case.case_id,
            nu=nus[r],
            sides=tuple(s),
            slacks=row,
            min_slack=v.min_slack[r],
            worst_link=case.links[v.worst_link[r]],
            passed=v.passed[r],
            hypothesis_met=met[r],
            advisory=v.advisory[r],
            oracle_sides=tuple(o),
            oracle_rel_err=v.oracle_rel_err[r],
            worst_cell=(i, j, float(cells.la[r, i]), float(cells.mu[r, j]),
                        float(damage[r, i, j])),
        ))
    return trials[0] if one else trials
