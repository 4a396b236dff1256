"""Hermitian functional calculus and positivity checks.

Every matrix computation downstream (operator means, norm chains,
certification) funnels through this module, so the contracts are kept
strict: inputs are validated and symmetrized once, every LAPACK call goes
through one entry (``lapack``) with diagnostic errors, which ``eigh``,
``is_psd`` and ``Powers`` each call directly, and PSD verdicts always come
with an eigenvalue witness.

Conventions
-----------
* A matrix is accepted as Hermitian when its asymmetry max|M - M*| stays
  below ``HERMITIAN_TOL * max(1, max|entry|)``.  An exactly Hermitian
  matrix (asymmetry 0) is kept as it is, in a copy; any other is replaced
  by its Hermitian part (M + M*)/2, which must be finite.  A matrix keeps
  the dtype it came in with: a complex input stays complex even when its
  imaginary part is zero, and a caller that wants the real path passes
  ``M.real``.
* Validation is at the boundary.  A matrix the package builds exactly
  Hermitian (a Hermitian part, or a real linear combination or
  ``np.where`` of exactly Hermitian arrays) enters ``Powers`` and
  ``is_psd`` with ``hermitian=True``: its shape and finiteness are
  checked, not its symmetry.
* Fractional powers clamp eigenvalues in [-PSD_TOL * scale, 0) to zero,
  where scale = max(1, spectral norm).  Anything more negative is a domain
  error that names the offending eigenvalue.
* ``is_psd`` is tolerance-relative: it passes iff its normalized slack
  lam_min / max(1, ||M||_2) >= -tol, the rule every link passes by.
* Each function takes one matrix (n, n) or a stack (k, n, n) and treats
  every matrix of a stack as it would treat that matrix alone, bit for
  bit: checks run per matrix, and an error reports the first that fails.
  Inside, a power takes a (k,) array of exponents, one per matrix.
"""
from __future__ import annotations

import functools
from decimal import Decimal
from itertools import repeat
from operator import ge, truediv
from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-8
PSD_TOL = 1e-9
# the default tol of every certification: a Loewner gap's relative lam_min and a
# norm chain's normalized slack must each be >= -CERT_PSD_TOL
CERT_PSD_TOL = 1e-8
# numpy's power by a float exponent runs reciprocal, sqrt or square for these,
# whose last bits differ from its power by an array of exponents; for every
# other exponent a contiguous row's bits are the same either way
FAST_POWERS = (-1.0, 0.5, 2.0)
# the inexact types numpy.linalg's LAPACK loops take (an integer takes float64's)
LAPACK_TYPES = (np.float32, np.float64, np.complex64, np.complex128)


class DomainError(ValueError):
    """An input fell outside an operation's mathematical domain."""


def count_error(name: str, n: int, k: int) -> DomainError:
    """The error of ``n`` values of ``name`` given to a stack of ``k`` matrices."""
    return DomainError(f"{name} has {n} values for a stack of {k}")


def _first(bad: np.ndarray) -> int:
    """Index of the first True entry of a per-matrix mask (0-d for one matrix)."""
    return int(np.flatnonzero(bad)[0])


def col(nu: np.ndarray, f=None):
    """A stack's (k,) weights ``nu``, or their coefficients f(v), as (k, 1, 1)
    columns that scale each matrix of the stack; a weight that every matrix
    shares gives one Python float, which scales them all alike.

    f is one of the scalar module's coefficient helpers, which take a float
    or an array and give each element the bits of its float (never numpy's
    array power, which rounds some, such as nu**(nu - 2), differently in the
    last bit); so it runs once, on all the weights.  When f returns a tuple,
    the result unpacks into one column per value.  A coefficient that is not
    finite is a DomainError naming f and the first weight that gives one.
    """
    vals = nu.tolist()
    shared = len(set(vals)) == 1
    if f is None:
        return vals[0] if shared else nu[..., None, None]
    try:
        got = f(vals[0] if shared else nu)
    except OverflowError:  # float ** past the range of floats
        got = np.inf
    finite = np.isfinite(got)
    if not np.logical_and.reduce(finite, axis=None):
        bad = 0 if shared else _first(~np.logical_and.reduce(finite.reshape(-1, len(vals))))
        raise DomainError(f"{f.__name__} is not finite at nu={vals[bad]!r}; this weight "
                          "takes the arithmetic out of the range of floats")
    return got if shared else np.asarray(got)[..., None, None]


def _four_times(q: float):
    """4 * q, as a Decimal where that is past the range of floats."""
    return 4 * q if 4 * q < np.inf else 4 * Decimal(q)


def hermitianize(M: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M*)/2 of a square array or of each matrix in a stack."""
    M = np.asarray(M)
    return (M + M.conj().swapaxes(-1, -2)) / 2


def validate_hermitian(M, *, hermitian: bool = False) -> np.ndarray:
    """Check shape, finiteness and symmetry, then return the Hermitian part.

    ``M`` is one matrix or a stack (..., n, n); every check is made per
    matrix, and an error reports the first matrix that fails.  An exactly
    Hermitian ``M`` (asymmetry 0) is returned as it is, in a new array:
    (M + M*)/2 would give it back, save for the sign of a zero entry and
    where it overflows.  Asymmetry up
    to ``HERMITIAN_TOL * max(1, max|entry|)`` is folded away by the
    symmetrization, whose result must be finite; anything larger raises
    DomainError with the measured asymmetry.  The result has the dtype of
    ``M``.

    ``hermitian=True`` says that the package built ``M`` exactly Hermitian
    (see the module notes): its symmetry is not measured, and ``M`` itself
    is returned.
    """
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.size == 0:
        raise DomainError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not issubclass(M.dtype.type, np.integer) and M.dtype.type not in LAPACK_TYPES:
        raise DomainError("expected a matrix of integers or of float32, float64, complex64 "
                          f"or complex128 entries, got dtype {M.dtype}")
    if not np.logical_and.reduce(np.isfinite(M), axis=None):
        raise DomainError("matrix contains non-finite entries")
    if hermitian:
        return M
    Mh = M.conj().swapaxes(-1, -2)
    if not np.logical_or.reduce(M != Mh, axis=None):
        return M.copy()
    # a quarter of |M - M*| and of max(1, max|entry|), exactly, as neither can overflow
    quarter = np.abs(M / 4 - Mh / 4)
    # past the smallest window: judge each on its own scale
    if np.maximum.reduce(quarter, axis=None) > HERMITIAN_TOL / 4:
        scale = np.maximum(0.25, np.maximum.reduce(np.abs(M / 4), axis=(-2, -1)))
        quarter = np.maximum.reduce(quarter, axis=(-2, -1))
        bad = quarter > HERMITIAN_TOL * scale
        if np.logical_or.reduce(bad, axis=None):
            i = _first(bad)
            asym, top = (_four_times(float(q.flat[i])) for q in (quarter, scale))
            raise DomainError(
                f"matrix is not Hermitian: max asymmetry {asym:.3e} "
                f"exceeds {HERMITIAN_TOL:.1e} * {top:.3e}"
            )
    with np.errstate(over="ignore", invalid="ignore"):
        H = hermitianize(M)
    if not np.logical_and.reduce(np.isfinite(H), axis=None):
        raise DomainError("the Hermitian part (M + M*)/2 of the matrix is not finite")
    return H


@functools.lru_cache(maxsize=64)
def _loop(dtype: np.dtype) -> tuple[bool, np.dtype, type]:
    """numpy.linalg's LAPACK loop for ``dtype``, once per dtype: whether it is
    complex, and the real and the full dtype of its results.

    A type that is not inexact goes through the double loop and single
    precision comes back single, as in numpy.linalg; any other inexact type
    is numpy.linalg's TypeError.
    """
    t = dtype.type if issubclass(dtype.type, np.inexact) else np.float64
    if t not in LAPACK_TYPES:
        raise TypeError(f"array type {dtype.name} is unsupported in linalg")
    return issubclass(t, np.complexfloating), np.finfo(t).dtype, t


def _operations(umath) -> dict:
    """The function that runs each LAPACK operation on a matrix or stack.

    An operation calls the gufuncs of ``umath`` (numpy.linalg's
    ``_umath_linalg``, or None) that numpy.linalg's function calls, with the
    same loop and result dtypes, and so gives its bits; where ``umath`` lacks
    one of them, it is numpy.linalg's function.  "qr" gives (Q, F), R being
    the upper triangle of F's first min(m, n) rows.
    """
    ops = {"eigh": np.linalg.eigh, "eigvalsh": np.linalg.eigvalsh, "qr": np.linalg.qr}
    if hasattr(umath, "eigh_lo"):
        eigh_lo = umath.eigh_lo

        def eigh(M):
            c, real, result = _loop(M.dtype)
            w, V = eigh_lo(M, signature="D->dD" if c else "d->dd")
            return w.astype(real, copy=False), V.astype(result, copy=False)
        ops["eigh"] = eigh
    if hasattr(umath, "eigvalsh_lo"):
        eigvalsh_lo = umath.eigvalsh_lo

        def eigvalsh(M):
            c, real, _ = _loop(M.dtype)
            return eigvalsh_lo(M, signature="D->d" if c else "d->d").astype(real, copy=False)
        ops["eigvalsh"] = eigvalsh
    if hasattr(umath, "qr_r_raw") and hasattr(umath, "qr_reduced"):
        raw, reduced = umath.qr_r_raw, umath.qr_reduced

        def qr(M):
            c, _, result = _loop(M.dtype)
            # LAPACK factors a copy in place: R on and above the diagonal, reflectors below
            F = M.astype(np.complex128 if c else np.float64)
            tau = raw(F, signature="D->D" if c else "d->d")
            Q = reduced(F, tau, signature="DD->D" if c else "dd->d")
            return Q.astype(result, copy=False), F.astype(result, copy=False)
        ops["qr"] = qr
    return ops


try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy without it: every operation is numpy.linalg's function
    _umath_linalg = None
_LAPACK = _operations(_umath_linalg)
# what a failed operation is called, and numpy.linalg's reason for the failure
_FAILURES = {"eigh": ("eigendecomposition", "Eigenvalues did not converge"),
             "eigvalsh": ("eigendecomposition", "Eigenvalues did not converge"),
             "qr": ("QR factorization",
                    "Incorrect argument found while performing QR factorization")}


# numpy.linalg's error state: LAPACK's failure sets the invalid flag
@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def lapack(op: str, M: np.ndarray):
    """The package's one LAPACK call: "eigh" (w, V), "eigvalsh" w or "qr"
    (Q, F) of a matrix or stack ``M`` that the caller has checked (square
    for eigh and eigvalsh), bit for bit and dtype for dtype as numpy.linalg's
    function of that name (for "qr", see ``_operations``).

    A failure raises DomainError naming the operation and the matrix size.
    """
    try:
        return _LAPACK[op](M)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        what, reason = _FAILURES[op]
        raise DomainError(
            f"{what} failed for a {M.shape[-2]}x{M.shape[-1]} matrix "
            f"(max |entry| {np.maximum.reduce(np.abs(M), axis=None):.3e}): {reason}"
        ) from exc


def eigh(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of a Hermitian matrix or stack, eigenvalues ascending."""
    return tuple(lapack("eigh", validate_hermitian(M)))


def clamp_psd(w: np.ndarray, who: str) -> np.ndarray:
    """Clamp eigenvalues in [-PSD_TOL * scale, 0) to zero, scale = max(1, max|w|).

    ``w`` holds one spectrum per row (..., n), each clamped against its own
    scale.  Anything more negative raises DomainError naming ``who`` and
    the offending eigenvalue of the first spectrum that has one.
    """
    if np.minimum.reduce(w, axis=None) > 0.0:  # nothing to clamp or to reject
        return w
    scale = np.maximum(1.0, np.maximum.reduce(np.abs(w), axis=-1))
    lo = np.minimum.reduce(w, axis=-1)
    bad = lo < -PSD_TOL * scale
    if np.logical_or.reduce(bad, axis=None):
        i = _first(bad)
        raise DomainError(
            f"{who} has eigenvalue {float(lo.flat[i]):.6e}, negative beyond the clamp "
            f"window {-PSD_TOL * float(scale.flat[i]):.1e}; a positive semidefinite "
            "operand is required"
        )
    return np.maximum(w, 0.0)


def _pow_base(w: np.ndarray, exps: list[float]) -> np.ndarray:
    """Eigenvalues ``w``, one spectrum (n,) or a row of (k, n) per exponent
    of ``exps``, clamped for their fractional or negative powers.

    Fractional p >= 0 requires PSD up to the clamp window.  Any p < 0
    requires strictly positive eigenvalues after clamping.  Every row is
    clamped before any is tested for p < 0, and an error is the one the
    first row that fails raises alone, naming its own p.
    """
    try:
        w = clamp_psd(w, "the base of t**p")
    except DomainError:
        for row, p in zip(w.reshape(len(exps), -1), exps):
            clamp_psd(row, f"the base of t**{p}")
        raise
    if min(exps) < 0.0:
        for low, p in zip(np.minimum.reduce(w, axis=-1).reshape(-1).tolist(), exps):
            if p < 0.0 and low <= 0.0:
                raise DomainError(
                    f"eigenvalue {low:.6e} blocks t**{p}; a positive definite matrix is required"
                )
    return w


def power_rows(v: np.ndarray, ps: np.ndarray, distinct: set[float],
               power=np.power) -> np.ndarray:
    """power(v[i], ps[i]) for each row i of v, as a contiguous array, bit for bit.

    ``distinct`` is the set of the exponents as Python floats, so they are
    told apart with no numpy reduction.  When it holds one, ``power`` raises
    all of v, of any shape, to that float; else one np.power raises the
    C-contiguous rows (k, n) by the column of exponents, and the rows at
    numpy's float-exponent shortcuts (``FAST_POWERS``) run ``power`` again.
    """
    v = np.ascontiguousarray(v)
    if len(distinct) == 1:
        return power(v, *distinct)
    out = np.power(v, ps[:, None])
    for p in FAST_POWERS:
        if p in distinct:
            rows = ps == p
            out[rows] = power(v[rows], p)
    return out


class PsdCheck(NamedTuple):
    """One PSD verdict; for a stack, each field is a list with one entry per matrix."""

    ok: bool
    lam_min: float
    scale: float  # max(1, spectral norm), the tolerance reference
    slack: float  # lam_min / scale, which ok compares with -tol
    witness: np.ndarray  # unit eigenvector attaining lam_min


def is_psd(M, tol: float = PSD_TOL, *, hermitian: bool = False) -> PsdCheck:
    """Tolerance-relative PSD test with an eigenvector witness.

    Passes iff lam_min(M) / max(1, ||M||_2) >= -tol: the slack a Loewner link
    reports, judged by the rule every link passes by.  The witness column
    attains lam_min whether or not the check passes, so failures ship a
    concrete direction along which positivity breaks.  A witness has the
    dtype of its matrix.  ``hermitian`` is as for ``validate_hermitian``.
    """
    w, V = lapack("eigh", validate_hermitian(M, hermitian=hermitian))
    n = V.shape[-1]
    rows = w.reshape(-1, n)
    lam = rows[:, 0].tolist()  # ascending order, so max|w| is at one end
    scale = [max(1.0, abs(low), abs(top)) for low, top in zip(lam, rows[:, -1].tolist())]
    slack = list(map(truediv, lam, scale))
    ok = list(map(ge, slack, repeat(-tol)))
    witness = list(V.reshape(-1, n, n)[:, :, 0])
    if w.ndim == 1:
        return PsdCheck(ok[0], lam[0], scale[0], slack[0], witness[0])
    return PsdCheck(ok, lam, scale, slack, witness)


def hs_norms(M) -> np.ndarray:
    """Hilbert-Schmidt (Frobenius) norm of each matrix of a stack (..., m, n),
    as an array (..., 1, 1).

    Each norm equals ``np.linalg.norm`` of its matrix bit for bit, as that
    takes the same BLAS dot of the raveled matrix with itself (for a complex
    matrix, of its real part and of its imaginary part, then adds the two).
    A matmul of (1, mn) by (mn, 1) runs that dot once per matrix of a stack,
    where a stacked sum or ``einsum`` would add in another order.
    """
    v = M.reshape(M.shape[:-2] + (1, -1))
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))
    return np.sqrt(v @ v.swapaxes(-1, -2))


class Powers:
    """Cached spectral powers of one Hermitian matrix or of a stack (k, n, n).

    The matrix is validated on construction, and at most one
    eigendecomposition, on first read of ``eigenvalues``, ``eigenvectors``
    or a power other than M**1 and M**0, backs every requested power,
    keeping repeated mean evaluations on the same operand cheap and
    mutually consistent.  It takes that decomposition from ``lapack``, the
    module's one LAPACK entry, which ``eigh`` and ``is_psd`` call directly.
    Every operation acts on each matrix of a stack as it would on that
    matrix alone, bit for bit.

    ``hermitian`` is as for ``validate_hermitian``.
    """

    def __init__(self, M, *, hermitian: bool = False):
        self.matrix = validate_hermitian(M, hermitian=hermitian)
        self.dim = self.matrix.shape[-1]
        self._count = self.matrix.size // self.matrix.shape[-1] ** 2  # 1 for one matrix
        self._eigh: tuple[np.ndarray, np.ndarray] | None = None
        self._cache: dict[float, np.ndarray] = {}

    def _decomposed(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eigh is None:
            self._eigh = lapack("eigh", self.matrix)
        return self._eigh

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._decomposed()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._decomposed()[1]

    def pow(self, p: float) -> np.ndarray:
        """M**p for every matrix, cached per exponent."""
        p = float(p)
        got = self._cache.get(p)
        if got is None:
            exps = [p] * self._count
            got = self._cache[p] = self._power(np.array(exps), exps, {p})
        return got

    def pow_rows(self, ps) -> np.ndarray:
        """M_i**p_i for each matrix i of a stack; an exponent they share goes
        through ``pow``, and other exponents must give one per matrix."""
        ps = np.asarray(ps, dtype=float)
        exps = ps.tolist()
        distinct = set(exps)
        if len(distinct) == 1:
            return self.pow(exps[0])
        if len(exps) != self._count:
            raise count_error("the exponent", len(exps), self._count)
        return self._power(ps, exps, distinct)

    def _power(self, ps: np.ndarray, exps: list[float], distinct: set[float]) -> np.ndarray:
        """M_i**p_i, with one exponent per matrix (one for a lone matrix):
        ``exps`` are the exponents ``ps`` as Python floats, and ``distinct``
        their set.

        Integer p >= 0 works on any spectrum (with 0**0 = 1); the spectra of
        every other exponent are checked at once, as ``_pow_base`` says.
        When every eigenvalue is positive, as ``clamp_psd``'s own first test
        finds, that check would change nothing and block no p < 0, so one
        reduction stands for it.
        """
        if distinct == {1.0}:
            return self.matrix
        if distinct == {0.0}:
            # 0^0 = 1 convention: M^0 is the identity even on PSD kernels.
            eye = np.eye(self.dim, dtype=self.matrix.dtype)
            return np.broadcast_to(eye, self.matrix.shape).copy()
        w, V = self._decomposed()
        if not np.minimum.reduce(w, axis=None) > 0.0:  # NaN takes this path too
            checked = [p < 0 or not p.is_integer() for p in exps]
            if all(checked):
                w = _pow_base(w, exps)
            elif any(checked):
                w = w.copy()
                w[checked] = _pow_base(w[checked], [p for p, c in zip(exps, checked) if c])
        wp = power_rows(w, ps, distinct)
        out = hermitianize((V * wp[..., None, :]) @ V.conj().swapaxes(-1, -2))
        # matrices of exponent 1 or 0 among others: exactly M, or the identity
        if 1.0 in distinct:
            out[ps == 1.0] = self.matrix[ps == 1.0]
        if 0.0 in distinct:
            out[ps == 0.0] = np.eye(self.dim)
        return out
