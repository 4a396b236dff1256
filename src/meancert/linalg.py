"""Hermitian functional calculus and positivity checks.

Every matrix computation downstream (operator means, norm chains,
certification) funnels through this module, so the contracts are kept
strict: inputs are validated and symmetrized once, eigendecompositions go
through a single wrapper with diagnostic errors, and PSD verdicts always
come with an eigenvalue witness.

Conventions
-----------
* A matrix is accepted as Hermitian when its asymmetry max|M - M*| stays
  below ``HERMITIAN_TOL * max(1, max|entry|)``; it is then replaced by its
  Hermitian part (M + M*)/2.  A matrix keeps the dtype it came in with: a
  complex input stays complex even when its imaginary part is zero, and a
  caller that wants the real path passes ``M.real``.
* Fractional powers clamp eigenvalues in [-psd_tol * scale, 0) to zero,
  where scale = max(1, spectral norm).  Anything more negative is a domain
  error that names the offending eigenvalue.
* ``is_psd`` is tolerance-relative: it passes iff
  lam_min >= -tol * max(1, ||M||_2).
* Each function takes one matrix (n, n) or a stack (k, n, n) and treats
  every matrix of a stack as it would treat that matrix alone, bit for
  bit: checks run per matrix, and an error reports the first that fails.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-8
PSD_TOL = 1e-9
# the default tol of every certification: a Loewner gap's relative lam_min and a
# norm chain's normalized slack must each be >= -CERT_PSD_TOL
CERT_PSD_TOL = 1e-8


class DomainError(ValueError):
    """An input fell outside an operation's mathematical domain."""


def _first(bad: np.ndarray) -> int:
    """Index of the first True entry of a per-matrix mask (0-d for one matrix)."""
    return int(np.flatnonzero(bad)[0])


def each(nu, f):
    """f(nu) for one weight; for a stack's weights (a 1-D array), f of each, as an array.

    f runs on Python floats: numpy's array power rounds some chain
    coefficients, such as nu**(nu - 2), differently in the last bit.
    """
    if not isinstance(nu, np.ndarray):
        return f(nu)
    return np.array([f(v) for v in nu.tolist()])


def col(nu, f=None):
    """nu, or the coefficient f(nu), shaped to scale each matrix of a stack.

    For a stack's weights this is a (k, 1, 1) column, or a tuple of
    columns when f returns a tuple; for one weight, the plain value.
    """
    got = nu if f is None else each(nu, f)
    if not isinstance(nu, np.ndarray):
        return got
    if got.ndim == 1:
        return got[:, None, None]
    return tuple(got[:, j, None, None] for j in range(got.shape[1]))


def hermitianize(M: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M*)/2 of a square array or of each matrix in a stack."""
    M = np.asarray(M)
    return (M + M.conj().swapaxes(-1, -2)) / 2


def validate_hermitian(M) -> np.ndarray:
    """Check shape, finiteness and symmetry, then return the Hermitian part.

    ``M`` is one matrix or a stack (..., n, n); every check is made per
    matrix, and an error reports the first matrix that fails.  Asymmetry
    up to ``HERMITIAN_TOL * max(1, max|entry|)`` is folded away by the
    symmetrization; anything larger raises DomainError with the measured
    asymmetry.  The result has the dtype of ``M``.
    """
    M = np.asarray(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.size == 0:
        raise DomainError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.issubdtype(M.dtype, np.number):
        raise DomainError(f"expected a numeric matrix, got dtype {M.dtype}")
    if not np.isfinite(M).all():
        raise DomainError("matrix contains non-finite entries")
    asym = np.abs(M - M.conj().swapaxes(-1, -2))
    if asym.max() > HERMITIAN_TOL:  # past the smallest window: judge each on its own scale
        scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
        asym = asym.max(axis=(-2, -1))
        bad = asym > HERMITIAN_TOL * scale
        if bad.any():
            i = _first(bad)
            raise DomainError(
                f"matrix is not Hermitian: max asymmetry {float(asym.flat[i]):.3e} "
                f"exceeds {HERMITIAN_TOL:.1e} * {float(scale.flat[i]):.3e}"
            )
    return hermitianize(M)


def eigh(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of a Hermitian matrix or stack, eigenvalues ascending."""
    p = Powers(M)
    return p.eigenvalues, p.eigenvectors


def clamp_psd(w: np.ndarray, psd_tol: float, who: str) -> np.ndarray:
    """Clamp eigenvalues in [-psd_tol * scale, 0) to zero, scale = max(1, max|w|).

    ``w`` holds one spectrum per row (..., n), each clamped against its own
    scale.  Anything more negative raises DomainError naming ``who`` and
    the offending eigenvalue of the first spectrum that has one.
    """
    if w.min() > 0.0:  # nothing to clamp or to reject
        return w
    scale = np.maximum(1.0, np.abs(w).max(axis=-1))
    lo = w.min(axis=-1)
    bad = lo < -psd_tol * scale
    if bad.any():
        i = _first(bad)
        raise DomainError(
            f"{who} has eigenvalue {float(lo.flat[i]):.6e}, negative beyond the clamp "
            f"window {-psd_tol * float(scale.flat[i]):.1e}; a positive semidefinite "
            "operand is required"
        )
    return np.maximum(w, 0.0)


def _pow_base(w: np.ndarray, neg, psd_tol: float, t: str) -> np.ndarray:
    """Eigenvalue rows ``w`` clamped for a fractional or negative power ``t``.

    Fractional p >= 0 requires PSD up to the clamp window.  Any p < 0
    requires strictly positive eigenvalues after clamping: ``neg`` says
    which rows have p < 0, as one bool for all or as a mask of rows.
    """
    w = clamp_psd(w, psd_tol, f"the base of {t}")
    if neg.any() if isinstance(neg, np.ndarray) else neg:
        lo = w.min(axis=-1)
        bad = neg & (lo <= 0.0)
        if bad.any():
            raise DomainError(
                f"eigenvalue {float(lo.flat[_first(bad)]):.6e} blocks {t}; "
                "a positive definite matrix is required"
            )
    return w


def _pow_spectrum(w: np.ndarray, p, psd_tol: float) -> np.ndarray:
    """Domain-check eigenvalue rows for t -> t**p and return w**p.

    Integer p >= 0 works on any spectrum (with 0**0 = 1); see ``_pow_base``
    for the other exponents.  ``p`` is one Python float for all rows, or a
    list with one per row: the rows are then checked in one pass, and the
    power runs once per distinct exponent (``power_rows``).
    """
    if not isinstance(p, list):
        p = float(p)
        if p < 0 or not p.is_integer():
            w = _pow_base(w, p < 0, psd_tol, f"t**{p}")
        return np.power(w, p)
    ps = np.array(p)
    checked = (ps < 0) | (ps != np.floor(ps))
    if checked.any():
        w = w.copy()
        w[checked] = _pow_base(w[checked], ps[checked] < 0, psd_tol, "t**p")
    return power_rows(w, p)


def power_rows(v: np.ndarray, ps: list[float], power=np.power) -> np.ndarray:
    """power(v[i], ps[i]) for each row i of v, with a Python float exponent per row.

    The rows are sorted by exponent, and ``power`` runs once per distinct
    exponent, on a Python float, over a contiguous run of rows, as it runs
    over one matrix's rows: numpy's power takes other paths for an array
    of exponents, and for a base laid out in reverse, and their last bits
    differ.
    """
    order = np.argsort(ps, kind="stable")
    sp = np.asarray(ps)[order]
    sv = v[order]
    starts = [0, *(np.flatnonzero(sp[1:] != sp[:-1]) + 1).tolist(), len(ps)]
    for a, b in zip(starts, starts[1:]):
        sv[a:b] = power(sv[a:b], float(sp[a]))
    out = np.empty_like(v)
    out[order] = sv
    return out


class PsdCheck(NamedTuple):
    """One PSD verdict; for a stack, each field is a list with one entry per matrix."""

    ok: bool
    lam_min: float
    scale: float  # max(1, spectral norm), the tolerance reference
    witness: np.ndarray  # unit eigenvector attaining lam_min


def is_psd(M, tol: float = PSD_TOL) -> PsdCheck:
    """Tolerance-relative PSD test with an eigenvector witness.

    Passes iff lam_min(M) >= -tol * max(1, ||M||_2).  The witness column
    attains lam_min whether or not the check passes, so failures ship a
    concrete direction along which positivity breaks.  A witness has the
    dtype of its matrix.
    """
    p = Powers(M)
    n = p.dim
    w = p.eigenvalues.reshape(-1, n)
    lam = w[:, 0].tolist()  # ascending order, so max|w| is at one end
    scale = [max(1.0, abs(low), abs(top)) for low, top in zip(lam, w[:, -1].tolist())]
    ok = [low >= -tol * sc for low, sc in zip(lam, scale)]
    witness = list(p.eigenvectors.reshape(-1, n, n)[:, :, 0])
    if p.eigenvalues.ndim == 1:
        return PsdCheck(ok[0], lam[0], scale[0], witness[0])
    return PsdCheck(ok, lam, scale, witness)


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

    A single eigendecomposition backs every requested power, keeping
    repeated mean evaluations on the same operand cheap and mutually
    consistent.  It holds the one LAPACK eigendecomposition call: eigh is a
    one-off Powers.  Every operation acts on each matrix of a stack as it
    would on that matrix alone, bit for bit.
    """

    def __init__(self, M, psd_tol: float = PSD_TOL):
        H = self.matrix = validate_hermitian(M)
        try:
            self.eigenvalues, self.eigenvectors = np.linalg.eigh(H)
        except np.linalg.LinAlgError as exc:
            raise DomainError(
                f"eigendecomposition failed for a {H.shape[-1]}x{H.shape[-1]} matrix "
                f"(max |entry| {np.abs(H).max():.3e}): {exc}"
            ) from exc
        self.psd_tol = psd_tol
        self._cache: dict[float, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def pow(self, p: float) -> np.ndarray:
        """M**p for every matrix, cached per exponent."""
        p = float(p)
        got = self._cache.get(p)
        if got is None:
            got = self._cache[p] = self._power(p)
        return got

    def pow_rows(self, ps) -> np.ndarray:
        """M_i**p_i for each matrix i of a stack, with one exponent p_i per matrix."""
        ps = [float(p) for p in ps]
        if all(p == ps[0] for p in ps):
            return self.pow(ps[0])
        return self._power(ps)

    def _power(self, p) -> np.ndarray:
        """M**p; ``p`` is a float, or a list of one exponent per matrix."""
        if p == 1.0:
            return self.matrix
        if p == 0.0:
            # 0^0 = 1 convention: M^0 is the identity even on PSD kernels.
            eye = np.eye(self.dim, dtype=self.matrix.dtype)
            return np.broadcast_to(eye, self.matrix.shape).copy()
        wp = _pow_spectrum(self.eigenvalues, p, self.psd_tol)
        V = self.eigenvectors
        out = hermitianize((V * wp[..., None, :]) @ V.conj().swapaxes(-1, -2))
        if isinstance(p, list):
            # matrices of exponent 1 or 0 among others: exactly M, or the identity
            ps = np.array(p)
            out[ps == 1.0] = self.matrix[ps == 1.0]
            out[ps == 0.0] = np.eye(self.dim)
        return out
