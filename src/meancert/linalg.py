"""Hermitian functional calculus and positivity checks.

Every matrix computation downstream (operator means, norm chains,
certification) funnels through this module, so the contracts are kept
strict: inputs are validated and symmetrized once, eigendecompositions go
through a single wrapper with diagnostic errors, and PSD verdicts always
come with an eigenvalue witness.

Conventions
-----------
* A matrix is accepted as Hermitian when its asymmetry max|M - M*| stays
  below ``hermitian_tol * max(1, max|entry|)``; it is then replaced by its
  Hermitian part (M + M*)/2.  Complex inputs whose imaginary part vanishes
  exactly drop to float64 (real-symmetric fast path).
* Fractional powers clamp eigenvalues in [-psd_tol * scale, 0) to zero,
  where scale = max(1, spectral norm).  Anything more negative is a domain
  error that names the offending eigenvalue.
* ``is_psd`` is tolerance-relative: it passes iff
  lam_min >= -tol * max(1, ||M||_2).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-8
PSD_TOL = 1e-9


class DomainError(ValueError):
    """An input fell outside an operation's mathematical domain."""


def hermitianize(M: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M*)/2 of a square array."""
    M = np.asarray(M)
    return (M + M.conj().T) / 2


def validate_hermitian(M, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Check shape, finiteness and symmetry, then return the Hermitian part.

    Asymmetry up to ``tol * max(1, max|entry|)`` is folded away by the
    symmetrization; anything larger raises DomainError with the measured
    asymmetry.  A complex result with exactly zero imaginary part is
    returned as float64.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DomainError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.issubdtype(M.dtype, np.number):
        raise DomainError(f"expected a numeric matrix, got dtype {M.dtype}")
    if not np.isfinite(M).all():
        raise DomainError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(M).max()))
    asym = float(np.abs(M - M.conj().T).max())
    if asym > tol * scale:
        raise DomainError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} "
            f"exceeds {tol:.1e} * {scale:.3e}"
        )
    H = hermitianize(M)
    if np.iscomplexobj(H) and not H.imag.any():
        H = H.real.copy()
    return H


def eigh(M, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of a Hermitian matrix, eigenvalues ascending."""
    p = Powers(M, tol=tol)
    return p.eigenvalues, p.eigenvectors


def clamp_psd(w: np.ndarray, psd_tol: float, who: str) -> np.ndarray:
    """Clamp eigenvalues in [-psd_tol * scale, 0) to zero, scale = max(1, max|w|).

    Anything more negative raises DomainError naming ``who`` and the
    offending eigenvalue.
    """
    scale = max(1.0, float(np.abs(w).max()))
    lo = float(w.min())
    if lo < -psd_tol * scale:
        raise DomainError(
            f"{who} has eigenvalue {lo:.6e}, negative beyond the clamp window "
            f"{-psd_tol * scale:.1e}; a positive semidefinite operand is required"
        )
    return np.maximum(w, 0.0)


def _pow_spectrum(w: np.ndarray, p: float, psd_tol: float) -> np.ndarray:
    """Domain-check an eigenvalue vector for t -> t**p and return w**p.

    Integer p >= 0 works on any spectrum (with 0**0 = 1).  Fractional
    p >= 0 requires PSD up to the clamp window.  Any p < 0 requires
    strictly positive eigenvalues after clamping.
    """
    p = float(p)
    if p < 0 or not p.is_integer():
        w = clamp_psd(w, psd_tol, f"the base of t**{p}")
        if p < 0 and float(w.min()) <= 0.0:
            raise DomainError(
                f"eigenvalue {float(w.min()):.6e} blocks t**{p}; "
                "a positive definite matrix is required"
            )
    with np.errstate(divide="ignore"):
        return np.power(w, p)


def mat_pow(M, p: float, psd_tol: float = PSD_TOL, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Matrix power M**p via the spectral decomposition.

    mat_pow(M, 0) is the identity (0**0 = 1 convention), mat_pow(M, 1)
    returns the symmetrized input.  See ``_pow_spectrum`` for the domain
    rules on fractional and negative exponents.
    """
    return Powers(M, psd_tol, tol).pow(p)


class PsdCheck(NamedTuple):
    ok: bool
    lam_min: float
    scale: float  # max(1, spectral norm), the tolerance reference
    witness: np.ndarray  # unit eigenvector attaining lam_min


def is_psd(M, tol: float = PSD_TOL) -> PsdCheck:
    """Tolerance-relative PSD test with an eigenvector witness.

    Passes iff lam_min(M) >= -tol * max(1, ||M||_2).  The witness column
    attains lam_min whether or not the check passes, so failures ship a
    concrete direction along which positivity breaks.
    """
    w, V = eigh(M)
    scale = max(1.0, float(np.abs(w).max()))
    lam = float(w[0])  # ascending order
    return PsdCheck(lam >= -tol * scale, lam, scale, V[:, 0])


def hs_norm(M) -> float:
    """Hilbert-Schmidt (Frobenius) norm of any rectangular array."""
    return float(np.linalg.norm(np.asarray(M)))


def spectral_norm(M, tol: float = HERMITIAN_TOL) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    w, _ = eigh(M, tol)
    return float(np.abs(w).max())


class Powers:
    """Cached spectral powers of one Hermitian matrix.

    A single eigendecomposition backs every requested power, keeping
    repeated mean evaluations on the same operand cheap and mutually
    consistent.  It holds the one LAPACK eigendecomposition call: eigh and
    mat_pow are one-off Powers.
    """

    def __init__(self, M, psd_tol: float = PSD_TOL, tol: float = HERMITIAN_TOL):
        H = self.matrix = validate_hermitian(M, tol)
        try:
            self.eigenvalues, self.eigenvectors = np.linalg.eigh(H)
        except np.linalg.LinAlgError as exc:
            raise DomainError(
                f"eigendecomposition failed for a {H.shape[0]}x{H.shape[0]} matrix "
                f"(max |entry| {np.abs(H).max():.3e}): {exc}"
            ) from exc
        self.psd_tol = psd_tol
        self._cache: dict[float, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def pow(self, p: float) -> np.ndarray:
        p = float(p)
        got = self._cache.get(p)
        if got is None:
            if p == 1.0:
                got = self.matrix
            elif p == 0.0:
                # 0^0 = 1 convention: M^0 is the identity even on PSD kernels.
                got = np.eye(self.dim, dtype=self.matrix.dtype)
            else:
                wp = _pow_spectrum(self.eigenvalues, p, self.psd_tol)
                V = self.eigenvectors
                got = hermitianize((V * wp) @ V.conj().T)
            self._cache[p] = got
        return got
