"""Seeded random matrix generation with construction-time ground truth.

Every output is a pure function of (spec, trial index).  Each trial gets
its own counter-derived Philox stream via numpy's SeedSequence spawn
keys, so results never depend on evaluation order or parallelism, and a
trial can be regenerated in isolation from its digest.

Positive definite matrices are assembled as Q diag(lam) Q* with lam drawn
from a configurable spectrum law and Q orthogonal (or unitary) from a QR
factorization of iid Gaussians.  The sampled (lam, Q) pair is exact by
construction and doubles as an eigensolver-independent decomposition for
downstream oracles.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .linalg import DomainError, hermitianize

DEFAULT_LAW = "log-uniform:0.001:1000.0"


def parse_law(law: str) -> tuple[str, tuple[float, ...]]:
    """Parse a spectrum law string into (kind, params).

    Supported laws:
      log-uniform:LO:HI     eigenvalues exp-uniform on [LO, HI], LO > 0
      explicit:V1,V2,...    fixed values (a single value broadcasts)
      clustered:C:J         C * (1 + J * uniform(-1, 1)), 0 <= J < 1
    """
    kind, _, rest = str(law).partition(":")
    try:
        if kind == "log-uniform":
            lo_s, _, hi_s = rest.partition(":")
            lo, hi = float(lo_s), float(hi_s)
            if not (0.0 < lo <= hi):
                raise DomainError(f"log-uniform needs 0 < lo <= hi, got {law!r}")
            return kind, (lo, hi)
        if kind == "explicit":
            vals = tuple(float(v) for v in rest.split(","))
            if not vals or any(v < 0.0 for v in vals):
                raise DomainError(f"explicit law needs nonnegative values, got {law!r}")
            return kind, vals
        if kind == "clustered":
            c_s, _, j_s = rest.partition(":")
            center, jitter = float(c_s), float(j_s)
            if center <= 0.0 or not (0.0 <= jitter < 1.0):
                raise DomainError(
                    f"clustered law needs center > 0 and 0 <= jitter < 1, got {law!r}"
                )
            return kind, (center, jitter)
    except ValueError as exc:
        raise DomainError(f"malformed spectrum law {law!r}: {exc}") from exc
    raise DomainError(
        f"unknown spectrum law kind {kind!r}; expected log-uniform, explicit or clustered"
    )


@dataclass(frozen=True)
class GenSpec:
    """Configuration for one random matrix stream."""

    dim: int
    law: str = DEFAULT_LAW
    seed: int = 0
    complex_entries: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dim must be >= 1, got {self.dim}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        parse_law(self.law)


def derive_seed(seed: int, label: str) -> int:
    """Stable per-label sub-seed (crc-based, independent of hash salting)."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    return (int(seed) << 32) ^ zlib.crc32(label.encode("utf-8"))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial: independent across trial indices."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),))
    return np.random.Generator(np.random.Philox(ss))


def sample_spectrum(rng: np.random.Generator, law: str, dim: int) -> np.ndarray:
    kind, params = parse_law(law)
    if kind == "log-uniform":
        lo, hi = params
        return np.exp(rng.uniform(np.log(lo), np.log(hi), dim))
    if kind == "explicit":
        if len(params) == 1:
            return np.full(dim, params[0])
        if len(params) != dim:
            raise DomainError(
                f"explicit law lists {len(params)} values but dim={dim}"
            )
        return np.asarray(params, dtype=float)
    center, jitter = params
    return center * (1.0 + jitter * rng.uniform(-1.0, 1.0, dim))


def basis_entries(rng: np.random.Generator, dim: int,
                  complex_entries: bool = False) -> np.ndarray:
    """The iid Gaussian draws behind one basis (real, or real + 1j * imaginary)."""
    z = rng.standard_normal((dim, dim))
    if complex_entries:
        z = z + 1j * rng.standard_normal((dim, dim))
    return z


def orthonormalize(z: np.ndarray) -> np.ndarray:
    """Phase-fixed Q from the QR factorization of each matrix in z, (n, n) or (k, n, n)."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def sample_basis(rng: np.random.Generator, dim: int, complex_entries: bool = False) -> np.ndarray:
    """Orthogonal (or unitary) basis from QR of iid Gaussians, phase-fixed."""
    return orthonormalize(basis_entries(rng, dim, complex_entries))


def assemble(lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q diag(lam) Q*, symmetrized; for each (lam, Q) of a stack as well."""
    return hermitianize((q * lam[..., None, :]) @ q.conj().swapaxes(-1, -2))


def pd_draws(rng: np.random.Generator, dim: int, law: str,
             complex_entries: bool = False,
             allow_zero: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Draw (lam, basis entries); spectrum first, then basis (fixed order for replay)."""
    lam = sample_spectrum(rng, law, dim)
    if not allow_zero and lam.min() <= 0.0:
        raise DomainError(
            f"positive definite generation needs a positive spectrum, got {lam.min()!r}"
        )
    return lam, basis_entries(rng, dim, complex_entries)


def pd_parts(rng: np.random.Generator, dim: int, law: str,
             complex_entries: bool = False,
             allow_zero: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Draw (lam, Q) with ``pd_draws`` and orthonormalize the basis."""
    lam, z = pd_draws(rng, dim, law, complex_entries, allow_zero)
    return lam, orthonormalize(z)


def general_entries(rng: np.random.Generator, dim: int, complex_entries: bool = False) -> np.ndarray:
    x = rng.standard_normal((dim, dim))
    if complex_entries:
        x = (x + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return x


def gen_pd(spec: GenSpec, trial: int = 0) -> np.ndarray:
    """Random positive definite matrix for (spec, trial)."""
    rng = trial_rng(spec.seed, trial)
    lam, q = pd_parts(rng, spec.dim, spec.law, spec.complex_entries)
    return assemble(lam, q)


def gen_ordered_pair(spec: GenSpec, trial: int = 0,
                     w_law: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pair (A, B) with A <= B by construction: B = A + W, W PSD.

    W draws from ``w_law`` (default: the spec's law); an explicit zero law
    gives the A = B boundary case.
    """
    rng = trial_rng(spec.seed, trial)
    lam_a, q_a = pd_parts(rng, spec.dim, spec.law, spec.complex_entries)
    lam_w, q_w = pd_parts(rng, spec.dim, w_law or spec.law, spec.complex_entries,
                          allow_zero=True)
    a = assemble(lam_a, q_a)
    return a, a + assemble(lam_w, q_w)


def gen_general(spec: GenSpec, trial: int = 0) -> np.ndarray:
    """Square matrix of iid standard normal entries (complex per config)."""
    rng = trial_rng(spec.seed, trial)
    return general_entries(rng, spec.dim, spec.complex_entries)
