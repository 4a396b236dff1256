"""Seeded random matrix draws with construction-time ground truth.

A trial's draws are a pure function of (seed, trial index): each trial
gets its own counter-derived Philox stream via numpy's SeedSequence spawn
keys, so draws never depend on evaluation order or parallelism.
``runner.draw_trial`` fixes what one trial draws and in which order, and
``runner.inputs`` rebuilds a trial's matrices from its digest alone.

Positive definite matrices are assembled as Q diag(lam) Q* with lam drawn
from a configurable spectrum law and Q orthogonal (or unitary) from a QR
factorization of iid Gaussians.  The sampled (lam, Q) pair is exact by
construction and doubles as an eigensolver-independent decomposition for
downstream oracles.
"""
from __future__ import annotations

import functools
import math
import zlib

import numpy as np

from .linalg import DomainError, hermitianize

DEFAULT_LAW = "log-uniform:0.001:1000.0"


@functools.lru_cache(maxsize=256)
def parse_law(law: str) -> tuple[str, tuple[float, ...]]:
    """Parse a spectrum law string into (kind, params), once per string.

    Supported laws, every number finite:
      log-uniform:LO:HI     eigenvalues exp-uniform on [LO, HI], LO > 0
      explicit:V1,V2,...    fixed values >= 0 (a single value broadcasts)
      clustered:C:J         C * (1 + J * uniform(-1, 1)), C > 0, 0 <= J < 1
    """
    kind, _, rest = str(law).partition(":")
    if kind not in ("log-uniform", "explicit", "clustered"):
        raise DomainError(
            f"unknown spectrum law kind {kind!r}; expected log-uniform, explicit or clustered"
        )
    # only the float parse is wrapped: a range check's DomainError is a ValueError too
    try:
        if kind == "explicit":
            params = tuple(float(v) for v in rest.split(","))
        else:
            first, _, second = rest.partition(":")
            params = (float(first), float(second))
    except ValueError as exc:
        raise DomainError(f"malformed spectrum law {law!r}: {exc}") from exc
    if kind == "log-uniform" and not (0.0 < params[0] <= params[1] < math.inf):
        raise DomainError(f"log-uniform needs finite 0 < lo <= hi, got {law!r}")
    if kind == "explicit" and not all(0.0 <= v < math.inf for v in params):
        raise DomainError(f"explicit law needs finite nonnegative values, got {law!r}")
    if kind == "clustered" and not (0.0 < params[0] < math.inf and 0.0 <= params[1] < 1.0):
        raise DomainError(
            f"clustered law needs a finite center > 0 and 0 <= jitter < 1, got {law!r}"
        )
    return kind, params


@functools.lru_cache(maxsize=256)
def derive_seed(seed: int, label: str) -> int:
    """Stable per-label sub-seed (crc-based, independent of hash salting), once per pair."""
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
            f"positive definite generation needs a positive spectrum, got {float(lam.min())}"
        )
    return lam, basis_entries(rng, dim, complex_entries)


def general_entries(rng: np.random.Generator, dim: int, complex_entries: bool = False) -> np.ndarray:
    x = rng.standard_normal((dim, dim))
    if complex_entries:
        x = (x + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return x
