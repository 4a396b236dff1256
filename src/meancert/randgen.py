"""Seeded random matrix draws with construction-time ground truth.

A trial's draws are a pure function of (seed, trial index): each trial
gets its own counter-based Philox stream (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), so draws never depend on evaluation
order or parallelism.  The stream of trial t under entropy e (the case's
``derive_seed``) is ``Philox(SeedSequence(e, spawn_key=(t,)))``.
``trial_keys`` computes the keys of a stack's trials in one call, after
numpy's documented seeding hash (O'Neill's ``seed_seq_fe``): the pool mixed
from e alone is cached per entropy, and a trial mixes in its one 32-bit
word and hashes the pool out, all trials in one pass over uint64 arrays
once a stack is long enough.  The keys depend on numpy's algorithm
staying as it is; ``tests/test_randgen.py::TestStreams`` pins them against
``np.random.SeedSequence``.  ``runner.draw_stack`` is the one reader of a
trial's stream: it fixes what each trial draws and in which order, and
``runner.inputs`` rebuilds a trial's matrices from its digest alone.

A stack's uniforms are drawn raw, doubles in [0, 1) from
``Generator.random``, which takes from the stream what ``uniform`` takes.
``spectra`` maps all rows of a law at once: to the law's bounds
(``uniform_bounds``) as lo + (hi - lo) * u, numpy's own formula for
``uniform``, then on to the spectrum, with the elementwise operations one
row alone would take.  So a stack's rows equal the same trials drawn as
stacks of one, and each equals numpy's ``uniform`` draw, bit for bit; the
latter holds as long as numpy's C does not fuse its formula into one
multiply-add, which ``tests/test_randgen.py`` checks over a law that spans
1e-300 to 1e300.

Positive definite matrices are assembled as Q diag(lam) Q* with lam drawn
from a configurable spectrum law and Q orthogonal (or unitary) from a QR
factorization of iid Gaussians.  The sampled (lam, Q) pair is exact by
construction and doubles as an eigensolver-independent decomposition for
downstream oracles.
"""
from __future__ import annotations

import functools
import math
import re
import zlib
from typing import Any

import numpy as np

from .linalg import DomainError, hermitianize, lapack

DEFAULT_LAW = "log-uniform:0.001:1000.0"


@functools.lru_cache(maxsize=256)
def parse_law(law: str) -> tuple[str, tuple[float, ...]]:
    """Parse a spectrum law string into (kind, params), once per string.

    Supported laws, every number finite:
      log-uniform:LO:HI     eigenvalues exp-uniform on [LO, HI], LO > 0
      explicit:V1,V2,...    fixed values >= 0 (a single value broadcasts)
      clustered:C:J         C * (1 + J * uniform(-1, 1)), C > 0, 0 <= J < 1

    A number is a token that Python's ``float`` reads and that holds no
    whitespace or ``_``.
    """
    kind, _, rest = str(law).partition(":")
    if kind not in ("log-uniform", "explicit", "clustered"):
        raise DomainError(
            f"unknown spectrum law kind {kind!r}; expected log-uniform, explicit or clustered"
        )
    # only the float parse is wrapped: a range check's DomainError is a ValueError too
    try:
        tokens = rest.split(",") if kind == "explicit" else rest.partition(":")[::2]
        for token in tokens:
            if re.search(r"[\s_]", token):
                raise ValueError(f"whitespace or '_' in the number {token!r}")
        params = tuple(map(float, tokens))
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


# the constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hash_consts(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (h, h * mult) pairs of ``count`` successive hash steps; h starts at ``init``."""
    out, h = [], init
    for _ in range(count):
        out.append((h, h * mult & _MASK32))
        h = h * mult & _MASK32
    return out


def _hash(value: int, consts: tuple[int, int]) -> int:
    h, h_next = consts
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


# the output hash of generate_state over the four pool words
_OUT = _hash_consts(_INIT_B, _MULT_B, _POOL)


@functools.lru_cache(maxsize=256)
def _entropy_pool(entropy: int) -> tuple[tuple[int, ...], ...]:
    """SeedSequence's pool mixed from ``entropy`` alone, once per entropy.

    Returns one lane per pool word: (_MIX_L * word, the hash constants with
    which the spawn word is mixed into it, then the constants with which
    the word is hashed out).  The run entropy is cut into 32-bit words, low
    first, and padded with zeros to the pool size, as SeedSequence pads it
    when there is a spawn key.
    """
    words = []
    while True:
        words.append(entropy & _MASK32)
        entropy >>= 32
        if not entropy:
            break
    words += [0] * (_POOL - len(words))
    extra = len(words) - _POOL
    # hashmix steps: one per pool word, 12 to mix the pool, 4 per extra word
    # and 4 for the spawn word; the constants do not depend on the values
    consts = iter(_hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + extra + 1)))
    pool = [_hash(w, next(consts)) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(consts)))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(w, next(consts)))
    return tuple((_MIX_L * p & _MASK32, *next(consts), *out) for p, out in zip(pool, _OUT))


@functools.lru_cache(maxsize=256)
def _entropy_lanes(entropy: int) -> np.ndarray:
    """The lanes of ``_entropy_pool(entropy)`` as a uint64 array (5, 4): one
    row per constant, one column per pool word, once per entropy."""
    return np.array(_entropy_pool(entropy), dtype=np.uint64).T


# The shortest stack whose keys are hashed on numpy arrays.  Timed per call
# on one core of a Xeon (numpy 2.4, CPython 3.11), the array pass costs
# 13-20 us whatever the stack's length up to a few dozen trials, the loop
# 3.4-5.4 us at k = 1 and about 2.5 us more per trial; they cross near k = 7.
ARRAY_KEYS_FROM = 8
# the array pass's constants as uint64 scalars, which numpy takes without a
# conversion per operation
_U_MASK32, _U_MIX_R, _U16, _U32 = (np.uint64(c) for c in (_MASK32, _MIX_R, 16, 32))


def trial_keys(entropy: int, trials) -> list[tuple[int, int]]:
    """The Philox key of each trial's stream under ``entropy``, in order:
    ``SeedSequence(entropy, spawn_key=(trial,)).generate_state(2, np.uint64)``,
    for trial indices of one 32-bit word each.  One call serves a stack.

    A stack of ``ARRAY_KEYS_FROM`` trials or more is hashed in one pass over
    uint64 arrays, on the lanes of ``_entropy_lanes``; a shorter one, such
    as a replay's stack of one, in a Python loop.  Both run the same 32-bit
    arithmetic (a product of two words fits in 64 bits, and a wrapped
    difference keeps its low 32), so both give the same keys.
    """
    if trials and not (0 <= min(trials) and max(trials) <= _MASK32):
        bad = next(t for t in trials if not 0 <= t <= _MASK32)
        raise DomainError(f"a trial index must lie in 0..{_MASK32}, got {bad}")
    if len(trials) >= ARRAY_KEYS_FROM:
        mixed, h, h_next, out_h, out_next = _entropy_lanes(entropy)
        value = (np.array(trials, dtype=np.uint64)[:, None] ^ h) * h_next & _U_MASK32
        r = (mixed - _U_MIX_R * (value ^ value >> _U16)) & _U_MASK32
        value = (r ^ r >> _U16 ^ out_h) * out_next & _U_MASK32
        words = value ^ value >> _U16
        # a key's two uint64s take the pool's words in turn: low half, then high
        return list(map(tuple, (words[:, 0::2] | words[:, 1::2] << _U32).tolist()))
    lanes, words = _entropy_pool(entropy), []
    for trial in trials:
        for mixed, h, h_next, out_h, out_next in lanes:
            value = (trial ^ h) * h_next & _MASK32
            r = (mixed - _MIX_R * (value ^ value >> 16)) & _MASK32
            value = (r ^ r >> 16 ^ out_h) * out_next & _MASK32
            words.append(value ^ value >> 16)
    # each key takes four words in turn: the low and high halves of its two uint64s
    quads = [iter(words)] * _POOL
    return [(w0 | w1 << 32, w2 | w3 << 32) for w0, w1, w2, w3 in zip(*quads)]


# One generator serves the process: ``runner.draw_stack`` overwrites its whole
# state for each trial, so a new one would cost its SeedSequence seeding
# (11-18 us) for nothing.  It is built on the first draw, so that importing
# the package does not load numpy.random.
_RNG = None


def stream_template() -> tuple[np.random.Generator, dict[str, Any], dict[str, Any]]:
    """The process's generator, a Philox state at the start of a stream, and
    that state's key slot.

    The state is counter 0 and an empty buffer, the state
    ``Philox(SeedSequence(e, spawn_key=(t,)))`` starts in once ``slot["key"]``
    holds trial t's key (``trial_keys``).  Assigning it to the generator's
    ``bit_generator.state`` starts that stream; the setter copies what it
    reads, so one state serves every trial of a stack.
    """
    global _RNG
    if _RNG is None:
        _RNG = np.random.Generator(np.random.Philox(0))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return _RNG, state, state["state"]


@functools.lru_cache(maxsize=256)
def uniform_bounds(law: str) -> tuple[float, float] | None:
    """The bounds of the uniforms ``law`` draws, one per eigenvalue, once per
    law (a log-uniform law's take one log each); None for an explicit law,
    which draws nothing."""
    kind, params = parse_law(law)
    if kind == "log-uniform":
        return np.log(params[0]), np.log(params[1])
    return (-1.0, 1.0) if kind == "clustered" else None


def spectra(law: str, u: np.ndarray) -> np.ndarray:
    """The spectra of ``law`` from its raw uniforms ``u``, doubles in [0, 1)
    as ``Generator.random`` draws them, one (k, dim) row per trial; an
    explicit law reads only the shape of ``u``.

    Every row is mapped at once, elementwise, as that row alone would be.
    The uniforms go to ``uniform_bounds(law)`` as lo + (hi - lo) * u, the
    formula of numpy's ``Generator.uniform(lo, hi)`` (its bits assume that
    numpy's C does not fuse it into one multiply-add); then come exp of the
    log-uniform draws, the clustered law's c * (1 + j * U), or the explicit
    values broadcast.  An explicit list of more than one value that does not
    give one per column is a DomainError.
    """
    kind, params = parse_law(law)
    if kind != "explicit":
        lo, hi = uniform_bounds(law)
        u = lo + (hi - lo) * u
    if kind == "log-uniform":
        return np.exp(u)
    if kind == "clustered":
        center, jitter = params
        return center * (1.0 + jitter * u)
    if len(params) not in (1, u.shape[-1]):
        raise DomainError(f"explicit law lists {len(params)} values but dim={u.shape[-1]}")
    return np.broadcast_to(np.array(params), u.shape).copy()


def orthonormalize(z: np.ndarray) -> np.ndarray:
    """Phase-fixed Q from the QR factorization of each matrix in z, (n, n) or (k, n, n)."""
    q, f = lapack("qr", z)  # R is f's upper triangle
    d = f.diagonal(0, -2, -1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def assemble(lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q diag(lam) Q*, symmetrized; for each (lam, Q) of a stack as well."""
    return hermitianize((q * lam[..., None, :]) @ q.conj().swapaxes(-1, -2))


def check_positive(lam: np.ndarray) -> None:
    """DomainError unless every eigenvalue of ``lam`` (any shape) is positive."""
    low = np.minimum.reduce(lam, axis=None)
    if low <= 0.0:
        raise DomainError(
            f"positive definite generation needs a positive spectrum, got {float(low)}"
        )
