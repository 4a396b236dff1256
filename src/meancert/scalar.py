"""Scalar means and the registry of certified scalar inequalities.

Weight convention: nu weights the FIRST argument, so
weighted_geom(a, b, nu) = a**nu * b**(1-nu) and
weighted_arith(a, b, nu) = nu*a + (1-nu)*b.  The operator module uses the
opposite convention (weight on the second operand); diagonal reductions
map nu there to 1 - nu here.

Every registered case is a chain of sides expected to be nondecreasing on
its domain.  judge_chains() judges a stack of chains, one per column of a
link-major array (one row per side), giving one row per link of the raw
adjacent slacks and of the normalized ones used for the pass verdict: link
i passes iff
sides[i] <= sides[i+1] + tol * max(1, |sides[i]|, |sides[i+1]|).
judge_grid() evaluates a chain's sides at a whole grid of points at once,
on broadcast arrays, unchecked, and judges them in one call into the grid's
Verdicts, the verdict type of every judge: the grid sweep and gap-profile
check their points first and build no record.  evaluate() checks one
point and judges it as the one-point grid, so replay and the sweep share
one judge.  The means the chains call are unchecked kernels;
weighted_geom() and the other public means are checked wrappers around them.

Every side and coefficient helper takes Python floats or numpy arrays and
gives the same bits either way.  Each takes its powers, square roots,
minima, maxima and branches through _pow, _sqrt, _min, _max and _where,
which are the Python operations on floats.  On arrays _pow takes the C
library's pow through np.float_power, as float ``**`` does (never np.power,
which rounds some pairs differently in the last bit), and give inf or nan
where float ``**`` raises; np.sqrt and comparisons are exact as they are.

0**0 is taken as 1 throughout (Python float semantics already agree), so
weights like r**(2r) extend continuously to r = 0.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from .linalg import DomainError, count_error

SCALAR_TOL = 1e-12

# default certification grids: a, b on a 13-point log grid, nu dyadic
A_GRID_13 = tuple(2.0 ** k for k in range(-6, 7))
NU_GRID_65 = tuple(j / 64 for j in range(65))
NU_GRID_33 = tuple(k / 32 for k in range(33))


def check_pair(a: float, b: float) -> None:
    """Reject arguments a, b that are not finite and positive with DomainError."""
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0 or b <= 0:
        raise DomainError(f"means need finite a, b > 0, got a={a!r}, b={b!r}")


def check_unit(name: str, t: float) -> None:
    """Reject a weight outside [0, 1] (or not finite) with DomainError."""
    if not math.isfinite(t) or t < 0.0 or t > 1.0:
        raise DomainError(f"{name}={t!r} outside [0, 1]")


def stack_weights(nu, k: int, check: Callable[[float], None], name: str = "nu") -> list[float]:
    """The weights of a stack of k matrices as k Python floats, from one number
    for every matrix (or a string that ``float`` reads) or one per matrix.

    Every ``check`` accepts an interval (``check_unit`` [0, 1], a case's
    ``check_nu`` [0, 1] within its domain), so finite weights pass if and
    only if the least and the greatest do, and when every weight is finite
    only those two are checked.  Otherwise, or when either fails, each
    distinct value passes ``check`` once, in order of first appearance, so
    that an error names the first bad value.  Then any count but 1 and k is
    a DomainError (``count_error``)."""
    try:
        values = iter((nu,) if isinstance(nu, str) else nu)
    except TypeError:  # one number for the whole stack
        values = iter((nu,))
    nus = list(map(float, values))
    passed = False
    if math.isfinite(sum(nus)):  # a sum is finite only if every weight is
        ordered = sorted(nus)
        try:
            for v in dict.fromkeys(ordered[:1] + ordered[-1:]):
                check(v)
            passed = True
        except DomainError:
            pass
    if not passed:
        for v in dict.fromkeys(nus):
            check(v)
    if len(nus) not in (1, k):
        raise count_error(name, len(nus), k)
    return nus if len(nus) == k else nus * k


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not a finite number > 0 with DomainError."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be a finite number > 0, got {tol!r}")


def _pow(x, y):
    """x ** y as Python floats take it; on arrays, np.float_power, whose float64
    loop calls the C library's pow as float ``**`` does.  Where float ``**``
    raises, the array holds C's inf (a result past the range of floats, or 0
    to a negative power); where it gives a complex number, nan."""
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
        return x ** y
    with np.errstate(all="ignore"):
        return np.float_power(x, y)


def _sqrt(x):
    """math.sqrt of a float, np.sqrt of an array: both are correctly rounded."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _where(cond, x, y):
    """x where ``cond`` holds, else y: np.where for an array of conditions."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _min(x, y):
    """min(x, y), with Python's rule for ties and NaN: x unless y < x."""
    return _where(y < x, y, x)


def _max(x, y):
    """max(x, y), with Python's rule for ties and NaN: x unless y > x."""
    return _where(y > x, y, x)


def _arith(a: float, b: float, nu: float) -> float:
    return nu * a + (1.0 - nu) * b


def _geom(a: float, b: float, nu: float) -> float:
    return _pow(a, nu) * _pow(b, 1.0 - nu)


def _heinz(a: float, b: float, nu: float) -> float:
    return (_pow(a, nu) * _pow(b, 1.0 - nu) + _pow(a, 1.0 - nu) * _pow(b, nu)) / 2.0


def _heron(a: float, b: float, alpha: float) -> float:
    return (1.0 - alpha) * _sqrt(a * b) + alpha * (a + b) / 2.0


def _alpha(nu: float) -> float:
    return 1.0 - 4.0 * (nu - nu * nu)


def weighted_arith(a: float, b: float, nu: float) -> float:
    """nu*a + (1-nu)*b."""
    check_pair(a, b)
    check_unit("nu", nu)
    return _arith(a, b, nu)


def weighted_geom(a: float, b: float, nu: float) -> float:
    """a**nu * b**(1-nu)."""
    check_pair(a, b)
    check_unit("nu", nu)
    return _geom(a, b, nu)


def heinz(a: float, b: float, nu: float) -> float:
    """(a**nu b**(1-nu) + a**(1-nu) b**nu) / 2, symmetric in nu <-> 1-nu."""
    check_pair(a, b)
    check_unit("nu", nu)
    return _heinz(a, b, nu)


def heron(a: float, b: float, alpha: float) -> float:
    """(1-alpha) sqrt(ab) + alpha (a+b)/2, interpolating geometric to arithmetic."""
    check_pair(a, b)
    check_unit("alpha", alpha)
    return _heron(a, b, alpha)


def alpha_of_nu(nu: float) -> float:
    """Heron weight 1 - 4(nu - nu^2) matching the Heinz mean at nu."""
    check_unit("nu", nu)
    return _alpha(nu)


def _r0(nu: float) -> float:
    return _min(nu, 1.0 - nu)


def _R0(nu: float) -> float:
    return _max(nu, 1.0 - nu)


def heinz_weight(nu: float) -> float:
    """nu**(nu - 2), the weight on the Heinz mean in the cubic-weight chains."""
    return _pow(nu, nu - 2.0)


def cubic_weight(nu: float) -> float:
    """nu^2 (nu - 2), the weight on the arithmetic mean in the cubic-weight chains."""
    return nu * nu * (nu - 2.0)


def cubic_side_weights(nu: float) -> tuple[float, float]:
    """(1 - nu^2 + nu^3, 1 - nu^2), the weights of new-2.1's left side and its operator forms."""
    return 1.0 - nu * nu + _pow(nu, 3), 1.0 - nu * nu


def tail_weights(nu: float) -> tuple[float, float, float, float]:
    """(r, R, r**(2r), R**(2R)) with r = min(nu, 1 - nu) and R = max(nu, 1 - nu)."""
    r, R = _r0(nu), _R0(nu)
    return r, R, _pow(r, 2.0 * r), _pow(R, 2.0 * R)


def _sq(a: float, b: float) -> float:
    return _pow(_sqrt(a) - _sqrt(b), 2)


# the leading "lo op nu op hi" of a domain label: op is < or <=, a bound is n or n/m
_DOMAIN = re.compile(r"(\d+(?:/\d+)?) (<=?) nu (<=?) (\d+(?:/\d+)?)(?: |$)")
_COMPARE = {"<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class Case:
    """What every registered chain states, whatever its kind.

    ``nu_domain`` is the chain's hypothesis on nu, and the only place it is
    written: its leading ``lo op nu op hi`` defines ``in_domain`` and
    ``nu_grid``, the dyadic 33-grid restricted to the domain.  A label
    outside that grammar raises ValueError when the case is built.
    ``check_nu`` checks one weight against it; a matrix judge checks a
    stack's weights with ``stack_weights(nu, k, case.check_nu)``.
    """

    kind: ClassVar[str]  # "scalar", "operator" or "hs"
    case_id: str
    description: str
    formula: str
    nu_domain: str
    _bounds: tuple = field(init=False, repr=False, compare=False)
    nu_grid: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _DOMAIN.match(self.nu_domain)
        if m is None:
            raise ValueError(f"case {self.case_id}: domain {self.nu_domain!r} does not start "
                             "with 'lo op nu op hi' (op < or <=, each bound n or n/m)")
        lo, lo_op, hi_op, hi = m.groups()
        bounds = (float(Fraction(lo)), _COMPARE[lo_op], _COMPARE[hi_op], float(Fraction(hi)))
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "nu_grid", tuple(v for v in NU_GRID_33 if self.in_domain(v)))

    def in_domain(self, nu: float) -> bool:
        """Whether nu satisfies the ``lo op nu op hi`` of ``nu_domain``."""
        lo, lo_op, hi_op, hi = self._bounds
        return lo_op(lo, nu) and hi_op(nu, hi)

    def check_nu(self, nu: float) -> None:
        """Reject nu outside [0, 1] or outside the case's domain."""
        check_unit("nu", nu)
        if not self.in_domain(nu):
            raise DomainError(
                f"case {self.case_id} requires nu in {self.nu_domain}, got nu={nu!r}"
            )


@dataclass(frozen=True)
class ScalarCase(Case):
    """One scalar inequality chain: sides(a, b, nu) must be nondecreasing."""

    kind: ClassVar[str] = "scalar"
    sides: Callable[[float, float, float], tuple[float, ...]]


@dataclass(frozen=True)
class ScalarTrial:
    case_id: str
    a: float
    b: float
    nu: float
    sides: tuple[float, ...]
    slacks: tuple[float, ...]  # raw adjacent differences sides[i+1] - sides[i]
    min_slack: float  # minimum normalized slack
    passed: bool


def _zw_lower_up(a, b, nu):
    # shared pieces of the two-sided refined Young sandwich
    g = _pow(a, 1.0 - nu) * _pow(b, nu)
    mid = (1.0 - nu) * a + nu * b
    s = _sq(a, b)
    q = _pow(a * b, 0.25)
    qa = _pow(q - _sqrt(a), 2)
    qb = _pow(q - _sqrt(b), 2)
    return g, mid, s, qa, qb


def _sides_new21(a, b, nu):
    p, q = cubic_side_weights(nu)
    return (p * a + q * b, heinz_weight(nu) * _geom(a, b, nu) + _sq(a, b))


def _sides_zw15(a, b, nu):
    g, mid, s, qa, qb = _zw_lower_up(a, b, nu)
    r1 = _min(2.0 * nu, 1.0 - 2.0 * nu)
    return (g + nu * s + r1 * qa, mid, g + (1.0 - nu) * s - r1 * qb)


def _sides_zw16(a, b, nu):
    g, mid, s, qa, qb = _zw_lower_up(a, b, nu)
    r1 = _min(2.0 - 2.0 * nu, 2.0 * nu - 1.0)
    return (g + (1.0 - nu) * s + r1 * qb, mid, g + nu * s - r1 * qa)


def _sides_zj17(a, b, nu):
    r = _r0(nu)
    h4 = _heinz(a, b, 0.25)
    outer = (1.0 - 4.0 * r) * _heinz(a, b, 0.0) + 4.0 * r * h4
    inner = (4.0 * r - 1.0) * _heinz(a, b, 0.5) + 2.0 * (1.0 - 2.0 * r) * h4
    in_outer = (nu <= 0.25) | (nu >= 0.75)
    in_inner = (0.25 <= nu) & (nu <= 0.75)
    # at the branch boundaries both bounds apply; certify against the tighter one
    bound = _where(in_outer & in_inner, _min(outer, inner), _where(in_outer, outer, inner))
    return (_heinz(a, b, nu), bound)


def _sides_comb211(a, b, nu):
    r, R, rr, RR = tail_weights(nu)
    g = _pow(a, nu) * _pow(b, 1.0 - nu)
    s = _sq(a, b)
    return (
        rr * g + r * r * s,
        nu * nu * a + _pow(1.0 - nu, 2) * b,
        RR * g + R * R * s,
    )


def _sides_comb212(a, b, nu):
    r, R, rr, RR = tail_weights(nu)
    h = _heinz(a, b, nu)
    am = (a + b) / 2.0
    gm = _sqrt(a * b)
    return (
        rr * h + (2.0 * r - 1.0) * am,
        2.0 * r * r * gm,
        2.0 * R * R * gm,
        RR * h + (2.0 * R - 1.0) * am,
    )


def _sides_kai19(a, b, nu):
    # bk-1.11 is this chain reversed, on the other half of [0, 1]
    w = nu * nu
    return _pow(w * a, nu) * _pow(b, 1.0 - nu) + w * _sq(a, b), w * a + _pow(1.0 - nu, 2) * b


def _sides_kai110(a, b, nu):
    # bk-1.12 is this chain reversed, on the other half of [0, 1]
    w = _pow(1.0 - nu, 2)
    return _pow(a, nu) * _pow(w * b, 1.0 - nu) + w * _sq(a, b), nu * nu * a + w * b


def _sides_cf113(a, b, nu):
    g, c = _geom(a, b, nu), nu * (1.0 - nu) * _pow(a - b, 2)
    return (g + c / (2.0 * _max(a, b)), _arith(a, b, nu), g + c / (2.0 * _min(a, b)))


def _build_registry() -> tuple[ScalarCase, ...]:
    cases = [
        ScalarCase(
            "young-1.1",
            "weighted arithmetic-geometric mean inequality",
            "a^v b^(1-v) <= v a + (1-v) b",
            "0 <= nu <= 1",
            lambda a, b, v: (_geom(a, b, v), _arith(a, b, v)),
        ),
        ScalarCase(
            "km-1.3",
            "refined Young lower bound with square-root difference correction",
            "a^v b^(1-v) + r0 (sqrt(a)-sqrt(b))^2 <= v a + (1-v) b,  r0 = min(v, 1-v)",
            "0 <= nu <= 1",
            lambda a, b, v: (
                _geom(a, b, v) + _r0(v) * _sq(a, b),
                _arith(a, b, v),
            ),
        ),
        ScalarCase(
            "km-1.4",
            "reversed Young bound with square-root difference correction",
            "v a + (1-v) b <= a^v b^(1-v) + R0 (sqrt(a)-sqrt(b))^2,  R0 = max(v, 1-v)",
            "0 <= nu <= 1",
            lambda a, b, v: (
                _arith(a, b, v),
                _geom(a, b, v) + _R0(v) * _sq(a, b),
            ),
        ),
        ScalarCase(
            "zw-1.5",
            "two-sided refined Young sandwich with fourth-root corrections, lower weight range",
            "a^(1-v) b^v + v (sqrt(a)-sqrt(b))^2 + r1 ((ab)^(1/4)-sqrt(a))^2 <= (1-v) a + v b "
            "<= a^(1-v) b^v + (1-v) (sqrt(a)-sqrt(b))^2 - r1 ((ab)^(1/4)-sqrt(b))^2,  r1 = min(2v, 1-2v)",
            "0 < nu <= 1/2",
            _sides_zw15,
        ),
        ScalarCase(
            "zw-1.6",
            "two-sided refined Young sandwich with fourth-root corrections, upper weight range",
            "a^(1-v) b^v + (1-v) (sqrt(a)-sqrt(b))^2 + r1 ((ab)^(1/4)-sqrt(b))^2 <= (1-v) a + v b "
            "<= a^(1-v) b^v + v (sqrt(a)-sqrt(b))^2 - r1 ((ab)^(1/4)-sqrt(a))^2,  r1 = min(2-2v, 2v-1)",
            "1/2 < nu < 1",
            _sides_zw16,
        ),
        ScalarCase(
            "kai-1.9",
            "squared-weight Young refinement, lower weight range",
            "(v^2 a)^v b^(1-v) + v^2 (sqrt(a)-sqrt(b))^2 <= v^2 a + (1-v)^2 b",
            "0 <= nu <= 1/2",
            _sides_kai19,
        ),
        ScalarCase(
            "kai-1.10",
            "squared-weight Young refinement, upper weight range",
            "a^v ((1-v)^2 b)^(1-v) + (1-v)^2 (sqrt(a)-sqrt(b))^2 <= v^2 a + (1-v)^2 b",
            "1/2 <= nu <= 1",
            _sides_kai110,
        ),
        ScalarCase(
            "bk-1.11",
            "reversed squared-weight Young bound, upper weight range",
            "v^2 a + (1-v)^2 b <= v^2 (sqrt(a)-sqrt(b))^2 + (v^2 a)^v b^(1-v)",
            "1/2 <= nu <= 1",
            lambda a, b, v: _sides_kai19(a, b, v)[::-1],
        ),
        ScalarCase(
            "bk-1.12",
            "reversed squared-weight Young bound, lower weight range",
            "v^2 a + (1-v)^2 b <= (1-v)^2 (sqrt(a)-sqrt(b))^2 + a^v ((1-v)^2 b)^(1-v)",
            "0 <= nu <= 1/2",
            lambda a, b, v: _sides_kai110(a, b, v)[::-1],
        ),
        ScalarCase(
            "cf-1.13",
            "two-sided Young sandwich with curvature corrections at the extreme values",
            "a^v b^(1-v) + v(1-v)(a-b)^2/(2 max(a,b)) <= v a + (1-v) b "
            "<= a^v b^(1-v) + v(1-v)(a-b)^2/(2 min(a,b))",
            "0 <= nu <= 1",
            _sides_cf113,
        ),
        ScalarCase(
            "heinz-1.14",
            "Heinz mean interpolates geometric to arithmetic",
            "sqrt(ab) <= H_v(a,b) <= (a+b)/2",
            "0 <= nu <= 1",
            lambda a, b, v: (_sqrt(a * b), _heinz(a, b, v), (a + b) / 2.0),
        ),
        ScalarCase(
            "heron-1.15",
            "Heron mean interpolates geometric to arithmetic (nu acts as alpha)",
            "sqrt(ab) <= F_alpha(a,b) <= (a+b)/2",
            "0 <= nu <= 1",
            lambda a, b, v: (_sqrt(a * b), _heron(a, b, v), (a + b) / 2.0),
        ),
        ScalarCase(
            "km-heinz-1.16",
            "refined Heinz upper bound with square-root difference correction",
            "H_v(a,b) + r0 (sqrt(a)-sqrt(b))^2 <= (a+b)/2,  r0 = min(v, 1-v)",
            "0 <= nu <= 1",
            lambda a, b, v: (_heinz(a, b, v) + _r0(v) * _sq(a, b), (a + b) / 2.0),
        ),
        ScalarCase(
            "zj-1.17",
            "piecewise-linear convexity bound on the Heinz mean",
            "H_v <= (1-4r0) H_0 + 4 r0 H_{1/4}  on [0,1/4]u[3/4,1];  "
            "H_v <= (4r0-1) H_{1/2} + 2(1-2r0) H_{1/4}  on [1/4,3/4];  both at the boundaries",
            "0 <= nu <= 1",
            _sides_zj17,
        ),
        ScalarCase(
            "bhatia-heron",
            "Heinz mean dominated by the Heron mean at the matched weight",
            "H_v(a,b) <= F_{alpha(v)}(a,b),  alpha(v) = 1 - 4(v - v^2)",
            "0 <= nu <= 1",
            lambda a, b, v: (_heinz(a, b, v), _heron(a, b, _alpha(v))),
        ),
        ScalarCase(
            "new-2.1",
            "cubic-weight Young-type bound against a rescaled geometric mean",
            "(1 - v^2 + v^3) a + (1 - v^2) b <= v^(v-2) a^v b^(1-v) + (sqrt(a)-sqrt(b))^2",
            "0 < nu <= 1 (vacuous at nu = 0)",
            _sides_new21,
        ),
        ScalarCase(
            "comb-2.11",
            "two-sided squared-weight sandwich with min/max weight powers",
            "r^(2r) a^v b^(1-v) + r^2 (sqrt(a)-sqrt(b))^2 <= v^2 a + (1-v)^2 b "
            "<= R^(2R) a^v b^(1-v) + R^2 (sqrt(a)-sqrt(b))^2,  r = min(v,1-v), R = max(v,1-v)",
            "0 <= nu <= 1",
            _sides_comb211,
        ),
        ScalarCase(
            "comb-2.12",
            "four-term Heinz chain through the scaled geometric mean",
            "r^(2r) H_v + (2r-1)(a+b)/2 <= 2 r^2 sqrt(ab) <= 2 R^2 sqrt(ab) "
            "<= R^(2R) H_v + (2R-1)(a+b)/2",
            "0 <= nu <= 1",
            _sides_comb212,
        ),
    ]
    return tuple(cases)


_REGISTRY = _build_registry()


def registry() -> tuple[ScalarCase, ...]:
    """All registered scalar cases, in fixed order."""
    return _REGISTRY


class Verdicts(NamedTuple):
    """The verdicts of a stack of matrix trials or of a scalar grid's points, one
    entry per trial or point (``slacks``: one row per link, one entry per
    trial): what a sweep folds, what ``gap-profile`` writes, and what each
    trial record is built from.  A column is a list (the matrix judges) or a
    numpy array (``judge_grid``, whose ``slacks`` are C-contiguous rows)."""

    min_slack: list[float] | np.ndarray  # each trial's smallest normalized slack
    passed: list[bool] | np.ndarray
    worst_link: list[int] | np.ndarray  # the first link at min_slack, by its index in links
    slacks: list[list[float]] | np.ndarray  # each link's normalized slacks
    advisory: list[bool] | None = None  # hs: lenient mode waived a failed hypothesis
    oracle_rel_err: list[float] | None = None  # hs: how far the oracle route's sides part


def require_finite(values: Sequence[float], label: str, who: str) -> None:
    """DomainError "{label} {i} of {who} is nan, ..." for the first value not finite:
    the arithmetic left the range of floats, which is a domain error, never a verdict."""
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise DomainError(f"{label} {i} of {who} is {v!r}, not a finite number; "
                              "these inputs take the arithmetic out of the range of floats")


@np.errstate(over="ignore", invalid="ignore")  # what is not finite raises below instead
def judge_chains(sides: np.ndarray, who: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacent slacks of a stack of k chains, whose sides should be
    nondecreasing, given link-major: row i of ``sides`` (m, k) is side i of
    every chain, so each step below runs on whole rows.

    Returns (raws, norms, worst): the raw slacks sides[i+1] - sides[i], the
    same divided by max(1, |sides[i]|, |sides[i+1]|), both (m-1, k), one row
    per link, and each chain's index (k,) of its first smallest normalized
    slack (0.0 and -0.0 tie, so the first of them is the worst).  A side or a
    slack that is not finite is a DomainError naming ``who`` (see
    ``require_finite``), for the first chain that holds one.
    """
    raws = sides[1:] - sides[:-1]
    # in place where it can be: each large temporary costs page faults at every call
    scale = np.abs(sides)
    np.maximum(scale, 1.0, out=scale)
    norms = np.maximum(scale[:-1], scale[1:])
    np.divide(raws, norms, out=norms)
    # a side that is not finite makes the slacks next to it not finite
    if not np.logical_and.reduce(np.isfinite(raws), axis=None):
        r = int(np.logical_and.reduce(np.isfinite(raws), axis=0).argmin())
        require_finite(sides[:, r].tolist(), "side", who)
        require_finite(raws[:, r].tolist(), "the slack of link", who)
    # a chain's worst link is the last that fell strictly below every link before it
    worst, best = np.zeros(norms.shape[1], dtype=np.intp), norms[0]
    for j in range(1, len(norms)):
        worst[norms[j] < best] = j
        best = np.minimum(best, norms[j])
    return raws, norms, worst


def judge_grid(case: ScalarCase, nus: Sequence[float], a_values: Sequence[float],
               b_values: Sequence[float], tol: float = SCALAR_TOL
               ) -> tuple[Verdicts, tuple[np.ndarray, np.ndarray]]:
    """Judge ``case`` at every point (a, b) of ``a_values`` x ``b_values`` at every
    nu of ``nus``: ``(verdicts, (sides, raws))``, one column per point in
    (nu, a, b) order.  The ``Verdicts`` columns are arrays, with ``slacks`` one
    row per link; the sides, one row per side, come from one ``case.sides``
    call on broadcast arrays nu (len(nus), 1, 1), a (1, len(a_values), 1) and
    b (1, 1, len(b_values)), so a term of nu alone is taken once per nu and a
    term of (a, b) alone once, and are judged in one ``judge_chains`` call.

    The points are not checked; callers check them first.  A power past the
    range of floats is inf here (C's pow, where float ``**`` raises), which no
    chain hides.  So if a side or slack is not finite, the first such point's
    column is judged again under a name that gives the point, and the error
    is that point's own: ``side 0 of cf-1.13 at a=1e+300, b=1.0, nu=0.5 is inf, ...``.
    """
    nu = np.array(nus, dtype=float).reshape(-1, 1, 1)
    a = np.array(a_values, dtype=float).reshape(1, -1, 1)
    b = np.array(b_values, dtype=float).reshape(1, 1, -1)
    shape = (nu.size, a.size, b.size)
    with np.errstate(over="ignore", invalid="ignore"):  # what is not finite raises below
        columns = case.sides(a, b, nu)
        sides = np.stack([np.broadcast_to(c, shape) for c in columns]).reshape(len(columns), -1)
        try:
            raws, norms, worst = judge_chains(sides, case.case_id)
        except DomainError:  # the first point whose slacks are not finite, named
            r = int(np.logical_and.reduce(np.isfinite(sides[1:] - sides[:-1]), axis=0).argmin())
            v, i, j = np.unravel_index(r, shape)
            judge_chains(sides[:, r:r + 1], f"{case.case_id} at a={a_values[i]!r}, "
                         f"b={b_values[j]!r}, nu={nus[v]!r}")
            raise
    # each point's slack read at its worst link, so that a zero keeps its sign
    # (a flat index: norms is C-contiguous, as the sides stacked above are)
    mins = norms.take(worst * len(worst) + np.arange(len(worst)))
    return Verdicts(mins, mins >= -tol, worst, norms), (sides, raws)


def evaluate(case: ScalarCase, a: float, b: float, nu: float,
             tol: float = SCALAR_TOL) -> ScalarTrial:
    """Check the point (a, b, nu), then judge ``case`` there as the one-point grid
    ``judge_grid(case, [nu], [a], [b], tol)``: replay judges a point as the sweep does."""
    check_pair(a, b)
    case.check_nu(nu)
    v, (sides, raws) = judge_grid(case, [nu], [a], [b], tol)
    return ScalarTrial(case.case_id, a, b, nu, tuple(sides.ravel().tolist()),
                       tuple(raws.ravel().tolist()), v.min_slack.item(), v.passed.item())
