"""Scalar means and the registry of certified scalar inequalities.

Weight convention: nu weights the FIRST argument, so
weighted_geom(a, b, nu) = a**nu * b**(1-nu) and
weighted_arith(a, b, nu) = nu*a + (1-nu)*b.  The operator module uses the
opposite convention (weight on the second operand); diagonal reductions
map nu there to 1 - nu here.

Every registered case is a chain of sides expected to be nondecreasing on
its domain.  evaluate() reports raw adjacent slacks plus a normalized
minimum used for the pass verdict: link i passes iff
sides[i] <= sides[i+1] + tol * max(1, |sides[i]|, |sides[i+1]|).

0**0 is taken as 1 throughout (Python float semantics already agree), so
weights like r**(2r) extend continuously to r = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .linalg import DomainError

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


def weighted_arith(a: float, b: float, nu: float) -> float:
    """nu*a + (1-nu)*b."""
    check_pair(a, b)
    check_unit("nu", nu)
    return nu * a + (1.0 - nu) * b


def weighted_geom(a: float, b: float, nu: float) -> float:
    """a**nu * b**(1-nu)."""
    check_pair(a, b)
    check_unit("nu", nu)
    return a ** nu * b ** (1.0 - nu)


def heinz(a: float, b: float, nu: float) -> float:
    """(a**nu b**(1-nu) + a**(1-nu) b**nu) / 2, symmetric in nu <-> 1-nu."""
    check_pair(a, b)
    check_unit("nu", nu)
    return (a ** nu * b ** (1.0 - nu) + a ** (1.0 - nu) * b ** nu) / 2.0


def heron(a: float, b: float, alpha: float) -> float:
    """(1-alpha) sqrt(ab) + alpha (a+b)/2, interpolating geometric to arithmetic."""
    check_pair(a, b)
    check_unit("alpha", alpha)
    return (1.0 - alpha) * math.sqrt(a * b) + alpha * (a + b) / 2.0


def alpha_of_nu(nu: float) -> float:
    """Heron weight 1 - 4(nu - nu^2) matching the Heinz mean at nu."""
    check_unit("nu", nu)
    return 1.0 - 4.0 * (nu - nu * nu)


def _r0(nu: float) -> float:
    return min(nu, 1.0 - nu)


def _R0(nu: float) -> float:
    return max(nu, 1.0 - nu)


def heinz_weight(nu: float) -> float:
    """nu**(nu - 2), the weight on the Heinz mean in the cubic-weight chains."""
    return nu ** (nu - 2.0)


def cubic_weight(nu: float) -> float:
    """nu^2 (nu - 2), the weight on the arithmetic mean in the cubic-weight chains."""
    return nu * nu * (nu - 2.0)


def cubic_side_weights(nu: float) -> tuple[float, float]:
    """(1 - nu^2 + nu^3, 1 - nu^2), the weights of new-2.1's left side and its operator forms."""
    return 1.0 - nu * nu + nu ** 3, 1.0 - nu * nu


def tail_weights(nu: float) -> tuple[float, float, float, float]:
    """(r, R, r**(2r), R**(2R)) with r = min(nu, 1 - nu) and R = max(nu, 1 - nu)."""
    r, R = _r0(nu), _R0(nu)
    return r, R, r ** (2.0 * r), R ** (2.0 * R)


def _sq(a: float, b: float) -> float:
    return (math.sqrt(a) - math.sqrt(b)) ** 2


@dataclass(frozen=True)
class Case:
    """What every registered chain states, whatever its kind."""

    case_id: str
    description: str
    formula: str
    nu_domain: str
    in_domain: Callable[[float], bool]

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
    g = a ** (1.0 - nu) * b ** nu
    mid = (1.0 - nu) * a + nu * b
    s = _sq(a, b)
    q = (a * b) ** 0.25
    qa = (q - math.sqrt(a)) ** 2
    qb = (q - math.sqrt(b)) ** 2
    return g, mid, s, qa, qb


def _sides_new21(a, b, nu):
    p, q = cubic_side_weights(nu)
    return (p * a + q * b, heinz_weight(nu) * weighted_geom(a, b, nu) + _sq(a, b))


def _sides_zw15(a, b, nu):
    g, mid, s, qa, qb = _zw_lower_up(a, b, nu)
    r1 = min(2.0 * nu, 1.0 - 2.0 * nu)
    return (g + nu * s + r1 * qa, mid, g + (1.0 - nu) * s - r1 * qb)


def _sides_zw16(a, b, nu):
    g, mid, s, qa, qb = _zw_lower_up(a, b, nu)
    r1 = min(2.0 - 2.0 * nu, 2.0 * nu - 1.0)
    return (g + (1.0 - nu) * s + r1 * qb, mid, g + nu * s - r1 * qa)


def _sides_zj17(a, b, nu):
    r = _r0(nu)
    branches = []
    if nu <= 0.25 or nu >= 0.75:
        branches.append((1.0 - 4.0 * r) * heinz(a, b, 0.0) + 4.0 * r * heinz(a, b, 0.25))
    if 0.25 <= nu <= 0.75:
        branches.append((4.0 * r - 1.0) * heinz(a, b, 0.5) + 2.0 * (1.0 - 2.0 * r) * heinz(a, b, 0.25))
    # at the branch boundaries both bounds apply; certify against the tighter one
    return (heinz(a, b, nu), min(branches))


def _sides_comb211(a, b, nu):
    r, R, rr, RR = tail_weights(nu)
    g = a ** nu * b ** (1.0 - nu)
    s = _sq(a, b)
    return (
        rr * g + r * r * s,
        nu * nu * a + (1.0 - nu) ** 2 * b,
        RR * g + R * R * s,
    )


def _sides_comb212(a, b, nu):
    r, R, rr, RR = tail_weights(nu)
    h = heinz(a, b, nu)
    am = (a + b) / 2.0
    gm = math.sqrt(a * b)
    return (
        rr * h + (2.0 * r - 1.0) * am,
        2.0 * r * r * gm,
        2.0 * R * R * gm,
        RR * h + (2.0 * R - 1.0) * am,
    )


def _build_registry() -> tuple[ScalarCase, ...]:
    full = lambda nu: 0.0 <= nu <= 1.0
    cases = [
        ScalarCase(
            "young-1.1",
            "weighted arithmetic-geometric mean inequality",
            "a^v b^(1-v) <= v a + (1-v) b",
            "0 <= nu <= 1",
            full,
            lambda a, b, v: (weighted_geom(a, b, v), weighted_arith(a, b, v)),
        ),
        ScalarCase(
            "km-1.3",
            "refined Young lower bound with square-root difference correction",
            "a^v b^(1-v) + r0 (sqrt(a)-sqrt(b))^2 <= v a + (1-v) b,  r0 = min(v, 1-v)",
            "0 <= nu <= 1",
            full,
            lambda a, b, v: (
                weighted_geom(a, b, v) + _r0(v) * _sq(a, b),
                weighted_arith(a, b, v),
            ),
        ),
        ScalarCase(
            "km-1.4",
            "reversed Young bound with square-root difference correction",
            "v a + (1-v) b <= a^v b^(1-v) + R0 (sqrt(a)-sqrt(b))^2,  R0 = max(v, 1-v)",
            "0 <= nu <= 1",
            full,
            lambda a, b, v: (
                weighted_arith(a, b, v),
                weighted_geom(a, b, v) + _R0(v) * _sq(a, b),
            ),
        ),
        ScalarCase(
            "zw-1.5",
            "two-sided refined Young sandwich with fourth-root corrections, lower weight range",
            "a^(1-v) b^v + v (sqrt(a)-sqrt(b))^2 + r1 ((ab)^(1/4)-sqrt(a))^2 <= (1-v) a + v b "
            "<= a^(1-v) b^v + (1-v) (sqrt(a)-sqrt(b))^2 - r1 ((ab)^(1/4)-sqrt(b))^2,  r1 = min(2v, 1-2v)",
            "0 < nu <= 1/2",
            lambda nu: 0.0 < nu <= 0.5,
            _sides_zw15,
        ),
        ScalarCase(
            "zw-1.6",
            "two-sided refined Young sandwich with fourth-root corrections, upper weight range",
            "a^(1-v) b^v + (1-v) (sqrt(a)-sqrt(b))^2 + r1 ((ab)^(1/4)-sqrt(b))^2 <= (1-v) a + v b "
            "<= a^(1-v) b^v + v (sqrt(a)-sqrt(b))^2 - r1 ((ab)^(1/4)-sqrt(a))^2,  r1 = min(2-2v, 2v-1)",
            "1/2 < nu < 1",
            lambda nu: 0.5 < nu < 1.0,
            _sides_zw16,
        ),
        ScalarCase(
            "kai-1.9",
            "squared-weight Young refinement, lower weight range",
            "(v^2 a)^v b^(1-v) + v^2 (sqrt(a)-sqrt(b))^2 <= v^2 a + (1-v)^2 b",
            "0 <= nu <= 1/2",
            lambda nu: 0.0 <= nu <= 0.5,
            lambda a, b, v: (
                (v * v * a) ** v * b ** (1.0 - v) + v * v * _sq(a, b),
                v * v * a + (1.0 - v) ** 2 * b,
            ),
        ),
        ScalarCase(
            "kai-1.10",
            "squared-weight Young refinement, upper weight range",
            "a^v ((1-v)^2 b)^(1-v) + (1-v)^2 (sqrt(a)-sqrt(b))^2 <= v^2 a + (1-v)^2 b",
            "1/2 <= nu <= 1",
            lambda nu: 0.5 <= nu <= 1.0,
            lambda a, b, v: (
                a ** v * ((1.0 - v) ** 2 * b) ** (1.0 - v) + (1.0 - v) ** 2 * _sq(a, b),
                v * v * a + (1.0 - v) ** 2 * b,
            ),
        ),
        ScalarCase(
            "bk-1.11",
            "reversed squared-weight Young bound, upper weight range",
            "v^2 a + (1-v)^2 b <= v^2 (sqrt(a)-sqrt(b))^2 + (v^2 a)^v b^(1-v)",
            "1/2 <= nu <= 1",
            lambda nu: 0.5 <= nu <= 1.0,
            lambda a, b, v: (
                v * v * a + (1.0 - v) ** 2 * b,
                v * v * _sq(a, b) + (v * v * a) ** v * b ** (1.0 - v),
            ),
        ),
        ScalarCase(
            "bk-1.12",
            "reversed squared-weight Young bound, lower weight range",
            "v^2 a + (1-v)^2 b <= (1-v)^2 (sqrt(a)-sqrt(b))^2 + a^v ((1-v)^2 b)^(1-v)",
            "0 <= nu <= 1/2",
            lambda nu: 0.0 <= nu <= 0.5,
            lambda a, b, v: (
                v * v * a + (1.0 - v) ** 2 * b,
                (1.0 - v) ** 2 * _sq(a, b) + a ** v * ((1.0 - v) ** 2 * b) ** (1.0 - v),
            ),
        ),
        ScalarCase(
            "cf-1.13",
            "two-sided Young sandwich with curvature corrections at the extreme values",
            "a^v b^(1-v) + v(1-v)(a-b)^2/(2 max(a,b)) <= v a + (1-v) b "
            "<= a^v b^(1-v) + v(1-v)(a-b)^2/(2 min(a,b))",
            "0 <= nu <= 1",
            full,
            lambda a, b, v: (
                weighted_geom(a, b, v) + v * (1.0 - v) * (a - b) ** 2 / (2.0 * max(a, b)),
                weighted_arith(a, b, v),
                weighted_geom(a, b, v) + v * (1.0 - v) * (a - b) ** 2 / (2.0 * min(a, b)),
            ),
        ),
        ScalarCase(
            "heinz-1.14",
            "Heinz mean interpolates geometric to arithmetic",
            "sqrt(ab) <= H_v(a,b) <= (a+b)/2",
            "0 <= nu <= 1",
            full,
            lambda a, b, v: (math.sqrt(a * b), heinz(a, b, v), (a + b) / 2.0),
        ),
        ScalarCase(
            "heron-1.15",
            "Heron mean interpolates geometric to arithmetic (nu acts as alpha)",
            "sqrt(ab) <= F_alpha(a,b) <= (a+b)/2",
            "0 <= nu <= 1",
            full,
            lambda a, b, v: (math.sqrt(a * b), heron(a, b, v), (a + b) / 2.0),
        ),
        ScalarCase(
            "km-heinz-1.16",
            "refined Heinz upper bound with square-root difference correction",
            "H_v(a,b) + r0 (sqrt(a)-sqrt(b))^2 <= (a+b)/2,  r0 = min(v, 1-v)",
            "0 <= nu <= 1",
            full,
            lambda a, b, v: (heinz(a, b, v) + _r0(v) * _sq(a, b), (a + b) / 2.0),
        ),
        ScalarCase(
            "zj-1.17",
            "piecewise-linear convexity bound on the Heinz mean",
            "H_v <= (1-4r0) H_0 + 4 r0 H_{1/4}  on [0,1/4]u[3/4,1];  "
            "H_v <= (4r0-1) H_{1/2} + 2(1-2r0) H_{1/4}  on [1/4,3/4];  both at the boundaries",
            "0 <= nu <= 1",
            full,
            _sides_zj17,
        ),
        ScalarCase(
            "bhatia-heron",
            "Heinz mean dominated by the Heron mean at the matched weight",
            "H_v(a,b) <= F_{alpha(v)}(a,b),  alpha(v) = 1 - 4(v - v^2)",
            "0 <= nu <= 1",
            full,
            lambda a, b, v: (heinz(a, b, v), heron(a, b, alpha_of_nu(v))),
        ),
        ScalarCase(
            "new-2.1",
            "cubic-weight Young-type bound against a rescaled geometric mean",
            "(1 - v^2 + v^3) a + (1 - v^2) b <= v^(v-2) a^v b^(1-v) + (sqrt(a)-sqrt(b))^2",
            "0 < nu <= 1 (vacuous at nu = 0)",
            lambda nu: 0.0 < nu <= 1.0,
            _sides_new21,
        ),
        ScalarCase(
            "comb-2.11",
            "two-sided squared-weight sandwich with min/max weight powers",
            "r^(2r) a^v b^(1-v) + r^2 (sqrt(a)-sqrt(b))^2 <= v^2 a + (1-v)^2 b "
            "<= R^(2R) a^v b^(1-v) + R^2 (sqrt(a)-sqrt(b))^2,  r = min(v,1-v), R = max(v,1-v)",
            "0 <= nu <= 1",
            full,
            _sides_comb211,
        ),
        ScalarCase(
            "comb-2.12",
            "four-term Heinz chain through the scaled geometric mean",
            "r^(2r) H_v + (2r-1)(a+b)/2 <= 2 r^2 sqrt(ab) <= 2 R^2 sqrt(ab) "
            "<= R^(2R) H_v + (2R-1)(a+b)/2",
            "0 <= nu <= 1",
            full,
            _sides_comb212,
        ),
    ]
    return tuple(cases)


_REGISTRY = _build_registry()


def registry() -> tuple[ScalarCase, ...]:
    """All registered scalar cases, in fixed order."""
    return _REGISTRY


def find_case(cases: Sequence[Case], kind: str, case_id: str) -> Case:
    """The case of ``cases`` with id ``case_id``; DomainError listing the known ids."""
    for case in cases:
        if case.case_id == case_id:
            return case
    known = ", ".join(sorted(c.case_id for c in cases))
    raise DomainError(f"unknown {kind} case {case_id!r}; known cases: {known}")


def case_by_id(case_id: str) -> ScalarCase:
    return find_case(_REGISTRY, "scalar", case_id)


def first_worst(values: Sequence[float]) -> int:
    """Index of the first smallest value: the worst link of a judged chain."""
    worst = 0
    for i in range(1, len(values)):
        if values[i] < values[worst]:
            worst = i
    return worst


def require_finite(values: Sequence[float], label: str, who: str) -> None:
    """DomainError "{label} {i} of {who} is nan, ..." for the first value not finite:
    the arithmetic left the range of floats, which is a domain error, never a verdict."""
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise DomainError(f"{label} {i} of {who} is {v!r}, not a finite number; "
                              "these inputs take the arithmetic out of the range of floats")


def judge_chain(sides: Sequence[float],
                who: str = "the chain") -> tuple[list[float], list[float], int]:
    """Adjacent slacks of a chain whose sides should be nondecreasing.

    Returns (raws, norms, worst): the raw slacks sides[i+1] - sides[i], the
    same divided by max(1, |sides[i]|, |sides[i+1]|), and the index of the
    first smallest normalized slack.  A side or a slack that is not finite
    is a DomainError naming ``who`` (see ``require_finite``).
    """
    raws = []
    norms = []
    for i in range(len(sides) - 1):
        lo, hi = sides[i], sides[i + 1]
        raw = hi - lo
        raws.append(raw)
        norms.append(raw / max(1.0, abs(lo), abs(hi)))
    if not math.isfinite(sum(raws)):  # as soon as a side or a slack is not
        require_finite(sides, "side", who)
        require_finite(raws, "the slack of link", who)
    return raws, norms, first_worst(norms)


def evaluate(case: ScalarCase, a: float, b: float, nu: float,
             tol: float = SCALAR_TOL) -> ScalarTrial:
    """Evaluate one chain at (a, b, nu) and judge every adjacent link."""
    check_pair(a, b)
    case.check_nu(nu)
    try:
        sides = tuple(float(s) for s in case.sides(a, b, nu))
    except OverflowError as exc:  # a float power past the range of floats
        raise DomainError(f"a side of {case.case_id} overflows at a={a!r}, b={b!r}, "
                          f"nu={nu!r}: {exc}") from exc
    raws, norms, worst = judge_chain(sides, case.case_id)
    min_norm = norms[worst]
    return ScalarTrial(case.case_id, a, b, nu, sides, tuple(raws), min_norm,
                       min_norm >= -tol)


def upper_slack(case: ScalarCase, a: float, b: float, nu: float) -> float | None:
    """Raw slack of the final (upper-bound) link, or None outside the domain."""
    if not case.in_domain(nu):
        return None
    sides = case.sides(a, b, nu)
    return float(sides[-1] - sides[-2])


def find_non_dominance(
    first: Sequence[str] = ("new-2.1",),
    second: Sequence[str] = ("zw-1.5", "zw-1.6"),
    a_values: Sequence[float] = A_GRID_13,
    nu_values: Sequence[float] = NU_GRID_65,
) -> dict:
    """Search a grid for inputs where each family's upper bound is strictly tighter.

    The compared quantity is the raw slack of each case's final link (how far
    the upper bound sits above the quantity it dominates); for a family the
    slack at nu is the minimum over members whose domain contains nu.  Returns
    the first witness of each kind, or None in that slot when the grid holds
    no such point.
    """
    fams = ([case_by_id(c) for c in first], [case_by_id(c) for c in second])

    def fam_slack(fam, a, b, nu):
        vals = [s for c in fam if (s := upper_slack(c, a, b, nu)) is not None]
        return min(vals) if vals else None

    first_tighter = None
    second_tighter = None
    points = ((a, b, nu) for nu in nu_values for a in a_values for b in a_values)
    for a, b, nu in points:
        s1 = fam_slack(fams[0], a, b, nu)
        s2 = fam_slack(fams[1], a, b, nu)
        if s1 is None or s2 is None:
            continue
        point = {"a": a, "b": b, "nu": nu, "first_slack": s1, "second_slack": s2}
        if first_tighter is None and s1 < s2:
            first_tighter = point
        if second_tighter is None and s2 < s1:
            second_tighter = point
        if first_tighter and second_tighter:
            break
    return {
        "first": list(first),
        "second": list(second),
        "first_tighter": first_tighter,
        "second_tighter": second_tighter,
    }
