"""Scalar references for the operator chains on commuting pairs.

On a diagonal pair (A, B) = (diag(lam), diag(mu)) every Loewner gap is
diagonal, and its entry at an eigenvalue pair is the link's scalar gap
there (lam from A, mu from B; the ordered cases assume lam <= mu).  These
references are written apart from the package's chains: op-2.3 and the
op-2.7 cases by hand, and each chain that restates a scalar chain as that
chain's raw slacks.  The scalar module weights its first argument, so
op-2.6, which weights B, reads new-2.1 at (mu, lam).
"""
import math

from meancert import scalar
from meancert.runner import case_by_id


def _cells_23(lam: float, mu: float, nu: float):
    k = scalar.heinz_weight(nu)
    return (
        k * scalar.heinz(lam, mu, nu)
        - scalar.cubic_weight(nu) * (lam + mu) / 2.0
        - 2.0 * math.sqrt(lam * mu),
    )


def _cells_27_left(lam: float, mu: float, nu: float):
    c = nu * (1.0 - nu) / 2.0
    corr = mu - 2.0 * lam + lam * lam / mu
    return ((lam + mu) / 2.0 - scalar.heinz(lam, mu, nu) - c * corr,)


def _cells_27_right(lam: float, mu: float, nu: float):
    c = nu * (1.0 - nu) / 2.0
    corr = lam - 2.0 * mu + mu * mu / lam
    return (scalar.heinz(lam, mu, nu) + c * corr - (lam + mu) / 2.0,)


def _cells_27_refine(lam: float, mu: float, nu: float):
    return (
        mu - 2.0 * lam + lam * lam / mu,
        (lam + mu) / 2.0 - scalar.heinz(lam, mu, nu),
    )


def _scalar_twin(case_id: str, swap: bool = False):
    """The raw slacks of scalar chain ``case_id`` at (lam, mu), or at (mu, lam)
    with ``swap``."""
    case = case_by_id(case_id)
    if swap:
        return lambda lam, mu, nu: scalar.evaluate(case, mu, lam, nu).slacks
    return lambda lam, mu, nu: scalar.evaluate(case, lam, mu, nu).slacks


# operator case id -> cells(lam, mu, nu), one scalar gap per link
CELLS = {
    "op-2.3": _cells_23,
    "op-2.5": _scalar_twin("new-2.1"),
    "op-2.6": _scalar_twin("new-2.1", swap=True),
    "op-2.7-left": _cells_27_left,
    "op-2.7-right": _cells_27_right,
    "op-2.7-refine": _cells_27_refine,
    "op-2.10": _scalar_twin("comb-2.12"),
    "op-heron-zhao": _scalar_twin("bhatia-heron"),
}
