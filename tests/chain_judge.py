"""Per-point references for the stacked judges, ``scalar.judge_chains`` and
``scalar.judge_grid``.

The package judges a stack of chains at once, one per row of an array, and
evaluates a chain's sides on arrays.  ``judge_chain`` is the judge that the
stacked one replaced, which took one chain at a time as Python floats, and
``judge_point`` the per-point judge that evaluated one point's sides as
Python floats; both are kept here word for word (``judge_chain`` with the
two helpers it called) so that the stacked judges are held to them rather
than to themselves.
"""
import math
from typing import Sequence

import numpy as np

from meancert.linalg import DomainError
from meancert.scalar import ScalarCase, judge_chains


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


def judge_point(case: ScalarCase, a: float, b: float,
                nu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(sides, raws, norms, worst) of ``case`` at one point, not checked: its sides
    (m, 1), evaluated as Python floats, and their ``judge_chains``.  A side that
    overflows is a DomainError naming the point."""
    try:
        sides = np.array([case.sides(a, b, nu)], dtype=float).T
    except OverflowError as exc:  # a float power past the range of floats
        raise DomainError(f"a side of {case.case_id} overflows at a={a!r}, b={b!r}, "
                          f"nu={nu!r}: {exc}") from exc
    return (sides, *judge_chains(sides, case.case_id))
