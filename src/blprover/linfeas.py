"""Feasibility of systems of linear inequalities over exact rationals.

The solver decides systems of the form sum(c_i * x_i) <= b or < b, with
``int`` coefficients and bounds (anything else, ``bool`` included, raises
``ValueError``), by Fourier-Motzkin elimination with native support for strict
inequalities: a combined row is strict exactly when one of its parents is.
Every queried variable additionally receives the bounds 0 <= x < 1, matching
the intended use (fractional parts of truth values).

Elimination stays in integers (Schrijver, *Theory of Linear and Integer
Programming*, 1986, section 12.2).  A row is divided by the gcd of its
coefficients and bound, so positive multiples of one row are kept once, and
combining a lower and an upper row scales each by the other's pivot magnitude.
Only a feasible system meets rationals: its witness is extracted by back
substitution and re-checked against every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Hashable, Iterable, Mapping


@dataclass(frozen=True)
class LinConstraint:
    """One row: sum(coefficient * variable) against a bound; ``int`` only, no ``bool``."""

    coefficients: Mapping[Hashable, int]
    bound: int
    strict: bool = False


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: dict[Hashable, Fraction] | None = None


def _primitive(
    coeffs: tuple[int, ...], bound: int, strict: bool
) -> tuple[tuple[int, ...], int, bool] | None:
    """Divide the row by the gcd of its coefficients and bound; None for tautologies."""
    divisor = gcd(*coeffs)
    if divisor == 0:
        if bound < 0 or (strict and bound == 0):
            raise _InfeasibleRow()
        return None
    divisor = gcd(divisor, bound)
    if divisor != 1:
        coeffs = tuple(c // divisor for c in coeffs)
        bound //= divisor
    return coeffs, bound, strict


class _InfeasibleRow(Exception):
    """Internal signal: a constant row is violated."""


def solve(
    constraints: Iterable[LinConstraint], variables: Iterable[Hashable]
) -> FeasibilityResult:
    """Decide the system and produce a witness when it is feasible.

    ``variables`` lists the variables subject to the 0 <= x < 1 bounds; rows
    may only mention these.  The witness assigns each such variable a fraction
    strictly inside its residual interval (midpoint rule), so reruns are
    deterministic.
    """
    # The rows are read twice (elimination, then the witness re-check), so an
    # iterator input must not be used up by the first pass.
    constraints = list(constraints)
    ordering = sorted(set(variables), key=repr)
    position = {var: k for k, var in enumerate(ordering)}
    width = len(ordering)
    # An insertion-ordered set: a row added again keeps its first place.
    rows: dict[tuple[tuple[int, ...], int, bool], None] = {}

    def add_row(coeffs: tuple[int, ...], bound: int, strict: bool) -> None:
        row = _primitive(coeffs, bound, strict)
        if row is not None:
            rows.setdefault(row)

    # Every row is checked before elimination starts, so a malformed row is
    # reported even when an earlier row is already infeasible.  type() and not
    # isinstance(): bool is a subclass of int.
    dense_rows = []
    for constraint in constraints:
        dense = [0] * width
        for var, coeff in constraint.coefficients.items():
            if var not in position:
                raise ValueError(f"row mentions unknown variable {var!r}")
            if type(coeff) is not int:
                raise ValueError(f"coefficient of {var!r} must be an int, not {coeff!r}")
            dense[position[var]] = coeff
        if type(constraint.bound) is not int:
            raise ValueError(f"bound must be an int, not {constraint.bound!r}")
        dense_rows.append((tuple(dense), constraint.bound, constraint.strict))

    eliminated: list[list[tuple[tuple[int, ...], int, bool]]] = []
    try:
        for row in dense_rows:
            add_row(*row)
        for k in range(width):
            unit = tuple(int(j == k) for j in range(width))
            add_row(tuple(-u for u in unit), 0, False)
            add_row(unit, 1, True)

        for k in range(width):
            involved = [r for r in rows if r[0][k]]
            rows = dict.fromkeys(r for r in rows if not r[0][k])
            eliminated.append(involved)
            lowers = [r for r in involved if r[0][k] < 0]
            uppers = [r for r in involved if r[0][k] > 0]
            for lo_c, lo_b, lo_s in lowers:
                a_lo = -lo_c[k]
                for up_c, up_b, up_s in uppers:
                    a_up = up_c[k]
                    add_row(
                        tuple(lo * a_up + up * a_lo for lo, up in zip(lo_c, up_c)),
                        lo_b * a_up + up_b * a_lo,
                        lo_s or up_s,
                    )
    except _InfeasibleRow:
        return FeasibilityResult(False)

    values: list[Fraction] = [Fraction(0)] * width
    witness: dict[Hashable, Fraction] = {}
    for k in reversed(range(width)):
        lo, lo_strict = Fraction(0), False
        hi, hi_strict = Fraction(1), True
        for coeffs, bound, strict in eliminated[k]:
            later = range(k + 1, width)
            rest = bound - sum(coeffs[j] * values[j] for j in later if coeffs[j])
            limit = Fraction(rest, coeffs[k])
            if coeffs[k] > 0:
                if limit < hi or (limit == hi and strict):
                    hi, hi_strict = limit, strict
            else:
                if limit > lo or (limit == lo and strict):
                    lo, lo_strict = limit, strict
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            raise AssertionError("elimination left an empty interval, solver bug")
        values[k] = witness[ordering[k]] = (lo + hi) / 2

    for constraint in constraints:
        value = sum(c * witness[v] for v, c in constraint.coefficients.items())
        ok = value < constraint.bound if constraint.strict else value <= constraint.bound
        if not ok:
            raise AssertionError("witness fails an input row, solver bug")
    for var in ordering:
        if not 0 <= witness[var] < 1:
            raise AssertionError("witness escapes the unit box, solver bug")
    return FeasibilityResult(True, witness)
