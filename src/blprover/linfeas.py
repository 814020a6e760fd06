"""Feasibility of systems of linear inequalities over exact rationals.

The solver decides systems of the form sum(c_i * x_i) <= b or < b by
Fourier-Motzkin elimination, with native support for strict inequalities:
a combined row is strict exactly when one of its parents is.  Every queried
variable additionally receives the bounds 0 <= x < 1, matching the intended
use (fractional parts of truth values).  On feasible systems a rational
witness is extracted by back substitution and re-checked against every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Hashable, Iterable, Mapping, Sequence


@dataclass(frozen=True)
class LinConstraint:
    """One row: sum of coefficient * variable compared against an integer bound."""

    coefficients: Mapping[Hashable, int]
    bound: int
    strict: bool = False


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: dict[Hashable, Fraction] | None = None


_Row = tuple[dict, Fraction, bool]


def _normalized(coeffs: dict, bound: Fraction, strict: bool) -> _Row | None:
    """Drop zero coefficients and scale by the gcd; None for tautologies."""
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if not coeffs:
        if bound < 0 or (strict and bound == 0):
            raise _InfeasibleRow()
        return None
    divisor = gcd(*(abs(c.numerator) for c in coeffs.values()))
    denoms = [c.denominator for c in coeffs.values()] + [bound.denominator]
    scale = Fraction(_lcm_all(denoms), divisor)
    return (
        {v: c * scale for v, c in sorted(coeffs.items(), key=lambda it: repr(it[0]))},
        bound * scale,
        strict,
    )


def _lcm_all(values: Sequence[int]) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


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
    known = set(ordering)
    rows: list[_Row] = []
    seen: set[tuple] = set()

    def add_row(coeffs: dict, bound: Fraction, strict: bool) -> None:
        row = _normalized(dict(coeffs), bound, strict)
        if row is None:
            return
        key = (tuple(row[0].items()), row[1], row[2])
        if key not in seen:
            seen.add(key)
            rows.append(row)

    try:
        for constraint in constraints:
            for var in constraint.coefficients:
                if var not in known:
                    raise ValueError(f"row mentions unknown variable {var!r}")
            add_row(
                {v: Fraction(c) for v, c in constraint.coefficients.items()},
                Fraction(constraint.bound),
                constraint.strict,
            )
        for var in ordering:
            add_row({var: Fraction(-1)}, Fraction(0), False)
            add_row({var: Fraction(1)}, Fraction(1), True)

        eliminated: list[tuple[Hashable, list[_Row]]] = []
        for var in ordering:
            involved = [r for r in rows if var in r[0]]
            passed = [r for r in rows if var not in r[0]]
            eliminated.append((var, involved))
            lowers = [r for r in involved if r[0][var] < 0]
            uppers = [r for r in involved if r[0][var] > 0]
            rows = passed
            seen = {(tuple(r[0].items()), r[1], r[2]) for r in rows}
            for lo_c, lo_b, lo_s in lowers:
                for up_c, up_b, up_s in uppers:
                    a_lo = lo_c[var]
                    a_up = up_c[var]
                    coeffs: dict = {}
                    for v, c in lo_c.items():
                        coeffs[v] = coeffs.get(v, Fraction(0)) + c * a_up
                    for v, c in up_c.items():
                        coeffs[v] = coeffs.get(v, Fraction(0)) + c * (-a_lo)
                    del coeffs[var]
                    add_row(coeffs, lo_b * a_up + up_b * (-a_lo), lo_s or up_s)
    except _InfeasibleRow:
        return FeasibilityResult(False)

    witness: dict[Hashable, Fraction] = {}
    for var, involved in reversed(eliminated):
        lo, lo_strict = Fraction(0), False
        hi, hi_strict = Fraction(1), True
        for coeffs, bound, strict in involved:
            rest = bound - sum(c * witness[v] for v, c in coeffs.items() if v != var)
            limit = rest / coeffs[var]
            if coeffs[var] > 0:
                if limit < hi or (limit == hi and strict):
                    hi, hi_strict = limit, strict
            else:
                if limit > lo or (limit == lo and strict):
                    lo, lo_strict = limit, strict
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            raise AssertionError("elimination left an empty interval, solver bug")
        witness[var] = (lo + hi) / 2

    for constraint in constraints:
        value = sum(Fraction(c) * witness[v] for v, c in constraint.coefficients.items())
        ok = value < constraint.bound if constraint.strict else value <= constraint.bound
        if not ok:
            raise AssertionError("witness fails an input row, solver bug")
    for var in ordering:
        if not 0 <= witness[var] < 1:
            raise AssertionError("witness escapes the unit box, solver bug")
    return FeasibilityResult(True, witness)
