"""Algebraic semantics over [0, +infinity] with exact rational arithmetic.

Values are either infinite (the designated truth value) or a nonnegative
integer part plus a fractional part in [0, 1).  A formula is a tautology of
Basic Logic exactly when every valuation gives it the infinite value; the
connectives act on integer and fractional parts as implemented in omega_mul
and omega_imp.  All arithmetic uses fractions.Fraction, never floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .formula import Bottom, Conj, Formula, Impl, Var, check_limits
from .hypersequent import RelationalHypersequent, RelationalSequent


class OmegaValue:
    """Base class for values of the extended unit-interval algebra."""

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __lt__(self, other: OmegaValue) -> bool:
        return self._key() < other._key()

    def __le__(self, other: OmegaValue) -> bool:
        return self._key() <= other._key()

    @property
    def is_infinite(self) -> bool:
        return isinstance(self, Infinite)


@dataclass(frozen=True)
class Finite(OmegaValue):
    """A finite value, split into integer part and fractional part."""

    int_part: int
    frac: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.frac, Fraction):
            object.__setattr__(self, "frac", Fraction(self.frac))
        if self.int_part < 0:
            raise ValueError("integer part must be nonnegative")
        if not (0 <= self.frac < 1):
            raise ValueError(f"fractional part must lie in [0, 1), got {self.frac}")

    def _key(self) -> tuple:
        return (0, self.int_part, self.frac)


@dataclass(frozen=True)
class Infinite(OmegaValue):
    def _key(self) -> tuple:
        return (1, 0, Fraction(0))


INF = Infinite()
ZERO = Finite(0, Fraction(0))


def render_value(value: OmegaValue) -> str:
    """Serialize a value as ``inf`` or ``<int>+<num>/<den>``."""
    if isinstance(value, Infinite):
        return "inf"
    assert isinstance(value, Finite)
    return f"{value.int_part}+{value.frac.numerator}/{value.frac.denominator}"


_VALUE_RE = re.compile(r"([0-9]+)\+([0-9]+)/([0-9]+)\Z")


def parse_value(text: str) -> OmegaValue:
    if text == "inf":
        return INF
    match = _VALUE_RE.match(text)
    if match is None:
        raise ValueError(f"malformed value {text!r}, expected 'inf' or 'k+num/den'")
    if int(match.group(3)) == 0:
        raise ValueError(f"malformed value {text!r}, zero denominator")
    return Finite(int(match.group(1)), Fraction(int(match.group(2)), int(match.group(3))))


class Valuation:
    """A finite assignment of values to variable indices."""

    def __init__(self, assignment: Mapping[int, OmegaValue]) -> None:
        self._assignment = dict(assignment)

    def value_of(self, index: int) -> OmegaValue:
        try:
            return self._assignment[index]
        except KeyError:
            raise ValueError(f"valuation does not bind variable p{index}") from None

    def items(self) -> Iterator[tuple[int, OmegaValue]]:
        return iter(sorted(self._assignment.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Valuation):
            return NotImplemented
        return self._assignment == other._assignment

    def __repr__(self) -> str:
        body = ", ".join(f"p{i}={render_value(v)}" for i, v in self.items())
        return f"Valuation({body})"

    def to_json(self) -> dict:
        return {
            "assignment": {f"p{i}": render_value(v) for i, v in self.items()}
        }

    @classmethod
    def from_json(cls, data: dict) -> Valuation:
        if not isinstance(data["assignment"], dict):
            raise ValueError("valuation assignment must be an object")
        assignment = {}
        for name, text in data["assignment"].items():
            # Only the names to_json writes, so no two names bind one variable.
            if not re.fullmatch(r"p(?:0|[1-9][0-9]*)", name):
                raise ValueError(f"bad variable name {name!r}")
            assignment[int(name[1:])] = parse_value(text)
        return cls(assignment)


def omega_mul(x: OmegaValue, y: OmegaValue) -> OmegaValue:
    """Strong conjunction on values.

    With differing integer parts the result is the smaller value; with equal
    finite integer parts the fractional parts interact like a bounded sum
    shifted below the shared integer part; two infinite arguments give
    infinity.
    """
    if isinstance(x, Infinite):
        return y if isinstance(y, Finite) else INF
    if isinstance(y, Infinite):
        return x
    if x.int_part != y.int_part:
        return min(x, y)
    s = x.frac + y.frac
    return Finite(x.int_part, s - 1 if s >= 1 else Fraction(0))


def omega_imp(x: OmegaValue, y: OmegaValue) -> OmegaValue:
    """Residual implication on values.

    Gives infinity when x <= y; with equal finite integer parts it reflects
    the fractional difference below the shared integer part; otherwise the
    result is y.
    """
    if x <= y:
        return INF
    if isinstance(x, Finite) and isinstance(y, Finite) and x.int_part == y.int_part:
        return Finite(x.int_part, 1 - x.frac + y.frac)
    return y


def eval_formula(v: Valuation, formula: Formula) -> OmegaValue:
    """Value of a formula under a valuation.  Falsum evaluates to zero.

    Raises ValueError on formulas beyond the parser's size limits.
    """
    check_limits(formula)
    return _eval(v, formula)


def _eval(v: Valuation, formula: Formula) -> OmegaValue:
    if isinstance(formula, Bottom):
        return ZERO
    if isinstance(formula, Var):
        return v.value_of(formula.index)
    if isinstance(formula, Conj):
        return omega_mul(_eval(v, formula.left), _eval(v, formula.right))
    assert isinstance(formula, Impl)
    return omega_imp(_eval(v, formula.left), _eval(v, formula.right))


def _floors_equal(x: OmegaValue, y: OmegaValue) -> bool:
    if isinstance(x, Infinite) or isinstance(y, Infinite):
        return isinstance(x, Infinite) and isinstance(y, Infinite)
    return x.int_part == y.int_part


def satisfies_sequent(v: Valuation, s: RelationalSequent) -> bool:
    """Truth of a single relational sequent under a valuation.

    Three cases.  A ``<<`` sequent compares integer parts strictly (never true
    with an infinite left value).  A one-formula-each-side fractional sequent
    with index zero compares whole values, requiring equal integer parts; two
    infinite values are allowed there.  Every other fractional sequent
    requires all values finite with one shared integer part and compares the
    fractional sums, each side discounted by its multiset size, up to the
    index.
    """
    lvals = [eval_formula(v, f) for f in s.left]
    rvals = [eval_formula(v, f) for f in s.right]
    if s.kind.is_ll:
        if len(lvals) != 1 or len(rvals) != 1:
            return False
        x, y = lvals[0], rvals[0]
        if isinstance(x, Infinite):
            return False
        if isinstance(y, Infinite):
            return True
        return x.int_part < y.int_part
    if s.kind.z == 0 and len(lvals) == 1 and len(rvals) == 1:
        x, y = lvals[0], rvals[0]
        if not _floors_equal(x, y):
            return False
        return x < y if s.kind.strict else x <= y
    if any(isinstance(val, Infinite) for val in lvals + rvals):
        return False
    int_parts = {val.int_part for val in lvals + rvals}
    if len(int_parts) > 1:
        return False
    lhs = sum((val.frac for val in lvals), Fraction(0)) - len(lvals)
    rhs = sum((val.frac for val in rvals), Fraction(0)) - len(rvals) + s.kind.z
    return lhs < rhs if s.kind.strict else lhs <= rhs


def satisfies(v: Valuation, g: RelationalHypersequent) -> bool:
    """Disjunctive truth of a hypersequent; the empty hypersequent is false."""
    return any(satisfies_sequent(v, s) for s in g)
