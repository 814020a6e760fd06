"""Relational hypersequents: syntax, set semantics and substitutions.

A relational sequent relates two multisets of formulas through one of three
relation symbols: ``<<`` (integer-part comparison), ``<=_z`` and ``<_z``
(indexed fractional comparisons; the index is omitted when zero).  A
relational hypersequent is a finite set of such sequents, read disjunctively.
``RelationalHypersequent`` is a frozenset subclass that adds only ``render``,
which sorts its sequents by ``RelationalSequent.sort_key``, and an ``|`` that
keeps the type; any other set operation gives a plain frozenset.

Sequents are immutable and cache their hash, sort key, weight, atomicity and
shape flag, so labels share them: a substitution returns every sequent that
does not contain its target as the same object, and ``union`` joins the
parts of a new label with one set union.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .formula import (
    Formula,
    TOP,
    complexity,
    complexity_key,
    is_atomic,
    render as render_formula,
    serialize_key,
)

_KIND_RANK = {"ll": 0, "preceq": 1, "prec": 2}


@dataclass(frozen=True)
class RelKind:
    """Relation symbol of a sequent.  ``ll`` carries no index."""

    tag: str
    z: int = 0

    def __post_init__(self) -> None:
        if self.tag not in _KIND_RANK:
            raise ValueError(f"unknown relation tag {self.tag!r}")
        if self.tag == "ll" and self.z != 0:
            raise ValueError("the << relation carries no index")

    @property
    def is_ll(self) -> bool:
        return self.tag == "ll"

    @property
    def strict(self) -> bool:
        """True for the strict fractional comparison ``<_z``."""
        return self.tag == "prec"

    def shifted(self, delta: int) -> RelKind:
        return RelKind(self.tag, self.z + delta)

    def render(self) -> str:
        if self.tag == "ll":
            return "<<"
        symbol = "<=" if self.tag == "preceq" else "<"
        return symbol if self.z == 0 else f"{symbol}_{self.z}"


LL = RelKind("ll")


def preceq(z: int = 0) -> RelKind:
    return RelKind("preceq", z)


def prec(z: int = 0) -> RelKind:
    return RelKind("prec", z)


@dataclass(frozen=True)
class RelationalSequent:
    """One relation between two formula multisets.

    Sides are stored as tuples sorted in the complexity order, which makes the
    tuple a canonical multiset representative.  The ``<<`` relation admits at
    most one formula per side.
    """

    left: tuple[Formula, ...]
    kind: RelKind
    right: tuple[Formula, ...]

    def __post_init__(self) -> None:
        # A side of one formula is already sorted; most sides have one.
        if len(self.left) > 1:
            object.__setattr__(self, "left", tuple(sorted(self.left, key=complexity_key)))
        if len(self.right) > 1:
            object.__setattr__(self, "right", tuple(sorted(self.right, key=complexity_key)))
        if self.kind.is_ll and (len(self.left) > 1 or len(self.right) > 1):
            raise ValueError("a << sequent takes at most one formula per side")

    def sort_key(self) -> tuple:
        cached = self.__dict__.get("_sort_key")
        if cached is None:
            cached = (
                _KIND_RANK[self.kind.tag],
                self.kind.z,
                tuple(serialize_key(f) for f in self.left),
                tuple(serialize_key(f) for f in self.right),
            )
            object.__setattr__(self, "_sort_key", cached)
        return cached

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.left, self.kind, self.right))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def all_atomic(self) -> bool:
        """True when every formula is falsum, a variable or bare top."""
        cached = self.__dict__.get("_all_atomic")
        if cached is None:
            cached = all(is_atomic(f) for f in self.formulas())
            object.__setattr__(self, "_all_atomic", cached)
        return cached

    def weight(self) -> int:
        """One for the relation, one per bare top, 2c + 1 per other formula.

        c is the formula's connective count, so a compound formula counts its
        connectives and its literal leaves.
        """
        cached = self.__dict__.get("_weight")
        if cached is None:
            cached = 1 + sum(1 if f == TOP else 2 * complexity(f) + 1 for f in self.formulas())
            object.__setattr__(self, "_weight", cached)
        return cached

    def formulas(self) -> Iterator[Formula]:
        yield from self.left
        yield from self.right

    def contains(self, target: Formula) -> bool:
        return target in self.left or target in self.right

    @property
    def one_sided_pair(self) -> bool:
        """True for two formulas on one side of an index-zero fractional relation."""
        cached = self.__dict__.get("_one_sided_pair")
        if cached is None:
            cached = (
                not self.kind.is_ll
                and self.kind.z == 0
                and (len(self.left), len(self.right)) in ((2, 0), (0, 2))
            )
            object.__setattr__(self, "_one_sided_pair", cached)
        return cached

    @property
    def is_unit_shape(self) -> bool:
        """True for the one-formula-each-side shape with index zero."""
        return (
            not self.kind.is_ll
            and self.kind.z == 0
            and self.kind.tag == "preceq"
            and len(self.left) == 1
            and len(self.right) == 1
        )

    def render(self) -> str:
        lhs = ",".join(render_formula(f) for f in self.left)
        rhs = ",".join(render_formula(f) for f in self.right)
        return f"{lhs} {self.kind.render()} {rhs}".strip()


def seq(left: Iterable[Formula], kind: RelKind, right: Iterable[Formula]) -> RelationalSequent:
    return RelationalSequent(tuple(left), kind, tuple(right))


class RelationalHypersequent(frozenset):
    """A set of relational sequents, read as a disjunction; built from any iterable."""

    __slots__ = ()

    def __or__(self, other: RelationalHypersequent) -> RelationalHypersequent:
        return union(self, other)

    def render(self) -> str:
        return " | ".join(s.render() for s in sorted(self, key=RelationalSequent.sort_key))


def hseq(*sequents: RelationalSequent) -> RelationalHypersequent:
    return RelationalHypersequent(sequents)


def union(*parts: RelationalHypersequent) -> RelationalHypersequent:
    """Every sequent of the parts, joined by one set union."""
    return RelationalHypersequent(frozenset().union(*parts))


def is_irreducible(g: RelationalHypersequent) -> bool:
    """True when every formula occurrence is falsum, a variable or bare top."""
    return all(sequent.all_atomic for sequent in g)


def most_complex(g: RelationalHypersequent) -> Formula:
    """The maximal non-atomic formula in the complexity order.

    Raises ValueError on irreducible hypersequents.
    """
    candidates = {
        f for s in g if not s.all_atomic for f in s.formulas() if not is_atomic(f)
    }
    if not candidates:
        raise ValueError("hypersequent is irreducible, no reduction pivot exists")
    return max(candidates, key=complexity_key)


def _subst_side(
    side: tuple[Formula, ...], target: Formula, replacement: tuple[Formula, ...]
) -> tuple[Formula, ...]:
    out: list[Formula] = []
    for f in side:
        if f == target:
            out.extend(replacement)
        else:
            out.append(f)
    return tuple(out)


def _subst_sequent(
    s: RelationalSequent, target: Formula, replacement: tuple[Formula, ...]
) -> RelationalSequent:
    if not s.contains(target):
        return s
    return seq(
        _subst_side(s.left, target, replacement),
        s.kind,
        _subst_side(s.right, target, replacement),
    )


def subst_all(
    g: RelationalHypersequent, target: Formula, replacement: Formula
) -> RelationalHypersequent:
    """Replace every occurrence of target by a single replacement formula.

    Only sequent-side elements are replaced; targets nested inside a larger
    formula are not touched (the callers only substitute maximal formulas,
    which cannot occur nested).  Sequents without the target are unchanged.
    """
    return RelationalHypersequent(_subst_sequent(s, target, (replacement,)) for s in g)


def subst_pair(
    g: RelationalHypersequent, target: Formula, a: Formula, b: Formula
) -> RelationalHypersequent:
    """Replace every occurrence of target by the two formulas a, b.

    Only meaningful for the fractional relations; raises ValueError if the
    target occurs in a ``<<`` sequent.  Sequents without the target are
    unchanged.
    """
    for s in g:
        if s.kind.is_ll and s.contains(target):
            raise ValueError("pair substitution cannot target a << sequent")
    return RelationalHypersequent(_subst_sequent(s, target, (a, b)) for s in g)


def subst_balanced_conj(
    g: RelationalHypersequent, target: Formula, a: Formula, b: Formula
) -> RelationalHypersequent:
    """Conjunction substitution for valuations where the pivot's value is its floor.

    In every sequent containing the target, all its occurrences are deleted,
    one copy of a, b is added to each side, and the index grows by
    (left count) - (right count).  Sequents without the target are unchanged.
    Raises ValueError if g contains a ``<<`` sequent.
    """
    out: list[RelationalSequent] = []
    for s in g:
        if s.kind.is_ll:
            raise ValueError("balanced substitution applies to fractional sequents only")
        l = s.left.count(target)
        r = s.right.count(target)
        if l == 0 and r == 0:
            out.append(s)
            continue
        left = tuple(f for f in s.left if f != target) + (a, b)
        right = tuple(f for f in s.right if f != target) + (a, b)
        out.append(seq(left, s.kind.shifted(l - r), right))
    return RelationalHypersequent(out)


def subst_impl(
    g: RelationalHypersequent, target: Formula, a: Formula, b: Formula
) -> RelationalHypersequent:
    """Implication substitution for valuations of the residual type.

    In every sequent with l left and r right occurrences of the target, the
    occurrences are deleted, the left side gains r copies of a and l copies of
    b, the right side gains l copies of a and r copies of b, and the index is
    unchanged.  Raises ValueError if g contains a ``<<`` sequent.
    """
    out: list[RelationalSequent] = []
    for s in g:
        if s.kind.is_ll:
            raise ValueError("implication substitution applies to fractional sequents only")
        l = s.left.count(target)
        r = s.right.count(target)
        if l == 0 and r == 0:
            out.append(s)
            continue
        left = tuple(f for f in s.left if f != target) + (a,) * r + (b,) * l
        right = tuple(f for f in s.right if f != target) + (a,) * l + (b,) * r
        out.append(seq(left, s.kind, right))
    return RelationalHypersequent(out)


def decompose(
    g: RelationalHypersequent, pivot: Formula
) -> tuple[
    RelationalHypersequent,
    RelationalHypersequent,
    RelationalHypersequent,
    RelationalHypersequent,
]:
    """Split g by where the pivot occurs.

    Returns (pivot-free part, << part, fractional part, unit part), where the
    unit part is the subset of the fractional part consisting of the
    one-formula-each-side ``<=`` sequents with index zero.  Raises ValueError
    if the pivot occurs nowhere.
    """
    free: list[RelationalSequent] = []
    ll_part: list[RelationalSequent] = []
    ord_part: list[RelationalSequent] = []
    unit_part: list[RelationalSequent] = []
    for s in g:
        if not s.contains(pivot):
            free.append(s)
        elif s.kind.is_ll:
            ll_part.append(s)
        else:
            ord_part.append(s)
            if s.is_unit_shape:
                unit_part.append(s)
    if not ll_part and not ord_part:
        raise ValueError("pivot does not occur in the hypersequent")
    return (
        RelationalHypersequent(free),
        RelationalHypersequent(ll_part),
        RelationalHypersequent(ord_part),
        RelationalHypersequent(unit_part),
    )


@lru_cache(maxsize=None)
def expand_abbreviation(name: str, a: Formula, b: Formula) -> RelationalHypersequent:
    """Expand one of the named hypersequent abbreviations over formulas a, b.

    The negated forms encode the complement of the corresponding semantic
    condition as a disjunction of primitive sequents; see the semantics module
    for the conditions themselves.  Expansions are immutable, so repeat
    requests share one instance.
    """
    if name == "neg_ll":
        return hseq(
            seq((a,), preceq(), (b,)),
            seq((b,), preceq(), (a,)),
            seq((b,), LL, (a,)),
        )
    if name == "neg_leq":
        return hseq(seq((b,), prec(), (a,)), seq((b,), LL, (a,)))
    if name == "neg_preceq":
        return hseq(
            seq((a,), LL, (b,)),
            seq((b,), prec(), (a,)),
            seq((b,), LL, (a,)),
        )
    if name == "neg_prec":
        return hseq(
            seq((a,), LL, (b,)),
            seq((b,), preceq(), (a,)),
            seq((b,), LL, (a,)),
        )
    if name == "neg_sim":
        return hseq(seq((a,), LL, (b,)), seq((b,), LL, (a,)))
    if name == "neg_preceq1_pair":
        return (
            expand_abbreviation("neg_sim", a, b)
            | expand_abbreviation("neg_ll", a, TOP)
            | expand_abbreviation("neg_ll", b, TOP)
            | hseq(seq((a, b), prec(-1), ()))
        )
    if name == "neg_pair_prec_minus1":
        return (
            expand_abbreviation("neg_sim", a, b)
            | expand_abbreviation("neg_ll", a, TOP)
            | expand_abbreviation("neg_ll", b, TOP)
            | hseq(seq((), preceq(1), (a, b)))
        )
    raise ValueError(f"unknown abbreviation {name!r}")


def check_generated_shape(g: RelationalHypersequent) -> None:
    """Assert the shape invariant for calculus-generated labels.

    Every two-formula fractional sequent with index zero must have exactly one
    formula on each side.  The reduction engine calls this on every label it
    creates; a violation signals an implementation bug.  The message names
    the offending sequent with the least sort key.
    """
    offenders = [s for s in g if s.one_sided_pair]
    if offenders:
        s = min(offenders, key=RelationalSequent.sort_key)
        raise AssertionError(
            f"generated label has a two-formula index-0 sequent "
            f"with both formulas on one side: {s.render()}"
        )
