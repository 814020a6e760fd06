"""Relational hypersequents: syntax, set semantics and substitutions.

A relational sequent relates two multisets of formulas through one of three
relation symbols: ``<<`` (integer-part comparison), ``<=_z`` and ``<_z``
(indexed fractional comparisons; the index is omitted when zero).  A
relational hypersequent is a finite set of such sequents, read disjunctively.
``RelationalHypersequent`` is a frozenset subclass that adds only ``render``,
which sorts its sequents by ``RelationalSequent.sort_key``, and an ``|`` that
keeps the type; any other set operation gives a plain frozenset.

Sequents are hash-consed like formulas: the constructor returns the one live
sequent for each pair of sorted sides and relation, so equality is identity
and the hash is the identity hash.  Each sequent holds its pivot (its
greatest compound formula), weight, atomicity, settled and shape flags as
fields set at construction and computes its sort key on first use.  A
label's pivot is the greatest of its sequents' pivots, so it is the pivot of
every sequent that holds it, and ``decompose`` splits a label by that field
alone into its pivot, the sequents without it and those that hold it.  The
four substitutions are one sequent rewrite: they take a sequent that holds
the target, and it loses every occurrence and, by the target's left and
right counts, gains formulas on each side and a shift of its index.  They
never see a label: the calculus rewrites only the sequents that hold the
pivot, and ``union`` joins a new label's parts, the parent's untouched
sequents among them, with one set union, so labels share sequents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .formula import (
    Formula,
    Interned,
    InternTable,
    TOP,
    complexity_key,
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


_INTERNED = InternTable()
_set = object.__setattr__


class RelationalSequent(Interned):
    """One relation between two formula multisets.

    Sides are stored as tuples sorted in the complexity order, which makes the
    tuple a canonical multiset representative.  The ``<<`` relation admits at
    most one formula per side.  Sequents are interned and immutable.

    The fields set at construction: ``pivot``, the complexity-order maximum
    of the compound formulas, or None; ``all_atomic``, every formula is
    falsum, a variable or bare top; ``settled``, every formula has a fixed
    atom (``Formula.fixed``), so the sequent holds exactly when the sequent
    of those atoms does; ``one_sided_pair``, two formulas on one side of an
    index-zero fractional relation; ``is_unit_shape``, one formula on each
    side of ``<=`` with index zero; ``weight``, one for the relation, one
    per bare top and 2c + 1 per other formula of c connectives, so a
    compound formula counts its connectives and its literal leaves.
    """

    __slots__ = (
        "left",
        "kind",
        "right",
        "pivot",
        "all_atomic",
        "settled",
        "one_sided_pair",
        "is_unit_shape",
        "weight",
        "_sort_key",
    )
    _fields = ("left", "kind", "right")

    left: tuple[Formula, ...]
    kind: RelKind
    right: tuple[Formula, ...]
    pivot: Formula | None
    all_atomic: bool
    settled: bool
    one_sided_pair: bool
    is_unit_shape: bool
    weight: int

    def __new__(
        cls, left: tuple[Formula, ...], kind: RelKind, right: tuple[Formula, ...]
    ) -> RelationalSequent:
        # A side of one formula is already sorted; most sides have one.
        if len(left) > 1:
            left = tuple(sorted(left, key=complexity_key))
        if len(right) > 1:
            right = tuple(sorted(right, key=complexity_key))
        key = (left, kind.tag, kind.z, right)
        ref = _INTERNED.get(key)
        node = ref and ref()
        if node is not None:
            return node
        ll = kind.tag == "ll"
        if ll and (len(left) > 1 or len(right) > 1):
            raise ValueError("a << sequent takes at most one formula per side")
        node = object.__new__(cls)
        index_zero_ord = not ll and kind.z == 0
        one_side = (len(left), len(right)) in ((2, 0), (0, 2))
        # One pass for the weight, the settled flag and the pivot, which need
        # not be a side's last element: p1 * p2 sorts before bare top, an atom.
        pivot, weight, settled = None, 1, True
        for f in left + right:
            compound = f.complexity and f is not TOP
            weight += 2 * f.complexity + 1 if compound else 1
            settled &= f.fixed is not None
            if compound and (pivot is None or complexity_key(f) > complexity_key(pivot)):
                pivot = f
        _set(node, "left", left)
        _set(node, "kind", kind)
        _set(node, "right", right)
        _set(node, "pivot", pivot)
        _set(node, "all_atomic", pivot is None)
        _set(node, "settled", settled)
        _set(node, "one_sided_pair", index_zero_ord and one_side)
        _set(
            node,
            "is_unit_shape",
            index_zero_ord and kind.tag == "preceq" and len(left) == len(right) == 1,
        )
        _set(node, "weight", weight)
        _set(node, "_sort_key", None)
        return _INTERNED.add(key, node)

    def sort_key(self) -> tuple:
        key = self._sort_key
        if key is None:
            key = (
                _KIND_RANK[self.kind.tag],
                self.kind.z,
                tuple(serialize_key(f) for f in self.left),
                tuple(serialize_key(f) for f in self.right),
            )
            _set(self, "_sort_key", key)
        return key

    def formulas(self) -> Iterator[Formula]:
        yield from self.left
        yield from self.right

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
    """The maximal non-atomic formula in the complexity order: the greatest pivot.

    Raises ValueError on irreducible hypersequents.
    """
    candidates = {s.pivot for s in g if s.pivot is not None}
    if not candidates:
        raise ValueError("hypersequent is irreducible, no reduction pivot exists")
    return max(candidates, key=complexity_key)


def _rewrite(
    s: RelationalSequent,
    target: Formula,
    gains: Callable[[int, int], tuple[tuple[Formula, ...], int, tuple[Formula, ...]]],
) -> RelationalSequent:
    """The sequent s with each occurrence of target cut out and its gains added.

    ``gains(l, r)``, for l left and r right occurrences, gives what the left
    side gains, the index shift and what the right side gains.  Sides are
    sorted, so the target's copies are adjacent and are cut as one slice.
    Raises ValueError when s does not hold the target.
    """
    l, r = s.left.count(target), s.right.count(target)
    if not l and not r:
        raise ValueError("the sequent does not hold the target")
    i, j = s.left.index(target) if l else 0, s.right.index(target) if r else 0
    gained_left, shift, gained_right = gains(l, r)
    left = s.left[:i] + s.left[i + l :] + gained_left
    right = s.right[:j] + s.right[j + r :] + gained_right
    return RelationalSequent(left, s.kind.shifted(shift) if shift else s.kind, right)


def subst_all(s: RelationalSequent, target: Formula, replacement: Formula) -> RelationalSequent:
    """Replace every occurrence of target in s by a single replacement formula.

    Only sequent-side elements are replaced; targets nested inside a larger
    formula are not touched (the callers only substitute maximal formulas,
    which cannot occur nested).  Any relation is rewritten.
    """
    return _rewrite(s, target, lambda l, r: ((replacement,) * l, 0, (replacement,) * r))


def subst_pair(s: RelationalSequent, target: Formula, a: Formula, b: Formula) -> RelationalSequent:
    """Replace every occurrence of target in s by the two formulas a, b.

    Only meaningful for the fractional relations; raises ValueError on a
    ``<<`` sequent.
    """
    if s.kind.is_ll:
        raise ValueError("pair substitution cannot target a << sequent")
    return _rewrite(s, target, lambda l, r: ((a, b) * l, 0, (a, b) * r))


def subst_balanced_conj(
    s: RelationalSequent, target: Formula, a: Formula, b: Formula
) -> RelationalSequent:
    """Conjunction substitution for valuations where the pivot's value is its floor.

    Every occurrence of the target in s is deleted, one copy of a, b is
    added to each side, and the index grows by (left count) - (right
    count).  Raises ValueError on a ``<<`` sequent.
    """
    if s.kind.is_ll:
        raise ValueError("balanced substitution applies to fractional sequents only")
    return _rewrite(s, target, lambda l, r: ((a, b), l - r, (a, b)))


def subst_impl(s: RelationalSequent, target: Formula, a: Formula, b: Formula) -> RelationalSequent:
    """Implication substitution for valuations of the residual type.

    With l left and r right occurrences of the target in s, the occurrences
    are deleted, the left side gains r copies of a and l copies of b, the
    right side gains l copies of a and r copies of b, and the index is
    unchanged.  Raises ValueError on a ``<<`` sequent.
    """
    if s.kind.is_ll:
        raise ValueError("implication substitution applies to fractional sequents only")
    return _rewrite(s, target, lambda l, r: ((a,) * r + (b,) * l, 0, (a,) * l + (b,) * r))


def decompose(
    g: RelationalHypersequent,
) -> tuple[Formula, RelationalHypersequent, RelationalHypersequent]:
    """Split g by its pivot: (pivot, the sequents without it, those that hold it).

    A sequent holds the pivot exactly when its ``pivot`` field is the pivot.
    Its own pivot, its greatest compound formula, is then at least the
    label's, and at most, since the label's pivot is the greatest of its
    sequents' pivots; ``complexity_key`` orders interned formulas totally,
    so the two are one formula.  Raises ValueError on irreducible labels.
    """
    pivot = most_complex(g)
    free: list[RelationalSequent] = []
    held: list[RelationalSequent] = []
    for s in g:
        (held if s.pivot is pivot else free).append(s)
    return pivot, RelationalHypersequent(free), RelationalHypersequent(held)


def expand_abbreviation(name: str, a: Formula, b: Formula) -> RelationalHypersequent:
    """Expand one of the named hypersequent abbreviations over formulas a, b.

    The negated forms encode the complement of the corresponding semantic
    condition as a disjunction of primitive sequents; see the semantics module
    for the conditions themselves.
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
    formula on each side.  The calculus calls this on the sequents each step
    makes; a violation signals an implementation bug.  The message names
    the offending sequent with the least sort key.
    """
    offenders = [s for s in g if s.one_sided_pair]
    if offenders:
        s = min(offenders, key=RelationalSequent.sort_key)
        raise AssertionError(
            f"generated label has a two-formula index-0 sequent "
            f"with both formulas on one side: {s.render()}"
        )
