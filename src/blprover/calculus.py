"""The two proof calculi over relational hypersequents.

Both calculi reduce a hypersequent by case analysis on the value of a pivot
formula, the most complex compound occurrence.  A strong conjunction pivot
splits into five premises and an implication pivot into three, one per
semantic case; each premise carries an antecedent (the negation of the other
cases, as primitive sequents) plus the rewritten goal.  The premise order is
fixed and matches the case numbering of the semantics module, so a premise
holds under exactly those valuations whose case matches its index.

rwbl_premises rewrites every occurrence of the pivot across the hypersequent
at once; rhbl_premises rewrites a single designated occurrence and leaves the
others in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Conj, Formula, Impl, TOP, cmp_complexity
from .hypersequent import (
    EMPTY,
    LL,
    RelationalHypersequent,
    RelationalSequent,
    decompose,
    expand_abbreviation,
    hseq,
    most_complex,
    preceq,
    seq,
    subst_all,
    subst_balanced_conj,
    subst_impl,
    subst_pair,
    union,
)


@dataclass(frozen=True)
class Premise:
    """One premise of a reduction step: 1-based index, tag and label."""

    tag: str
    index: int
    label: RelationalHypersequent


@dataclass(frozen=True)
class Occurrence:
    """A pivot occurrence: the hosting sequent and which side holds it."""

    sequent: RelationalSequent
    side: str

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")


def smaller_child(a: Formula, b: Formula) -> Formula:
    """The complexity-order minimum of two formulas, the first on a tie."""
    return a if cmp_complexity(a, b) <= 0 else b


def _conj_antecedents(a: Formula, b: Formula) -> list[RelationalHypersequent]:
    return [
        expand_abbreviation("neg_ll", a, b),
        expand_abbreviation("neg_ll", b, a),
        expand_abbreviation("neg_preceq1_pair", a, b),
        expand_abbreviation("neg_pair_prec_minus1", a, b),
        expand_abbreviation("neg_preceq", TOP, a)
        | expand_abbreviation("neg_preceq", TOP, b),
    ]


def _impl_antecedents(a: Formula, b: Formula) -> list[RelationalHypersequent]:
    return [
        expand_abbreviation("neg_ll", b, a),
        expand_abbreviation("neg_prec", b, a),
        expand_abbreviation("neg_leq", a, b),
    ]


def _premises(kind: str, labels: list[RelationalHypersequent]) -> tuple[Premise, ...]:
    return tuple(
        Premise(f"{kind}{i}", i, label) for i, label in enumerate(labels, start=1)
    )


def rwbl_premises(g: RelationalHypersequent) -> tuple[Premise, ...]:
    """Whole-hypersequent rewriting step on the pivot of g.

    Returns five premises for a conjunction pivot and three for an
    implication pivot.  The pivot does not occur in any premise: premises 1
    and 2 (and 1 for implication) substitute a single child formula
    everywhere, the middle premises substitute child pairs into the
    fractional sequents, and the final premise substitutes bare top, under
    which fractional sequents that are not one-formula-each-side at index
    zero become unsatisfiable and are omitted.  Each label is one set union
    of its antecedent and the rewritten parts.
    """
    pivot = most_complex(g)
    a, b = pivot.left, pivot.right
    c = smaller_child(a, b)
    free, g_ll, g_ord, g_unit = decompose(g, pivot)
    ll_floor = subst_all(g_ll, pivot, c)
    top_parts = (subst_all(g_ll, pivot, TOP), subst_all(g_unit, pivot, TOP), free)
    if isinstance(pivot, Conj):
        antecedents = _conj_antecedents(a, b)
        labels = [
            union(antecedents[0], subst_all(g, pivot, a)),
            union(antecedents[1], subst_all(g, pivot, b)),
            union(antecedents[2], ll_floor, subst_pair(g_ord, pivot, a, b), free),
            union(antecedents[3], ll_floor, subst_balanced_conj(g_ord, pivot, a, b), free),
            union(antecedents[4], *top_parts),
        ]
        return _premises("conj", labels)
    assert isinstance(pivot, Impl)
    antecedents = _impl_antecedents(a, b)
    labels = [
        union(antecedents[0], subst_all(g, pivot, b)),
        union(antecedents[1], ll_floor, subst_impl(g_ord, pivot, a, b), free),
        union(antecedents[2], *top_parts),
    ]
    return _premises("impl", labels)


def choose_occurrence(g: RelationalHypersequent, pivot: Formula | None = None) -> Occurrence:
    """Deterministic occurrence selection for the single-occurrence calculus.

    Picks the sequent with the least sort key among those that contain the
    pivot, preferring its left side.
    """
    if pivot is None:
        pivot = most_complex(g)
    hosts = [s for s in g if s.contains(pivot)]
    if not hosts:
        raise ValueError("pivot does not occur in the hypersequent")
    s = min(hosts, key=RelationalSequent.sort_key)
    return Occurrence(s, "left" if pivot in s.left else "right")


def _minus_one(side: tuple[Formula, ...], pivot: Formula) -> tuple[Formula, ...]:
    position = side.index(pivot)
    return side[:position] + side[position + 1 :]


def rhbl_premises(
    g: RelationalHypersequent, occurrence: Occurrence | None = None
) -> tuple[Premise, ...]:
    """Logical-rule step rewriting one pivot occurrence of g.

    The rewritten occurrence is the pivot formula inside the designated
    sequent side (chosen by choose_occurrence when not supplied); all other
    occurrences stay.  Premises whose semantic case leaves the hosting
    sequent unsatisfiable drop it entirely, except for the
    one-formula-against-pivot index-zero shape, where the final premise keeps
    the residual comparison against bare top.
    """
    pivot = most_complex(g)
    if occurrence is None:
        occurrence = choose_occurrence(g, pivot)
    s = occurrence.sequent
    if s not in g:
        raise ValueError("occurrence does not belong to the hypersequent")
    pivot_side = s.left if occurrence.side == "left" else s.right
    if pivot not in pivot_side:
        raise ValueError("designated side does not contain the pivot")
    rest = g.without(s)
    a, b = pivot.left, pivot.right
    is_conj = isinstance(pivot, Conj)
    antecedents = _conj_antecedents(a, b) if is_conj else _impl_antecedents(a, b)

    if s.kind.is_ll:
        other_side = s.right if occurrence.side == "left" else s.left
        if len(other_side) != 1:
            raise ValueError("a << sequent must relate the pivot to one formula")
        other = other_side[0]

        def ll(x: Formula, y: Formula) -> RelationalHypersequent:
            return hseq(seq((x,), LL, (y,)))

        if occurrence.side == "left":
            if is_conj:
                replacements = [ll(a, other), ll(b, other), ll(a, other), ll(a, other), EMPTY]
            else:
                replacements = [ll(b, other), ll(a, other), EMPTY]
        else:
            if is_conj:
                replacements = [
                    ll(other, a),
                    ll(other, b),
                    ll(other, a),
                    ll(other, a),
                    ll(other, TOP),
                ]
            else:
                replacements = [ll(other, b), ll(other, a), ll(other, TOP)]
    else:
        gamma = _minus_one(pivot_side, pivot)
        delta = s.right if occurrence.side == "left" else s.left

        def frac(
            own: tuple[Formula, ...], kind, other: tuple[Formula, ...]
        ) -> RelationalHypersequent:
            if occurrence.side == "left":
                return hseq(seq(own, kind, other))
            return hseq(seq(other, kind, own))

        if s.kind.tag == "preceq" and s.kind.z == 0 and not gamma and len(delta) == 1:
            residual = hseq(seq((TOP,), preceq(), delta))
        else:
            residual = EMPTY
        if is_conj:
            shift = 1 if occurrence.side == "left" else -1
            replacements = [
                frac(gamma + (a,), s.kind, delta),
                frac(gamma + (b,), s.kind, delta),
                frac(gamma + (a, b), s.kind, delta),
                frac(gamma + (a, b), s.kind.shifted(shift), (a, b) + delta),
                residual,
            ]
        else:
            replacements = [
                frac(gamma + (b,), s.kind, delta),
                frac(gamma + (b,), s.kind, (a,) + delta),
                residual,
            ]

    labels = [
        union(antecedent, rest, replacement)
        for antecedent, replacement in zip(antecedents, replacements)
    ]
    return _premises("conj" if is_conj else "impl", labels)
