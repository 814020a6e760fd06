"""The whole-hypersequent rewriting calculus over relational hypersequents.

A step reduces a hypersequent by case analysis on the value of its pivot,
the most complex compound formula.  A strong conjunction pivot a * b splits
into five premises and an implication pivot a -> b into three, one per
semantic case; each premise carries an antecedent (the negation of the other
cases, as primitive sequents) plus the goal with every occurrence of the
pivot rewritten.  The premise order is fixed, so a premise holds under
exactly those valuations whose case matches its index.  For a * b the cases
are: 1, a has the smaller integer part; 2, b has; 3, equal finite integer
parts with fractional sum at least 1; 4, the same with sum below 1; 5, both
infinite.  For a -> b they are: 1, b has the smaller integer part; 2, equal
finite integer parts with b < a; 3, a <= b.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from .formula import Conj, Formula, Impl, TOP, complexity_key
from .hypersequent import (
    RelationalHypersequent,
    decompose,
    expand_abbreviation,
    most_complex,
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


def smaller_child(a: Formula, b: Formula) -> Formula:
    """The complexity-order minimum of two formulas, the first on a tie."""
    return min(a, b, key=complexity_key)


def _conj_antecedents(a: Formula, b: Formula) -> tuple[RelationalHypersequent, ...]:
    return (
        expand_abbreviation("neg_ll", a, b),
        expand_abbreviation("neg_ll", b, a),
        expand_abbreviation("neg_preceq1_pair", a, b),
        expand_abbreviation("neg_pair_prec_minus1", a, b),
        expand_abbreviation("neg_preceq", TOP, a)
        | expand_abbreviation("neg_preceq", TOP, b),
    )


def _impl_antecedents(a: Formula, b: Formula) -> tuple[RelationalHypersequent, ...]:
    return (
        expand_abbreviation("neg_ll", b, a),
        expand_abbreviation("neg_prec", b, a),
        expand_abbreviation("neg_leq", a, b),
    )


# The antecedent labels of each pivot, held only as long as the pivot lives.
_ANTECEDENTS: WeakKeyDictionary[Formula, tuple[RelationalHypersequent, ...]] = (
    WeakKeyDictionary()
)


def _antecedents(pivot: Formula) -> tuple[RelationalHypersequent, ...]:
    found = _ANTECEDENTS.get(pivot)
    if found is None:
        expand = _conj_antecedents if isinstance(pivot, Conj) else _impl_antecedents
        found = _ANTECEDENTS[pivot] = expand(pivot.left, pivot.right)
    return found


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
    antecedents = _antecedents(pivot)
    if isinstance(pivot, Conj):
        labels = [
            union(antecedents[0], subst_all(g, pivot, a)),
            union(antecedents[1], subst_all(g, pivot, b)),
            union(antecedents[2], ll_floor, subst_pair(g_ord, pivot, a, b), free),
            union(antecedents[3], ll_floor, subst_balanced_conj(g_ord, pivot, a, b), free),
            union(antecedents[4], *top_parts),
        ]
        return _premises("conj", labels)
    assert isinstance(pivot, Impl)
    labels = [
        union(antecedents[0], subst_all(g, pivot, b)),
        union(antecedents[1], ll_floor, subst_impl(g_ord, pivot, a, b), free),
        union(antecedents[2], *top_parts),
    ]
    return _premises("impl", labels)
