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

A step reads two parts of a label (``decompose``): the rest, which every
premise keeps, and the sequents that hold the pivot.  Such a sequent has it
as its own greatest compound formula, so the sequent alone fixes how each
premise rewrites it.  ``rwbl_premises`` takes a memo that its caller keeps
for one search or tree build: it holds each pivot's antecedents and each
pivot sequent's parts, so a sequent that sibling subtrees share is rewritten
once per call, and the rewrites die with the call.  A step checks the shape
of each sequent it makes (``check_generated_shape``) as it makes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Conj, Formula, TOP, complexity_key
from .hypersequent import (
    RelationalHypersequent,
    RelationalSequent,
    check_generated_shape,
    decompose,
    expand_abbreviation,
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


def _premises(kind: str, labels: list[RelationalHypersequent]) -> tuple[Premise, ...]:
    return tuple(
        Premise(f"{kind}{i}", i, label) for i, label in enumerate(labels, start=1)
    )


def _parts(s: RelationalSequent, pivot: Formula) -> tuple[tuple[RelationalSequent, ...], ...]:
    """A sequent holding the pivot, as each premise rewrites it, in premise order.

    Each part is a tuple of at most one sequent, the rewrite of s alone.  A
    ``<<`` sequent takes the smaller child in the middle premises; the last
    premise substitutes bare top and keeps only ``<<`` and unit sequents, as
    the rest become unsatisfiable.
    """
    a, b = pivot.left, pivot.right
    conj = isinstance(pivot, Conj)
    first = [subst_all(s, pivot, x) for x in ((a, b) if conj else (b,))]
    if s.kind.is_ll:
        middle = [subst_all(s, pivot, smaller_child(a, b))] * (2 if conj else 1)
    elif conj:
        middle = [subst_pair(s, pivot, a, b), subst_balanced_conj(s, pivot, a, b)]
    else:
        middle = [subst_impl(s, pivot, a, b)]
    top = (subst_all(s, pivot, TOP),) if s.kind.is_ll or s.is_unit_shape else ()
    return tuple((part,) for part in first + middle) + (top,)


def rwbl_premises(g: RelationalHypersequent, memo: dict | None = None) -> tuple[Premise, ...]:
    """Whole-hypersequent rewriting step on the pivot of g.

    Returns five premises for a conjunction pivot and three for an
    implication pivot.  The pivot does not occur in any premise: premises 1
    and 2 (and 1 for implication) substitute a single child formula
    everywhere, the middle premises substitute child pairs into the
    fractional sequents, and the final premise substitutes bare top, under
    which fractional sequents that are not one-formula-each-side at index
    zero become unsatisfiable and are omitted.  Each label is one set union
    of its antecedent, the sequents without the pivot, which every premise
    shares as the same objects, and each pivot sequent's part.  Antecedents
    and parts are looked up in memo, and made, shape-checked together and
    entered there on a miss; with no memo, they are made for this call.
    """
    if memo is None:
        memo = {}
    pivot, free, held = decompose(g)
    made: list = []
    antecedents = memo.get(pivot)
    if antecedents is None:
        expand = _conj_antecedents if isinstance(pivot, Conj) else _impl_antecedents
        antecedents = memo[pivot] = expand(pivot.left, pivot.right)
        made += antecedents
    for s in held:
        if s not in memo:
            memo[s] = _parts(s, pivot)
            made += memo[s]
    if made:
        check_generated_shape(union(*made))
    labels = [union(free, *column) for column in zip(antecedents, *(memo[s] for s in held))]
    return _premises("conj" if isinstance(pivot, Conj) else "impl", labels)
