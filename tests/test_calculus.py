"""Premise construction for both rule families, pinned against hand-built labels.

The rewriting rules are the package's; the paper's single-occurrence RHBL
rules live in the test support module, beside the fuzzer that checks them.
"""

import random

import pytest

from blprover import Conj, Impl, LL, TOP, Var, hseq, prec, preceq, rwbl_premises, satisfies, seq
from blprover.calculus import _conj_antecedents, _impl_antecedents, smaller_child
from blprover.hypersequent import (
    RelationalHypersequent,
    decompose,
    expand_abbreviation,
    is_irreducible,
    most_complex,
)
from blprover.reduction import build_rwbl_tree, root_label
from support import (
    Occurrence,
    choose_occurrence,
    random_formula,
    random_valuation,
    reference_subst_balanced_conj,
    reference_subst_impl,
    rhbl_premises,
    variables,
)

A, B, C = Var(1), Var(2), Var(3)


def test_smaller_child_is_the_canonical_minimum():
    assert smaller_child(A, B) == A
    assert smaller_child(B, A) == A
    assert smaller_child(Conj(A, B), A) == A
    assert smaller_child(Conj(A, B), Impl(A, B)) == Conj(A, B)
    assert smaller_child(Impl(A, B), Conj(A, B)) == Conj(A, B)


def test_premise_counts_and_tags():
    conj_premises = rwbl_premises(root_label(Conj(A, B)))
    assert [p.tag for p in conj_premises] == ["conj1", "conj2", "conj3", "conj4", "conj5"]
    assert [p.index for p in conj_premises] == [1, 2, 3, 4, 5]
    impl_premises = rwbl_premises(root_label(Impl(A, B)))
    assert [p.tag for p in impl_premises] == ["impl1", "impl2", "impl3"]
    assert [p.index for p in impl_premises] == [1, 2, 3]


def test_implication_premises_from_goal():
    """The three rewriting premises of the root goal for p1 -> p2, in full."""
    p1, p2, p3 = rwbl_premises(root_label(Impl(A, B)))
    assert p1.label == hseq(
        seq((B,), preceq(), (A,)),
        seq((A,), preceq(), (B,)),
        seq((A,), LL, (B,)),
        seq((TOP,), preceq(), (B,)),
    )
    assert p2.label == hseq(
        seq((B,), LL, (A,)),
        seq((A,), preceq(), (B,)),
        seq((A,), LL, (B,)),
        seq((TOP, A), preceq(), (B,)),
    )
    assert p3.label == hseq(
        seq((B,), prec(), (A,)),
        seq((B,), LL, (A,)),
        seq((TOP,), preceq(), (TOP,)),
    )


def test_conjunction_premises_from_goal():
    """First two conjunction premises literally; the rest via the abbreviations."""
    goal = root_label(Conj(A, B))
    p1, p2, p3, p4, p5 = rwbl_premises(goal)
    assert p1.label == expand_abbreviation("neg_ll", A, B) | hseq(seq((TOP,), preceq(), (A,)))
    assert p2.label == expand_abbreviation("neg_ll", B, A) | hseq(seq((TOP,), preceq(), (B,)))
    assert p3.label == expand_abbreviation("neg_preceq1_pair", A, B) | hseq(
        seq((TOP,), preceq(), (A, B))
    )
    assert p4.label == expand_abbreviation("neg_pair_prec_minus1", A, B) | hseq(
        seq((TOP, A, B), preceq(-1), (A, B))
    )
    assert p5.label == (
        expand_abbreviation("neg_preceq", TOP, A)
        | expand_abbreviation("neg_preceq", TOP, B)
        | hseq(seq((TOP,), preceq(), (TOP,)))
    )


def test_pivot_vanishes_from_every_premise():
    for pivot in (Conj(A, Impl(B, C)), Impl(Conj(A, B), C)):
        for premise in rwbl_premises(root_label(pivot)):
            assert all(pivot not in s.formulas() for s in premise.label)


def test_ll_context_uses_smaller_child():
    # a << context sequent cannot host a two-formula side, so the middle
    # premises push the complexity-order minimum of the children into it
    pivot = Conj(Conj(A, B), C)
    g = hseq(seq((C,), LL, (pivot,)), seq((TOP,), preceq(), (pivot,)))
    premises = rwbl_premises(g)
    for index in (2, 3):  # pair and balanced premises
        label = premises[index].label
        assert seq((C,), LL, (C,)) in label
        assert all(pivot not in s.formulas() for s in label)


def test_choose_occurrence_prefers_left_of_first_sequent():
    pivot = Conj(A, B)
    g = hseq(seq((pivot,), preceq(), (C,)), seq((C,), preceq(), (pivot,)))
    occ = choose_occurrence(g)
    assert occ.side == "left"
    assert pivot in occ.sequent.left
    with pytest.raises(ValueError):
        choose_occurrence(hseq(seq((A,), preceq(), (B,))), pivot)


def test_rhbl_rewrites_single_occurrence():
    pivot = Conj(A, B)
    g = hseq(seq((pivot,), preceq(), (C,)), seq((C,), preceq(), (pivot,)))
    premises = rhbl_premises(g)
    # the untouched occurrence survives in every premise
    for premise in premises:
        assert seq((C,), preceq(), (pivot,)) in premise.label


def test_rhbl_ll_occurrence_keeps_residual_top():
    pivot = Conj(A, B)
    g = hseq(seq((C,), LL, (pivot,)))
    premises = rhbl_premises(g)
    assert len(premises) == 5
    assert premises[4].label == (
        expand_abbreviation("neg_preceq", TOP, A)
        | expand_abbreviation("neg_preceq", TOP, B)
        | hseq(seq((C,), LL, (TOP,)))
    )


def test_rhbl_explicit_occurrence():
    pivot = Impl(A, B)
    host = seq((pivot,), preceq(), (pivot,))
    g = hseq(host)
    left = rhbl_premises(g, Occurrence(host, "left"))
    right = rhbl_premises(g, Occurrence(host, "right"))
    assert len(left) == len(right) == 3
    assert left != right
    with pytest.raises(ValueError):
        rhbl_premises(g, Occurrence(seq((C,), preceq(), (C,)), "left"))


def test_rules_preserve_satisfaction_pointwise():
    """Random spot check: a valuation satisfies the conclusion exactly when it
    satisfies every premise, in both rule families."""
    rng = random.Random(14)
    checked = 0
    while checked < 120:
        formula = random_formula(rng, rng.randint(1, 5), 3)
        label = root_label(formula)
        for _ in range(rng.randrange(3)):
            if is_irreducible(label):
                break
            step = rng.choice(rwbl_premises(label)).label
            if is_irreducible(step):
                break
            label = step
        if is_irreducible(label):
            continue
        v = random_valuation(rng, variables(label), 3, 8)
        for expand in (rwbl_premises, rhbl_premises):
            premises = expand(label)
            assert satisfies(v, label) == all(satisfies(v, p.label) for p in premises)
        checked += 1


def _rebuild(g, target, replacement):
    """Substitution as it was before sequents were shared: every sequent rebuilt."""

    def side(formulas):
        out = []
        for f in formulas:
            out.extend(replacement if f == target else (f,))
        return out

    return RelationalHypersequent(tuple(seq(side(s.left), s.kind, side(s.right)) for s in g))


def _chained_rwbl_labels(g):
    """Reference: the rewriting premises joined by chained ``|``, one sort per join."""
    pivot, free, held = decompose(g)
    a, b = pivot.left, pivot.right
    c = smaller_child(a, b)
    g_ll = hseq(*(s for s in held if s.kind.is_ll))
    g_ord = hseq(*(s for s in held if not s.kind.is_ll))
    g_unit = hseq(*(s for s in g_ord if s.is_unit_shape))
    top_part = _rebuild(g_ll, pivot, (TOP,)) | _rebuild(g_unit, pivot, (TOP,)) | free
    if isinstance(pivot, Conj):
        antecedents = _conj_antecedents(a, b)
        return [
            antecedents[0] | _rebuild(g, pivot, (a,)),
            antecedents[1] | _rebuild(g, pivot, (b,)),
            antecedents[2] | _rebuild(g_ll, pivot, (c,)) | _rebuild(g_ord, pivot, (a, b)) | free,
            antecedents[3]
            | _rebuild(g_ll, pivot, (c,))
            | reference_subst_balanced_conj(g_ord, pivot, a, b)
            | free,
            antecedents[4] | top_part,
        ]
    antecedents = _impl_antecedents(a, b)
    return [
        antecedents[0] | _rebuild(g, pivot, (b,)),
        antecedents[1]
        | _rebuild(g_ll, pivot, (c,))
        | reference_subst_impl(g_ord, pivot, a, b)
        | free,
        antecedents[2] | top_part,
    ]


def _occurrences(g):
    pivot = most_complex(g)
    for s in g:
        for side in ("left", "right"):
            if pivot in getattr(s, side):
                yield Occurrence(s, side)


def _reducible_labels(seed, count):
    """Inner-node labels of rwbl trees and of random rhbl walks from seeded formulas."""
    rng = random.Random(seed)
    labels = set()
    for _ in range(count):
        formula = random_formula(rng, rng.randint(1, 4), 3)
        stack = [build_rwbl_tree(formula).root]
        while stack:
            node = stack.pop()
            if node.children:
                labels.add(node.label)
                stack.extend(node.children)
        label = root_label(formula)
        for _ in range(8):
            if is_irreducible(label):
                break
            labels.add(label)
            label = rng.choice(rhbl_premises(label)).label
    return sorted(labels, key=lambda g: g.render())


def _chained_rhbl_labels(g, occurrence):
    """Reference: the single-occurrence premises joined by chained ``|``."""
    pivot = most_complex(g)
    s, on_left = occurrence.sequent, occurrence.side == "left"
    a, b = pivot.left, pivot.right
    is_conj = isinstance(pivot, Conj)
    antecedents = _conj_antecedents(a, b) if is_conj else _impl_antecedents(a, b)
    if s.kind.is_ll:
        other = (s.right if on_left else s.left)[0]

        def ll(x):
            return hseq(seq((x,), LL, (other,)) if on_left else seq((other,), LL, (x,)))

        last = hseq() if on_left else ll(TOP)
        if is_conj:
            replacements = [ll(a), ll(b), ll(a), ll(a), last]
        else:
            replacements = [ll(b), ll(a), last]
    else:
        own = list(s.left if on_left else s.right)
        own.remove(pivot)
        gamma = tuple(own)
        delta = s.right if on_left else s.left

        def frac(mine, kind, theirs):
            return hseq(seq(mine, kind, theirs) if on_left else seq(theirs, kind, mine))

        unit = s.kind == preceq() and not gamma and len(delta) == 1
        residual = hseq(seq((TOP,), preceq(), delta)) if unit else hseq()
        if is_conj:
            shifted = s.kind.shifted(1 if on_left else -1)
            replacements = [
                frac(gamma + (a,), s.kind, delta),
                frac(gamma + (b,), s.kind, delta),
                frac(gamma + (a, b), s.kind, delta),
                frac(gamma + (a, b), shifted, (a, b) + delta),
                residual,
            ]
        else:
            replacements = [
                frac(gamma + (b,), s.kind, delta),
                frac(gamma + (b,), s.kind, (a,) + delta),
                residual,
            ]
    rest = g - {s}
    return [ante | rest | repl for ante, repl in zip(antecedents, replacements)]


def test_premises_match_the_chained_composition():
    labels = _reducible_labels(31, 20)
    assert len(labels) > 500
    # One memo across the loop, as one search or tree build keeps it.
    memo = {}
    for g in labels:
        kind = "conj" if isinstance(most_complex(g), Conj) else "impl"
        expected = _chained_rwbl_labels(g)
        tags = [f"{kind}{i}" for i in range(1, len(expected) + 1)]
        indices = list(range(1, len(expected) + 1))
        for premises in (rwbl_premises(g), rwbl_premises(g, memo)):
            assert [p.label for p in premises] == expected
            assert [p.tag for p in premises] == tags
            assert [p.index for p in premises] == indices
        for occurrence in _occurrences(g):
            premises = rhbl_premises(g, occurrence)
            assert [p.label for p in premises] == _chained_rhbl_labels(g, occurrence)
            assert [p.tag for p in premises] == tags
            assert [p.index for p in premises] == indices


def test_substitutions_share_untouched_sequents():
    """Every premise label holds the parent's pivot-free sequents themselves."""
    for g in _reducible_labels(31, 20):
        free = decompose(g)[1]
        for premise in rwbl_premises(g):
            kept = {id(s) for s in premise.label}
            assert all(id(s) in kept for s in free)
