"""Hypersequents as sets of sequents, abbreviations and the substitution toolkit."""

import gc
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blprover import (
    BOT,
    INF,
    LL,
    TOP,
    Conj,
    Finite,
    Impl,
    RelKind,
    RelationalHypersequent,
    RelationalSequent,
    Valuation,
    Var,
    build_rwbl_tree,
    check_no_tautology,
    check_tautology,
    hseq,
    parse,
    render,
    prec,
    preceq,
    satisfies,
    seq,
)
from blprover.hypersequent import (
    check_generated_shape,
    decompose,
    expand_abbreviation,
    is_irreducible,
    most_complex,
    subst_all,
    subst_balanced_conj,
    subst_impl,
    subst_pair,
    union,
)
from blprover import calculus, formula as formula_module, hypersequent
from blprover.formula import complexity_key
from blprover.calculus import rwbl_premises
from blprover.semantics import satisfies_sequent
from support import (
    abbreviation,
    random_formula,
    reference_decompose,
    reference_sequent_fields,
    reference_subst_all,
    reference_subst_balanced_conj,
    reference_subst_impl,
    reference_subst_pair,
    variables,
)

A, B, C = Var(1), Var(2), Var(3)
PIV = Conj(A, B)


def test_relkind_validation():
    with pytest.raises(ValueError):
        RelKind("ll", 1)
    assert preceq(2).shifted(-3) == preceq(-1)
    assert prec().strict
    assert not preceq().strict
    assert LL.is_ll


def test_sequent_sides_are_canonical_multisets():
    s = seq((Impl(A, B), A), preceq(), ())
    assert s.left == (A, Impl(A, B))
    assert seq((A, B), preceq(), ()) is seq((B, A), preceq(), ())
    assert RelationalSequent((B, A), RelKind("prec", 1), (C,)) is seq((A, B), prec(1), (C,))
    # multiset semantics: repetition matters
    assert seq((A, A), preceq(), ()) != seq((A,), preceq(), ())


def test_ll_admits_one_formula_per_side():
    with pytest.raises(ValueError):
        seq((A, B), LL, (C,))


def test_sequents_are_immutable_and_survive_pickling():
    s = seq((A, Impl(A, B)), prec(1), (TOP,))
    assert pickle.loads(pickle.dumps(s)) is s
    assert repr(seq((A,), LL, ())) == (
        "RelationalSequent(left=(Var(index=1),), kind=RelKind(tag='ll', z=0), right=())"
    )
    with pytest.raises(AttributeError):
        s.weight = 0


def _interned_counts():
    return len(formula_module._INTERNED), len(hypersequent._INTERNED)


def test_intern_tables_forget_what_no_one_holds():
    """Entries die with their objects, so a finished search leaves the tables as it found them."""
    gc.collect()
    before = _interned_counts()
    rng = random.Random(20260825)
    # Variables p101-p103, which no other test holds, so every compound
    # subformula, and every sequent over one, is new here.
    corpus = [
        parse(render(random_formula(rng, 1 + i % 6, 3, bottom_prob=0)).replace("p", "p10"))
        for i in range(20)
    ]
    results = [(build_rwbl_tree(f), check_tautology(f)) for f in corpus]
    grown = _interned_counts()
    assert grown[0] > before[0] and grown[1] > before[1]
    del corpus, results
    gc.collect()
    assert _interned_counts() == before


def test_no_sequent_outlives_a_call():
    """A call's rewrites die with it, although its formulas and their subformulas live on."""
    formulas = [parse(t) for t in ("(p1 -> p2) * (p2 -> p3) -> (p1 -> p3)", "p1 -> p1 * p1")]
    gc.collect()
    before = set(hypersequent._INTERNED)
    for f in formulas:
        results = [check_tautology(f), build_rwbl_tree(f)]
        if not results[0].provable:
            results.append(check_no_tautology(f, results[0].certificate))
    assert not results[0].provable
    del results
    gc.collect()
    assert set(hypersequent._INTERNED) <= before


def test_pivot_is_the_greatest_compound_formula():
    # p1 * p2 and bare top both have one connective, and the conjunction
    # sorts first, so a side's last element need not be its pivot.
    s = seq((PIV, TOP), preceq(), (A,))
    assert s.left[-1] is TOP and s.pivot is PIV
    rng = random.Random(20261019)
    atoms = [A, B, C, TOP, BOT]
    kinds = [LL, preceq(), preceq(1), prec(), prec(-1)]
    atomic = 0
    for _ in range(300):
        kind = rng.choice(kinds)
        sides = []
        for _ in range(2):
            pool = [rng.choice(atoms) for _ in range(3)]
            pool += [random_formula(rng, rng.randint(1, 3), 3) for _ in range(3)]
            sides.append(rng.sample(pool, rng.randint(0, 1 if kind.is_ll else 3)))
        s = seq(sides[0], kind, sides[1])
        compounds = [f for f in s.formulas() if f.complexity and f is not TOP]
        if compounds:
            assert s.pivot is max(compounds, key=complexity_key)
        else:
            atomic += 1
            assert s.pivot is None
        assert s.all_atomic == (s.pivot is None)
    assert 10 <= atomic <= 290


_SIDE_FORMULAS = st.sampled_from(
    [BOT, TOP, Var(1), Var(2), Var(3), Conj(Var(1), Var(2)), Conj(Var(2), Var(1)), Conj(TOP, TOP)]
    + [Impl(Var(1), Var(2)), Impl(Conj(Var(1), TOP), Var(3)), Impl(TOP, Conj(Var(2), BOT))]
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.lists(_SIDE_FORMULAS, max_size=4),
    st.sampled_from([LL, preceq(), preceq(1), preceq(-2), prec(), prec(1), prec(-1)]),
    st.lists(_SIDE_FORMULAS, max_size=4),
)
def test_constructor_fields_match_a_plain_recomputation(left, kind, right):
    # The constructor computes the pivot and the weight in one pass.
    if kind.is_ll and (len(left) > 1 or len(right) > 1):
        with pytest.raises(ValueError):
            seq(left, kind, right)
        return
    s = seq(left, kind, right)
    expected = reference_sequent_fields(tuple(left), kind, tuple(right))
    assert {name: getattr(s, name) for name in expected} == expected


def test_unit_shape_flag():
    assert seq((TOP,), preceq(), (A,)).is_unit_shape
    assert not seq((TOP,), preceq(1), (A,)).is_unit_shape
    assert not seq((TOP,), prec(), (A,)).is_unit_shape
    assert not seq((TOP, A), preceq(), (B,)).is_unit_shape


def test_hypersequent_set_semantics():
    s1 = seq((A,), LL, (B,))
    s2 = seq((B,), preceq(), (A,))
    assert hseq(s1, s2) == hseq(s2, s1, s1)
    assert len(hseq(s1, s2, s1)) == 2
    assert s1 in hseq(s1)
    assert hseq(s1) | hseq(s2) == hseq(s1, s2)
    assert hseq(s1, s2) - {s1} == hseq(s2)
    assert not hseq()


def test_every_label_operation_returns_a_label():
    """A frozenset operation that returned a plain frozenset would lose render."""
    s1, s2 = seq((A,), LL, (PIV,)), seq((TOP,), preceq(), (PIV, B))
    g = hseq(s1, s2, seq((PIV,), preceq(), (C,)), seq((A,), prec(), (C,)))
    labels = [hseq(), hseq(s1) | hseq(s2), union(hseq(s1), hseq(s2), g), g]
    labels += decompose(g)[1:]
    labels += [p.label for root in (g, hseq(s2)) for p in rwbl_premises(root)]
    for label in labels:
        assert type(label) is RelationalHypersequent
        plain = frozenset(label)
        assert label == plain and hash(label) == hash(plain)


def test_render_is_deterministic():
    g = hseq(seq((A,), preceq(), (B,)), seq((A,), LL, (B,)))
    assert g.render() == "p1 << p2 | p1 <= p2"


def test_shape_error_names_the_least_offending_sequent():
    g = hseq(
        seq((A, B), preceq(), ()),
        seq((), preceq(), (A, C)),
        seq((A,), preceq(), (B,)),
        seq((A, B), preceq(1), ()),
    )
    with pytest.raises(AssertionError) as raised:
        check_generated_shape(g)
    assert str(raised.value) == (
        "generated label has a two-formula index-0 sequent "
        "with both formulas on one side: <= p1,p3"
    )
    check_generated_shape(hseq(seq((A,), preceq(), (B,)), seq((A, B), preceq(1), ())))


def test_variables_and_irreducibility():
    g = hseq(seq((TOP,), preceq(), (Conj(A, C),)))
    assert variables(g) == {1, 3}
    assert not is_irreducible(g)
    assert is_irreducible(hseq(seq((TOP,), preceq(), (A,))))
    assert most_complex(g) == Conj(A, C)
    with pytest.raises(ValueError):
        most_complex(hseq(seq((A,), preceq(), (B,))))


def test_subst_all():
    assert subst_all(seq((TOP,), preceq(), (PIV,)), PIV, B) == seq((TOP,), preceq(), (B,))
    assert subst_all(seq((C,), LL, (PIV,)), PIV, B) == seq((C,), LL, (B,))
    twice = seq((PIV, PIV, C), preceq(1), (PIV,))
    assert subst_all(twice, PIV, B) == seq((B, B, C), preceq(1), (B,))


def test_subst_pair_splits_occurrences():
    s = seq((TOP,), preceq(), (PIV, C))
    assert subst_pair(s, PIV, A, B) == seq((TOP,), preceq(), (A, B, C))
    bad = seq((C,), LL, (PIV,))
    with pytest.raises(ValueError):
        subst_pair(bad, PIV, A, B)


def test_subst_pair_doubles_each_occurrence():
    s = seq((PIV,), prec(), (PIV, PIV, C))
    assert subst_pair(s, PIV, A, B) == seq((A, B), prec(), (A, B, A, B, C))


def test_subst_balanced_conj_shifts_index():
    s = seq((TOP,), preceq(), (PIV,))
    assert subst_balanced_conj(s, PIV, A, B) == seq((TOP, A, B), preceq(-1), (A, B))
    two_sided = seq((PIV, PIV), prec(), (PIV,))
    assert subst_balanced_conj(two_sided, PIV, A, B) == seq((A, B), prec(1), (A, B))
    with pytest.raises(ValueError):
        subst_balanced_conj(seq((C,), LL, (PIV,)), PIV, A, B)


def test_subst_impl_swaps_sides():
    target = Impl(A, B)
    s = seq((TOP,), preceq(), (target,))
    assert subst_impl(s, target, A, B) == seq((TOP, A), preceq(), (B,))
    h = seq((target,), preceq(), (C,))
    assert subst_impl(h, target, A, B) == seq((B,), preceq(), (A, C))
    # l = r = 1: each side gains one a, for the other side's occurrence, and
    # one b, for its own.
    both = seq((target, C), preceq(2), (target,))
    assert subst_impl(both, target, A, B) == seq((A, B, C), preceq(2), (A, B))
    # A << sequent is refused, even one without the target.
    with pytest.raises(ValueError):
        subst_impl(seq((C,), LL, (A,)), target, A, B)


@pytest.mark.parametrize("name", ["subst_all", "subst_pair", "subst_balanced_conj", "subst_impl"])
def test_each_substitution_guards_its_sequent(name):
    """Explicit raises, so they fire under ``python -O`` too."""
    substitute = getattr(hypersequent, name)
    children = (A,) if name == "subst_all" else (A, B)
    for without in (seq((A,), preceq(), (C,)), seq((PIV,), prec(1), (C,))):
        with pytest.raises(ValueError, match="does not hold the target"):
            substitute(without, Impl(A, B), *children)
    ll = seq((C,), LL, (PIV,))
    if name == "subst_all":
        assert substitute(ll, PIV, A) == seq((C,), LL, (A,))
    else:
        with pytest.raises(ValueError, match="<<|fractional sequents only"):
            substitute(ll, PIV, *children)


_REFERENCE_SUBST = {
    "subst_all": reference_subst_all,
    "subst_pair": reference_subst_pair,
    "subst_balanced_conj": reference_subst_balanced_conj,
    "subst_impl": reference_subst_impl,
}


def _outcome(function, g, target, children):
    try:
        return function(g, target, *children)
    except ValueError as exc:
        return str(exc)


def _same_as_reference(name, s, target, children):
    """The substitution's sequent, after checking it against the reference's label of s."""
    got = _outcome(getattr(hypersequent, name), s, target, children)
    want = _outcome(_REFERENCE_SUBST[name], hseq(s), target, children)
    assert isinstance(got, str) == isinstance(want, str), (name, s.render(), got, want)
    if isinstance(want, str):
        assert got == want
    else:
        # Sequents are interned: an equal rewrite must be the very same object.
        assert {id(got)} == {id(r) for r in want}, (name, s.render())
    return got


def test_substitutions_match_the_reference_on_every_calculus_call(monkeypatch):
    """Each call the calculus makes while building 60 seeded trees, checked as it happens."""
    calls = Counter()

    def checked(name):
        def substitute(s, target, *children):
            calls[name] += 1
            calls["both sides"] += target in s.left and target in s.right
            return _same_as_reference(name, s, target, children)

        return substitute

    for name in _REFERENCE_SUBST:
        monkeypatch.setattr(calculus, name, checked(name))
    rng = random.Random(20261019)
    for i in range(60):
        build_rwbl_tree(random_formula(rng, 1 + i % 6, 3))
    assert all(calls[name] for name in _REFERENCE_SUBST), calls
    assert calls["both sides"], calls


_TARGETS = [(PIV, A, B), (Impl(A, B), A, B), (Impl(B, Conj(A, C)), B, Conj(A, C))]
_NEIGHBOURS = [A, B, C, TOP, BOT, PIV, Impl(C, A), Conj(A, C)]


@st.composite
def _labels_with_target(draw):
    """A label over 1-4 sequents of every relation, each holding the target 0-3 times a side."""
    target, a, b = draw(st.sampled_from(_TARGETS))
    neighbours = [f for f in _NEIGHBOURS if f is not target]
    kinds = [LL] + [make(z) for make in (preceq, prec) for z in range(-2, 3)]
    sequents = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        most = 1 if kind.is_ll else 3
        sides = []
        for _ in range(2):
            count = draw(st.integers(0, most))
            rest = draw(st.lists(st.sampled_from(neighbours), max_size=min(2, most - count)))
            sides.append((target,) * count + tuple(rest))
        sequents.append(seq(sides[0], kind, sides[1]))
    return hseq(*sequents), target, a, b


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_labels_with_target())
def test_substitutions_match_the_reference_on_random_labels(drawn):
    g, target, a, b = drawn
    for s in g:
        if target in s.left or target in s.right:
            _same_as_reference("subst_all", s, target, (a,))
            for name in ("subst_pair", "subst_balanced_conj", "subst_impl"):
                _same_as_reference(name, s, target, (a, b))


def test_decompose_partitions():
    free = seq((C,), preceq(), (B,))
    # A smaller compound formula does not make its sequent hold the pivot.
    smaller = seq((Conj(A, A),), prec(), (C,))
    ll_part = seq((C,), LL, (PIV,))
    ord_part = seq((PIV, Conj(A, A)), prec(1), (A,))
    unit_part = seq((TOP,), preceq(), (PIV,))
    g = hseq(free, smaller, ll_part, ord_part, unit_part)
    pivot, got_free, held = decompose(g)
    assert pivot is PIV
    assert got_free == hseq(free, smaller)
    assert held == hseq(ll_part, ord_part, unit_part)
    with pytest.raises(ValueError, match="irreducible"):
        decompose(hseq(free))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_labels_with_target())
def test_decompose_matches_the_reference_on_random_labels(drawn):
    g = drawn[0]
    if is_irreducible(g):
        with pytest.raises(ValueError):
            decompose(g)
        return
    pivot = most_complex(g)
    free, ll_part, ord_part, _ = reference_decompose(g, pivot)
    assert decompose(g) == (pivot, free, ll_part | ord_part)


def test_expand_abbreviation_rejects_unknown():
    with pytest.raises(ValueError):
        expand_abbreviation("neg_everything", A, B)


# --- semantic contract of every named abbreviation -------------------------
#
# Each named form must be satisfied exactly when its defining condition holds,
# for every valuation.  The conditions are computed directly from the values.


def _floor_class(x):
    return "inf" if x.is_infinite else x.int_part


def _sample_values():
    out = [INF]
    for k in (0, 1, 2):
        for num in (0, 1, 3):
            out.append(Finite(k, Fraction(num, 4)))
    return out


def _condition(name, x, y):
    if name == "leq":
        return x <= y
    if name == "sim":
        return _floor_class(x) == _floor_class(y)
    if name == "neg_sim":
        return _floor_class(x) != _floor_class(y)
    if name == "neg_ll":
        return not satisfies_sequent(Valuation({1: x, 2: y}), seq((A,), LL, (B,)))
    if name == "neg_leq":
        return not (x <= y)
    if name == "neg_preceq":
        return not satisfies_sequent(Valuation({1: x, 2: y}), seq((A,), preceq(), (B,)))
    if name == "neg_prec":
        return not satisfies_sequent(Valuation({1: x, 2: y}), seq((A,), prec(), (B,)))
    if name == "neg_preceq1_pair":
        return not satisfies_sequent(Valuation({1: x, 2: y}), seq((), preceq(1), (A, B)))
    if name == "neg_pair_prec_minus1":
        return not satisfies_sequent(Valuation({1: x, 2: y}), seq((A, B), prec(-1), ()))
    raise AssertionError(name)


@pytest.mark.parametrize(
    "name",
    [
        "leq",
        "sim",
        "neg_sim",
        "neg_ll",
        "neg_leq",
        "neg_preceq",
        "neg_prec",
        "neg_preceq1_pair",
        "neg_pair_prec_minus1",
    ],
)
def test_abbreviation_matches_semantics(name):
    expansion = abbreviation(name, A, B)
    for x in _sample_values():
        for y in _sample_values():
            v = Valuation({1: x, 2: y})
            assert satisfies(v, expansion) == _condition(name, x, y), (name, x, y)


def test_abbreviations_on_constants():
    # the same contract with falsum and the truth constant plugged in
    for name in ("neg_ll", "neg_preceq", "neg_prec"):
        for other in (BOT, TOP):
            expansion = expand_abbreviation(name, other, A)
            base = {"neg_ll": LL, "neg_preceq": preceq(), "neg_prec": prec()}[name]
            for x in _sample_values():
                v = Valuation({1: x})
                direct = not satisfies_sequent(v, seq((other,), base, (A,)))
                assert satisfies(v, expansion) == direct, (name, other, x)
