"""Parser, printer and structural helpers for the formula language."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blprover import BOT, TOP, Bottom, Conj, Impl, ParseError, Var, complexity, parse, render
from blprover.semantics import INF, Finite, Valuation, eval_formula
from blprover.formula import (
    MAX_CONNECTIVES,
    MAX_NESTING,
    InternTable,
    check_limits,
    complexity_key,
    is_atomic,
    serialize_key,
)
from support import (
    compound_subformulas,
    implication_chain,
    random_formula,
    reference_fixed,
    variables_in,
)

P1, P2, P3 = Var(1), Var(2), Var(3)


def test_parse_primitives():
    assert parse("p1") == P1
    assert parse("0") == BOT
    assert parse("bot") == BOT
    assert parse("1") == TOP
    assert parse("top") == TOP
    assert TOP == Impl(BOT, BOT)


def test_parse_associativity_and_precedence():
    # implication is right associative, conjunction left associative,
    # and conjunction binds tighter than implication
    assert parse("p1 -> p2 -> p3") == Impl(P1, Impl(P2, P3))
    assert parse("p1 * p2 * p3") == Conj(Conj(P1, P2), P3)
    assert parse("p1 * p2 -> p3") == Impl(Conj(P1, P2), P3)
    assert parse("p1 -> p2 * p3") == Impl(P1, Conj(P2, P3))


def test_parse_sugar():
    assert parse("~p1") == Impl(P1, BOT)
    assert parse("~p1 * p2") == Conj(Impl(P1, BOT), P2)
    assert parse("p1 <-> p2") == Conj(Impl(P1, P2), Impl(P2, P1))
    # the biconditional nests to the right like implication
    assert parse("p1 <-> p2 <-> p3") == parse("p1 <-> (p2 <-> p3)")


@pytest.mark.parametrize(
    "text",
    [
        "p1",
        "0",
        "top",
        "~p1",
        "p1 -> p2 -> p3",
        "(p1 -> p2) -> p3",
        "p1 * p2 * p3",
        "p1 * (p2 * p3)",
        "p1 <-> p2",
        "~(p1 * ~p2)",
        "((p1 -> 0) -> 0) -> p1",
    ],
)
def test_render_round_trip(text):
    formula = parse(text)
    assert parse(render(formula)) == formula


def test_render_truth_constant():
    assert render(TOP) == "top"
    assert render(Impl(P1, BOT)) == render(parse("~p1"))


def test_complexity():
    assert complexity(P1) == 0
    assert complexity(BOT) == 0
    assert complexity(TOP) == 1
    assert complexity(parse("(p1 -> p2) -> ((p2 -> p3) -> (p1 -> p3))")) == 5
    assert complexity(parse("(p1 -> (p2 -> p3)) <-> ((p1 * p2) -> p3)")) == 11


def test_is_atomic():
    assert is_atomic(P1)
    assert is_atomic(BOT)
    assert is_atomic(TOP)
    assert not is_atomic(Conj(P1, P2))
    assert not is_atomic(Impl(P1, BOT))


def test_fixed_atoms_of_the_identities():
    cases = {
        "p1 * 0": BOT,
        "0 * (p1 -> p2)": BOT,
        "top * p1": P1,
        "p1 * top": P1,
        "(p1 -> p1) -> p2": P2,
        "0 -> p1 * p2": TOP,
        "p1 * p2 -> top": TOP,
        "(p1 * 0) -> p2": TOP,
        "(p2 * top) -> (top * p2)": TOP,
        "top": TOP,
        "p1 * p1": None,
        "p1 -> p2": None,
        "top * (p1 -> p2)": None,
        "p1 -> 0": None,
    }
    for text, atom in cases.items():
        assert parse(text).fixed is atom, text
    for atom in (BOT, TOP, P1):
        assert atom.fixed is atom


_GRID = [INF] + [Finite(k, Fraction(n, 3)) for k in (0, 1) for n in range(3)]


def test_fixed_atoms_match_the_reference_and_the_semantics():
    """Over seeded random formulas of up to four variables, each subformula's
    fixed atom is the reference's, and each compound one that has a fixed
    atom takes that atom's value at every point of the ordinal-sum grid."""
    rng = random.Random(47)
    seen, fixed = set(), {BOT: 0, TOP: 0, "variable": 0}
    for _ in range(400):
        stack = [random_formula(rng, rng.randint(1, 9), rng.randint(1, 4))]
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            assert f.fixed is reference_fixed(f), render(f)
            if is_atomic(f):
                continue
            stack += (f.left, f.right)
            if f.fixed is None:
                continue
            indices = sorted(variables_in(f))
            for values in itertools.product(_GRID, repeat=len(indices)):
                v = Valuation(dict(zip(indices, values)))
                assert eval_formula(v, f) == eval_formula(v, f.fixed), (render(f), v)
            fixed[f.fixed if f.fixed in (BOT, TOP) else "variable"] += 1
    assert min(fixed.values()) >= 50, fixed


def test_complexity_order():
    # same connective count: the tie-break puts conjunction first
    assert complexity_key(Conj(P1, P2)) < complexity_key(Impl(P1, P2))
    assert complexity_key(Impl(P1, P2)) > complexity_key(Conj(P1, P2))
    assert complexity_key(P1) == complexity_key(P1)
    assert complexity_key(P1) < complexity_key(Conj(P1, P2))
    assert sorted([Impl(P1, P2), P2, Conj(P1, P2)], key=complexity_key) == [
        P2,
        Conj(P1, P2),
        Impl(P1, P2),
    ]


def test_serialize_key_distinguishes():
    seen = {serialize_key(f) for f in (P1, P2, BOT, TOP, Conj(P1, P2), Impl(P1, P2))}
    assert len(seen) == 6


def test_compound_subformulas():
    formula = parse("((p1 * p2) -> p1) * (p1 * p2)")
    subs = set(compound_subformulas(formula))
    assert Conj(P1, P2) in subs
    assert Impl(Conj(P1, P2), P1) in subs
    assert formula in subs
    assert P1 not in subs


def test_variables_in():
    assert variables_in(parse("(p1 * p3) -> 0")) == {1, 3}
    assert variables_in(BOT) == set()
    assert variables_in(TOP) == set()


def test_var_index_validation():
    with pytest.raises(ValueError):
        Var(-1)


def test_each_distinct_formula_is_one_object():
    assert Conj(Var(1), Var(2)) is Conj(Var(1), Var(2))
    assert Conj(P1, P2) is not Impl(P1, P2)
    assert parse("0 -> 0") is TOP and Bottom() is BOT
    formula = parse("(p1 -> p2) * ~p3")
    assert formula is Conj(Impl(P1, P2), Impl(P3, BOT))
    assert pickle.loads(pickle.dumps(formula)) is formula
    assert repr(Conj(Var(2), Var(3))) == "Conj(left=Var(index=2), right=Var(index=3))"
    with pytest.raises(AttributeError):
        formula.left = P1
    with pytest.raises(AttributeError):
        P1.index = 2


class _Node:
    """A weakly referenceable stand-in for an interned node."""


def test_intern_table_keeps_the_first_live_node():
    table = InternTable()
    first = _Node()
    assert table.add("key", first) is first
    # While the first node lives, a second one entered under its key gets it back.
    assert table.add("key", _Node()) is first
    stale = table["key"]
    del first
    assert "key" not in table
    # The key is free again, and the stale reference cannot drop the new entry.
    newer = _Node()
    assert table.add("key", newer) is newer
    table._forget(stale)
    assert table["key"]() is newer


def test_formulas_past_the_limits_are_measured_but_not_rendered():
    chain = implication_chain(3000)
    assert complexity(chain) == chain.height == 3000
    assert chain is Impl(P1, chain.right) and hash(chain) == hash(Impl(P1, chain.right))
    with pytest.raises(ValueError, match="nested deeper than 100 levels"):
        render(chain)


def test_cached_helpers_and_repr_do_not_recurse():
    chain = implication_chain(3000)
    assert serialize_key(chain) == b">v1;" * 3000 + b"v1;"
    assert repr(chain) == "Impl(left=Var(index=1), right=" * 3000 + "Var(index=1)" + ")" * 3000


@pytest.mark.parametrize(
    "text", ["", "p1 ->", "-> p1", "q1", "p1 p2", "(p1", "p1)", "p0x", "p01", "p\u0661"]
)
def test_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("p1 -> $")
    assert info.value.position == 6
    assert "position" in str(info.value)


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "~" * n + "p1",
        lambda n: "(" * n + "p1" + ")" * n,
        lambda n: " * ".join(["p1"] * (n + 1)),
        lambda n: " -> ".join(["p1"] * (n + 1)),
        lambda n: "(" * (n // 2) + "~" * (n - n // 2) + "p1" + ")" * (n // 2),
    ],
    ids=["negation", "brackets", "conjunction", "implication", "mixed"],
)
def test_parse_nesting_limit(nest):
    formula = parse(nest(MAX_NESTING))
    assert complexity(formula) <= MAX_NESTING
    assert parse(render(formula)) == formula
    with pytest.raises(ParseError, match="nested deeper"):
        parse(nest(MAX_NESTING + 1))


def _balanced(n):
    """A conjunction tree of n connectives, about log2(n) levels tall."""
    if n == 0:
        return P1
    half = (n - 1) // 2
    return Conj(_balanced(half), _balanced(n - 1 - half))


def test_parse_connective_limit():
    at_limit = _balanced(MAX_CONNECTIVES)
    assert parse(render(at_limit)) == at_limit
    assert complexity(at_limit) == MAX_CONNECTIVES
    over = _balanced(MAX_CONNECTIVES + 1)
    # render refuses the formula itself, so its text is joined from its halves.
    with pytest.raises(ParseError, match=f"more than {MAX_CONNECTIVES} connectives"):
        parse(f"({render(over.left)}) * ({render(over.right)})")


def test_check_limits_counts_shared_subformulas_in_full():
    shared = P1
    for _ in range(13):
        shared = Conj(shared, shared)
    check_limits(shared)
    assert complexity(shared) == 2**13 - 1 < MAX_CONNECTIVES
    with pytest.raises(ValueError, match=f"more than {MAX_CONNECTIVES} connectives"):
        check_limits(Conj(shared, shared))


def _formulas(max_depth=4):
    atoms = st.one_of(
        st.just(BOT),
        st.just(TOP),
        st.integers(min_value=1, max_value=4).map(Var),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(Conj, children, children),
            st.builds(Impl, children, children),
        ),
        max_leaves=12,
    )


@given(_formulas())
def test_round_trip_random(formula):
    assert parse(render(formula)) == formula


@given(_formulas())
def test_complexity_counts_connectives(formula):
    def count(f):
        if isinstance(f, (Bottom, Var)):
            return 0
        return 1 + count(f.left) + count(f.right)

    assert complexity(formula) == count(formula)
