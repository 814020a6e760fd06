"""Value algebra, evaluation and sequent satisfaction."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blprover import (
    INF,
    TOP,
    ZERO,
    Finite,
    Infinite,
    Valuation,
    Var,
    eval_formula,
    omega_imp,
    omega_mul,
    parse,
    satisfies,
    seq,
    prec,
    preceq,
    hseq,
)
from blprover.hypersequent import LL
from blprover.semantics import (
    parse_value,
    render_value,
    satisfies_sequent,
)
from support import imp_type, implication_chain, odot_type

fractions = st.integers(min_value=0, max_value=7).map(lambda k: Fraction(k, 8))
finites = st.builds(Finite, st.integers(min_value=0, max_value=3), fractions)
values = st.one_of(st.just(INF), finites)

# Value pairs and the sign of their order.
COMPARISONS = {
    "equal_floors": (Finite(1, Fraction(1, 4)), Finite(1, Fraction(1, 2)), -1),
    "equal_values": (Finite(1, Fraction(1, 2)), Finite(1, Fraction(1, 2)), 0),
    "different_floors": (Finite(0, Fraction(7, 8)), Finite(1, 0), -1),
    "finite_against_inf": (Finite(5, Fraction(7, 8)), INF, -1),
    "zero_against_inf": (ZERO, INF, -1),
    "inf_against_inf": (INF, INF, 0),
}


class TestValueConstruction:
    def test_finite_validation(self):
        with pytest.raises(ValueError):
            Finite(0, Fraction(3, 2))
        with pytest.raises(ValueError):
            Finite(-1, 0)

    def test_ordering(self):
        assert Finite(0, Fraction(1, 2)) < Finite(1, 0)
        assert Finite(1, Fraction(1, 4)) < Finite(1, Fraction(1, 2))
        assert Finite(5, Fraction(7, 8)) < INF
        assert INF <= INF
        assert not INF < INF

    @pytest.mark.parametrize("x, y, sign", COMPARISONS.values(), ids=COMPARISONS.keys())
    @pytest.mark.parametrize("swap", [False, True], ids=["forward", "swapped"])
    def test_all_four_comparisons(self, x, y, sign, swap):
        if swap:
            x, y, sign = y, x, -sign
        assert (x < y, x <= y, x > y, x >= y) == (sign < 0, sign <= 0, sign > 0, sign >= 0)

    def test_is_infinite(self):
        assert INF.is_infinite
        assert not ZERO.is_infinite

    @given(values)
    def test_render_parse_round_trip(self, x):
        assert parse_value(render_value(x)) == x

    def test_render_examples(self):
        assert render_value(INF) == "inf"
        assert render_value(Finite(2, Fraction(3, 8))) == "2+3/8"
        with pytest.raises(ValueError):
            parse_value("three halves")


class TestAlgebraLaws:
    @given(values, values)
    def test_mul_commutative(self, x, y):
        assert omega_mul(x, y) == omega_mul(y, x)

    @given(values, values, values)
    def test_mul_associative(self, x, y, z):
        assert omega_mul(omega_mul(x, y), z) == omega_mul(x, omega_mul(y, z))

    @given(values)
    def test_mul_unit_is_infinity(self, x):
        assert omega_mul(INF, x) == x

    @given(values, values)
    def test_mul_below_arguments(self, x, y):
        assert omega_mul(x, y) <= x
        assert omega_mul(x, y) <= y

    @given(values, values, values)
    def test_mul_monotone(self, x, y, z):
        if x <= y:
            assert omega_mul(x, z) <= omega_mul(y, z)

    @given(values, values, values)
    def test_residuation(self, x, y, z):
        # the defining adjunction of the implication
        assert (omega_mul(x, z) <= y) == (z <= omega_imp(x, y))

    @given(values, values)
    def test_imp_designated_iff_leq(self, x, y):
        assert (omega_imp(x, y) == INF) == (x <= y)

    @given(values, values)
    def test_type_tags_in_range(self, x, y):
        assert odot_type(x, y) in (1, 2, 3, 4, 5)
        assert imp_type(x, y) in (1, 2, 3)


class TestCaseSplit:
    """The numbered cases behind each connective, pinned on small examples."""

    def test_odot_cases(self):
        half = Fraction(1, 2)
        assert odot_type(Finite(0, half), Finite(1, half)) == 1
        assert odot_type(Finite(2, half), Finite(1, half)) == 2
        assert odot_type(Finite(1, half), Finite(1, half)) == 3
        assert odot_type(Finite(1, Fraction(1, 4)), Finite(1, half)) == 4
        assert odot_type(INF, INF) == 5
        assert odot_type(INF, Finite(1, 0)) == 2
        assert odot_type(Finite(1, 0), INF) == 1

    def test_imp_cases(self):
        half = Fraction(1, 2)
        assert imp_type(Finite(2, 0), Finite(1, half)) == 1
        assert imp_type(INF, Finite(1, half)) == 1
        assert imp_type(Finite(1, half), Finite(1, 0)) == 2
        assert imp_type(Finite(1, 0), Finite(1, half)) == 3
        assert imp_type(INF, INF) == 3

    def test_mul_within_block_is_bounded_sum(self):
        assert omega_mul(Finite(1, Fraction(3, 4)), Finite(1, Fraction(3, 4))) == Finite(
            1, Fraction(1, 2)
        )
        assert omega_mul(Finite(1, Fraction(1, 4)), Finite(1, Fraction(1, 2))) == Finite(1, 0)

    def test_imp_within_block_is_shifted_difference(self):
        assert omega_imp(Finite(1, Fraction(3, 4)), Finite(1, Fraction(1, 4))) == Finite(
            1, Fraction(1, 2)
        )

    def test_across_blocks(self):
        low, high = Finite(0, Fraction(3, 4)), Finite(2, Fraction(1, 8))
        assert omega_mul(low, high) == low
        assert omega_imp(high, low) == low
        assert omega_imp(low, high) == INF


class TestEvaluation:
    def test_constants(self):
        v = Valuation({})
        assert eval_formula(v, parse("0")) == ZERO
        assert eval_formula(v, parse("top")) == INF

    def test_variables_and_connectives(self):
        v = Valuation({1: Finite(1, Fraction(1, 2)), 2: INF})
        assert eval_formula(v, parse("p1")) == Finite(1, Fraction(1, 2))
        assert eval_formula(v, parse("p1 * p2")) == Finite(1, Fraction(1, 2))
        assert eval_formula(v, parse("p2 -> p1")) == Finite(1, Fraction(1, 2))
        assert eval_formula(v, parse("p1 -> p2")) == INF

    def test_unbound_variable(self):
        with pytest.raises(ValueError):
            eval_formula(Valuation({}), parse("p7"))

    def test_formulas_past_the_limits_are_refused(self):
        with pytest.raises(ValueError, match="nested deeper than 100 levels"):
            eval_formula(Valuation({1: INF}), implication_chain(3000))

    def test_negation_collapses_positive_values(self):
        v = Valuation({1: Finite(0, Fraction(1, 2))})
        assert eval_formula(v, parse("~p1")) == Finite(0, Fraction(1, 2))
        assert eval_formula(Valuation({1: Finite(2, 0)}), parse("~p1")) == ZERO


class TestValuationSerialization:
    def test_round_trip(self):
        v = Valuation({1: Finite(0, Fraction(3, 4)), 2: INF})
        assert Valuation.from_json(v.to_json()) == v

    def test_json_shape(self):
        payload = Valuation({2: INF}).to_json()
        assert payload == {"assignment": {"p2": "inf"}}

    def test_items_sorted(self):
        v = Valuation({3: ZERO, 1: INF})
        assert [i for i, _ in v.items()] == [1, 3]


P1, P2 = Var(1), Var(2)


class TestSatisfaction:
    def test_ll_compares_integer_parts(self):
        s = seq((P1,), LL, (P2,))
        assert satisfies_sequent(Valuation({1: ZERO, 2: Finite(1, 0)}), s)
        assert not satisfies_sequent(Valuation({1: ZERO, 2: Finite(0, Fraction(1, 2))}), s)
        # an infinite right side wins whenever the left side is finite
        assert satisfies_sequent(Valuation({1: Finite(3, 0), 2: INF}), s)
        assert not satisfies_sequent(Valuation({1: INF, 2: INF}), s)

    def test_unit_shapes_compare_whole_values(self):
        v = Valuation({1: Finite(1, Fraction(1, 4)), 2: Finite(1, Fraction(1, 2))})
        assert satisfies_sequent(v, seq((P1,), preceq(), (P2,)))
        assert satisfies_sequent(v, seq((P1,), prec(), (P2,)))
        assert not satisfies_sequent(v, seq((P2,), prec(), (P1,)))
        # differing integer parts leave the unit comparison unsatisfied
        w = Valuation({1: ZERO, 2: Finite(1, 0)})
        assert not satisfies_sequent(w, seq((P1,), preceq(), (P2,)))
        # equal infinities satisfy the non-strict shape only
        u = Valuation({1: INF, 2: INF})
        assert satisfies_sequent(u, seq((P1,), preceq(), (P2,)))
        assert not satisfies_sequent(u, seq((P1,), prec(), (P2,)))

    def test_fractional_comparison_with_index(self):
        # two formulas against nothing, index -1, strict: the fractional
        # deficit on the left must stay under the index
        v = Valuation({1: Finite(0, Fraction(3, 10)), 2: Finite(0, Fraction(3, 10))})
        s = seq((P1, P2), prec(-1), ())
        assert satisfies_sequent(v, s)
        w = Valuation({1: Finite(0, Fraction(1, 2)), 2: Finite(0, Fraction(1, 2))})
        assert not satisfies_sequent(w, s)

    def test_fractional_requires_shared_integer_part(self):
        s = seq((), preceq(1), (P1, P2))
        good = Valuation({1: Finite(0, Fraction(3, 5)), 2: Finite(0, Fraction(3, 5))})
        assert satisfies_sequent(good, s)
        tight = Valuation({1: Finite(0, Fraction(1, 4)), 2: Finite(0, Fraction(1, 4))})
        assert not satisfies_sequent(tight, s)
        split = Valuation({1: Finite(0, Fraction(3, 5)), 2: Finite(1, Fraction(3, 5))})
        assert not satisfies_sequent(split, s)
        infinite = Valuation({1: INF, 2: INF})
        assert not satisfies_sequent(infinite, s)

    def test_hypersequent_is_disjunctive(self):
        v = Valuation({1: ZERO, 2: Finite(1, 0)})
        g = hseq(seq((P2,), LL, (P1,)), seq((P1,), LL, (P2,)))
        assert satisfies(v, g)
        assert not satisfies(v, hseq(seq((P2,), LL, (P1,))))
        assert not satisfies(v, hseq())

    def test_top_in_fractional_sequent_never_satisfied(self):
        v = Valuation({1: ZERO})
        assert not satisfies_sequent(v, seq((TOP, P1), preceq(), (P1,)))
