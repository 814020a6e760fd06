"""Brute-force oracle and rule fuzzer behaviour."""

import random
from fractions import Fraction

import pytest

from blprover import Conj, INF, TOP, Var, complexity, hseq, prec, preceq, render, satisfies, seq
from blprover.hypersequent import LL
from blprover.semantics import Finite, Valuation
from support import (
    FuzzReport,
    OracleBudgetError,
    fuzz_rules,
    oracle_leaf_satisfiable,
    random_formula,
    random_valuation,
    variables_in,
)

P1, P2 = Var(1), Var(2)


class TestLeafOracle:
    def test_valid_leaf_has_no_countermodel(self):
        assert oracle_leaf_satisfiable(hseq(seq((P1,), preceq(), (P1,)))) is None

    def test_countermodel_falsifies_the_leaf(self):
        leaf = hseq(seq((P1,), LL, (P2,)))
        v = oracle_leaf_satisfiable(leaf)
        assert v is not None
        assert not satisfies(v, leaf)

    def test_strict_reflexive_leaf_is_refuted(self):
        leaf = hseq(seq((P1,), prec(), (P1,)))
        v = oracle_leaf_satisfiable(leaf)
        assert v is not None
        assert not satisfies(v, leaf)

    @pytest.mark.parametrize(
        "leaf",
        [
            hseq(seq((P1,), preceq(), (P1,))),
            hseq(seq((P1,), LL, (P2,))),
            hseq(seq((P1,), prec(), (P1,))),
            hseq(seq((P1,), preceq(), (TOP,)), seq((TOP,), preceq(), (P1,))),
        ],
    )
    def test_grid_method_agrees_on_easy_leaves(self, leaf):
        by_levels = oracle_leaf_satisfiable(leaf, method="levels")
        by_grid = oracle_leaf_satisfiable(leaf, method="grid")
        assert (by_levels is None) == (by_grid is None)

    def test_budget_is_enforced(self):
        leaf = hseq(seq(tuple(Var(i) for i in range(1, 6)), preceq(), ()))
        with pytest.raises(OracleBudgetError):
            oracle_leaf_satisfiable(leaf)
        assert oracle_leaf_satisfiable(leaf, max_vars=5) is not None

    def test_rejects_compound_formulas(self):
        with pytest.raises(ValueError):
            oracle_leaf_satisfiable(hseq(seq((Conj(P1, P2),), preceq(), (P1,))))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            oracle_leaf_satisfiable(hseq(seq((P1,), preceq(), (P1,))), method="exact")


class TestRandomValuation:
    def test_deterministic_per_seed(self):
        assert random_valuation(5, [1, 2, 3], 3, 8) == random_valuation(5, [1, 2, 3], 3, 8)
        assert random_valuation(random.Random(5), [1, 2, 3], 3, 8) == random_valuation(
            5, [1, 2, 3], 3, 8
        )

    def test_values_stay_in_range(self):
        for seed in range(100):
            v = random_valuation(seed, [1, 2], 3, 8)
            for _, value in v.items():
                if value.is_infinite:
                    continue
                assert 0 <= value.int_part <= 3
                assert 0 <= value.frac < 1
                assert (value.frac * 8).denominator == 1

    def test_duplicate_indices_collapse(self):
        v = random_valuation(0, [2, 2, 1], 3, 8)
        assert [i for i, _ in v.items()] == [1, 2]

    def test_empty_index_set(self):
        assert random_valuation(0, [], 3, 8) == Valuation({})

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            random_valuation(0, [1], 3, 0)


class TestRandomFormula:
    def test_exact_connective_count(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(9)
            f = random_formula(rng, n, 3)
            assert complexity(f) == n

    def test_variable_indices_respect_the_bound(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_formula(rng, 5, 2)
            assert variables_in(f) <= {1, 2}

    def test_connective_bias(self):
        rng = random.Random(13)
        only_conj = random_formula(rng, 6, 2, conj_prob=1.0)
        only_impl = random_formula(rng, 6, 2, conj_prob=0.0)
        assert "->" not in render(only_conj)
        assert "*" not in render(only_impl)


class TestFuzzer:
    def test_zero_trials(self):
        report = fuzz_rules(0, seed=1)
        assert report == FuzzReport(trials=0, checks=0, violations=[])
        assert report.ok

    def test_clean_run_checks_both_families(self):
        report = fuzz_rules(60, seed=9)
        assert report.ok
        assert report.trials == 60
        assert report.checks == 120

    def test_reproducible(self):
        first = fuzz_rules(40, seed=123)
        second = fuzz_rules(40, seed=123)
        assert (first.trials, first.checks, first.violations) == (
            second.trials,
            second.checks,
            second.violations,
        )

    def test_mutated_rule_is_caught(self):
        report = fuzz_rules(400, seed=3, mutate_balanced_conj=True, stop_after=1)
        assert not report.ok
        violation = report.violations[0]
        assert violation.family == "rwbl"
        assert violation.conclusion_satisfied != all(violation.premise_status)
        assert report.trials < 400
