"""Acceptance suite for the decision procedure.

Run ``pytest tests/test_acceptance.py -v`` to get one verdict line per
criterion.  Every random corpus is seeded, so each run exercises the same
formulas.  Complexity means connective count throughout.
"""

import math
import random
import statistics
import time
from itertools import combinations, islice

import pytest

from blprover import (
    Certificate,
    TOP,
    Var,
    check_no_tautology,
    check_tautology,
    complexity,
    parse,
    verify_branch_countermodel,
)
from blprover.axiom_check import check_axiom
from blprover.hypersequent import LL, hseq, preceq, prec, seq
from blprover.reduction import build_rwbl_tree
from support import (
    branch_estimate,
    fuzz_rules,
    oracle_leaf_satisfiable,
    random_formula,
    reference_check_axiom,
    rwbl_leaves,
    variables,
    variables_in,
    weight_bound,
)

AXIOMS = {
    "suffixing": "(p1 -> p2) -> ((p2 -> p3) -> (p1 -> p3))",
    "weakening": "(p1 * p2) -> p1",
    "commutativity": "(p1 * p2) -> (p2 * p1)",
    "divisibility": "(p1 * (p1 -> p2)) -> (p2 * (p2 -> p1))",
    "residuation": "(p1 -> (p2 -> p3)) <-> ((p1 * p2) -> p3)",
    "case_split": "((p1 -> p2) -> p3) -> (((p2 -> p1) -> p3) -> p3)",
    "ex_falso": "0 -> p1",
}

NON_THEOREMS = ["p1", "0", "p1 -> p1 * p1", "((p1 -> 0) -> 0) -> p1"]

# Counts thin out as complexity grows and trees with more than 30000
# estimated branches are resampled, keeping whole-tree statistics affordable.
CORPUS_SEED = 20260825
CORPUS_COUNTS = {1: 38, 2: 34, 3: 30, 4: 26, 5: 22, 6: 18, 7: 12, 8: 8, 9: 7, 10: 5}
CORPUS_ESTIMATE_CAP = 30000

# Leaf-level criteria enumerate every leaf, so they run on the corpus part
# whose trees stay small, plus the axioms themselves.  The residuation
# biconditional is skipped there: its tree has millions of branches.
LEAF_ESTIMATE_CAP = 3000


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    formulas = []
    for c, want in CORPUS_COUNTS.items():
        got = 0
        while got < want:
            f = random_formula(rng, c, 3)
            if branch_estimate(f) > CORPUS_ESTIMATE_CAP:
                continue
            formulas.append(f)
            got += 1
    return formulas


@pytest.fixture(scope="module")
def corpus_stats(corpus):
    return {f: build_rwbl_tree(f).stats for f in corpus}


@pytest.fixture(scope="module")
def leaf_corpus(corpus):
    small = [f for f in corpus if branch_estimate(f) <= LEAF_ESTIMATE_CAP]
    small.extend(
        parse(text) for name, text in AXIOMS.items() if name != "residuation"
    )
    return small


def test_criterion_01_axioms_are_provable():
    started = time.perf_counter()
    for name, text in AXIOMS.items():
        result = check_tautology(parse(text))
        assert result.provable, f"axiom {name} was not proved"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 1: all {len(AXIOMS)} axioms provable in {elapsed:.2f}s")


def test_criterion_02_non_theorems_are_refuted_with_countermodels():
    for text in NON_THEOREMS:
        formula = parse(text)
        result = check_tautology(formula)
        assert not result.provable, f"{text} was wrongly proved"
        assert verify_branch_countermodel(result.countermodel, result.branch, formula)
    print(f"criterion 2: {len(NON_THEOREMS)} non-theorems refuted and verified")


def test_criterion_03_certificates_round_trip_and_replay_quickly():
    rng = random.Random(77)
    cases = [(f, check_tautology(f)) for f in map(parse, NON_THEOREMS)]
    while len(cases) < 4 + 100:
        f = random_formula(rng, rng.randint(1, 8), 3)
        if branch_estimate(f) > 10000:
            continue
        result = check_tautology(f)
        if not result.provable:
            cases.append((f, result))
    slowest = 0.0
    for formula, result in cases:
        assert not result.provable
        text = result.certificate.to_json(formula)
        back_formula, back_certificate = Certificate.from_json(text)
        assert (back_formula, back_certificate) == (formula, result.certificate)
        started = time.perf_counter()
        outcome = check_no_tautology(formula, back_certificate)
        elapsed = time.perf_counter() - started
        assert outcome.accepted
        assert elapsed < 1.0
        slowest = max(slowest, elapsed)
    print(f"criterion 3: {len(cases)} certificates replayed, slowest {slowest:.3f}s")


def test_criterion_04_double_negation_behaviour():
    assert not check_tautology(parse("~~p1 -> p1")).provable
    assert check_tautology(parse("~~(~~p1 -> p1)")).provable
    assert check_tautology(parse("~~(p1 -> p1)")).provable
    print("criterion 4: double negation elimination fails, its closure holds")


def test_criterion_05_rule_fuzzing_is_clean_and_the_control_mutant_is_caught():
    report = fuzz_rules(10_000, seed=2026)
    assert report.ok, report.violations[:3]
    control = fuzz_rules(500, seed=3, mutate_balanced_conj=True, stop_after=1)
    assert not control.ok
    assert control.violations[0].family == "rwbl"
    print(
        f"criterion 5: {report.checks} rule checks clean, "
        f"mutant caught after {control.trials} trials"
    )


def test_criterion_06_tree_height_is_bounded_by_connective_count(corpus, corpus_stats):
    for f in corpus:
        assert corpus_stats[f].height <= complexity(f)
    print(f"criterion 6: height bound holds on {len(corpus)} formulas")


def test_criterion_07_branch_weight_is_bounded_and_scales_polynomially(
    corpus, corpus_stats
):
    for f in corpus:
        assert corpus_stats[f].max_branch_weight <= weight_bound(complexity(f))
    maxima: dict[int, int] = {}
    for f in corpus:
        n = complexity(f)
        if 2 <= n <= 10:
            maxima[n] = max(maxima.get(n, 0), corpus_stats[f].max_branch_weight)
    assert set(maxima) == set(range(2, 11))
    xs = [math.log(n) for n in sorted(maxima)]
    ys = [math.log(maxima[n]) for n in sorted(maxima)]
    slope = statistics.linear_regression(xs, ys).slope
    assert slope <= 3.3
    print(f"criterion 7: cubic weight bound holds, observed log-log slope {slope:.2f}")


def test_criterion_08_every_leaf_keeps_the_formula_variables(leaf_corpus):
    leaves = 0
    for f in leaf_corpus:
        expected = set(variables_in(f))
        for leaf in rwbl_leaves(f):
            assert variables(leaf) == expected
            leaves += 1
    print(f"criterion 8: variable preservation holds on {leaves} leaves")


@pytest.mark.xfail(
    strict=True,
    reason="already the depth-one leaves of p1 -> p2 lack the top comparisons "
    "for p1, so not every variable of a leaf carries them",
)
def test_criterion_08_every_leaf_variable_carries_top_comparisons(leaf_corpus):
    for f in leaf_corpus:
        for leaf in rwbl_leaves(f):
            present = set(leaf)
            indices = sorted(variables(leaf))
            for i in indices:
                x = Var(i)
                assert seq((x,), preceq(), (TOP,)) in present
                assert seq((TOP,), preceq(), (x,)) in present
                assert seq((TOP,), LL, (x,)) in present
            for i, j in combinations(indices, 2):
                x, y = Var(i), Var(j)
                assert seq((x,), LL, (y,)) in present
                assert seq((y,), LL, (x,)) in present


def test_criterion_08_introduced_pairs_carry_their_comparisons(leaf_corpus):
    """Every two-formula shifted sequent enters a label together with floor
    comparisons against top and a mutual floor cycle on its pair, and
    substitution rewrites all of them in lockstep, so each leaf still carries
    the full apparatus for every such pair it contains."""
    leaves = pairs = 0
    for f in leaf_corpus:
        for leaf in rwbl_leaves(f):
            leaves += 1
            present = set(leaf)
            for s in leaf:
                if s.kind.is_ll or s.kind.strict != (s.kind.z == -1):
                    continue
                if s.kind.z == 1 and not s.left and len(s.right) == 2:
                    a, b = s.right
                elif s.kind.z == -1 and not s.right and len(s.left) == 2:
                    a, b = s.left
                else:
                    continue
                if TOP in (a, b):
                    continue
                pairs += 1
                for x in (a, b):
                    assert seq((x,), preceq(), (TOP,)) in present
                    assert seq((TOP,), preceq(), (x,)) in present
                    assert seq((TOP,), LL, (x,)) in present
                if a == b:
                    assert seq((a,), LL, (a,)) in present
                else:
                    assert seq((a,), LL, (b,)) in present
                    assert seq((b,), LL, (a,)) in present
    print(f"criterion 8: pair apparatus present for {pairs} pairs on {leaves} leaves")


def test_criterion_09_leaf_classifier_agrees_with_the_oracle(corpus):
    checked = 0
    for f in corpus:
        if complexity(f) > 6:
            continue
        for leaf in islice(rwbl_leaves(f), 5):
            verdict = check_axiom(leaf)
            countermodel = oracle_leaf_satisfiable(leaf)
            assert (countermodel is None) == verdict.is_axiom
            checked += 1
    assert checked >= 500

    p1, p2 = Var(1), Var(2)
    saturated = hseq(
        seq((p1,), LL, (p2,)),
        seq((p2,), LL, (p1,)),
        seq((p1,), LL, (p1,)),
        seq((p1,), preceq(), (TOP,)),
        seq((TOP,), preceq(), (p1,)),
        seq((TOP,), LL, (p1,)),
        seq((p2,), preceq(), (TOP,)),
        seq((TOP,), preceq(), (p2,)),
        seq((TOP,), LL, (p2,)),
        seq((), preceq(1), (p1, p2)),
        seq((p1, p1, p2), prec(-1), (p1, p2)),
        seq((p1, p1, p2), preceq(-1), (p1, p2)),
        seq((p1, p2), prec(1), (p1, p1, p2)),
        seq((p1, p2), preceq(1), (p1, p1, p2)),
    )
    verdict = check_axiom(saturated)
    assert verdict.is_axiom
    assert reference_check_axiom(saturated)[1] == (frozenset({p1, p2}), frozenset({TOP}))
    assert oracle_leaf_satisfiable(saturated) is None
    print(f"criterion 9: classifier matched the oracle on {checked} leaves")


def test_criterion_10_scaling_claims_are_checked_structurally(corpus, corpus_stats):
    """Tree size and certificate size claims are covered by structural bounds
    on the seeded corpus rather than by hard-coded measured constants."""
    for f in corpus:
        estimate = branch_estimate(f)
        assert corpus_stats[f].leaf_count <= estimate
        assert estimate <= 5 ** complexity(f)
    for text in NON_THEOREMS:
        formula = parse(text)
        result = check_tautology(formula)
        assert len(result.certificate.moves) == complexity(formula)
        assert len(result.branch) <= complexity(formula) + 1
    print("criterion 10: exponential envelope and linear certificates confirmed")
