"""Brute-force semantic checkers, random inputs and tree measures for the tests.

Nothing here is part of the decision procedure.  The leaf oracle decides
satisfiability of a negated irreducible hypersequent by enumerating integer
parts outright, so it shares no reasoning with the clustering pipeline, and
the fuzzer replays the reduction rules against random valuations.  The tree
measures bound the size of rewriting trees, ``walk_stats`` recomputes a
tree's statistics node by node, and ``rwbl_leaves`` lists its leaves.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from blprover.calculus import Premise, rhbl_premises, rwbl_premises, smaller_child
from blprover.formula import (
    BOT,
    Bottom,
    Conj,
    Formula,
    Impl,
    TOP,
    Var,
    complexity,
    compound_subformulas,
    is_atomic,
)
from blprover.hypersequent import (
    RelationalHypersequent,
    decompose,
    expand_abbreviation,
    is_irreducible,
    most_complex,
    seq,
    subst_all,
    variables,
)
from blprover.linfeas import LinConstraint, solve
from blprover.reduction import ReductionNode, TreeStats, build_rwbl_tree, root_label
from blprover.semantics import Finite, INF, OmegaValue, Valuation, satisfies


class OracleBudgetError(RuntimeError):
    """The leaf has more variables than level enumeration can afford."""


def _floor_of(atom: Formula, floors: dict[int, int | None]) -> int | None:
    """Integer part under a level assignment; None encodes an infinite value."""
    if atom == TOP:
        return None
    if isinstance(atom, Var):
        return floors[atom.index]
    if isinstance(atom, Bottom):
        return 0
    raise ValueError(f"leaf expected, found compound formula {atom!r}")


def _frac_coeff(coeffs: dict[int, int], atom: Formula, sign: int) -> None:
    if isinstance(atom, Var):
        coeffs[atom.index] = coeffs.get(atom.index, 0) + sign


def _negation_rows(
    h: RelationalHypersequent, floors: dict[int, int | None]
) -> list[LinConstraint] | None:
    """Fractional rows forcing every sequent false under fixed integer parts.

    Returns None when some sequent is already true on integer parts alone, so
    no fractional choice can refute it.
    """
    rows: list[LinConstraint] = []
    for s in h:
        if s.kind.is_ll:
            if len(s.left) != 1 or len(s.right) != 1:
                raise ValueError("a << sequent must carry one formula per side")
            x = _floor_of(s.left[0], floors)
            y = _floor_of(s.right[0], floors)
            if x is not None and (y is None or x < y):
                return None
            continue
        if s.kind.z == 0 and len(s.left) == 1 and len(s.right) == 1:
            x = _floor_of(s.left[0], floors)
            y = _floor_of(s.right[0], floors)
            if x is None and y is None:
                if not s.kind.strict:
                    return None
                continue
            if x is None or y is None or x != y:
                continue
            coeffs: dict[int, int] = {}
            _frac_coeff(coeffs, s.right[0], 1)
            _frac_coeff(coeffs, s.left[0], -1)
            rows.append(LinConstraint(coeffs, 0, strict=not s.kind.strict))
            continue
        atom_floors = [_floor_of(f, floors) for f in s.formulas()]
        if any(fl is None for fl in atom_floors) or len(set(atom_floors)) > 1:
            continue
        coeffs = {}
        for f in s.right:
            _frac_coeff(coeffs, f, 1)
        for f in s.left:
            _frac_coeff(coeffs, f, -1)
        rows.append(
            LinConstraint(
                coeffs,
                len(s.right) - len(s.left) - s.kind.z,
                strict=not s.kind.strict,
            )
        )
    return rows


def _level_assignments(var_ids: list[int]) -> Iterable[dict[int, int | None]]:
    levels: list[int | None] = list(range(len(var_ids) + 1)) + [None]
    for combo in itertools.product(levels, repeat=len(var_ids)):
        yield dict(zip(var_ids, combo))


def oracle_leaf_satisfiable(
    h: RelationalHypersequent,
    max_vars: int = 4,
    method: str = "levels",
    denominator: int = 16,
) -> Valuation | None:
    """Countermodel of an irreducible hypersequent by exhaustive search, or None.

    Integer parts are enumerated over 0..|vars| plus infinity; that range
    suffices because satisfaction only compares integer parts for order and
    equality, with falsum pinned at level 0.  Per assignment, the "levels"
    method hands the fractional constraints to the exact solver, while the
    "grid" method samples fractions at multiples of 1/denominator and tests
    satisfaction directly, trading completeness for independence from the
    solver.
    """
    var_ids = sorted(variables(h))
    if len(var_ids) > max_vars:
        raise OracleBudgetError(
            f"{len(var_ids)} variables exceed the oracle budget of {max_vars}"
        )
    for f in (f for s in h for f in s.formulas()):
        if not is_atomic(f):
            raise ValueError(f"leaf expected, found compound formula {f!r}")
    for floors in _level_assignments(var_ids):
        if method == "levels":
            rows = _negation_rows(h, floors)
            if rows is None:
                continue
            finite_ids = [i for i in var_ids if floors[i] is not None]
            outcome = solve(rows, finite_ids)
            if not outcome.feasible:
                continue
            assignment: dict[int, OmegaValue] = {}
            for i in var_ids:
                fl = floors[i]
                assignment[i] = INF if fl is None else Finite(fl, outcome.witness[i])
            v = Valuation(assignment)
            assert not satisfies(v, h), "oracle produced a non-countermodel"
            return v
        elif method == "grid":
            finite_ids = [i for i in var_ids if floors[i] is not None]
            grid = [Fraction(j, denominator) for j in range(denominator)]
            for fracs in itertools.product(grid, repeat=len(finite_ids)):
                chosen = dict(zip(finite_ids, fracs))
                v = Valuation(
                    {
                        i: INF if floors[i] is None else Finite(floors[i], chosen[i])
                        for i in var_ids
                    }
                )
                if not satisfies(v, h):
                    return v
        else:
            raise ValueError(f"unknown oracle method {method!r}")
    return None


def random_valuation(
    seed: int | random.Random,
    var_indices: Iterable[int],
    max_int: int,
    denominator: int,
) -> Valuation:
    """Random valuation, infinite with probability 1/(max_int + 2) per variable."""
    if denominator < 1:
        raise ValueError("denominator must be at least 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    assignment: dict[int, OmegaValue] = {}
    for i in sorted(set(var_indices)):
        if rng.randrange(max_int + 2) == max_int + 1:
            assignment[i] = INF
        else:
            assignment[i] = Finite(
                rng.randrange(max_int + 1),
                Fraction(rng.randrange(denominator), denominator),
            )
    return Valuation(assignment)


def random_formula(
    rng: random.Random,
    connectives: int,
    var_count: int,
    bottom_prob: float = 0.15,
    conj_prob: float = 0.5,
) -> Formula:
    """Random formula with exactly the requested number of connectives."""
    if connectives == 0:
        if rng.random() < bottom_prob:
            return BOT
        return Var(rng.randrange(var_count) + 1)
    left_budget = rng.randrange(connectives)
    left = random_formula(rng, left_budget, var_count, bottom_prob, conj_prob)
    right = random_formula(
        rng, connectives - 1 - left_budget, var_count, bottom_prob, conj_prob
    )
    return Conj(left, right) if rng.random() < conj_prob else Impl(left, right)


def _balanced_no_shift(
    g: RelationalHypersequent, target: Formula, a: Formula, b: Formula
) -> RelationalHypersequent:
    """The balanced conjunction substitution with its index bump removed."""
    out = []
    for s in g:
        if not s.contains(target):
            out.append(s)
            continue
        left = tuple(f for f in s.left if f != target) + (a, b)
        right = tuple(f for f in s.right if f != target) + (a, b)
        out.append(seq(left, s.kind, right))
    return RelationalHypersequent(tuple(out))


def _corrupted_rwbl_premises(g: RelationalHypersequent) -> tuple[Premise, ...]:
    """rwbl_premises with a deliberately wrong fourth conjunction premise."""
    premises = list(rwbl_premises(g))
    pivot = most_complex(g)
    if not isinstance(pivot, Conj):
        return tuple(premises)
    a, b = pivot.left, pivot.right
    free, ll_part, ord_part, _ = decompose(g, pivot)
    label = (
        expand_abbreviation("neg_pair_prec_minus1", a, b)
        | subst_all(ll_part, pivot, smaller_child(a, b))
        | _balanced_no_shift(ord_part, pivot, a, b)
        | free
    )
    premises[3] = Premise("conj4", 4, label)
    return tuple(premises)


@dataclass(frozen=True)
class FuzzViolation:
    family: str
    conclusion: str
    valuation: str
    conclusion_satisfied: bool
    premise_status: tuple[bool, ...]


@dataclass
class FuzzReport:
    trials: int = 0
    checks: int = 0
    violations: list[FuzzViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_reducible(rng: random.Random, max_connectives: int, var_count: int):
    formula = random_formula(rng, rng.randint(2, max_connectives), var_count)
    label = root_label(formula)
    for _ in range(rng.randrange(complexity(formula))):
        if is_irreducible(label):
            break
        candidate = rng.choice(rwbl_premises(label)).label
        if is_irreducible(candidate):
            break
        label = candidate
    return label


def fuzz_rules(
    trials: int,
    seed: int,
    max_connectives: int = 6,
    var_count: int = 3,
    max_int: int = 3,
    denominator: int = 8,
    mutate_balanced_conj: bool = False,
    stop_after: int | None = None,
) -> FuzzReport:
    """Local soundness and invertibility check on random reducible labels.

    Each trial draws a reducible hypersequent from a partial random reduction
    and a random valuation, then demands that the conclusion is satisfied
    exactly when every premise is, for the rewriting family and for the
    one-occurrence family.  With mutate_balanced_conj the rewriting family
    swaps in a corrupted fourth conjunction premise, so violations are the
    expected outcome and demonstrate the fuzzer can see them.
    """
    rng = random.Random(seed)
    report = FuzzReport()
    rwbl_family = _corrupted_rwbl_premises if mutate_balanced_conj else rwbl_premises
    for _ in range(trials):
        report.trials += 1
        conclusion = _random_reducible(rng, max_connectives, var_count)
        v = random_valuation(rng, variables(conclusion), max_int, denominator)
        for family, expand in (("rwbl", rwbl_family), ("rhbl", rhbl_premises)):
            premises = expand(conclusion)
            premise_status = tuple(satisfies(v, p.label) for p in premises)
            conclusion_satisfied = satisfies(v, conclusion)
            report.checks += 1
            if conclusion_satisfied != all(premise_status):
                report.violations.append(
                    FuzzViolation(
                        family,
                        conclusion.render(),
                        repr(v),
                        conclusion_satisfied,
                        premise_status,
                    )
                )
        if stop_after is not None and len(report.violations) >= stop_after:
            break
    return report


def branch_estimate(formula: Formula) -> int:
    """Upper bound on the number of branches of the rewriting tree.

    Each distinct compound subformula is pivoted at most once per branch and
    contributes its premise fan-out as a factor.
    """
    estimate = 1
    for f in compound_subformulas(formula):
        if f == TOP:
            continue
        estimate *= 5 if isinstance(f, Conj) else 3
    return estimate


def weight_bound(n: int) -> int:
    """Cubic envelope for branch weights at connective count n."""
    return 24 * n**3 + 61 * n**2 + 50 * n + 13


def rwbl_leaves(formula: Formula) -> Iterator[RelationalHypersequent]:
    """Every leaf occurrence of the rewriting tree, depth first in premise order."""
    stack = [build_rwbl_tree(formula).root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            yield node.label
        else:
            stack.extend(reversed(node.children))


def _node_count(formula: Formula) -> int:
    if isinstance(formula, (Conj, Impl)):
        return 1 + _node_count(formula.left) + _node_count(formula.right)
    return 1


def recount_weight(label: RelationalHypersequent) -> int:
    """One per sequent, one per bare top, every formula node otherwise."""
    return sum(
        1 + sum(1 if f == TOP else _node_count(f) for f in s.formulas()) for s in label
    )


def walk_stats(root: ReductionNode) -> TreeStats:
    """Reference: visit every node occurrence, weighing each label from scratch."""
    height = nodes = leaves = max_weight = 0
    stack = [(root, 0, 0)]
    while stack:
        node, depth, weight_above = stack.pop()
        nodes += 1
        weight = weight_above + recount_weight(node.label)
        if node.is_leaf:
            leaves += 1
            height = max(height, depth)
            max_weight = max(max_weight, weight)
        else:
            stack.extend((child, depth + 1, weight) for child in node.children)
    return TreeStats(height, nodes, leaves, max_weight)
