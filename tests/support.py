"""Brute-force semantic checkers, random inputs and tree measures for the tests.

Nothing here is part of the decision procedure.  The leaf oracle decides
satisfiability of a negated irreducible hypersequent by enumerating integer
parts outright, so it shares no reasoning with the clustering pipeline, and
the fuzzer replays the reduction rules against random valuations: the
prover's rewriting rules and the paper's single-occurrence RHBL rules
(``rhbl_premises``), which rewrite one designated pivot occurrence.  The
semantic case numbering (``odot_type``, ``imp_type``) and the positive
abbreviations ``leq`` and ``sim`` (``abbreviation``) live here too.  The tree
measures bound the size of rewriting trees (``compound_subformulas`` feeds
``branch_estimate``), ``walk_stats`` recomputes a tree's statistics node by
node, and ``rwbl_leaves`` lists a formula's leaves by expanding premises
lazily, without building the tree.  ``reference_solve`` is the Fourier-Motzkin
solver over ``Fraction`` rows that the integer ``linfeas.solve`` replaced; the
differential test holds the two to the same verdicts and witnesses.
Likewise ``reference_subst_all``, ``reference_subst_pair``,
``reference_subst_balanced_conj`` and ``reference_subst_impl`` are the four
substitutions as they were before one sequent rewrite served them all, when
they rewrote whole labels; the tests hold each sequent rewrite to the
reference's label of that sequent alone.  ``reference_decompose`` is the
four-way split by which sequents hold the pivot on either side that the split
by each sequent's ``pivot`` field replaced, ``reference_sequent_fields``
recomputes the fields a sequent's constructor sets in one pass,
``reference_fixed`` recomputes a formula's fixed atom by recursion over its
subformulas and ``reference_atoms`` gives the hypersequent of a settled
part's atoms, and ``reference_check_axiom`` is
the leaf check over frozensets that solved every owning cluster and built
each countermodel at once, before void rows, skipped solves and lazy
verdicts.  ``variables_in`` and
``variables`` collect the variable indices of a formula and of a
hypersequent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_
from typing import AbstractSet, Hashable, Iterable, Iterator, Sequence

from blprover.axiom_check import build_lp
from blprover.calculus import _conj_antecedents, _impl_antecedents, rwbl_premises, smaller_child
from blprover.formula import (
    BOT,
    Bottom,
    Conj,
    Formula,
    Impl,
    TOP,
    Var,
    complexity,
    complexity_key,
    is_atomic,
    parse,
)
from blprover.hypersequent import (
    LL,
    RelationalHypersequent,
    RelationalSequent,
    decompose,
    expand_abbreviation,
    hseq,
    is_irreducible,
    most_complex,
    preceq,
    seq,
    union,
)
from blprover.linfeas import FeasibilityResult, LinConstraint, solve
from blprover.reduction import ReductionNode, TreeStats, root_label
from blprover.semantics import Finite, INF, Infinite, OmegaValue, Valuation, satisfies


def variables_in(formula: Formula) -> frozenset[int]:
    """Indices of the variables occurring in the formula.

    An explicit stack visits each distinct node once, so neither a deep
    formula nor one that shares subformulas (``<->`` copies its operands)
    makes the walk recurse or repeat.
    """
    seen: set[Formula] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if isinstance(node, (Conj, Impl)):
                stack += (node.left, node.right)
    return frozenset(node.index for node in seen if isinstance(node, Var))


def variables(g: RelationalHypersequent) -> frozenset[int]:
    """Indices of all variables occurring anywhere in the hypersequent."""
    result: frozenset[int] = frozenset()
    for sequent in g:
        for f in sequent.formulas():
            result |= variables_in(f)
    return result


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


def implication_chain(height: int) -> Formula:
    """``p1 -> (p1 -> ... p1)`` with height implications, built through the API."""
    formula: Formula = Var(1)
    for _ in range(height):
        formula = Impl(Var(1), formula)
    return formula


def deep_reuse_table(
    formula: Formula,
) -> dict[RelationalHypersequent, tuple[RelationalHypersequent, ...]]:
    """A premise table whose label "again" recurs one level deeper than first.

    From the root of formula, "again" is reached at depth 1 and at depth 2
    (under "above"), and its subtree is two levels tall, so the tree is four
    levels tall.  A tree builder that reuses the first fold of "again" must
    still see that height.
    """
    again, above, mid, leaf = (
        root_label(parse(text)) for text in ("p1 -> p1", "p2 -> p2", "p3 -> p3", "p1")
    )
    return {
        root_label(formula): (again, above),
        above: (again,),
        again: (mid,),
        mid: (leaf,),
    }


def odot_type(x: OmegaValue, y: OmegaValue) -> int:
    """Case split for strong conjunction, numbered 1 to 5.

    1: first integer part smaller.  2: second smaller.  3: equal finite
    integer parts with fractional sum at least 1.  4: equal finite integer
    parts with fractional sum below 1.  5: both infinite.
    """
    if isinstance(x, Infinite) and isinstance(y, Infinite):
        return 5
    if isinstance(y, Infinite) or (isinstance(x, Finite) and isinstance(y, Finite) and x.int_part < y.int_part):
        return 1
    if isinstance(x, Infinite) or y.int_part < x.int_part:
        return 2
    return 3 if x.frac + y.frac >= 1 else 4


def imp_type(x: OmegaValue, y: OmegaValue) -> int:
    """Case split for implication, numbered 1 to 3.

    1: second integer part smaller.  2: equal finite integer parts with
    y < x.  3: x <= y.
    """
    if x <= y:
        return 3
    if isinstance(x, Finite) and isinstance(y, Finite) and x.int_part == y.int_part:
        return 2
    return 1


def abbreviation(name: str, a: Formula, b: Formula) -> RelationalHypersequent:
    """expand_abbreviation, plus the positive forms ``leq`` and ``sim``."""
    if name == "leq":
        return hseq(seq((a,), LL, (b,)), seq((a,), preceq(), (b,)))
    if name == "sim":
        return hseq(seq((a,), preceq(), (b,)), seq((b,), preceq(), (a,)))
    return expand_abbreviation(name, a, b)


@dataclass(frozen=True)
class Occurrence:
    """A pivot occurrence: the hosting sequent and which side holds it."""

    sequent: RelationalSequent
    side: str

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")


def choose_occurrence(g: RelationalHypersequent, pivot: Formula | None = None) -> Occurrence:
    """Deterministic occurrence selection for the single-occurrence calculus.

    Picks the sequent with the least sort key among those that contain the
    pivot, preferring its left side.
    """
    if pivot is None:
        pivot = most_complex(g)
    hosts = [s for s in g if pivot in s.left or pivot in s.right]
    if not hosts:
        raise ValueError("pivot does not occur in the hypersequent")
    s = min(hosts, key=RelationalSequent.sort_key)
    return Occurrence(s, "left" if pivot in s.left else "right")


def _minus_one(side: tuple[Formula, ...], pivot: Formula) -> tuple[Formula, ...]:
    position = side.index(pivot)
    return side[:position] + side[position + 1 :]


def rhbl_premises(
    g: RelationalHypersequent, occurrence: Occurrence | None = None
) -> tuple[RelationalHypersequent, ...]:
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
    rest = g - {s}
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
                replacements = [ll(a, other), ll(b, other), ll(a, other), ll(a, other), hseq()]
            else:
                replacements = [ll(b, other), ll(a, other), hseq()]
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
            residual = hseq()
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

    return tuple(
        union(antecedent, rest, replacement)
        for antecedent, replacement in zip(antecedents, replacements)
    )


def _balanced_no_shift(
    g: RelationalHypersequent, target: Formula, a: Formula, b: Formula
) -> RelationalHypersequent:
    """The balanced conjunction substitution with its index bump removed."""
    out = []
    for s in g:
        if not (target in s.left or target in s.right):
            out.append(s)
            continue
        left = tuple(f for f in s.left if f != target) + (a, b)
        right = tuple(f for f in s.right if f != target) + (a, b)
        out.append(seq(left, s.kind, right))
    return RelationalHypersequent(tuple(out))


def _corrupted_rwbl_premises(g: RelationalHypersequent) -> tuple[RelationalHypersequent, ...]:
    """rwbl_premises with a deliberately wrong fourth conjunction premise."""
    premises = list(rwbl_premises(g))
    pivot, free, held = decompose(g)
    if not isinstance(pivot, Conj):
        return tuple(premises)
    a, b = pivot.left, pivot.right
    ll_part = hseq(*(s for s in held if s.kind.is_ll))
    ord_part = hseq(*(s for s in held if not s.kind.is_ll))
    premises[3] = (
        expand_abbreviation("neg_pair_prec_minus1", a, b)
        | reference_subst_all(ll_part, pivot, smaller_child(a, b))
        | _balanced_no_shift(ord_part, pivot, a, b)
        | free
    )
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
        candidate = rng.choice(rwbl_premises(label))
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
            premise_status = tuple(satisfies(v, p) for p in premises)
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


def compound_subformulas(formula: Formula) -> frozenset[Formula]:
    """All subformulas with at least one connective, including the formula itself."""
    if isinstance(formula, (Bottom, Var)):
        return frozenset()
    assert isinstance(formula, (Conj, Impl))
    return (
        frozenset({formula})
        | compound_subformulas(formula.left)
        | compound_subformulas(formula.right)
    )


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
    """Every leaf occurrence of the rewriting tree, depth first in premise order.

    The walk expands labels as it reaches them and builds no tree, so taking
    the first few leaves costs only the labels on the way to them.
    """
    stack = [root_label(formula)]
    while stack:
        label = stack.pop()
        if is_irreducible(label):
            yield label
        else:
            stack.extend(reversed(rwbl_premises(label)))


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
        if not node.children:
            leaves += 1
            height = max(height, depth)
            max_weight = max(max_weight, weight)
        else:
            stack.extend((child, depth + 1, weight) for child in node.children)
    return TreeStats(height, nodes, leaves, max_weight)


_Row = tuple[dict, Fraction, bool]


def _normalized(coeffs: dict, bound: Fraction, strict: bool) -> _Row | None:
    """Drop zero coefficients and scale by the gcd; None for tautologies."""
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if not coeffs:
        if bound < 0 or (strict and bound == 0):
            raise _InfeasibleRow()
        return None
    divisor = gcd(*(abs(c.numerator) for c in coeffs.values()))
    denoms = [c.denominator for c in coeffs.values()] + [bound.denominator]
    scale = Fraction(_lcm_all(denoms), divisor)
    return (
        {v: c * scale for v, c in sorted(coeffs.items(), key=lambda it: repr(it[0]))},
        bound * scale,
        strict,
    )


def _lcm_all(values: Sequence[int]) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


class _InfeasibleRow(Exception):
    """Internal signal: a constant row is violated."""


def reference_solve(
    constraints: Iterable[LinConstraint], variables: Iterable[Hashable]
) -> FeasibilityResult:
    """Reference: ``linfeas.solve`` as it was, eliminating over ``Fraction`` rows."""
    constraints = list(constraints)
    ordering = sorted(set(variables), key=repr)
    known = set(ordering)
    rows: list[_Row] = []
    seen: set[tuple] = set()

    def add_row(coeffs: dict, bound: Fraction, strict: bool) -> None:
        row = _normalized(dict(coeffs), bound, strict)
        if row is None:
            return
        key = (tuple(row[0].items()), row[1], row[2])
        if key not in seen:
            seen.add(key)
            rows.append(row)

    try:
        for constraint in constraints:
            for var in constraint.coefficients:
                if var not in known:
                    raise ValueError(f"row mentions unknown variable {var!r}")
            add_row(
                {v: Fraction(c) for v, c in constraint.coefficients.items()},
                Fraction(constraint.bound),
                constraint.strict,
            )
        for var in ordering:
            add_row({var: Fraction(-1)}, Fraction(0), False)
            add_row({var: Fraction(1)}, Fraction(1), True)

        eliminated: list[tuple[Hashable, list[_Row]]] = []
        for var in ordering:
            involved = [r for r in rows if var in r[0]]
            passed = [r for r in rows if var not in r[0]]
            eliminated.append((var, involved))
            lowers = [r for r in involved if r[0][var] < 0]
            uppers = [r for r in involved if r[0][var] > 0]
            rows = passed
            seen = {(tuple(r[0].items()), r[1], r[2]) for r in rows}
            for lo_c, lo_b, lo_s in lowers:
                for up_c, up_b, up_s in uppers:
                    a_lo = lo_c[var]
                    a_up = up_c[var]
                    coeffs: dict = {}
                    for v, c in lo_c.items():
                        coeffs[v] = coeffs.get(v, Fraction(0)) + c * a_up
                    for v, c in up_c.items():
                        coeffs[v] = coeffs.get(v, Fraction(0)) + c * (-a_lo)
                    del coeffs[var]
                    add_row(coeffs, lo_b * a_up + up_b * (-a_lo), lo_s or up_s)
    except _InfeasibleRow:
        return FeasibilityResult(False)

    witness: dict[Hashable, Fraction] = {}
    for var, involved in reversed(eliminated):
        lo, lo_strict = Fraction(0), False
        hi, hi_strict = Fraction(1), True
        for coeffs, bound, strict in involved:
            rest = bound - sum(c * witness[v] for v, c in coeffs.items() if v != var)
            limit = rest / coeffs[var]
            if coeffs[var] > 0:
                if limit < hi or (limit == hi and strict):
                    hi, hi_strict = limit, strict
            else:
                if limit > lo or (limit == lo and strict):
                    lo, lo_strict = limit, strict
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            raise AssertionError("elimination left an empty interval, solver bug")
        witness[var] = (lo + hi) / 2

    for constraint in constraints:
        value = sum(Fraction(c) * witness[v] for v, c in constraint.coefficients.items())
        ok = value < constraint.bound if constraint.strict else value <= constraint.bound
        if not ok:
            raise AssertionError("witness fails an input row, solver bug")
    for var in ordering:
        if not 0 <= witness[var] < 1:
            raise AssertionError("witness escapes the unit box, solver bug")
    return FeasibilityResult(True, witness)


def _reference_subst_side(
    side: tuple[Formula, ...], target: Formula, replacement: tuple[Formula, ...]
) -> tuple[Formula, ...]:
    out: list[Formula] = []
    for f in side:
        if f is target:
            out.extend(replacement)
        else:
            out.append(f)
    return tuple(out)


def _reference_subst_sequent(
    s: RelationalSequent, target: Formula, replacement: tuple[Formula, ...]
) -> RelationalSequent:
    if not (target in s.left or target in s.right):
        return s
    return seq(
        _reference_subst_side(s.left, target, replacement),
        s.kind,
        _reference_subst_side(s.right, target, replacement),
    )


def reference_subst_all(
    g: RelationalHypersequent, target: Formula, replacement: Formula
) -> RelationalHypersequent:
    """Reference: ``subst_all`` as it was, one replacement per position."""
    return RelationalHypersequent(_reference_subst_sequent(s, target, (replacement,)) for s in g)


def reference_subst_pair(
    g: RelationalHypersequent, target: Formula, a: Formula, b: Formula
) -> RelationalHypersequent:
    """Reference: ``subst_pair`` as it was, one pair per position."""
    for s in g:
        if s.kind.is_ll and (target in s.left or target in s.right):
            raise ValueError("pair substitution cannot target a << sequent")
    return RelationalHypersequent(_reference_subst_sequent(s, target, (a, b)) for s in g)


def reference_subst_balanced_conj(
    g: RelationalHypersequent, target: Formula, a: Formula, b: Formula
) -> RelationalHypersequent:
    """Reference: ``subst_balanced_conj`` as it was, with its own loop."""
    out: list[RelationalSequent] = []
    for s in g:
        if s.kind.is_ll:
            raise ValueError("balanced substitution applies to fractional sequents only")
        l = s.left.count(target)
        r = s.right.count(target)
        if l == 0 and r == 0:
            out.append(s)
            continue
        left = tuple(f for f in s.left if f is not target) + (a, b)
        right = tuple(f for f in s.right if f is not target) + (a, b)
        out.append(seq(left, s.kind.shifted(l - r), right))
    return RelationalHypersequent(out)


def reference_subst_impl(
    g: RelationalHypersequent, target: Formula, a: Formula, b: Formula
) -> RelationalHypersequent:
    """Reference: ``subst_impl`` as it was, with its own loop."""
    out: list[RelationalSequent] = []
    for s in g:
        if s.kind.is_ll:
            raise ValueError("implication substitution applies to fractional sequents only")
        l = s.left.count(target)
        r = s.right.count(target)
        if l == 0 and r == 0:
            out.append(s)
            continue
        left = tuple(f for f in s.left if f is not target) + (a,) * r + (b,) * l
        right = tuple(f for f in s.right if f is not target) + (a,) * l + (b,) * r
        out.append(seq(left, s.kind, right))
    return RelationalHypersequent(out)


def reference_fixed(formula: Formula) -> Formula | None:
    """Reference: the atom the formula equals under every valuation, by recursion.

    Atoms are their own.  Below, x and y are the children's atoms: x * y is
    falsum when either is falsum, and the other child's atom when one is top;
    x -> y is top when x is falsum, y is top, or the children are one formula
    or share an atom, and y's atom when x is top.  Anything else has none.
    """
    if is_atomic(formula):
        return formula
    x, y = reference_fixed(formula.left), reference_fixed(formula.right)
    if isinstance(formula, Conj):
        if BOT in (x, y):
            return BOT
        if TOP in (x, y):
            return y if x == TOP else x
        return None
    if x == BOT or y == TOP or formula.left == formula.right or (x is not None and x == y):
        return TOP
    return y if x == TOP else None


def reference_atoms(g: RelationalHypersequent) -> RelationalHypersequent:
    """Reference: a settled hypersequent with each formula replaced by its fixed atom."""
    return RelationalHypersequent(
        seq([reference_fixed(f) for f in s.left], s.kind, [reference_fixed(f) for f in s.right])
        for s in g
    )


def reference_sequent_fields(
    left: tuple[Formula, ...], kind, right: tuple[Formula, ...]
) -> dict[str, object]:
    """Reference: the fields a sequent's constructor sets, each recomputed on its own."""
    formulas = left + right
    compounds = [f for f in formulas if not is_atomic(f)]
    index_zero_ord = kind.tag != "ll" and kind.z == 0
    return {
        "left": tuple(sorted(left, key=complexity_key)),
        "kind": kind,
        "right": tuple(sorted(right, key=complexity_key)),
        "pivot": max(compounds, key=complexity_key) if compounds else None,
        "all_atomic": all(is_atomic(f) for f in formulas),
        "settled": all(reference_fixed(f) is not None for f in formulas),
        "one_sided_pair": index_zero_ord and sorted([len(left), len(right)]) == [0, 2],
        "is_unit_shape": index_zero_ord and kind.tag == "preceq" and len(left) == len(right) == 1,
        "weight": 1 + sum(1 if is_atomic(f) else 2 * complexity(f) + 1 for f in formulas),
    }


def reference_decompose(
    g: RelationalHypersequent, pivot: Formula
) -> tuple[
    RelationalHypersequent,
    RelationalHypersequent,
    RelationalHypersequent,
    RelationalHypersequent,
]:
    """Reference: ``decompose`` as it was, a four-way split by side membership.

    Returns (pivot-free part, << part, fractional part, unit part), where the
    unit part is the subset of the fractional part consisting of the
    one-formula-each-side ``<=`` sequents with index zero.  Raises ValueError
    if the pivot occurs nowhere.
    """
    free: list[RelationalSequent] = []
    ll_part: list[RelationalSequent] = []
    ord_part: list[RelationalSequent] = []
    unit_part: list[RelationalSequent] = []
    for s in g:
        if not (pivot in s.left or pivot in s.right):
            free.append(s)
        elif s.kind.is_ll:
            ll_part.append(s)
        else:
            ord_part.append(s)
            if s.is_unit_shape:
                unit_part.append(s)
    if not ll_part and not ord_part:
        raise ValueError("pivot does not occur in the hypersequent")
    return (
        RelationalHypersequent(free),
        RelationalHypersequent(ll_part),
        RelationalHypersequent(ord_part),
        RelationalHypersequent(unit_part),
    )


def reference_atom_key(atom: Formula) -> tuple[int, int]:
    """Reference atom order: falsum, the variables by index, top last."""
    if isinstance(atom, Bottom):
        return (0, -1)
    if isinstance(atom, Var):
        return (0, atom.index)
    if atom != TOP:
        raise ValueError(f"{atom!r} is not an atom")
    return (1, 0)


def _reference_negate_leaf(
    h: RelationalHypersequent,
) -> tuple[set[tuple[Formula, Formula]], list[RelationalSequent]]:
    """Reference: ``negate_leaf`` as it was, floor edges and fractional sequents."""
    compound = [s for s in h if not s.all_atomic]
    if compound:
        s = min(compound, key=RelationalSequent.sort_key)
        f = next(f for f in s.formulas() if not is_atomic(f))
        raise ValueError(f"leaf expected, found compound formula {f!r}")
    edges: set[tuple[Formula, Formula]] = set()
    fracs: list[RelationalSequent] = []
    for s in h:
        if s.kind.is_ll:
            if len(s.left) != 1 or len(s.right) != 1:
                raise ValueError("a << sequent in a leaf must have one formula per side")
            edges.add((s.right[0], s.left[0]))
        elif s.is_unit_shape or (TOP not in s.left and TOP not in s.right):
            fracs.append(s)
    return edges, fracs


def reference_contract_and_sort(
    vertices: AbstractSet[Formula], edges: AbstractSet[tuple[Formula, Formula]]
) -> tuple[tuple[frozenset[Formula], ...], tuple[frozenset[int], ...], bool]:
    """Reference: ``contract_and_sort`` as it was, over frozensets.

    Returns the ordered groups, their reach sets as positions in that order
    (each its own included) and the clash flag.
    """
    verts = sorted(vertices, key=reference_atom_key)
    position = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    reach = [1 << i for i in range(n)]
    for tail, head in edges:
        reach[position[tail]] |= 1 << position[head]
    for k in range(n):
        bit, row = 1 << k, reach[k]
        reach = [r | row if r & bit else r for r in reach]
    falsum = 1 << position[BOT] if BOT in position else 0
    low = sum(1 << i for i in range(n) if reach[i] & falsum)
    high = reach[position[TOP]]
    clash = bool(high & falsum)
    if clash:
        low = high = 0
    beyond: dict[int, int] = {}
    placed = 0
    for i in range(n):
        if placed >> i & 1:
            continue
        if low >> i & 1:
            group = low
        elif high >> i & 1:
            group = high
        else:
            group = sum(1 << j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1)
        placed |= group
        beyond[group] = reduce(or_, (reach[j] for j in range(n) if group >> j & 1)) & ~group
    order: list[int] = []
    rest = dict(beyond)
    while rest:
        blocked = reduce(or_, rest.values())
        order.append(next(group for group in rest if not group & blocked))
        del rest[order[-1]]
    return (
        tuple(frozenset(v for j, v in enumerate(verts) if g >> j & 1) for g in order),
        tuple(frozenset(p for p, h in enumerate(order) if (g | beyond[g]) & h) for g in order),
        clash,
    )


def _reference_least_escape(
    fracs: Sequence[RelationalSequent],
    clusters: tuple[frozenset[Formula], ...],
    reaches: tuple[frozenset[int], ...],
) -> tuple[frozenset[int], dict[int, Fraction]] | None:
    """Reference: ``_least_escape`` as it was, one solve per owning cluster."""
    cluster_of = {atom: i for i, cluster in enumerate(clusters) for atom in cluster}
    top_at = cluster_of[TOP]
    kept = [{cluster_of[BOT]}] if BOT in cluster_of else []
    owned: dict[int, list[RelationalSequent]] = {}
    for s in fracs:
        spots = {cluster_of[a] for a in s.formulas()}
        if s.is_unit_shape:
            if spots == {top_at}:
                return None
            kept.append(spots - {top_at})
        if len(spots) == 1 and top_at not in spots:
            owned.setdefault(next(iter(spots)), []).append(s)
    forced = []
    witness: dict[int, Fraction] = {}
    for i, own in owned.items():
        outcome = solve(build_lp(own), [f.index for f in clusters[i] if isinstance(f, Var)])
        if outcome.feasible:
            witness.update(outcome.witness)
        else:
            forced.append(i)
    escape = frozenset().union(*(reaches[i] for i in forced)) - {top_at}
    if any(group <= escape for group in kept):
        return None
    return escape, witness


def _reference_build_countermodel(
    clusters: tuple[frozenset[Formula], ...],
    escape: AbstractSet[int],
    witness: dict[int, Fraction],
) -> tuple[tuple[frozenset[Formula], ...], Valuation]:
    escaping = frozenset().union(*(clusters[i] for i in escape))
    kept: list[frozenset[Formula]] = []
    assignment: dict[int, OmegaValue] = {}
    for i, cluster in enumerate(clusters):
        if i in escape:
            continue
        if TOP in cluster:
            cluster |= escaping
        for atom in cluster:
            if isinstance(atom, Var):
                frac = witness.get(atom.index, Fraction(1, 2))
                assignment[atom.index] = INF if TOP in cluster else Finite(len(kept), frac)
        kept.append(cluster)
    return tuple(kept), Valuation(assignment)


def reference_check_axiom(
    h: RelationalHypersequent,
) -> tuple[bool, tuple[frozenset[Formula], ...], Valuation | None]:
    """Reference: ``check_axiom`` as it was, (is_axiom, clusters, countermodel).

    The leaf is negated, its floor graph grouped and ordered over frozensets,
    every cluster that owns rows is solved, and the countermodel is built
    and re-checked at once.  A sequent with no formulas is never owned, so
    it is ignored.
    """
    floor_edges, fracs = _reference_negate_leaf(h)
    clusters, reaches, clash = reference_contract_and_sort(
        {TOP}.union(*(s.left + s.right for s in h)), floor_edges
    )
    least = None if clash else _reference_least_escape(fracs, clusters, reaches)
    if least is None:
        return True, clusters, None
    clusters, model = _reference_build_countermodel(clusters, *least)
    if satisfies(model, h):
        raise AssertionError("countermodel construction failed its runtime check")
    return False, clusters, model
