"""Deciding irreducible hypersequents: axiom or explicit countermodel.

An irreducible label is valid exactly when the conjunction of the negations
of its sequents admits no valuation.  A LeafCache, one per search, is the
one reader of the sequents: it numbers the atoms and compiles each sequent
on its first read into bit sets by what its negation asserts (a ``<<``
sequent gives one floor edge, a fractional sequent whose negation can
constrain gives a row), so a check is one pass that ORs them.  The decision
has three stages:

1. Integer parts.  The edges form a graph over the leaf's atoms and top, and
   one reachability closure of it, in bit sets, settles every floor
   constraint (contract_and_sort).  If top's floor reaches falsum's, the two
   pins clash, the negation is refuted and the leaf is an axiom.  Otherwise
   vertices that reach falsum share its floor 0, vertices top reaches share
   its infinite floor, and the remaining strongly connected components each
   get their own floor.  Joined per group, the closure rows give each group's
   reach set and an order of the groups that realizes all remaining floor
   constraints with distinct integers.
2. Fractional parts.  Negated fractional sequents whose atoms share a
   (finite) cluster contribute linear rows over the fractional variables;
   sequents whose atoms are spread over distinct clusters are vacuously
   negated by the distinct floors and contribute nothing.
3. Feasibility.  Rows of distinct clusters share no variable, so each
   cluster is decided alone.  A row with no solution in the unit box even
   by itself is void (its record says so): a cluster owning one cannot
   keep a finite floor, and a void sequent with no atoms always holds.
   Every other cluster that owns rows and does not escape yet is solved in
   cluster order, once per search, by the exact Fourier-Motzkin solver,
   until the leaf is settled.  The feasible clusters' witnesses give
   the countermodel (floor = position among the clusters that do not escape,
   fraction = witness), built on first read and always re-checked.

Floors alone do not fix the search space: a countermodel may also park an
upward-closed set of clusters at infinity alongside top.  Every constraint on
that escape set is a Horn clause, so the union of the reach sets of the
clusters forced to escape is the least escape set, feasible whenever any is;
_least_escape reads it off the closure and takes the witness from the
per-cluster solves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Sequence

from .formula import BOT, Bottom, Formula, TOP, Var, is_atomic
from .hypersequent import RelationalHypersequent, RelationalSequent
from .linfeas import LinConstraint, solve
from .semantics import Finite, INF, OmegaValue, Valuation, eval_formula, satisfies


class AxiomVerdict:
    """Outcome for one leaf, whose ``countermodel`` is built on first read.

    ``build`` returns it, None for an axiom; it runs again only if it raised.
    """

    __slots__ = ("is_axiom", "_build", "countermodel")

    def __init__(self, is_axiom: bool, build: Callable[[], Valuation | None]) -> None:
        self.is_axiom = is_axiom
        self._build = build

    def __getattr__(self, name: str) -> object:
        # Reached only for an unset slot, so at most once for a good build.
        if name != "countermodel":
            raise AttributeError(name)
        self.countermodel = self._build()
        return self.countermodel


def _bits(mask: int) -> list[int]:
    """The one-bit parts of mask, lowest first."""
    bits = []
    while mask:
        bits.append(mask & -mask)
        mask &= mask - 1
    return bits


class LeafCache:
    """What one search's leaf checks share: atom numbers, sequent records and memos.

    The one reader of a leaf's sequents.  Atoms are numbered falsum 0, the
    given formulas' variables by index, top last.  A sequent's record,
    compiled on its first read, is its atom bits, with a ``<<``'s edge bit
    above them (``edges`` holds each edge's tail and head bits), and its row
    when its negation is kept, else None: (atom bits, sequent, unit flag,
    void flag, number).  Nothing is kept per checked hypersequent.
    ``groupings`` memoizes contract_and_sort by the OR-ed bits, and maps
    each result to itself so that equal results share one copy; ``solves``
    holds a cluster's witness (None if infeasible) by its rows' sorted numbers.
    """

    __slots__ = ("atoms", "number", "records", "edges", "groupings", "solves")

    def __init__(self, formulas: Iterable[Formula]) -> None:
        # An explicit stack over the shared subformulas: deep formulas do not recurse.
        seen, stack = {BOT, TOP}, list(formulas)
        while stack:
            f = stack.pop()
            if f not in seen:
                seen.add(f)
                stack += (f.left, f.right) if f.complexity else ()
        variables = sorted((f for f in seen if isinstance(f, Var)), key=lambda v: v.index)
        self.atoms = [BOT, *variables, TOP]
        self.number = {atom: j for j, atom in enumerate(self.atoms)}
        self.records, self.edges, self.groupings, self.solves = {}, [], {}, {}

    def compile(self, s: RelationalSequent, h: Iterable[RelationalSequent]) -> tuple:
        """Record s, a sequent of the leaf h, by what its negation asserts.

        Negating ``left << right`` asserts floor(right) <= floor(left), the
        edge (right, left).  A negated fractional sequent constrains when its
        atoms share one finite floor, so its row is kept.  One with bare top
        is dead unless it has the unit shape: never satisfied, its negation
        holds vacuously, so it gets no row.  Raises ValueError on non-atomic
        formulas, naming the first one in the compound sequent of h with the
        least sort key, or else on a ``<<`` sequent missing a side.
        """
        left, right, ll = s.left, s.right, s.kind.tag == "ll"
        if not s.all_atomic or ll and (len(left) != 1 or len(right) != 1):
            compound = [s for s in h if not s.all_atomic]
            if compound:
                s = min(compound, key=RelationalSequent.sort_key)
                f = next(f for f in s.formulas() if not is_atomic(f))
                raise ValueError(f"leaf expected, found compound formula {f!r}")
            raise ValueError("a << sequent in a leaf must have one formula per side")
        bits, row, number, n = 0, None, len(self.records), len(self.atoms)
        for atom in left + right:
            if atom not in self.number:
                raise AssertionError(f"leaf atom {atom!r} is outside the search's numbering")
            bits |= 1 << self.number[atom]
        mask, top = bits, bits >> n - 1
        if ll:
            mask |= 1 << n + len(self.edges)
            self.edges.append((1 << self.number[right[0]], 1 << self.number[left[0]]))
        elif s.is_unit_shape or not top:
            # Only rows without top are ever owned by a cluster and read as void.
            row = bits, s, s.is_unit_shape, not top and _is_void(s), number
        self.records[s] = record = mask, row
        return record


def contract_and_sort(
    vertices: int, edges: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Group the floor graph's vertices and order the groups, all from one closure.

    The vertices are a bit set over a LeafCache's atom numbers, top (the
    highest bit) among them; an edge (tail, head) of their bits asserts
    floor(tail) <= floor(head).  When top's floor reaches falsum's (bit 0),
    the two pins clash, which refutes the negated leaf outright: the result
    is None.  Otherwise the vertices that reach falsum form falsum's group
    (floor 0), those top reaches form top's (floor infinity), and each other
    vertex joins its strongly connected component.  A group's reach set
    joins its members' closure rows: the groups a path from it ends in.  The
    order takes, each time, the group with the least member that no other
    unplaced group reaches, so every edge points forward.  Returns the
    ordered groups, as bit sets over the atoms, and their reach sets, as bit
    sets over group positions.
    """
    # Only tails lie on paths between vertices, so the closure runs over them.
    reach: dict[int, int] = {}
    for tail, head in edges:
        reach[tail] = reach.get(tail, tail) | head
    for k in reach:
        row = reach[k]
        for tail, r in reach.items():
            if r & k:
                reach[tail] = r | row
    top = 1 << vertices.bit_length() - 1
    low, high = 0, reach.get(top, top)
    if vertices & 1:
        if high & 1:
            return None
        low = sum(tail for tail, r in reach.items() if r & 1) | 1
    # Each group, by least member, mapped to the atoms outside it that its members reach.
    beyond: dict[int, int] = {}
    placed = 0
    for bit in _bits(vertices):
        if placed & bit:
            continue
        row = reach.get(bit, bit)
        if low & bit:
            group = low
        elif high & bit:
            group = high
        else:
            group = sum(tail for tail, r in reach.items() if row & tail and r & bit) | bit
        placed |= group
        if group != bit:
            row = reduce(or_, [r for tail, r in reach.items() if group & tail], row)
        beyond[group] = row & ~group
    order: list[int] = []
    unplaced = dict(beyond)
    while unplaced:
        blocked = reduce(or_, unplaced.values())
        for group in unplaced:
            if not group & blocked:
                break
        order.append(group)
        del unplaced[group]
    reaches = []
    for g in order:
        row, spots = g | beyond[g], 0
        for p, h in enumerate(order):
            spots |= row & h and 1 << p
        reaches.append(spots)
    return tuple(order), tuple(reaches)


def _add_frac(coeffs: dict[int, int], atom: Formula, sign: int) -> None:
    if isinstance(atom, Var):
        coeffs[atom.index] = coeffs.get(atom.index, 0) + sign
    elif not isinstance(atom, Bottom):
        raise AssertionError("top cannot reach the fractional rows")


def _row(s: RelationalSequent) -> tuple[dict[int, int], int, bool]:
    coeffs: dict[int, int] = {}
    for atom in s.right:
        _add_frac(coeffs, atom, 1)
    for atom in s.left:
        _add_frac(coeffs, atom, -1)
    return coeffs, len(s.right) - len(s.left) - s.kind.z, not s.kind.strict


def build_lp(fracs: Iterable[RelationalSequent]) -> list[LinConstraint]:
    """Fractional rows for negated sequents whose atoms share one finite cluster.

    Each row bounds the right fractions minus the left ones by
    len(right) - len(left) - z, which is 0 for the unit shape.  Falsum's
    fractional part is the constant 0 and contributes to the multiset sizes
    but not to the coefficients.
    """
    return [LinConstraint(*_row(s)) for s in fracs]


def _is_void(s: RelationalSequent) -> bool:
    """Whether the sequent's row has no solution in the unit box by itself."""
    coeffs, bound, strict = _row(s)
    # In the box the row takes every value above least, and least only if 0.
    least = sum(c for c in coeffs.values() if c < 0)
    return bound < least or bound == least and (least < 0 or strict)


def _least_escape(
    fracs: Sequence[tuple], groups: Sequence[int], reaches: Sequence[int], cache: LeafCache
) -> tuple[int, dict[int, Fraction]] | None:
    """The least feasible set of finite clusters sent to infinity, and a witness.

    ``fracs`` are the leaf's rows.  A finite cluster that owns a void row, or
    rows the solver finds infeasible (solved in cluster order, unless it
    already escapes), must escape, and its reach set with it, top's cluster
    aside.  Falsum's cluster, and the finite clusters of each negated unit
    ``<=``, may not all escape; such a ``<=`` inside top's cluster, or a void
    sequent with no atoms, makes the leaf an axiom outright (None, as when no
    escape set is feasible).  The escape set is a bit set over positions.
    """
    top_atom, spot_of, kept = 1 << len(cache.atoms) - 1, [], []
    for p, group in enumerate(groups):
        spot_of.append((group, 1 << p))
        if group & top_atom:
            top = 1 << p
        if group & 1:
            kept.append(1 << p)
    escape = 0
    owned: dict[int, list[tuple]] = {}
    for frac in fracs:
        bits, _, is_unit, void, _ = frac
        spots = 0
        for group, spot in spot_of:
            if group & bits:
                spots |= spot
        if is_unit:
            if spots == top:
                return None
            kept.append(spots & ~top)
        if spots & (spots - 1) == 0 and spots != top:
            if not void:
                owned.setdefault(spots, []).append(frac)
            elif spots:
                escape |= reaches[spots.bit_length() - 1]
            else:
                return None
    for group in kept:
        if not group & ~escape:
            return None
    witness: dict[int, Fraction] = {}
    for spot, own in sorted(owned.items()):
        if spot & escape:
            continue
        key = tuple(sorted([frac[4] for frac in own]))
        if key not in cache.solves:
            # solve orders the variables; it would give one no row mentions
            # 1/2, as build_countermodel does.
            mentioned = reduce(or_, [frac[0] for frac in own])
            atoms = [cache.atoms[bit.bit_length() - 1] for bit in _bits(mentioned)]
            ids = [atom.index for atom in atoms if isinstance(atom, Var)]
            cache.solves[key] = solve(build_lp([frac[1] for frac in own]), ids).witness
        if cache.solves[key] is not None:
            witness.update(cache.solves[key])
            continue
        escape |= reaches[spot.bit_length() - 1]
        if any(not group & ~escape for group in kept):
            return None
    return escape & ~top, witness


def build_countermodel(
    atoms: Sequence[Formula], groups: Sequence[int], escape: int, witness: dict[int, Fraction]
) -> Valuation:
    """The valuation refuting the leaf.

    The groups are bit sets over atoms, top last, and the escape set a bit
    set over their positions.  A variable in top's cluster or in an escaping
    one is infinite.  Any other takes as its floor the number of clusters
    before its own that do not escape, top's included, and as its fraction
    its witness value, or 1/2, the midpoint of its interval, when the witness
    does not mention it.
    """
    top = 1 << len(atoms) - 1
    floor = 0
    assignment: dict[int, OmegaValue] = {}
    for p, group in enumerate(groups):
        escapes = escape >> p & 1
        for j, atom in enumerate(atoms):
            if group >> j & 1 and isinstance(atom, Var):
                frac = witness.get(atom.index, Fraction(1, 2))
                assignment[atom.index] = INF if escapes or group & top else Finite(floor, frac)
        floor += not escapes
    return Valuation(assignment)


def check_axiom(h: RelationalHypersequent, cache: LeafCache | None = None) -> AxiomVerdict:
    """Classify an irreducible hypersequent.

    ``cache`` is shared by one search's checks (check_tautology passes one
    per call); without one, a cache is made from the leaf's atoms.  One pass
    ORs the records of the leaf's sequents; the floor graph they give is
    grouped once per search (contract_and_sort).  A clash of the falsum and
    top pins is an axiom, and so is a leaf with no feasible escape set
    (_least_escape).  Only the verdict is decided here; the countermodel,
    built on first read from the least escape set and the witness, is always
    re-checked against the leaf before it is returned.
    """
    if cache is None:
        cache = LeafCache(f for s in h for f in s.left + s.right)
    records, n = cache.records, len(cache.atoms)
    mask, fracs = 1 << n - 1, []
    for s in h:
        record = records.get(s) or cache.compile(s, h)
        mask |= record[0]
        if record[1] is not None:
            fracs.append(record[1])
    if mask not in cache.groupings:
        edges = [cache.edges[bit.bit_length() - 1] for bit in _bits(mask >> n)]
        grouped = contract_and_sort(mask & (1 << n) - 1, edges)
        cache.groupings[mask] = cache.groupings.setdefault(grouped, grouped)
    grouped = cache.groupings[mask]
    least = None if grouped is None else _least_escape(fracs, *grouped, cache)
    if least is None:
        return AxiomVerdict(True, lambda: None)
    atoms, groups = cache.atoms, grouped[0]
    return AxiomVerdict(False, lambda: _checked(h, build_countermodel(atoms, groups, *least)))


def _checked(h: RelationalHypersequent, model: Valuation) -> Valuation:
    if satisfies(model, h):
        raise AssertionError(
            "countermodel construction failed its runtime check; "
            "the leaf violates the supported structural invariants"
        )
    return model


def verify_branch_countermodel(
    v: Valuation, branch: Iterable[RelationalHypersequent], formula: Formula
) -> bool:
    """True when v falsifies every label of the branch and keeps the formula finite."""
    return all(not satisfies(v, g) for g in branch) and not eval_formula(
        v, formula
    ).is_infinite
