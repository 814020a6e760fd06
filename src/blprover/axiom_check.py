"""Deciding irreducible hypersequents: axiom or explicit countermodel.

An irreducible label is valid exactly when the conjunction of the negations
of its sequents admits no valuation.  negate_leaf reads the leaf in one
pass: each ``<<`` sequent becomes one floor edge, and each fractional
``<=_z`` or ``<_z`` sequent whose negation can constrain is kept as it is.
The decision has three stages:

1. Integer parts.  Each negated ``<<`` sequent asserts one floor inequality;
   these become edges of a graph over the leaf's atoms and top (passed to
   contract_and_sort as a vertex set and an edge set), and one reachability
   closure of that graph, in bit sets, settles every floor constraint.  If
   top's floor reaches falsum's, the two pins clash, the negation is refuted
   and the leaf is an axiom.  Otherwise vertices that reach falsum share its
   floor 0, vertices top reaches share its infinite floor, and the remaining
   strongly connected components each get their own floor.  Joined per
   group, the closure rows give each group's reach set and an order of the
   groups that realizes all remaining floor constraints with distinct
   integers.
2. Fractional parts.  Negated fractional sequents whose atoms share a
   (finite) cluster contribute linear rows over the fractional variables;
   sequents whose atoms are spread over distinct clusters are vacuously
   negated by the distinct floors and contribute nothing.
3. Feasibility.  Rows of distinct clusters share no variable, so each
   cluster is decided alone.  A row with no solution in the unit box even
   by itself is void (each sequent works that out once): a cluster owning
   one cannot keep a finite floor, and a void sequent with no atoms always
   holds.  Every other cluster that owns rows and does not escape yet is
   solved once by the exact Fourier-Motzkin solver, until the leaf is
   settled as an axiom.  The feasible clusters' witnesses give the
   countermodel (floor = position among the clusters that do not escape,
   fraction = witness), which a verdict builds on first read and re-checks
   against the leaf always.

Floors alone do not determine the whole search space: a countermodel may
also park an upward-closed set of clusters at infinity alongside top.  Every
constraint on that escape set is a Horn clause, so the upward closure of the
clusters forced to escape, the union of their reach sets, is the least escape
set, feasible whenever any is; _least_escape reads it off the closure and
takes the witness from the per-cluster solves, so no further solve is made.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_
from typing import AbstractSet, Callable, Iterable, Sequence

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


def negate_leaf(
    h: RelationalHypersequent,
) -> tuple[set[tuple[Formula, Formula]], list[RelationalSequent]]:
    """Split an irreducible hypersequent into floor edges and fractional sequents.

    Negating ``left << right`` asserts floor(right) <= floor(left), the edge
    (right, left).  A negated fractional sequent constrains when its atoms
    share one finite floor, so the sequent itself is kept.  One with bare top
    is dead unless it has the unit shape: never satisfied, its negation holds
    vacuously, so it is dropped.  Raises ValueError on non-atomic formulas,
    naming the first one in the compound sequent with the least sort key, or
    else on a ``<<`` sequent missing a side.
    """
    edges: set[tuple[Formula, Formula]] = set()
    fracs: list[RelationalSequent] = []
    for s in h:
        left, right, ll = s.left, s.right, s.kind.tag == "ll"
        if not s.all_atomic or (ll and (len(left) != 1 or len(right) != 1)):
            compound = [s for s in h if not s.all_atomic]
            if compound:
                s = min(compound, key=RelationalSequent.sort_key)
                f = next(f for f in s.formulas() if not is_atomic(f))
                raise ValueError(f"leaf expected, found compound formula {f!r}")
            raise ValueError("a << sequent in a leaf must have one formula per side")
        if ll:
            edges.add((right[0], left[0]))
        elif s.is_unit_shape or (TOP not in left and TOP not in right):
            fracs.append(s)
    return edges, fracs


def _atom_key(atom: Formula) -> tuple:
    if isinstance(atom, Bottom):
        return (0, -1)
    if isinstance(atom, Var):
        return (0, atom.index)
    if atom != TOP:
        raise AssertionError(f"floor graph vertex {atom!r} is not an atom")
    return (1, 0)


def contract_and_sort(
    vertices: AbstractSet[Formula], edges: Iterable[tuple[Formula, Formula]]
) -> tuple[list[Formula], list[int], list[int]] | None:
    """Group the floor graph's vertices and order the groups, all from one closure.

    The vertices are atoms, top among them; an edge (tail, head) asserts
    floor(tail) <= floor(head).  When top's floor reaches falsum's, the two
    pins clash, which refutes the negated leaf outright: the result is None.
    Otherwise every vertex that reaches falsum joins falsum's group (floor
    pinned to 0), every vertex top reaches joins top's group (floor pinned to
    infinity), and each remaining vertex joins its strongly connected
    component (mutually reachable vertices, whose floors are squeezed equal).
    A group's reach set joins its members' closure rows; as no edge enters
    falsum's group and none leaves top's, it holds exactly the groups that a
    path from the group ends in.  The order takes, each time, the group with
    the least member (falsum first, variables by index, top last) that no
    other unplaced group reaches, so every edge points forward.  Returns the
    vertices in that key order, the ordered groups as bit sets over them and
    their reach sets as bit sets over group positions (each its own included).
    """
    verts = sorted(vertices, key=_atom_key)
    n = len(verts)
    position = dict(zip(verts, range(n)))
    # Bit j of reach[i] is set when floor(verts[i]) <= floor(verts[j]) is forced.
    reach = [1 << i for i in range(n)]
    for tail, head in edges:
        reach[position[tail]] |= 1 << position[head]
    for k in range(n):
        bit, row = 1 << k, reach[k]
        if row != bit:
            reach = [r | row if r & bit else r for r in reach]
    # Falsum sorts first and top last.
    low, high = 0, reach[-1]
    if verts[0] is BOT:
        if high & 1:
            return None
        low = sum(1 << i for i, row in enumerate(reach) if row & 1)
    # Each group as a bit set over verts, by least member, mapped to the
    # vertices outside it that its members reach.
    beyond: dict[int, int] = {}
    placed = 0
    for i, row in enumerate(reach):
        bit = 1 << i
        if placed & bit:
            continue
        if low & bit:
            group = low
        elif high & bit:
            group = high
        else:
            group = sum(1 << j for j in range(n) if row >> j & 1 and reach[j] & bit)
        placed |= group
        if group != bit:
            row = reduce(or_, (reach[j] for j in range(n) if group >> j & 1))
        beyond[group] = row & ~group
    order: list[int] = []
    rest = dict(beyond)
    while rest:
        blocked = reduce(or_, rest.values())
        order.append(next(group for group in rest if not group & blocked))
        del rest[order[-1]]
    reaches = [sum(1 << p for p, h in enumerate(order) if (g | beyond[g]) & h) for g in order]
    return verts, order, reaches


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
    """Whether the sequent's row has no solution in the unit box by itself, set on s once."""
    if s.void is None:
        coeffs, bound, strict = _row(s)
        # In the box the row takes every value above least, and least only if 0.
        least = sum(c for c in coeffs.values() if c < 0)
        object.__setattr__(s, "void", bound < least or bound == least and (least < 0 or strict))
    return s.void


def _least_escape(
    fracs: Sequence[RelationalSequent], verts: list[Formula], groups: list[int], reaches: list[int]
) -> tuple[int, dict[int, Fraction]] | None:
    """The least feasible set of finite clusters sent to infinity, and a witness.

    A finite cluster that owns a void row, or rows the solver finds
    infeasible (each solved once, unless it already escapes), must escape,
    and its reach set with it, top's cluster aside.  Falsum's cluster, and
    the finite clusters of each negated unit ``<=``, may not all escape; such
    a ``<=`` inside top's cluster, or a void sequent with no atoms, makes the
    leaf an axiom outright (None, as when no escape set is feasible).  The
    escape set is a bit set over cluster positions.
    """
    bit_of = {v: 1 << p for p, g in enumerate(groups) for j, v in enumerate(verts) if g >> j & 1}
    top = bit_of[TOP]
    kept = [bit_of[BOT]] if BOT in bit_of else []
    escape = 0
    owned: dict[int, list[RelationalSequent]] = {}
    for s in fracs:
        spots = 0
        for atom in s.left + s.right:
            spots |= bit_of[atom]
        if s.is_unit_shape:
            if spots == top:
                return None
            kept.append(spots & ~top)
        if spots & (spots - 1) == 0 and spots != top:
            if not _is_void(s):
                owned.setdefault(spots, []).append(s)
            elif spots:
                escape |= reaches[spots.bit_length() - 1]
            else:
                return None
    witness: dict[int, Fraction] = {}
    for spot, own in owned.items():
        if any(not group & ~escape for group in kept):
            return None
        if spot & escape:
            continue
        group = groups[spot.bit_length() - 1]
        # solve orders its variables itself.
        ids = [v.index for j, v in enumerate(verts) if group >> j & 1 and isinstance(v, Var)]
        outcome = solve(build_lp(own), ids)
        if outcome.feasible:
            witness.update(outcome.witness)
        else:
            escape |= reaches[spot.bit_length() - 1]
    if any(not group & ~escape for group in kept):
        return None
    return escape & ~top, witness


def build_countermodel(
    verts: list[Formula], groups: list[int], escape: int, witness: dict[int, Fraction]
) -> Valuation:
    """The valuation refuting the leaf.

    The groups are bit sets over verts, top last, and the escape set a bit
    set over their positions.  A variable in top's cluster or in an escaping
    one is infinite.  Any other takes as its floor the number of clusters
    before its own that do not escape, top's included, and as its fraction
    its witness value, or 1/2, the midpoint of its interval, when the witness
    does not mention it.
    """
    top = 1 << len(verts) - 1
    floor = 0
    assignment: dict[int, OmegaValue] = {}
    for p, group in enumerate(groups):
        escapes = escape >> p & 1
        for j, atom in enumerate(verts):
            if group >> j & 1 and isinstance(atom, Var):
                frac = witness.get(atom.index, Fraction(1, 2))
                assignment[atom.index] = INF if escapes or group & top else Finite(floor, frac)
        floor += not escapes
    return Valuation(assignment)


def check_axiom(h: RelationalHypersequent) -> AxiomVerdict:
    """Classify an irreducible hypersequent.

    The leaf is split once (negate_leaf).  Its atoms and top, with one edge
    per negated ``<<``, form the floor graph; one closure gives its groups,
    their order and reach sets (contract_and_sort).  A clash of the falsum
    and top pins is an axiom, and so is a leaf with no feasible escape set
    (_least_escape).  Only the verdict is decided here.  On first read of a
    NotAxiom verdict, build_countermodel sends the least escape set, read off
    the same closure and escaped by every countermodel over these floors, to
    infinity with top's cluster and values the other atoms from
    _least_escape's witness; that countermodel is always re-checked against
    the leaf before it is returned.
    """
    floor_edges, fracs = negate_leaf(h)
    grouped = contract_and_sort({TOP}.union(*(s.left + s.right for s in h)), floor_edges)
    least = None if grouped is None else _least_escape(fracs, *grouped)
    if least is None:
        return AxiomVerdict(True, lambda: None)
    verts, groups, _ = grouped
    return AxiomVerdict(False, lambda: _checked(h, build_countermodel(verts, groups, *least)))


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
