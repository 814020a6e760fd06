"""Deciding irreducible hypersequents: axiom or explicit countermodel.

An irreducible label is valid exactly when the conjunction of the negations
of its sequents admits no valuation.  negate_leaf reads each sequent once:
each ``<<`` sequent becomes one floor edge, and each fractional ``<=_z`` or
``<_z`` sequent whose negation can constrain is kept as it is.  The decision
has three stages:

1. Integer parts.  Each negated ``<<`` sequent asserts one floor inequality;
   these become edges of a graph over the leaf's atoms and top (passed to
   contract_and_sort as a vertex set and an edge set), and one reachability
   closure of that graph settles every floor constraint.  If top's floor
   reaches falsum's, the two pins clash and the negation is refuted.
   Otherwise vertices that reach falsum share its floor 0, vertices top
   reaches share its infinite floor, and the remaining strongly connected
   components each get their own floor.  Joined per group, the closure rows
   give each group's reach set and an order of the groups that realizes all
   remaining floor constraints with distinct integers.
2. Fractional parts.  Negated fractional sequents whose atoms share a
   (finite) cluster contribute linear rows over the fractional variables;
   sequents whose atoms are spread over distinct clusters are vacuously
   negated by the distinct floors and contribute nothing.
3. Feasibility.  Rows of distinct clusters share no variable, so the exact
   Fourier-Motzkin solver takes each cluster that owns rows once.  An
   infeasible cluster cannot keep a finite floor; the feasible ones' witnesses
   give the countermodel (floor = cluster position, fraction = witness),
   which is re-checked against the leaf unconditionally.

Floors alone do not determine the whole search space: a countermodel may
also park an upward-closed set of clusters at infinity alongside top.  Every
constraint on that escape set is a Horn clause, so the upward closure of the
clusters forced to escape, the union of their reach sets, is the least escape
set, feasible whenever any is; _least_escape reads it off the closure and
takes the witness from the per-cluster solves, so no further solve is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import AbstractSet, Iterable, Sequence

from .formula import BOT, Bottom, Formula, TOP, Var, is_atomic
from .hypersequent import RelationalHypersequent, RelationalSequent
from .linfeas import LinConstraint, solve
from .semantics import Finite, INF, OmegaValue, Valuation, eval_formula, satisfies


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome for one leaf.  NotAxiom verdicts carry the countermodel data."""

    is_axiom: bool
    countermodel: Valuation | None
    clusters: tuple[frozenset[Formula], ...]


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
    on a ``<<`` sequent missing a side.
    """
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


def _atom_key(atom: Formula) -> tuple:
    if isinstance(atom, Bottom):
        return (0, -1)
    if isinstance(atom, Var):
        return (0, atom.index)
    if atom != TOP:
        raise AssertionError(f"floor graph vertex {atom!r} is not an atom")
    return (1, 0)


def contract_and_sort(
    vertices: AbstractSet[Formula], edges: AbstractSet[tuple[Formula, Formula]]
) -> tuple[tuple[frozenset[Formula], ...], tuple[frozenset[int], ...], bool]:
    """Group the floor graph's vertices and order the groups, all from one closure.

    The vertices are atoms, top among them; an edge (tail, head) asserts
    floor(tail) <= floor(head).  The clash flag is set when top's floor
    reaches falsum's, which refutes the negated leaf outright; the groups are
    then the strongly connected components (mutually reachable vertices, whose
    floors are squeezed equal).  Otherwise every vertex that reaches falsum
    joins falsum's group (floor pinned to 0), every vertex top reaches joins
    top's group (floor pinned to infinity), and each remaining vertex joins
    its component.  A group's reach set joins its members' closure rows; as
    no edge enters falsum's group and none leaves top's, it holds exactly the
    groups that a path from the group ends in.  The order takes, each time,
    the group with the least member (falsum first, variables by index, top
    last) that no other unplaced group reaches, so every edge points forward.
    Returns the ordered groups, their reach sets as positions in that order
    (each its own included) and the clash flag.
    """
    verts = sorted(vertices, key=_atom_key)
    position = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    # Bit j of reach[i] is set when floor(verts[i]) <= floor(verts[j]) is forced.
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
        # An axiom: no pins, and the verdict reports the plain components.
        low = high = 0
    # Each group as a bit set over verts, by least member, mapped to the
    # vertices outside it that its members reach.
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


def _add_frac(coeffs: dict[int, int], atom: Formula, sign: int) -> None:
    if isinstance(atom, Var):
        coeffs[atom.index] = coeffs.get(atom.index, 0) + sign
    elif not isinstance(atom, Bottom):
        raise AssertionError("top cannot reach the fractional rows")


def build_lp(fracs: Iterable[RelationalSequent]) -> list[LinConstraint]:
    """Fractional rows for negated sequents whose atoms share one finite cluster.

    Each row bounds the right fractions minus the left ones by
    len(right) - len(left) - z, which is 0 for the unit shape.  Falsum's
    fractional part is the constant 0 and contributes to the multiset sizes
    but not to the coefficients.
    """
    rows: list[LinConstraint] = []
    for s in fracs:
        coeffs: dict[int, int] = {}
        for atom in s.right:
            _add_frac(coeffs, atom, 1)
        for atom in s.left:
            _add_frac(coeffs, atom, -1)
        bound = len(s.right) - len(s.left) - s.kind.z
        rows.append(LinConstraint(coeffs, bound, strict=not s.kind.strict))
    return rows


def _least_escape(
    fracs: Sequence[RelationalSequent],
    clusters: tuple[frozenset[Formula], ...],
    reaches: tuple[frozenset[int], ...],
) -> tuple[frozenset[int], dict[int, Fraction]] | None:
    """The least feasible set of finite clusters sent to infinity, and a witness.

    Each finite cluster that owns rows is solved once; one whose rows are
    infeasible must escape, and its reach set with it, top's cluster aside.
    Falsum's cluster, and the finite clusters of each negated unit ``<=``,
    may not all escape; such a ``<=`` inside top's cluster makes the leaf an
    axiom outright (None, as when no escape set is feasible).  The witness
    joins those of the feasible clusters.
    """
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
        # solve orders its variables itself.
        outcome = solve(build_lp(own), [f.index for f in clusters[i] if isinstance(f, Var)])
        if outcome.feasible:
            witness.update(outcome.witness)
        else:
            forced.append(i)
    escape = frozenset().union(*(reaches[i] for i in forced)) - {top_at}
    if any(group <= escape for group in kept):
        return None
    return escape, witness


def build_countermodel(
    clusters: tuple[frozenset[Formula], ...],
    escape: AbstractSet[int],
    witness: dict[int, Fraction],
) -> tuple[tuple[frozenset[Formula], ...], Valuation]:
    """The clusters with the escaping ones joined to top's, and the valuation refuting the leaf.

    The other clusters keep their order.  A variable in top's cluster is
    infinite; any other takes its cluster's position as its floor and its
    witness value as its fraction, or 1/2, the midpoint of its interval, when
    the witness does not mention it.
    """
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


def check_axiom(h: RelationalHypersequent) -> AxiomVerdict:
    """Classify an irreducible hypersequent.

    The leaf is split once (negate_leaf).  Its atoms and top, with one edge
    per negated ``<<``, form the floor graph; one closure gives its groups,
    their order and reach sets (contract_and_sort).  A clash of the falsum
    and top pins is an axiom with the plain components as its clusters, and
    so is a leaf with no feasible escape set (_least_escape), with the pinned
    groups.  Otherwise build_countermodel joins the least escape set, read
    off the same closure and escaped by every countermodel over these floors,
    to top's cluster and values the atoms from _least_escape's witness.  The
    NotAxiom verdict carries those clusters and that countermodel, which is
    always re-checked against the leaf before being returned.
    """
    floor_edges, fracs = negate_leaf(h)
    clusters, reaches, clash = contract_and_sort(
        {TOP}.union(*(s.left + s.right for s in h)), floor_edges
    )
    least = None if clash else _least_escape(fracs, clusters, reaches)
    if least is None:
        return AxiomVerdict(True, None, clusters)
    clusters, model = build_countermodel(clusters, *least)
    if satisfies(model, h):
        raise AssertionError(
            "countermodel construction failed its runtime check; "
            "the leaf violates the supported structural invariants"
        )
    return AxiomVerdict(False, model, clusters)


def verify_branch_countermodel(
    v: Valuation, branch: Iterable[RelationalHypersequent], formula: Formula
) -> bool:
    """True when v falsifies every label of the branch and keeps the formula finite."""
    return all(not satisfies(v, g) for g in branch) and not eval_formula(
        v, formula
    ).is_infinite
