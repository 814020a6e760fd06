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
   components each get their own floor; a topological order of these groups
   realizes all remaining floor constraints with distinct integers.
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
clusters forced to escape is the least escape set, feasible whenever any is;
check_axiom computes it (_least_escape) from the per-cluster solves, which
also give the witness, so no further solve is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
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
) -> tuple[tuple[frozenset[Formula], ...], frozenset[tuple[int, int]], bool]:
    """Group the floor graph's vertices and order the groups topologically.

    The vertices are atoms, top among them; an edge (tail, head) asserts
    floor(tail) <= floor(head).  One reachability closure decides everything.
    The clash flag is set when top's floor reaches falsum's, which refutes the
    negated leaf outright; the groups are then the strongly connected
    components (mutually reachable vertices, whose floors are squeezed equal).
    Otherwise every vertex that reaches falsum joins falsum's group (floor
    pinned to 0), every vertex top reaches joins top's group (floor pinned to
    infinity), and each remaining vertex joins its component.  The groups are
    sorted so every edge points forward; ties are broken by the smallest
    member atom, falsum first, variables by index, top last.  Returns the
    ordered groups, the edge set over their positions and the clash flag.
    """
    verts = sorted(vertices, key=_atom_key)
    position = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    # Bit j of reach[i] is set when floor(verts[i]) <= floor(verts[j]) is forced.
    reach = [1 << i for i in range(n)]
    for tail, head in edges:
        reach[position[tail]] |= 1 << position[head]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    falsum = 1 << position[BOT] if BOT in position else 0
    top_reach = reach[position[TOP]]
    clash = bool(top_reach & falsum)
    if clash:
        # An axiom: no pins, and the verdict reports the plain components.
        falsum = top_reach = 0
    group_of: dict[int, int] = {}
    groups: list[frozenset[Formula]] = []
    for i in range(n):
        if i in group_of:
            continue
        if reach[i] & falsum:
            same = [j for j in range(n) if reach[j] & falsum]
        elif top_reach >> i & 1:
            same = [j for j in range(n) if top_reach >> j & 1]
        else:
            same = [j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1]
        for j in same:
            group_of[j] = len(groups)
        groups.append(frozenset(verts[j] for j in same))
    gedges = {
        (group_of[position[t]], group_of[position[h]])
        for t, h in edges
        if group_of[position[t]] != group_of[position[h]]
    }
    order = _topo_order(groups, gedges, lambda c: min(_atom_key(f) for f in c))
    rank = {old: new for new, old in enumerate(order)}
    clusters = tuple(groups[old] for old in order)
    return clusters, frozenset((rank[t], rank[h]) for t, h in gedges), clash


def _topo_order(clusters: Sequence[frozenset], edges: set[tuple[int, int]], key) -> list[int]:
    indegree = [0] * len(clusters)
    successors: list[list[int]] = [[] for _ in clusters]
    for t, h in edges:
        indegree[h] += 1
        successors[t].append(h)
    heap: list[tuple] = []
    for i, cluster in enumerate(clusters):
        if indegree[i] == 0:
            heappush(heap, (key(cluster), i))
    order: list[int] = []
    while heap:
        _, i = heappop(heap)
        order.append(i)
        for j in successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heappush(heap, (key(clusters[j]), j))
    if len(order) != len(clusters):
        raise AssertionError("cycle in a condensation, bug")
    return order


def _reach(starts: Iterable[int], edges: Iterable[tuple[int, int]]) -> set[int]:
    """The positions reachable from starts along edges (tail to head), starts included."""
    successors: dict[int, list[int]] = {}
    for tail, head in edges:
        successors.setdefault(tail, []).append(head)
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for nxt in successors.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


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
    edges: frozenset[tuple[int, int]],
) -> tuple[frozenset[int], dict[int, Fraction]] | None:
    """The least feasible set of finite clusters sent to infinity, and a witness.

    Each finite cluster that owns rows is solved once; one whose rows are
    infeasible must escape.  Falsum's cluster, and the finite clusters of each
    negated unit ``<=``, may not all escape; such a ``<=`` inside top's
    cluster makes the leaf an axiom outright (None, as when no escape set is
    feasible).  The witness joins those of the feasible clusters.
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
        var_ids = sorted(f.index for f in clusters[i] if isinstance(f, Var))
        outcome = solve(build_lp(own), var_ids)
        if outcome.feasible:
            witness.update(outcome.witness)
        else:
            forced.append(i)
    escape = _reach(forced, edges) - {top_at}
    if any(group <= escape for group in kept):
        return None
    return frozenset(escape), witness


def _merge_escape(
    clusters: tuple[frozenset[Formula], ...], escape: frozenset[int]
) -> tuple[frozenset[Formula], ...]:
    """Fold the escaping clusters into top's cluster, keeping the rest in order."""
    merged: list[frozenset[Formula]] = []
    for i, cluster in enumerate(clusters):
        if i in escape:
            continue
        if TOP in cluster:
            cluster = cluster.union(*(clusters[j] for j in sorted(escape)))
        merged.append(cluster)
    return tuple(merged)


def build_countermodel(
    clusters: tuple[frozenset[Formula], ...], witness: dict[int, Fraction]
) -> Valuation:
    """Valuation refuting the leaf: floor from cluster position, fraction from witness.

    A variable absent from the witness gets 1/2, the midpoint of its interval.
    """
    assignment: dict[int, OmegaValue] = {}
    for pos, cluster in enumerate(clusters):
        for atom in cluster:
            if isinstance(atom, Var):
                frac = witness.get(atom.index, Fraction(1, 2))
                assignment[atom.index] = INF if TOP in cluster else Finite(pos, frac)
    return Valuation(assignment)


def check_axiom(h: RelationalHypersequent) -> AxiomVerdict:
    """Classify an irreducible hypersequent.

    The leaf is split once (negate_leaf).  Its atoms and top, with one edge
    per negated ``<<``, form the floor graph, grouped and sorted once
    (contract_and_sort); a clash of the falsum and top pins is an axiom with
    the plain components as its clusters.  Otherwise returns an Axiom verdict
    when the negated leaf is unsatisfiable, else a NotAxiom verdict carrying a
    countermodel from the witnesses of _least_escape, always re-checked against
    the leaf before being returned.  Its infinite clusters form the least
    escape set, which every countermodel over these floors escapes too.
    """
    floor_edges, fracs = negate_leaf(h)
    clusters, edges, clash = contract_and_sort(
        {TOP}.union(*(s.left + s.right for s in h)), floor_edges
    )
    if clash:
        return AxiomVerdict(True, None, clusters)
    least = _least_escape(fracs, clusters, edges)
    if least is None:
        return AxiomVerdict(True, None, clusters)
    escape, witness = least
    trial = _merge_escape(clusters, escape) if escape else clusters
    model = build_countermodel(trial, witness)
    if satisfies(model, h):
        raise AssertionError(
            "countermodel construction failed its runtime check; "
            "the leaf violates the supported structural invariants"
        )
    return AxiomVerdict(False, model, trial)


def verify_branch_countermodel(
    v: Valuation, branch: Iterable[RelationalHypersequent], formula: Formula
) -> bool:
    """True when v falsifies every label of the branch and keeps the formula finite."""
    return all(not satisfies(v, g) for g in branch) and not eval_formula(
        v, formula
    ).is_infinite
