"""Deciding irreducible hypersequents: axiom or explicit countermodel.

An irreducible label is valid exactly when the conjunction of the negations
of its sequents admits no valuation.  The decision has three stages:

1. Integer parts.  Each negated ``<<`` sequent asserts one floor inequality;
   these become edges of a graph over the atoms.  Strongly connected
   components force equal floors, and a topological order of the condensation
   realizes all remaining floor constraints with distinct integers.  Clusters
   that reach falsum's cluster are pinned to floor 0 and clusters reachable
   from top's cluster are pinned to infinity; a clash between the two pins
   already refutes the negation.
2. Fractional parts.  Negated fractional sequents whose atoms share a
   (finite) cluster contribute linear rows over the fractional variables;
   sequents whose atoms are spread over distinct clusters are vacuously
   negated by the distinct floors and contribute nothing.
3. Feasibility.  The rows go to the exact Fourier-Motzkin solver.  A feasible
   system yields a countermodel (floor = cluster position, fraction = solver
   witness), which is re-checked against the leaf unconditionally; an
   infeasible system rules the current floor assignment out.

Floors alone do not determine the whole search space: a countermodel may
also park an upward-closed set of clusters at infinity alongside top.  Every
constraint on that escape set is a Horn clause, so the upward closure of the
clusters forced to escape is the least escape set, feasible whenever any is;
check_axiom computes it (_least_escape) and makes one more solve for the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Sequence, Union

from .formula import BOT, Bottom, Formula, TOP, Var, is_atomic
from .hypersequent import RelationalHypersequent, variables
from .linfeas import LinConstraint, solve
from .semantics import Finite, INF, OmegaValue, Valuation, eval_formula, satisfies


@dataclass(frozen=True)
class NegLl:
    """Negation of ``left << right``: asserts floor(right) <= floor(left)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class NegPrecEq:
    """Negation of a one-each-side ``left <= right``: floors differ or value(right) < value(left)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class NegPrec:
    """Negation of a one-each-side ``left < right``: floors differ or value(right) <= value(left)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class NegMultiPrecEq:
    """Negation of a general ``<=_z`` sequent, constraining fractional sums."""

    lefts: tuple[Formula, ...]
    rights: tuple[Formula, ...]
    z: int


@dataclass(frozen=True)
class NegMultiPrec:
    """Negation of a general ``<_z`` sequent, constraining fractional sums."""

    lefts: tuple[Formula, ...]
    rights: tuple[Formula, ...]
    z: int


NegatedSequent = Union[NegLl, NegPrecEq, NegPrec, NegMultiPrecEq, NegMultiPrec]


@dataclass(frozen=True)
class ClusterGraph:
    """Floor-comparison graph: edge (tail, head) asserts floor(tail) <= floor(head)."""

    vertices: frozenset[Formula]
    edges: frozenset[tuple[Formula, Formula]]


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome for one leaf.  NotAxiom verdicts carry the countermodel data."""

    is_axiom: bool
    countermodel: Valuation | None
    clusters: tuple[frozenset[Formula], ...]
    witness: dict[int, Fraction] | None


def negate_leaf(h: RelationalHypersequent) -> list[NegatedSequent]:
    """Negate each sequent of an irreducible hypersequent.

    General fractional sequents containing bare top are dead: they require
    all values finite, so they are never satisfied and their negations hold
    vacuously.  These are dropped rather than constrained.  Raises ValueError
    on non-atomic formulas or a ``<<`` sequent missing a side.
    """
    out: list[NegatedSequent] = []
    for s in h:
        for f in s.formulas():
            if not is_atomic(f):
                raise ValueError(f"leaf expected, found compound formula {f!r}")
        if s.kind.is_ll:
            if len(s.left) != 1 or len(s.right) != 1:
                raise ValueError("a << sequent in a leaf must have one formula per side")
            out.append(NegLl(s.left[0], s.right[0]))
        elif s.kind.z == 0 and len(s.left) == 1 and len(s.right) == 1:
            cls = NegPrec if s.kind.strict else NegPrecEq
            out.append(cls(s.left[0], s.right[0]))
        else:
            if TOP in s.left or TOP in s.right:
                continue
            mcls = NegMultiPrec if s.kind.strict else NegMultiPrecEq
            out.append(mcls(s.left, s.right, s.kind.z))
    return out


def _atom_key(atom: Formula) -> tuple:
    if isinstance(atom, Bottom):
        return (0, -1)
    if isinstance(atom, Var):
        return (0, atom.index)
    assert atom == TOP
    return (1, 0)


def leaf_atoms(h: RelationalHypersequent) -> frozenset[Formula]:
    atoms = set()
    for s in h:
        for f in s.formulas():
            if not is_atomic(f):
                raise ValueError(f"leaf expected, found compound formula {f!r}")
            atoms.add(f)
    return frozenset(atoms)


def build_graph(negs: Iterable[NegatedSequent], atoms: Iterable[Formula]) -> ClusterGraph:
    """Vertices are the leaf atoms plus top; edges come from negated ``<<``."""
    vertices = set(atoms) | {TOP}
    edges = set()
    for neg in negs:
        if isinstance(neg, NegLl):
            edges.add((neg.right, neg.left))
            vertices.add(neg.left)
            vertices.add(neg.right)
    return ClusterGraph(frozenset(vertices), frozenset(edges))


def contract_and_sort(
    graph: ClusterGraph,
) -> tuple[tuple[frozenset[Formula], ...], frozenset[tuple[int, int]]]:
    """Condense the floor graph and order the clusters topologically.

    Mutually reachable vertices share a cluster (their floors are squeezed
    equal).  The condensation is sorted so every edge points forward; ties
    are broken by the smallest member atom, falsum first, variables by index,
    top last.  Returns the ordered clusters and the edge set over positions.
    """
    verts = sorted(graph.vertices, key=_atom_key)
    position = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for tail, head in graph.edges:
        reach[position[tail]][position[head]] = True
    for k in range(n):
        row_k = reach[k]
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    cluster_of: dict[int, int] = {}
    raw: list[frozenset[Formula]] = []
    for i in range(n):
        if i in cluster_of:
            continue
        members = [j for j in range(n) if reach[i][j] and reach[j][i]]
        for j in members:
            cluster_of[j] = len(raw)
        raw.append(frozenset(verts[j] for j in members))
    cedges = {
        (cluster_of[position[t]], cluster_of[position[h]])
        for t, h in graph.edges
        if cluster_of[position[t]] != cluster_of[position[h]]
    }
    order = _topo_order(raw, cedges, lambda c: min(_atom_key(f) for f in c))
    rank = {old: new for new, old in enumerate(order)}
    clusters = tuple(raw[old] for old in order)
    edges = frozenset((rank[t], rank[h]) for t, h in cedges)
    return clusters, edges


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
    assert len(order) == len(clusters), "cycle in a condensation, bug"
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


def _merge_constant_closures(
    clusters: tuple[frozenset[Formula], ...], edges: frozenset[tuple[int, int]]
) -> tuple[tuple[frozenset[Formula], ...], frozenset[tuple[int, int]], bool]:
    """Pin falsum-connected clusters to floor 0 and top-connected ones to infinity.

    Everything that reaches falsum's cluster is merged into it (floor forced
    to 0) and everything reachable from top's cluster is merged into that
    (floor forced infinite).  Returns the reordered clusters and edges plus a
    flag set when the two merged groups collide, which refutes the negated
    leaf outright.
    """
    bot_at = next((i for i, c in enumerate(clusters) if BOT in c), None)
    top_at = next(i for i, c in enumerate(clusters) if TOP in c)
    low = _reach([bot_at], {(h, t) for t, h in edges}) if bot_at is not None else set()
    high = _reach([top_at], edges)
    if low & high:
        return clusters, edges, True
    group_of = dict.fromkeys(low, 0)
    groups: list[frozenset[Formula]] = []
    if low:
        groups.append(frozenset().union(*(clusters[i] for i in sorted(low))))
    for i in range(len(clusters)):
        if i in group_of or i in high:
            continue
        group_of[i] = len(groups)
        groups.append(clusters[i])
    group_of.update(dict.fromkeys(high, len(groups)))
    groups.append(frozenset().union(*(clusters[i] for i in sorted(high))))
    gedges = {
        (group_of[t], group_of[h]) for t, h in edges if group_of[t] != group_of[h]
    }

    def group_key(c: frozenset) -> tuple:
        return (0,) if BOT in c else (1,) + min(_atom_key(f) for f in c)

    order = _topo_order(groups, gedges, group_key)
    rank = {old: new for new, old in enumerate(order)}
    merged = tuple(groups[old] for old in order)
    return merged, frozenset((rank[t], rank[h]) for t, h in gedges), False


def _add_frac(coeffs: dict[int, int], atom: Formula, sign: int) -> None:
    if isinstance(atom, Var):
        coeffs[atom.index] = coeffs.get(atom.index, 0) + sign
    else:
        assert isinstance(atom, Bottom), "top cannot reach the fractional rows"


def build_lp(
    negs: Iterable[NegatedSequent],
    clusters: tuple[frozenset[Formula], ...],
) -> list[LinConstraint]:
    """Fractional rows for the negated sequents under a fixed clustering.

    One-each-side forms constrain only when both atoms share a cluster; a
    shared infinite cluster refutes a negated ``<=`` outright (encoded as the
    constant row 0 < 0) and trivializes a negated ``<``.  General forms
    constrain exactly when all their atoms share one finite cluster; the
    floor assignment neutralizes them otherwise.  Falsum's fractional part is
    the constant 0 and contributes to the multiset sizes but not to the
    coefficients.
    """
    cluster_of = {atom: i for i, cluster in enumerate(clusters) for atom in cluster}
    rows: list[LinConstraint] = []
    for neg in negs:
        if isinstance(neg, NegLl):
            continue
        if isinstance(neg, (NegPrec, NegPrecEq)):
            i = cluster_of[neg.left]
            j = cluster_of[neg.right]
            if i != j:
                continue
            if TOP in clusters[i]:
                if isinstance(neg, NegPrecEq):
                    rows.append(LinConstraint({}, 0, strict=True))
                continue
            coeffs: dict[int, int] = {}
            _add_frac(coeffs, neg.right, 1)
            _add_frac(coeffs, neg.left, -1)
            rows.append(LinConstraint(coeffs, 0, strict=isinstance(neg, NegPrecEq)))
            continue
        spots = {cluster_of[a] for a in neg.lefts + neg.rights}
        if len(spots) != 1 or TOP in clusters[spots.pop()]:
            continue
        coeffs = {}
        for atom in neg.rights:
            _add_frac(coeffs, atom, 1)
        for atom in neg.lefts:
            _add_frac(coeffs, atom, -1)
        rows.append(
            LinConstraint(
                coeffs,
                len(neg.rights) - len(neg.lefts) - neg.z,
                strict=isinstance(neg, NegMultiPrecEq),
            )
        )
    return rows


def _least_escape(
    negs: Sequence[NegatedSequent],
    clusters: tuple[frozenset[Formula], ...],
    edges: frozenset[tuple[int, int]],
) -> frozenset[int] | None:
    """The least feasible set of finite clusters sent to infinity; None when none is.

    A cluster whose own rows are infeasible must escape.  Falsum's cluster, and
    the finite clusters of each negated unit ``<=``, may not all escape; such a
    ``<=`` inside top's cluster makes the leaf an axiom outright.
    """
    cluster_of = {atom: i for i, cluster in enumerate(clusters) for atom in cluster}
    top_at = cluster_of[TOP]
    kept = [{cluster_of[BOT]}] if BOT in cluster_of else []
    owned: dict[int, list[NegatedSequent]] = {}
    for neg in negs:
        if isinstance(neg, NegLl):
            continue
        unit = isinstance(neg, (NegPrec, NegPrecEq))
        spots = {cluster_of[a] for a in ((neg.left, neg.right) if unit else neg.lefts + neg.rights)}
        if isinstance(neg, NegPrecEq):
            if spots == {top_at}:
                return None
            kept.append(spots - {top_at})
        if len(spots) == 1 and top_at not in spots:
            owned.setdefault(next(iter(spots)), []).append(neg)
    forced = []
    for i, rows in owned.items():
        var_ids = sorted(f.index for f in clusters[i] if isinstance(f, Var))
        if not solve(build_lp(rows, clusters), var_ids).feasible:
            forced.append(i)
    escape = _reach(forced, edges) - {top_at}
    if any(group <= escape for group in kept):
        return None
    return frozenset(escape)


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
    h: RelationalHypersequent,
    clusters: tuple[frozenset[Formula], ...],
    witness: dict[int, Fraction],
) -> Valuation:
    """Valuation refuting the leaf: floor from cluster position, fraction from witness."""
    placement: dict[int, int] = {}
    for pos, cluster in enumerate(clusters):
        for atom in cluster:
            if isinstance(atom, Var):
                placement[atom.index] = pos
    assignment: dict[int, OmegaValue] = {}
    for index in sorted(variables(h)):
        pos = placement[index]
        if TOP in clusters[pos]:
            assignment[index] = INF
        else:
            assignment[index] = Finite(pos, Fraction(witness.get(index, 0)))
    return Valuation(assignment)


def check_axiom(h: RelationalHypersequent) -> AxiomVerdict:
    """Classify an irreducible hypersequent.

    Returns an Axiom verdict when the negated leaf is unsatisfiable, else a
    NotAxiom verdict carrying a countermodel, which is always re-checked
    against the leaf before being returned.  Its infinite clusters form the
    least escape set, which every countermodel over these floors escapes too.
    """
    negs = negate_leaf(h)
    clusters0, edges0 = contract_and_sort(build_graph(negs, leaf_atoms(h)))
    clusters, edges, clash = _merge_constant_closures(clusters0, edges0)
    if clash:
        return AxiomVerdict(True, None, clusters0, None)
    escape = _least_escape(negs, clusters, edges)
    if escape is None:
        return AxiomVerdict(True, None, clusters, None)
    trial = _merge_escape(clusters, escape) if escape else clusters
    var_ids = sorted({f.index for c in clusters for f in c if isinstance(f, Var)})
    outcome = solve(build_lp(negs, trial), var_ids)
    if not outcome.feasible:
        raise AssertionError("the least escape set failed its final solve, bug")
    model = build_countermodel(h, trial, outcome.witness)
    if satisfies(model, h):
        raise AssertionError(
            "countermodel construction failed its runtime check; "
            "the leaf violates the supported structural invariants"
        )
    return AxiomVerdict(False, model, trial, dict(outcome.witness))


def verify_branch_countermodel(
    v: Valuation, branch: Iterable[RelationalHypersequent], formula: Formula
) -> bool:
    """True when v falsifies every label of the branch and keeps the formula finite."""
    return all(not satisfies(v, g) for g in branch) and not eval_formula(
        v, formula
    ).is_infinite
