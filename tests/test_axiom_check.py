"""Leaf classification: negation, floor graph, clustering and feasibility."""

import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import blprover
import blprover.prover as prover
from blprover import (
    BOT,
    INF,
    LL,
    TOP,
    Conj,
    Impl,
    Var,
    check_axiom,
    check_tautology,
    hseq,
    parse,
    prec,
    preceq,
    render,
    satisfies,
    seq,
    verify_branch_countermodel,
)
from blprover import axiom_check
from blprover.axiom_check import LeafCache, build_lp, contract_and_sort
from blprover.linfeas import solve
from blprover.semantics import Finite, Valuation
from support import (
    _reference_negate_leaf,
    branch_estimate,
    oracle_leaf_satisfiable,
    random_formula,
    reference_atom_key,
    reference_check_axiom,
    rwbl_leaves,
)

P1, P2, P3 = Var(1), Var(2), Var(3)


def _agree(leaf, verdict):
    """Cross-check one verdict against exhaustive enumeration."""
    countermodel = oracle_leaf_satisfiable(leaf)
    assert (countermodel is None) == verdict.is_axiom


def _graph(vertices, edges):
    """A cache numbering the vertices, and their bit set and edges over its numbers."""
    cache = LeafCache(vertices)
    bit = {atom: 1 << j for atom, j in cache.number.items()}
    return cache, sum(bit[v] for v in vertices), [(bit[t], bit[h]) for t, h in edges]


def _grouped(vertices, edges):
    """contract_and_sort's groups and reach sets as frozensets, or None on a clash."""
    cache, mask, edges = _graph(vertices, edges)
    grouped = contract_and_sort(mask, edges)
    if grouped is None:
        return None
    groups, reaches = grouped

    def members(bits, items):
        return frozenset(x for j, x in enumerate(items) if bits >> j & 1)

    return (
        tuple(members(g, cache.atoms) for g in groups),
        tuple(members(r, range(len(groups))) for r in reaches),
    )


def _negated(leaf):
    """The leaf's floor edges, as atom pairs, and the sequents its records keep rows for."""
    cache = LeafCache(f for s in leaf for f in s.formulas())
    records = [cache.compile(s, leaf) for s in leaf]
    atom = {1 << j: a for j, a in enumerate(cache.atoms)}
    edges = {(atom[tail], atom[head]) for tail, head in cache.edges}
    return edges, [row[1] for _, row in records if row is not None]


class TestNegation:
    def test_shapes(self):
        leaf = hseq(
            seq((P1,), LL, (P2,)),
            seq((P1,), preceq(), (P2,)),
            seq((P2,), prec(), (P1,)),
            seq((P1, P2), preceq(1), ()),
            seq((), prec(-1), (P1, P2)),
        )
        edges, fracs = _negated(leaf)
        # not (p1 << p2) asserts floor(p2) <= floor(p1): the edge runs p2 -> p1
        assert edges == {(P2, P1)}
        assert len(fracs) == 4
        assert set(fracs) == {
            seq((P1,), preceq(), (P2,)),
            seq((P2,), prec(), (P1,)),
            seq((P1, P2), preceq(1), ()),
            seq((), prec(-1), (P1, P2)),
        }

    def test_top_multis_are_dropped(self):
        # p1 <= top holds once p1 is infinite; p1 < top and top,p1 <= p2 never hold
        leaf = hseq(
            seq((TOP, P1), preceq(), (P2,)),
            seq((P1,), prec(), (TOP,)),
            seq((P1,), preceq(), (TOP,)),
            seq((P1,), preceq(), (P2,)),
        )
        edges, fracs = _negated(leaf)
        assert edges == set()
        assert len(fracs) == 2
        assert set(fracs) == {seq((P1,), preceq(), (TOP,)), seq((P1,), preceq(), (P2,))}

    def test_rejects_compound_formulas(self):
        with pytest.raises(ValueError):
            check_axiom(hseq(seq((TOP,), preceq(), (Conj(P1, P2),))))

    def test_compound_error_names_the_least_offending_sequent(self):
        # Two compound sequents: the << one has the least sort key.
        leaf = hseq(
            seq((TOP,), preceq(), (Conj(P1, P2),)),
            seq((P1,), LL, (Conj(P2, P3),)),
            seq((P1,), preceq(), (P2,)),
        )
        with pytest.raises(ValueError) as raised:
            check_axiom(leaf)
        assert str(raised.value) == (
            "leaf expected, found compound formula "
            "Conj(left=Var(index=2), right=Var(index=3))"
        )

    def test_rejects_one_sided_ll(self):
        with pytest.raises(ValueError):
            check_axiom(hseq(seq((), LL, (P1,))))


class TestFloorGraph:
    def test_edge_direction_reverses_the_relation(self):
        # not (p1 << top) forces floor(top) <= floor(p1): p1 joins top's cluster
        leaf = hseq(seq((P1,), LL, (TOP,)))
        assert reference_check_axiom(leaf)[1] == (frozenset({P1, TOP}),)
        assert check_axiom(leaf).countermodel.value_of(1) == INF
        # not (top << p1) forces floor(p1) <= floor(top): p1 stays finite below top
        leaf = hseq(seq((TOP,), LL, (P1,)))
        assert reference_check_axiom(leaf)[1] == (frozenset({P1}), frozenset({TOP}))
        assert not check_axiom(leaf).countermodel.value_of(1).is_infinite

    def test_mutual_edges_cluster(self):
        clusters, reaches = _grouped(
            frozenset({P1, P2, TOP}), frozenset({(P1, P2), (P2, P1)})
        )
        assert clusters == (frozenset({P1, P2}), frozenset({TOP}))
        assert reaches == (frozenset({0}), frozenset({1}))

    def test_topological_order_respects_edges(self):
        clusters, reaches = _grouped(
            frozenset({BOT, P1, P2, TOP}), frozenset({(BOT, P1), (P2, P1)})
        )
        assert clusters == (frozenset({BOT}), frozenset({P2}), frozenset({P1}), frozenset({TOP}))
        assert reaches == (frozenset({0, 2}), frozenset({1, 2}), frozenset({2}), frozenset({3}))

    def test_top_cluster_need_not_come_last(self):
        # p1 joins top's cluster, whose least member then sorts it before p2.
        clusters, reaches = _grouped(
            frozenset({P1, P2, TOP}), frozenset({(TOP, P1)})
        )
        assert clusters == (frozenset({P1, TOP}), frozenset({P2}))
        assert reaches == (frozenset({0}), frozenset({1}))
        # p2's floor counts top's cluster before it, though p1 is infinite.
        verdict = check_axiom(hseq(seq((P1,), LL, (TOP,)), seq((P2,), prec(), (P2,))))
        assert verdict.countermodel == Valuation({1: INF, 2: Finite(1, Fraction(1, 2))})


@st.composite
def _floor_graphs(draw):
    """Up to 6 variables, falsum optional, top always; any edges, self-loops too."""
    vertices = [Var(i) for i in range(1, draw(st.integers(0, 6)) + 1)] + [TOP]
    if draw(st.booleans()):
        vertices.append(BOT)
    edges = draw(st.sets(st.sampled_from([(t, h) for t in vertices for h in vertices])))
    return frozenset(vertices), frozenset(edges)


def _reachable(graph_edges, start):
    seen, frontier = {start}, [start]
    while frontier:
        tail = frontier.pop()
        for t, h in graph_edges:
            if t == tail and h not in seen:
                seen.add(h)
                frontier.append(h)
    return frozenset(seen)


def _least_key_order(clusters, reaches):
    """Kahn's algorithm over the cluster graph, always taking the least atom key."""
    key = {c: min(map(reference_atom_key, c)) for c in clusters}
    predecessors = {c: {d for d in clusters if d != c and c in reaches[d]} for c in clusters}
    order = []
    while len(order) < len(clusters):
        ready = [c for c in clusters if c not in order and predecessors[c] <= set(order)]
        order.append(min(ready, key=key.get))
    return order


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_floor_graphs())
def test_contract_and_sort_agrees_with_a_plain_closure(graph):
    vertices, graph_edges = graph
    grouped = _grouped(vertices, graph_edges)
    reach = {v: _reachable(graph_edges, v) for v in vertices}
    assert (grouped is None) == (BOT in reach[TOP])
    if grouped is None:
        return
    clusters, reaches = grouped
    position = {v: i for i, cluster in enumerate(clusters) for v in cluster}
    assert sum(map(len, clusters)) == len(position) and position.keys() == vertices
    low = frozenset(v for v in vertices if BOT in reach[v])
    high = reach[TOP]
    for v in vertices:
        component = frozenset(u for u in reach[v] if v in reach[u])
        expected = low if v in low else high if v in high else component
        assert clusters[position[v]] == expected
    assert all(position[t] <= position[h] for t, h in graph_edges)
    by_cluster = {c: frozenset(clusters[position[u]] for v in c for u in reach[v]) for c in clusters}
    assert len(reaches) == len(clusters)
    for cluster, reached in zip(clusters, reaches):
        assert frozenset(clusters[i] for i in reached) == by_cluster[cluster]
    assert _least_key_order(clusters, by_cluster) == list(clusters)


class TestVerdicts:
    def test_reflexive_nonstrict_is_an_axiom(self):
        leaf = hseq(seq((P1,), preceq(), (P1,)))
        verdict = check_axiom(leaf)
        assert verdict.is_axiom
        assert verdict.countermodel is None
        _agree(leaf, verdict)

    def test_reflexive_strict_is_refutable(self):
        leaf = hseq(seq((P1,), prec(), (P1,)))
        verdict = check_axiom(leaf)
        assert not verdict.is_axiom
        assert not satisfies(verdict.countermodel, leaf)
        _agree(leaf, verdict)

    def test_floor_comparison_is_refutable(self):
        leaf = hseq(seq((P1,), LL, (P2,)))
        verdict = check_axiom(leaf)
        assert not verdict.is_axiom
        model = verdict.countermodel
        assert not model.value_of(1).is_infinite
        assert not satisfies(model, leaf)
        assert [i for i, _ in model.items()] == [1, 2]
        _agree(leaf, verdict)

    def test_saturated_two_variable_leaf(self):
        """A fully saturated irreducible label over two variables.

        Its negation squeezes both variables into one finite cluster and the
        fractional system collapses to an impossible strict comparison, so the
        leaf is valid, with the two variables co-clustered below top.
        """
        leaf = hseq(
            seq((P1,), LL, (P2,)),
            seq((P2,), LL, (P1,)),
            seq((P1,), LL, (P1,)),
            seq((P1,), preceq(), (TOP,)),
            seq((TOP,), preceq(), (P1,)),
            seq((TOP,), LL, (P1,)),
            seq((P2,), preceq(), (TOP,)),
            seq((TOP,), preceq(), (P2,)),
            seq((TOP,), LL, (P2,)),
            seq((), preceq(1), (P1, P2)),
            seq((P1, P1, P2), prec(-1), (P1, P2)),
            seq((P1, P1, P2), preceq(-1), (P1, P2)),
            seq((P1, P2), prec(1), (P1, P1, P2)),
            seq((P1, P2), preceq(1), (P1, P1, P2)),
        )
        verdict = check_axiom(leaf)
        assert verdict.is_axiom
        clusters, _ = _grouped(frozenset({P1, P2, TOP}), _reference_negate_leaf(leaf)[0])
        assert clusters == (frozenset({P1, P2}), frozenset({TOP}))
        _agree(leaf, verdict)

    def test_suffixing_tree_leaf_without_top_edges(self):
        """A leaf from the transitivity axiom whose validity rests on the
        infinite escape analysis: no sequent mentions top, yet every way of
        sending variables to infinity leaves an infeasible fractional core."""
        leaf = hseq(
            seq((P1,), LL, (P1,)),
            seq((P1,), LL, (P2,)),
            seq((P1,), LL, (P3,)),
            seq((P2,), LL, (P1,)),
            seq((P2,), LL, (P3,)),
            seq((P3,), LL, (P1,)),
            seq((P3,), LL, (P2,)),
            seq((P1,), preceq(), (P2,)),
            seq((P1,), preceq(), (P3,)),
            seq((P1, TOP), preceq(), (P3,)),
            seq((P1, P2), preceq(), (P1, P3)),
            seq((P1, P3), preceq(), (P1, P2)),
            seq((P1, P3), preceq(), (P2, P3)),
            seq((P2,), preceq(), (P3,)),
            seq((P2, P3), preceq(), (P1, P3)),
        )
        verdict = check_axiom(leaf)
        assert verdict.is_axiom
        _agree(leaf, verdict)

    def test_leaf_refutable_only_at_infinity(self):
        # every finite valuation satisfies the two-copy comparison, so the
        # countermodel must push the variable into the infinite cluster
        leaf = hseq(seq((P1,), LL, (P1,)), seq((P1, P1), preceq(1), ()))
        verdict = check_axiom(leaf)
        assert not verdict.is_axiom
        assert verdict.countermodel.value_of(1) == INF
        assert not satisfies(verdict.countermodel, leaf)
        _agree(leaf, verdict)

    def test_forced_falsum_cluster_is_an_axiom(self):
        """Falsum's cluster is the one group whose members' closure rows differ:
        p1 joins it and also reaches p2.  Its row is infeasible, so the cluster
        is forced to escape, which falsum's cluster may not, whatever it reaches."""
        leaf = hseq(seq((BOT,), LL, (P1,)), seq((P2,), LL, (P1,)), seq((P1, P1), preceq(1), ()))
        assert leaf.render() == "0 << p1 | p2 << p1 | p1,p1 <=_1"
        clusters, reaches = _grouped(frozenset({BOT, P1, P2, TOP}), _reference_negate_leaf(leaf)[0])
        assert clusters == (frozenset({BOT, P1}), frozenset({P2}), frozenset({TOP}))
        assert reaches[0] == frozenset({0, 1})
        verdict = check_axiom(leaf)
        assert verdict.is_axiom and reference_check_axiom(leaf)[1] == clusters
        _agree(leaf, verdict)

    @pytest.mark.parametrize(
        "sequents, is_axiom",
        [
            ((seq((), preceq(), ()),), True),
            ((seq((), prec(1), ()),), True),
            ((seq((), preceq(-1), ()),), False),
            ((seq((), preceq(), ()), seq((P1,), LL, (P2,))), True),
            ((seq((), preceq(-1), ()), seq((P1,), LL, (P2,))), False),
        ],
        ids=["empty_leq", "empty_lt_1", "empty_leq_minus_1", "mixed_leq", "mixed_leq_minus_1"],
    )
    def test_formula_free_sequents(self, sequents, is_axiom):
        # A sequent with no formulas holds iff 0 <= z (0 < z when strict).
        # It lies in no cluster: its row is void exactly when it always
        # holds, which makes the leaf an axiom; otherwise it is dropped.
        leaf = hseq(*sequents)
        verdict = check_axiom(leaf)
        assert verdict.is_axiom == is_axiom
        if not is_axiom:
            assert not satisfies(verdict.countermodel, leaf)
            if len(sequents) == 1:
                assert verdict.countermodel == Valuation({})
        _agree(leaf, verdict)

    def test_constant_only_leaves(self):
        never = hseq(seq((TOP,), LL, (BOT,)))
        verdict = check_axiom(never)
        assert not verdict.is_axiom
        assert verdict.countermodel == Valuation({})
        _agree(never, verdict)

        always = hseq(seq((BOT,), LL, (TOP,)))
        verdict = check_axiom(always)
        assert verdict.is_axiom
        _agree(always, verdict)


class TestEscapeClosure:
    def test_wide_leaf_needs_few_solves(self, monkeypatch):
        # 40 finite clusters: enumerating escape sets would try all 2^40 of
        # them, the closure solves each cluster that owns rows once.  The
        # rows of p1 and p2's cluster are infeasible only together, so no
        # void row settles it without a solve.
        leaf = hseq(
            seq((P1,), LL, (P2,)),
            seq((P2,), LL, (P1,)),
            seq((P1,), preceq(), (P2,)),
            seq((P2,), preceq(), (P1,)),
            *(seq((Var(i),), LL, (Var(i),)) for i in range(3, 42)),
        )
        calls = []
        solve = axiom_check.solve
        monkeypatch.setattr(
            axiom_check, "solve", lambda rows, var_ids: calls.append(1) or solve(rows, var_ids)
        )
        verdict = check_axiom(leaf)
        assert verdict.is_axiom
        edges = _reference_negate_leaf(leaf)[0]
        clusters, _ = _grouped(frozenset({TOP, *map(Var, range(1, 42))}), edges)
        assert len(clusters) == 41
        assert 1 <= len(calls) <= len(clusters)

    def test_refuted_leaf_solves_each_owning_cluster_once(self, monkeypatch):
        # p1 and p2 each own rows.  p1's row from p1,p1 <=_1 is void, so p1
        # escapes with no solve; p2's one solve decides the leaf and gives
        # its countermodel
        leaf = hseq(
            seq((P1,), LL, (P1,)),
            seq((P1, P1), preceq(1), ()),
            seq((P2,), prec(), (P2,)),
        )
        calls = []
        solve = axiom_check.solve
        monkeypatch.setattr(
            axiom_check, "solve", lambda rows, ids: calls.append(ids) or solve(rows, ids)
        )
        assert not check_axiom(leaf).is_axiom
        assert calls == [[2]]

    def test_cluster_inside_the_escape_set_is_not_solved(self, monkeypatch):
        # p1,p1 <=_1 is void, so p1 escapes with no solve and takes p2 up its
        # floor edge; p2's own row is then never solved.
        leaf = hseq(seq((P2,), LL, (P1,)), seq((P1, P1), preceq(1), ()), seq((P2,), prec(), (P2,)))
        calls = []
        solve = axiom_check.solve
        monkeypatch.setattr(
            axiom_check, "solve", lambda rows, ids: calls.append(ids) or solve(rows, ids)
        )
        verdict = check_axiom(leaf)
        assert not verdict.is_axiom and calls == []
        assert reference_check_axiom(leaf)[1] == (frozenset({P1, P2, TOP}),)
        _agree(leaf, verdict)
        # The same skip after a solve: p1 and p3 share a cluster whose two
        # rows are infeasible only together, and it reaches p2.  Clusters are
        # solved in cluster order, where a cluster precedes every cluster it
        # reaches, so whatever the order of the rows it is solved first and
        # sends p2 to infinity unsolved.
        together = [seq((P1, P1), preceq(), (P3, P3)), seq((P3, P3), preceq(), (P1, P1))]
        own = seq((P2,), prec(), (P2,))
        edges = [seq((P1,), LL, (P3,)), seq((P3,), LL, (P1,)), seq((P2,), LL, (P1,))]
        leaf = hseq(*edges, *together, own)
        cache, mask, edges = _graph({P1, P2, P3, TOP}, _reference_negate_leaf(leaf)[0])
        groups, reaches = contract_and_sort(mask, edges)
        # Bits over falsum, p1, p2, p3 and top: {p1, p3}, {p2}, {top}.
        assert cache.atoms == [BOT, P1, P2, P3, TOP] and groups == (0b01010, 0b00100, 0b10000)
        for fracs in (together + [own], [own] + together):
            calls.clear()
            cache.solves.clear()
            fracs = [cache.compile(s, leaf)[1] for s in fracs]
            assert axiom_check._least_escape(fracs, groups, reaches, cache)[0] == 0b011
            assert calls == [[1, 3]]
        assert not check_axiom(leaf).is_axiom

    def test_no_solve_after_a_kept_group_is_covered(self, monkeypatch):
        # Falsum's cluster {0, p1, p3} has rows infeasible only together, so
        # it must escape, which it may not: the solve that finds this is the
        # last, whatever the order of p2's and p4's clusters.
        together = [seq((P1, P1), preceq(), (P3, P3)), seq((P3, P3), preceq(), (P1, P1))]
        own = [seq((P2,), prec(), (P2,)), seq((Var(4),), prec(), (Var(4),))]
        leaf = hseq(seq((BOT,), LL, (P1,)), seq((BOT,), LL, (P3,)), *together, *own)
        calls = []
        solve = axiom_check.solve
        monkeypatch.setattr(
            axiom_check, "solve", lambda rows, ids: calls.append(ids) or solve(rows, ids)
        )
        verdict = check_axiom(leaf)
        assert verdict.is_axiom
        assert calls[-1] == [1, 3] and len(calls) <= 3
        _agree(leaf, verdict)
        # Falsum's cluster first: no other cluster is solved.
        cache, mask, edges = _graph({BOT, P1, P2, P3, Var(4), TOP}, _reference_negate_leaf(leaf)[0])
        groups, reaches = contract_and_sort(mask, edges)
        fracs = [cache.compile(s, leaf)[1] for s in together + own]
        calls.clear()
        assert axiom_check._least_escape(fracs, groups, reaches, cache) is None
        assert calls == [[1, 3]]

    def test_partial_escape(self):
        # p1's own rows need a fraction above 1, so p1 alone goes to infinity
        leaf = hseq(
            seq((P1,), LL, (P1,)),
            seq((P1, P1), preceq(1), ()),
            seq((P2,), prec(), (P2,)),
        )
        verdict = check_axiom(leaf)
        assert not verdict.is_axiom
        assert verdict.countermodel.value_of(1) == INF
        assert not verdict.countermodel.value_of(2).is_infinite
        assert not satisfies(verdict.countermodel, leaf)
        # The escaping cluster joins top's, and the finite one keeps its place.
        assert reference_check_axiom(leaf)[1] == (frozenset({P2}), frozenset({P1, TOP}))
        _agree(leaf, verdict)

    @pytest.mark.parametrize(
        "extra, is_axiom",
        [
            ((), False),
            # p1 must escape and drags p2 up its floor edge: an axiom once p2
            # must stay finite or may not escape together with p1
            ((seq((P2,), preceq(), (TOP,)),), True),
            ((seq((P1,), preceq(), (P2,)),), True),
            ((seq((P2,), preceq(), (P3,)),), False),
        ],
    )
    def test_escape_climbs_floor_edges(self, extra, is_axiom):
        leaf = hseq(seq((P2,), LL, (P1,)), seq((P1, P1), preceq(1), ()), *extra)
        verdict = check_axiom(leaf)
        assert verdict.is_axiom == is_axiom
        if not is_axiom:
            assert verdict.countermodel.value_of(1) == INF
            assert verdict.countermodel.value_of(2) == INF
            # p1 and p2 join top's cluster; p3, where present, keeps its own before it.
            finite = tuple(frozenset(s.right) for s in extra)
            assert reference_check_axiom(leaf)[1] == finite + (frozenset({P1, P2, TOP}),)
        _agree(leaf, verdict)


class TestLazyVerdict:
    def test_countermodel_that_satisfies_the_leaf_is_refused_when_read(self, monkeypatch):
        leaf = hseq(seq((P1,), LL, (P2,)))
        satisfying = Valuation({1: Finite(0, Fraction(0)), 2: Finite(1, Fraction(0))})
        assert satisfies(satisfying, leaf)
        monkeypatch.setattr(axiom_check, "build_countermodel", lambda *state: satisfying)
        verdict = check_axiom(leaf)
        assert not verdict.is_axiom
        # A build that raised runs again on the next read, and raises again.
        for _ in range(2):
            with pytest.raises(AssertionError, match="failed its runtime check"):
                verdict.countermodel

    def test_the_runtime_check_survives_optimised_mode(self):
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction
            import blprover.axiom_check as axiom_check
            from blprover import LL, Var, check_axiom, hseq, seq
            from blprover.semantics import Finite, Valuation

            if __debug__:
                sys.exit("assertions are still enabled")
            model = Valuation({1: Finite(0, Fraction(0)), 2: Finite(1, Fraction(0))})
            axiom_check.build_countermodel = lambda *state: model
            verdict = check_axiom(hseq(seq((Var(1),), LL, (Var(2),))))
            try:
                verdict.countermodel
            except AssertionError:
                sys.exit(0)
            sys.exit("a countermodel that satisfies the leaf was returned")
            """
        )
        src = str(Path(blprover.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stdout + done.stderr


class TestBranchVerification:
    def test_accepts_the_reported_branch(self):
        formula = parse("p1 -> p1 * p1")
        result = check_tautology(formula)
        assert not result.provable
        assert verify_branch_countermodel(result.countermodel, result.branch, formula)

    def test_rejects_an_infinite_assignment(self):
        formula = parse("p1 -> p1 * p1")
        result = check_tautology(formula)
        assert not verify_branch_countermodel(Valuation({1: INF}), result.branch, formula)


def test_countermodel_fractions_are_one_joint_solve():
    """Rows of distinct clusters share no variable, so joining the witnesses
    of the per-cluster solves gives what one solve over the rows of every
    finite cluster gives, unmentioned variables at the midpoint 1/2 included."""
    rng = random.Random(11)
    refuted = 0
    for _ in range(100):
        formula = random_formula(rng, rng.randint(1, 4), 3)
        for leaf in rwbl_leaves(formula):
            verdict = check_axiom(leaf)
            if verdict.is_axiom:
                continue
            refuted += 1
            clusters = reference_check_axiom(leaf)[1]
            cluster_of = {atom: i for i, cluster in enumerate(clusters) for atom in cluster}
            fracs = _reference_negate_leaf(leaf)[1]
            spots = {s: {cluster_of[a] for a in s.formulas()} for s in fracs}
            rows = build_lp(
                s for s, at in spots.items() if len(at) == 1 and TOP not in clusters[min(at)]
            )
            var_ids = sorted({a.index for c in clusters for a in c if isinstance(a, Var)})
            joint = solve(rows, var_ids)
            assert joint.feasible
            for i, value in verdict.countermodel.items():
                if not value.is_infinite:
                    assert value.frac == joint.witness[i], (leaf.render(), i)
    assert refuted > 400


def test_pipeline_agrees_with_enumeration_on_random_leaves():
    rng = random.Random(31)
    checked = 0
    while checked < 60:
        formula = random_formula(rng, rng.randint(1, 4), 2)
        for leaf in rwbl_leaves(formula):
            _agree(leaf, check_axiom(leaf))
            checked += 1
            if checked >= 60:
                break


def _matches_the_reference(leaf, verdict):
    is_axiom, _, countermodel = reference_check_axiom(leaf)
    assert (verdict.is_axiom, verdict.countermodel) == (is_axiom, countermodel), leaf.render()


def test_check_matches_the_reference_on_the_search_classifications(monkeypatch):
    """Every leaf and settled part the search classifies, read after the search."""
    seen = []

    def recording(leaf, cache=None):
        verdict = check_axiom(leaf, cache)
        seen.append((leaf, verdict))
        return verdict

    monkeypatch.setattr(prover, "check_axiom", recording)
    rng = random.Random(28)
    formulas = 0
    while formulas < 60:
        formula = random_formula(rng, rng.randint(1, 6), 3)
        if branch_estimate(formula) <= 2000:
            formulas += 1
            check_tautology(formula)
    for leaf, verdict in seen:
        _matches_the_reference(leaf, verdict)
    refuted = sum(not verdict.is_axiom for _, verdict in seen)
    assert refuted > 250 and len(seen) - refuted > 1000


def test_check_matches_the_reference_on_random_leaves():
    rng = random.Random(29)
    refuted = leaves = 0
    for _ in range(100):
        formula = random_formula(rng, rng.randint(1, 4), 3)
        for leaf in rwbl_leaves(formula):
            verdict = check_axiom(leaf)
            _matches_the_reference(leaf, verdict)
            leaves += 1
            refuted += not verdict.is_axiom
    assert refuted > 350 and leaves - refuted > 4000


def test_void_rows_are_exactly_the_infeasible_single_rows():
    """Every fractional sequent over falsum and p1..p3, sides of up to three
    atoms, index -3..3: its record's void flag is set exactly when its row
    alone has no solution."""
    atoms = (BOT, P1, P2, P3)
    sides = [c for k in range(4) for c in itertools.combinations_with_replacement(atoms, k)]
    void = 0
    for left, right, kind, z in itertools.product(sides, sides, (preceq, prec), range(-3, 4)):
        s = seq(left, kind(z), right)
        variables = sorted({a.index for a in s.formulas() if isinstance(a, Var)})
        feasible = solve(build_lp([s]), variables).feasible
        flag = LeafCache(s.formulas()).compile(s, (s,))[1][3]
        assert flag == (not feasible), s.render()
        void += flag
    assert void == 6551


def _theorems_panel():
    """The benchmark's theorems panel: the seven BL axiom schemes, two
    transitivity chains and nested weakening of depth 4 to 8."""
    texts = [
        "(p1 -> p2) -> ((p2 -> p3) -> (p1 -> p3))",
        "(p1 * p2) -> p1",
        "(p1 * p2) -> (p2 * p1)",
        "(p1 * (p1 -> p2)) -> (p2 * (p2 -> p1))",
        "(p1 -> (p2 -> p3)) <-> ((p1 * p2) -> p3)",
        "((p1 -> p2) -> p3) -> (((p2 -> p1) -> p3) -> p3)",
        "0 -> p1",
    ]
    formulas = [parse(text) for text in texts]
    for n in (2, 3):
        links = [Impl(Var(i), Var(i + 1)) for i in range(1, n + 1)]
        premise = links[0]
        for link in links[1:]:
            premise = Conj(premise, link)
        formulas.append(Impl(premise, Impl(P1, Var(n + 1))))
    for k in range(4, 9):
        formula = P1
        for i in range(k, 0, -1):
            formula = Impl(Var(i), formula)
        formulas.append(formula)
    return formulas


def test_solve_counts_do_not_depend_on_the_process():
    """Owning clusters are solved in cluster order, not in the leaf's set
    order, which follows sequent addresses; so the solve count of a search
    is the same under any hash seed and allocator.  The panel is searched
    under two of the benchmark's variable renamings (its seed-1 rounds 2
    and 3), where the set order once moved the count."""
    script = textwrap.dedent(
        """
        import sys
        import blprover.axiom_check as axiom_check
        from blprover import check_tautology, parse

        calls = []
        solve = axiom_check.solve
        axiom_check.solve = lambda rows, ids: calls.append(1) or solve(rows, ids)
        for text in sys.argv[1:]:
            assert check_tautology(parse(text)).provable
        print(len(calls))
        """
    )
    renamings = [(5, 7, 2, 8, 4, 9, 3, 6), (1, 9, 7, 6, 5, 3, 8, 2)]
    texts = [
        re.sub(r"p(\d+)", lambda m: f"p{names[int(m[1]) - 1]}", render(f))
        for names in renamings
        for f in _theorems_panel()
    ]
    src = str(Path(blprover.__file__).resolve().parents[1])
    counts = []
    for extra in ({"PYTHONHASHSEED": "1"}, {"PYTHONHASHSEED": "2"}, {"PYTHONMALLOC": "malloc"}):
        env = {**os.environ, "PYTHONPATH": src, **extra}
        done = subprocess.run(
            [sys.executable, "-c", script, *texts],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        counts.append(int(done.stdout))
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_the_search_cache_agrees_with_a_fresh_check_and_the_reference(monkeypatch):
    """Every settled part the searches classify, checked again with the
    search's own cache (its records, groupings and solves), with a fresh
    cache and by the reference, gives one verdict and one countermodel."""
    seen = []

    def recording(leaf, cache=None):
        seen.append((leaf, cache))
        return check_axiom(leaf, cache)

    monkeypatch.setattr(prover, "check_axiom", recording)
    formulas = _theorems_panel()
    rng = random.Random(39)
    while len(formulas) < 80:
        formula = random_formula(rng, rng.randint(2, 7), 3)
        if branch_estimate(formula) <= 2000:
            formulas.append(formula)
    for formula in formulas:
        check_tautology(formula)
    refuted = 0
    for leaf, cache in seen:
        shared, fresh = check_axiom(leaf, cache), check_axiom(leaf)
        is_axiom, _, countermodel = reference_check_axiom(leaf)
        assert shared.is_axiom == fresh.is_axiom == is_axiom, leaf.render()
        assert shared.countermodel == fresh.countermodel == countermodel, leaf.render()
        refuted += not is_axiom
    assert refuted > 200 and len(seen) - refuted > 1000
