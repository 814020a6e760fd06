"""Leaf classification: negation, floor graph, clustering and feasibility."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from blprover import (
    BOT,
    INF,
    LL,
    TOP,
    Conj,
    Var,
    check_axiom,
    check_tautology,
    hseq,
    parse,
    prec,
    preceq,
    satisfies,
    seq,
    verify_branch_countermodel,
)
from blprover import axiom_check
from blprover.axiom_check import NegFrac, NegLl, contract_and_sort, negate_leaf
from blprover.semantics import Valuation
from support import oracle_leaf_satisfiable, random_formula, rwbl_leaves

P1, P2, P3 = Var(1), Var(2), Var(3)


def _agree(leaf, verdict):
    """Cross-check one verdict against exhaustive enumeration."""
    countermodel = oracle_leaf_satisfiable(leaf)
    assert (countermodel is None) == verdict.is_axiom


class TestNegation:
    def test_shapes(self):
        leaf = hseq(
            seq((P1,), LL, (P2,)),
            seq((P1,), preceq(), (P2,)),
            seq((P2,), prec(), (P1,)),
            seq((P1, P2), preceq(1), ()),
            seq((), prec(-1), (P1, P2)),
        )
        negs = negate_leaf(leaf)
        assert len(negs) == 5
        assert set(negs) == {
            NegLl(P1, P2),
            NegFrac((P1,), (P2,), 0, strict=False, unit=True),
            NegFrac((P2,), (P1,), 0, strict=True, unit=True),
            NegFrac((P1, P2), (), 1, strict=False, unit=False),
            NegFrac((), (P1, P2), -1, strict=True, unit=False),
        }

    def test_top_multis_are_dropped(self):
        leaf = hseq(seq((TOP, P1), preceq(), (P2,)), seq((P1,), preceq(), (P2,)))
        negs = negate_leaf(leaf)
        assert negs == [NegFrac((P1,), (P2,), 0, strict=False, unit=True)]

    def test_rejects_compound_formulas(self):
        with pytest.raises(ValueError):
            negate_leaf(hseq(seq((TOP,), preceq(), (Conj(P1, P2),))))

    def test_rejects_one_sided_ll(self):
        with pytest.raises(ValueError):
            negate_leaf(hseq(seq((), LL, (P1,))))


class TestFloorGraph:
    def test_edge_direction_reverses_the_relation(self):
        # not (p1 << top) forces floor(top) <= floor(p1): p1 joins top's cluster
        verdict = check_axiom(hseq(seq((P1,), LL, (TOP,))))
        assert verdict.clusters == (frozenset({P1, TOP}),)
        assert verdict.countermodel.value_of(1) == INF
        # not (top << p1) forces floor(p1) <= floor(top): p1 stays finite below top
        verdict = check_axiom(hseq(seq((TOP,), LL, (P1,))))
        assert verdict.clusters == (frozenset({P1}), frozenset({TOP}))
        assert not verdict.countermodel.value_of(1).is_infinite

    def test_mutual_edges_cluster(self):
        clusters, edges, _ = contract_and_sort(
            frozenset({P1, P2, TOP}), frozenset({(P1, P2), (P2, P1)})
        )
        assert clusters == (frozenset({P1, P2}), frozenset({TOP}))
        assert edges == frozenset()

    def test_topological_order_respects_edges(self):
        clusters, edges, _ = contract_and_sort(frozenset({BOT, P1, TOP}), frozenset({(BOT, P1)}))
        assert clusters == (frozenset({BOT}), frozenset({P1}), frozenset({TOP}))
        assert edges == frozenset({(0, 1)})


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_floor_graphs())
def test_contract_and_sort_agrees_with_a_plain_closure(graph):
    vertices, graph_edges = graph
    clusters, edges, clash = contract_and_sort(vertices, graph_edges)
    reach = {v: _reachable(graph_edges, v) for v in vertices}
    position = {v: i for i, cluster in enumerate(clusters) for v in cluster}
    assert sum(map(len, clusters)) == len(position) and position.keys() == vertices
    assert clash == (BOT in reach[TOP])
    low = frozenset(v for v in vertices if BOT in reach[v] and not clash)
    high = frozenset() if clash else reach[TOP]
    for v in vertices:
        component = frozenset(u for u in reach[v] if v in reach[u])
        expected = low if v in low else high if v in high else component
        assert clusters[position[v]] == expected
    assert edges == {
        (position[t], position[h]) for t, h in graph_edges if position[t] != position[h]
    }
    assert all(t < h for t, h in edges)


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
        assert verdict.witness is not None
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
        assert verdict.clusters == (frozenset({P1, P2}), frozenset({TOP}))
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
        # 40 singleton clusters: enumerating escape sets would try all 2^40 of
        # them, the closure solves each cluster that owns rows once, plus one.
        leaf = hseq(
            seq((P1,), preceq(), (P1,)),
            *(seq((Var(i),), LL, (Var(i),)) for i in range(2, 41)),
        )
        calls = []
        solve = axiom_check.solve
        monkeypatch.setattr(
            axiom_check, "solve", lambda rows, var_ids: calls.append(1) or solve(rows, var_ids)
        )
        verdict = check_axiom(leaf)
        assert verdict.is_axiom
        assert len(verdict.clusters) == 41
        assert 1 <= len(calls) <= len(verdict.clusters) + 1

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
        _agree(leaf, verdict)


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
