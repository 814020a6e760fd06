"""Reduction trees, their statistics, certificates and renderers."""

import hashlib
import json
import random
import re
from collections import Counter

import pytest

from blprover import (
    Certificate,
    Conj,
    TOP,
    Var,
    build_rwbl_tree,
    check_no_tautology,
    check_tautology,
    hseq,
    parse,
    preceq,
    seq,
    tree_stats,
)
import blprover.calculus as calculus
import blprover.prover as prover
import blprover.reduction as reduction
from blprover.calculus import rwbl_premises
from blprover.formula import complexity
from blprover.hypersequent import decompose, is_irreducible, most_complex
from blprover.reduction import (
    ReductionDepthError,
    ReductionNode,
    ReductionTree,
    fold_tree,
    follow_certificate,
    label_weight,
    render_tree_dot,
    render_tree_lines,
    root_label,
    tree_to_json,
)
from support import (
    branch_estimate,
    deep_reuse_table,
    random_formula,
    recount_weight,
    reference_decompose,
    rwbl_leaves,
    walk_stats,
    weight_bound,
)

P1 = Var(1)


def test_root_label():
    assert root_label(P1) == hseq(seq((TOP,), preceq(), (P1,)))


def test_atomic_formula_tree_is_a_single_leaf():
    tree = build_rwbl_tree(P1)
    assert not tree.root.children
    assert tree_stats(tree).node_count == 1
    assert tree_stats(tree).max_branch_weight == 3


def test_identity_implication_tree_shape():
    tree = build_rwbl_tree(parse("p1 -> p1"))
    root = tree.root
    assert len(root.children) == 3
    assert not any(child.children for child in root.children)
    stats = tree_stats(tree)
    assert stats.height == 1
    assert stats.node_count == 4
    assert stats.leaf_count == 3
    assert stats.max_branch_weight == 15


def test_label_weight():
    assert label_weight(root_label(P1)) == 3
    assert label_weight(root_label(parse("p1 * p2"))) == 5
    assert label_weight(hseq(seq((TOP,), preceq(), (TOP,)))) == 3


REPEATED_LABELS = ["p1 * p1", "(p1 -> p2) * (p1 -> p2)", "(p1 * p1) -> (p1 * p1)"]


def test_stats_variants_agree():
    rng = random.Random(23)
    formulas = [parse(text) for text in REPEATED_LABELS]
    formulas += [random_formula(rng, rng.randint(1, 4), 3) for _ in range(25)]
    repeated = 0
    for formula in formulas:
        tree = build_rwbl_tree(formula)
        assert tree_stats(tree) == walk_stats(tree.root)
        labels = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert label_weight(node.label) == recount_weight(node.label)
            labels.append(node.label)
            stack.extend(node.children)
        repeated += len(set(labels)) < len(labels)
    assert repeated >= len(REPEATED_LABELS)


def test_decompose_matches_the_reference_on_repeated_label_trees():
    reducible = 0
    for text in REPEATED_LABELS:
        stack = [build_rwbl_tree(parse(text)).root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if not is_irreducible(node.label):
                reducible += 1
                pivot = most_complex(node.label)
                free, ll_part, ord_part, _ = reference_decompose(node.label, pivot)
                assert decompose(node.label) == (pivot, free, ll_part | ord_part)
    assert reducible >= 10


def _reference_tree(formula):
    """The tree folded with the plain calculus, its statistics counted node by node."""

    def inner(label, premises, subtrees):
        return tuple(ReductionNode(p, t) for p, t in zip(premises, subtrees))

    label = root_label(formula)
    children, _ = fold_tree(label, rwbl_premises, complexity(formula), lambda label: (), inner)
    root = ReductionNode(label, children)
    return ReductionTree(formula, root, walk_stats(root))


def test_trees_built_with_the_memo_match_the_plain_calculus():
    rng = random.Random(27)
    formulas = [parse(text) for text in REPEATED_LABELS]
    formulas += [random_formula(rng, rng.randint(1, 4), 3) for _ in range(100)]
    for formula in formulas:
        reference = _reference_tree(formula)
        tree = build_rwbl_tree(formula)
        # Dataclass equality compares the statistics and every node's label
        # and children.
        assert tree == reference


def test_each_pivot_sequent_is_rewritten_once_per_call(monkeypatch):
    # One rewrite of a sequent makes 4-5 substitution calls on a conjunction
    # pivot and 2-3 on an implication, so a second one would exceed the bound.
    rewrites = Counter()

    def counting(substitute):
        def rewrite(s, target, *children):
            rewrites[s] += 1
            return substitute(s, target, *children)

        return rewrite

    for name in ("subst_all", "subst_pair", "subst_balanced_conj", "subst_impl"):
        monkeypatch.setattr(calculus, name, counting(getattr(calculus, name)))
    expanded = []

    def recording(label, memo):
        expanded.append(label)
        return rwbl_premises(label, memo)

    monkeypatch.setattr(reduction, "rwbl_premises", recording)
    monkeypatch.setattr(prover, "rwbl_premises", recording)
    rng = random.Random(28)
    formulas = [parse(text) for text in REPEATED_LABELS]
    formulas += [random_formula(rng, rng.randint(2, 5), 3) for _ in range(20)]
    shared = 0
    for formula in formulas:
        for call in (build_rwbl_tree, check_tautology):
            rewrites.clear()
            expanded.clear()
            call(formula)
            met = [s for g in expanded for s in g if s.pivot is most_complex(g)]
            assert set(rewrites) == set(met)
            for s, calls in rewrites.items():
                assert (4 <= calls <= 5) if isinstance(s.pivot, Conj) else (2 <= calls <= 3)
            shared += call is build_rwbl_tree and len(set(met)) < len(met)
    assert shared >= 10


def test_height_never_exceeds_connective_count():
    rng = random.Random(24)
    for _ in range(25):
        formula = random_formula(rng, rng.randint(1, 5), 3)
        assert tree_stats(build_rwbl_tree(formula)).height <= complexity(formula)


def test_iter_leaves_matches_stats():
    # rwbl_leaves expands premises itself; the tree is built only to compare.
    formula = parse("(p1 * p2) -> p1")
    leaves = list(rwbl_leaves(formula))
    assert len(leaves) == build_rwbl_tree(formula).stats.leaf_count
    assert all(is_irreducible(leaf) for leaf in leaves)


def test_branch_estimate():
    assert branch_estimate(P1) == 1
    assert branch_estimate(parse("p1 -> p2")) == 3
    assert branch_estimate(parse("p1 * p2")) == 5
    assert branch_estimate(parse("(p1 * p2) -> p1")) == 15
    # a repeated subformula is counted once
    assert branch_estimate(parse("(p1 * p2) -> (p1 * p2)")) == 15
    # the truth constant is never pivoted
    assert branch_estimate(parse("top -> p1")) == 3


def test_branch_estimate_bounds_leaf_count():
    rng = random.Random(25)
    for _ in range(20):
        formula = random_formula(rng, rng.randint(1, 4), 2)
        assert tree_stats(build_rwbl_tree(formula)).leaf_count <= branch_estimate(formula)


def test_weight_bound_values():
    assert weight_bound(1) == 148
    assert weight_bound(2) == 549
    assert weight_bound(10) == 30613


def _fold_height(formula, limit):
    """The tree height, folded by fold_tree under the given depth limit."""
    height, _ = fold_tree(
        root_label(formula), rwbl_premises, limit, lambda _: 0, lambda _l, _p, hs: 1 + max(hs)
    )
    return height


def test_zero_depth_limit_refuses_a_reducible_root():
    with pytest.raises(ReductionDepthError):
        _fold_height(parse("p1 * p2"), 0)


def test_depth_limit_is_the_tree_height():
    rng = random.Random(26)
    checked = 0
    while checked < 25:
        formula = random_formula(rng, rng.randint(1, 4), 3)
        height = tree_stats(build_rwbl_tree(formula)).height
        if height == 0:
            continue
        with pytest.raises(ReductionDepthError):
            _fold_height(formula, height - 1)
        assert _fold_height(formula, height) == height
        checked += 1


def test_reused_label_still_trips_the_depth_guard():
    # "again" is expanded first at depth 1, then expanded again at depth 2
    # under "above", which makes the tree three levels tall.
    root, again, above, leaf = (
        root_label(parse(text)) for text in ("p1 -> p2", "p1 -> p1", "p2 -> p2", "p1")
    )
    premises = {
        root: (again, above),
        above: (again,),
        again: (leaf,),
    }

    def count_leaves(limit):
        return fold_tree(root, premises.__getitem__, limit, lambda _: 1, lambda *node: sum(node[2]))

    assert count_leaves(3) == (2, None)
    with pytest.raises(ReductionDepthError):
        count_leaves(2)


def test_a_cut_label_is_valued_by_inner_and_never_by_leaf():
    # The client cuts the first reducible label below the root, as the search
    # cuts a label whose settled part is valid; leaf sees irreducible labels
    # only, and the cut's value reaches the root through inner.
    formula = parse("p1 * p2 -> p1")
    root = root_label(formula)
    cut = []

    def expand(label):
        if label is not root and not cut:
            cut.append(label)
            return ()
        return rwbl_premises(label)

    def leaf(label):
        if not is_irreducible(label):
            raise AssertionError(f"leaf valued a reducible label: {label.render()}")
        return []

    def inner(label, premises, values):
        return [x for value in values for x in value] if premises else [label]

    value, path = fold_tree(root, expand, complexity(formula), leaf, inner)
    assert cut and not is_irreducible(cut[0])
    assert (value, path) == (cut, None)


def test_the_path_moves_are_premise_positions():
    # stop fires at the first premise of the root's second premise, so the
    # path takes position 2 and then position 1.
    root, first, second, target, other = (
        root_label(parse(text)) for text in ("p1 -> p2", "p1", "p2 -> p2", "p2", "p3")
    )
    premises = {root: (first, second), second: (target, other)}
    value, path = fold_tree(
        root, premises.__getitem__, 2, lambda label: label, lambda *_: None, target.__eq__
    )
    assert value == target
    assert path == ((2, 1), (root, second, target))


def test_the_calculus_checks_the_shape_of_each_sequent_it_makes(monkeypatch):
    # A step that makes a two-formula index-0 sequent with both formulas on
    # one side fails in rwbl_premises, so every caller sees the one message:
    # the search, the tree builder and certificate replay.
    bad = seq((P1, Var(2)), preceq(), ())
    real_parts = calculus._parts
    monkeypatch.setattr(
        calculus, "_parts", lambda s, pivot: ((bad,),) + real_parts(s, pivot)[1:]
    )
    formula = parse("p1 -> p2")
    message = (
        "generated label has a two-formula index-0 sequent "
        "with both formulas on one side: p1,p2 <="
    )
    for run in (
        lambda: rwbl_premises(root_label(formula)),
        lambda: build_rwbl_tree(formula),
        lambda: check_tautology(formula),
        lambda: follow_certificate(formula, Certificate((1,))),
    ):
        with pytest.raises(AssertionError) as raised:
            run()
        assert str(raised.value) == message


def test_the_walker_keeps_no_memo():
    # Every inner-node occurrence is expanded, a repeated label as often as it
    # occurs: the walker holds its branch and nothing else.
    repeated = 0
    for text in REPEATED_LABELS:
        formula = parse(text)
        calls = []

        def expand(label):
            calls.append(label)
            return rwbl_premises(label)

        fold_tree(root_label(formula), expand, complexity(formula), lambda _: 0, lambda *_: 0)
        stats = build_rwbl_tree(formula).stats
        assert len(calls) == stats.node_count - stats.leaf_count
        repeated += len(set(calls)) < len(calls)
    assert repeated


def test_equal_labels_share_one_children_tuple():
    # ReductionNode promises this; a repeated inner label must be among them.
    shared = 0
    for text in REPEATED_LABELS:
        first = {}
        stack = [build_rwbl_tree(parse(text)).root]
        while stack:
            node = stack.pop()
            if node.label in first:
                assert node.children is first[node.label]
                shared += bool(node.children)
            else:
                first[node.label] = node.children
            stack.extend(node.children)
    assert shared


def test_reused_fold_deeper_than_it_allows_trips_the_height_check(monkeypatch):
    # "again" is folded first at depth 1 with height 2, then reused at depth 2
    # under "above", where the walk does not enter it.  Only the root's
    # height, 4, shows that the tree exceeds a limit of 3 connectives.
    three, four = parse("p1 -> p2 -> p3 -> p4"), parse("p1 -> p2 -> p3 -> p4 -> p5")
    table = {**deep_reuse_table(three), **deep_reuse_table(four)}
    monkeypatch.setattr(reduction, "rwbl_premises", lambda label, memo: table[label])
    assert build_rwbl_tree(four).stats.height == 4
    with pytest.raises(ReductionDepthError):
        build_rwbl_tree(three)


def test_certificate_round_trip():
    formula = parse("p1 -> p1 * p1")
    cert = Certificate((2, 1))
    text = cert.to_json(formula)
    loaded_formula, loaded_cert = Certificate.from_json(text)
    assert loaded_formula == formula
    assert loaded_cert == cert
    for moves in (["x"], [True], {}, ""):
        with pytest.raises(ValueError, match="certificate moves must be a list of integers"):
            Certificate.from_json(json.dumps({"formula": "p1 -> p2", "moves": moves}))
    # A certificate built through the API is checked the same way: True is
    # not move 1, and a float does not reach the replay.
    with pytest.raises(ValueError, match="certificate moves must be a list of integers"):
        follow_certificate(formula, Certificate((True, 3)))
    with pytest.raises(ValueError, match="certificate moves must be a list of integers"):
        check_no_tautology(formula, Certificate((2.0, 3)))


def test_follow_certificate_accepts_real_branches():
    result = check_tautology(parse("p1 -> p1 * p1"))
    assert not result.provable
    followed = follow_certificate(parse("p1 -> p1 * p1"), result.certificate)
    assert followed.accepted
    assert followed.branch[0] == root_label(parse("p1 -> p1 * p1"))
    assert is_irreducible(followed.branch[-1])


def test_follow_certificate_rejections():
    formula = parse("p1 -> p1 * p1")  # complexity 2
    wrong_length = follow_certificate(formula, Certificate((1,)))
    assert not wrong_length.accepted
    assert "length" in wrong_length.error
    out_of_range = follow_certificate(formula, Certificate((9, 1)))
    assert not out_of_range.accepted
    assert out_of_range.error == "move 9 at position 0 outside 1..3"
    past_conjunction = follow_certificate(parse("p1 * p1"), Certificate((6,)))
    assert past_conjunction.error == "move 6 at position 0 outside 1..5"
    # moves must be zero once the branch has bottomed out
    atom = parse("p1 -> p1")  # reaches a leaf after one move
    late_move = follow_certificate(atom, Certificate((3,)))
    assert late_move.accepted
    # a zero move cannot stall on a still-reducible node
    stalled = follow_certificate(formula, Certificate((0, 0)))
    assert not stalled.accepted


def test_renderers():
    tree = build_rwbl_tree(parse("p1 -> p1"))
    lines = render_tree_lines(tree).splitlines()
    assert len(lines) == 4
    first = lines[0].split("\t")
    assert first[0] == "0"
    assert first[1] == "0"
    assert first[2] == "root"
    assert first[4] == "children=1,2,3"
    assert all(line.split("\t")[4] == "children=-" for line in lines[1:])

    dot = render_tree_dot(tree)
    assert dot.startswith("digraph")
    # formula labels can contain "->" themselves, so count edge arrows only
    assert dot.count(" -> n") == 3
    assert 'label="impl2"' in dot

    payload = json.loads(tree_to_json(tree))
    assert payload["mode"] == "rwbl"
    assert len(payload["root"]["children"]) == 3


def _preorder_edges(node):
    """(parent, 1-based position, child) for every edge, the children in pre-order."""
    for position, child in enumerate(node.children, start=1):
        yield node, position, child
        yield from _preorder_edges(child)


def _json_premises(node):
    """The premise objects of a nested tree_to_json node's descendants, in pre-order."""
    for child in node["children"]:
        yield child["premise"]
        yield from _json_premises(child)


def test_renderers_tag_each_edge_by_its_parents_pivot_and_its_position():
    rng = random.Random(27)
    formulas = [parse(text) for text in REPEATED_LABELS]
    formulas += [random_formula(rng, rng.randint(1, 4), 3) for _ in range(100)]
    seen = set()
    for formula in formulas:
        tree = build_rwbl_tree(formula)
        edges = list(_preorder_edges(tree.root))
        positions = [position for _, position, _ in edges]
        tags = [
            ("conj" if isinstance(most_complex(parent.label), Conj) else "impl") + str(position)
            for parent, position, _ in edges
        ]
        root = json.loads(tree_to_json(tree))["root"]
        assert "premise" not in root
        premises = list(_json_premises(root))
        assert [premise["index"] for premise in premises] == positions
        assert [premise["tag"] for premise in premises] == tags
        lines = render_tree_lines(tree).splitlines()
        assert [line.split("\t")[2] for line in lines] == ["root", *tags]
        # Node ids are pre-order in both renderings, so the child id orders the edges.
        dot = re.findall(r'^  n\d+ -> n(\d+) \[label="(\w+)"\];$', render_tree_dot(tree), re.M)
        assert [tag for _, tag in sorted(dot, key=lambda edge: int(edge[0]))] == tags
        seen.update(tags)
    assert {"conj5", "impl3"} <= seen


def _json_counts(node):
    """Node and leaf counts below a nested tree_to_json node."""
    if not node["children"]:
        return 1, 1
    counts = [_json_counts(child) for child in node["children"]]
    return 1 + sum(n for n, _ in counts), sum(leaves for _, leaves in counts)


def test_stats_count_every_node_the_renderers_emit():
    rng = random.Random(29)
    for _ in range(25):
        tree = build_rwbl_tree(random_formula(rng, rng.randint(1, 5), 3))
        counts = (tree.stats.node_count, tree.stats.leaf_count)
        lines = render_tree_lines(tree).splitlines()
        assert counts == (len(lines), sum(line.endswith("children=-") for line in lines))
        assert counts == _json_counts(json.loads(tree_to_json(tree))["root"])


# SHA-256 digests of the renderings, captured from the unshared recursive
# builder; both trees repeat a label, the second a whole inner subtree.
RENDER_DIGESTS = {
    "p1 * p1": (
        6,
        5,
        "7cc631edabf6611d06ba14cf1ca76927f952039aa7d8f5b658a85a884581a0af",
        "ef7e72118ecea6094b7b3be495517b0dce0e5ee933d9341c5717ad6f2da75d75",
        "8af48ae7cd49103a84a8400977bbd7be480dea4be32272412db1435bd8bcc47c",
    ),
    "(p1 -> p2) * (p1 -> p2)": (
        21,
        14,
        "7a4ae277f459cf52e5df588e7b49cf30aa7d6b9e460c46b523ab1998f5cab463",
        "84beb76d5a32925c9dfea6a755810cf069dba898c956bd46998cdc34494b0b8f",
        "62cef61c004d95ac48c1ae262c1576481b9625184190a28f3f3dee775667f520",
    ),
}


@pytest.mark.parametrize("text", sorted(RENDER_DIGESTS))
def test_renderings_of_trees_with_repeated_labels_are_pinned(text):
    nodes, distinct, *digests = RENDER_DIGESTS[text]
    tree = build_rwbl_tree(parse(text))
    labels = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        labels.append(node.label)
        stack.extend(node.children)
    assert (len(labels), len(set(labels))) == (nodes, distinct)
    renderings = (render_tree_lines(tree), render_tree_dot(tree), tree_to_json(tree))
    assert [hashlib.sha256(r.encode()).hexdigest() for r in renderings] == digests
