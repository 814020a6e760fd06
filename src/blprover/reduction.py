"""Reduction trees, branch certificates and size statistics.

A reduction tree starts from the goal hypersequent ``top <= A`` and expands
every node with the premises of the selected calculus until all leaves are
irreducible.  One memoised walker, ``fold_tree``, does every expansion: tree
building, statistics and the provability search fold over it, and
``iter_rwbl_leaves`` streams leaves through its step.  One depth guard, in
that step, bounds the height: for the whole-hypersequent rewriting calculus
it never exceeds the connective count of A, because each step removes the
pivot from the set of compound formulas of the label and introduces only
proper subformulas, so the guard at that limit doubles as a bug detector.
An expansion may also return no premises, which makes the label a leaf: the
provability search does so for labels it already knows to be valid.

A certificate compresses one branch into the sequence of premise indices
taken at each level, padded with zeros once a leaf is reached; its length is
exactly the connective count of the root formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

from .calculus import Premise, rhbl_premises, rwbl_premises
from .formula import TOP, Conj, Formula, check_limits, complexity, parse, render
from .hypersequent import (
    RelationalHypersequent,
    check_generated_shape,
    hseq,
    is_irreducible,
    preceq,
    seq,
)

V = TypeVar("V")
Expand = Callable[[RelationalHypersequent], tuple[Premise, ...]]
# Premise indices from the root, and the labels from the root to the leaf.
LeafPath = tuple[tuple[int, ...], tuple[RelationalHypersequent, ...]]


class ReductionDepthError(RuntimeError):
    """A branch exceeded the depth guard; this signals an implementation bug."""


@dataclass(frozen=True)
class ReductionNode:
    """A tree node: its label, how it was reached and its expansions.

    premise_index and premise_tag describe the edge from the parent (None at
    the root).  Leaves have no children.  Nodes with equal labels share one
    children tuple.
    """

    label: RelationalHypersequent
    premise_index: int | None
    premise_tag: str | None
    children: tuple[ReductionNode, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class ReductionTree:
    formula: Formula
    mode: str
    root: ReductionNode


@dataclass(frozen=True)
class TreeStats:
    height: int
    node_count: int
    leaf_count: int
    max_branch_weight: int


def root_label(formula: Formula) -> RelationalHypersequent:
    """The goal hypersequent asserting the formula is designated."""
    return hseq(seq((TOP,), preceq(), (formula,)))


def _step(
    label: RelationalHypersequent, depth: int, limit: int, expand: Expand
) -> tuple[Premise, ...] | None:
    """The premises of a label at the given depth, or None when it is a leaf."""
    check_generated_shape(label)
    if is_irreducible(label):
        return None
    if depth >= limit:
        raise ReductionDepthError("reducible node at the depth limit")
    return expand(label)


def fold_tree(
    root: RelationalHypersequent,
    expand: Expand,
    limit: int,
    leaf: Callable[[RelationalHypersequent], V],
    inner: Callable[[RelationalHypersequent, tuple[Premise, ...], Sequence[V]], V],
    stop: Callable[[V], bool] | None = None,
) -> tuple[V, LeafPath | None]:
    """Fold the tree below root bottom-up, depth first in premise order.

    leaf(label) values a leaf, an irreducible label or one whose expansion
    gave no premises; inner(label, premises, values) values an inner node
    from its premises' values.  Each distinct label is expanded and
    valued once; a reuse keeps the first value and height, and raises
    ReductionDepthError when its new depth plus that height exceeds the limit.
    Returns (root value, None), or, as soon as stop holds for a leaf's value,
    that value and its path.
    """
    memo: dict[RelationalHypersequent, tuple[V, int]] = {}
    # One frame per inner node on the current branch: its label, premises,
    # and the values and heights of the premises folded so far.
    frames: list[tuple[RelationalHypersequent, tuple[Premise, ...], list[V], list[int]]] = []
    label = root
    while True:
        depth = len(frames)
        done = memo.get(label)
        if done is None:
            premises = _step(label, depth, limit, expand)
            if premises:
                frames.append((label, premises, [], []))
                label = premises[0].label
                continue
            value = leaf(label)
            if stop is not None and stop(value):
                moves = tuple(ps[len(vs)].index for _, ps, vs, _ in frames)
                return value, (moves, tuple(f[0] for f in frames) + (label,))
            done = memo[label] = (value, 0)
        elif depth + done[1] > limit:
            raise ReductionDepthError("reducible node at the depth limit")
        while frames:
            parent, premises, values, heights = frames[-1]
            values.append(done[0])
            heights.append(done[1])
            if len(values) < len(premises):
                label = premises[len(values)].label
                break
            frames.pop()
            done = memo[parent] = (inner(parent, premises, values), 1 + max(heights))
        else:
            return done[0], None


def _children(
    label: RelationalHypersequent,
    premises: tuple[Premise, ...],
    subtrees: Sequence[tuple[ReductionNode, ...]],
) -> tuple[ReductionNode, ...]:
    return tuple(ReductionNode(p.label, p.index, p.tag, sub) for p, sub in zip(premises, subtrees))


def _tree(formula: Formula, mode: str, expand: Expand, limit: int) -> ReductionTree:
    root = root_label(formula)
    children, _ = fold_tree(root, expand, limit, lambda label: (), _children)
    return ReductionTree(formula, mode, ReductionNode(root, None, None, children))


def build_rwbl_tree(formula: Formula, depth_limit: int | None = None) -> ReductionTree:
    """Full reduction tree in the whole-hypersequent rewriting calculus.

    The depth limit defaults to the connective count of the formula, which is
    a proven bound on the height; exceeding it raises ReductionDepthError.
    Formulas beyond the parser's size limits raise ValueError.
    """
    check_limits(formula)
    limit = complexity(formula) if depth_limit is None else depth_limit
    return _tree(formula, "rwbl", rwbl_premises, limit)


def build_rhbl_tree(formula: Formula, depth_limit: int) -> ReductionTree:
    """Full reduction tree in the one-occurrence-at-a-time calculus.

    Branches may be longer than the connective count here (each pivot
    occurrence costs a step), so the caller must supply an explicit depth
    limit.  Formulas beyond the parser's size limits raise ValueError.
    """
    check_limits(formula)
    return _tree(formula, "rhbl", rhbl_premises, depth_limit)


def label_weight(g: RelationalHypersequent) -> int:
    """Size of a canonical label: connectives plus atoms plus relations.

    A bare top element counts as a single atom; compound elements count
    their connectives and their literal leaves.  Each sequent caches its own
    share (``RelationalSequent.weight``), so a sequent shared by many labels
    is weighed once.
    """
    return sum(s.weight() for s in g)


def _leaf_stats(label: RelationalHypersequent) -> TreeStats:
    return TreeStats(0, 1, 1, label_weight(label))


def _inner_stats(
    label: RelationalHypersequent, premises: Sequence[object], subs: Sequence[TreeStats]
) -> TreeStats:
    return TreeStats(
        1 + max(s.height for s in subs),
        1 + sum(s.node_count for s in subs),
        sum(s.leaf_count for s in subs),
        label_weight(label) + max(s.max_branch_weight for s in subs),
    )


def tree_stats(tree: ReductionTree) -> TreeStats:
    """Height, node and leaf counts, and the heaviest branch weight.

    The counts describe every node occurrence, but each distinct label is
    valued once: nodes with equal labels share one children tuple, so they
    root equal subtrees.
    """
    memo: dict[RelationalHypersequent, TreeStats] = {}
    stack = [tree.root]
    while stack:
        node = stack[-1]
        if node.label in memo:
            stack.pop()
            continue
        pending = [child for child in node.children if child.label not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if node.is_leaf:
            memo[node.label] = _leaf_stats(node.label)
        else:
            subs = [memo[child.label] for child in node.children]
            memo[node.label] = _inner_stats(node.label, node.children, subs)
    return memo[tree.root.label]


def summarize_rwbl_stats(formula: Formula) -> TreeStats:
    """Same statistics as tree_stats, without materializing the tree.

    The counts describe the full tree, although each distinct label is
    expanded once, which keeps large trees (tens of thousands of branches)
    affordable to measure.
    """
    stats, _ = fold_tree(
        root_label(formula), rwbl_premises, complexity(formula), _leaf_stats, _inner_stats
    )
    return stats


def iter_rwbl_leaves(formula: Formula) -> Iterator[RelationalHypersequent]:
    """Every leaf occurrence of the rewriting tree, depth first, lazily."""
    limit = complexity(formula)
    stack: list[tuple[RelationalHypersequent, int]] = [(root_label(formula), 0)]
    while stack:
        label, depth = stack.pop()
        premises = _step(label, depth, limit, rwbl_premises)
        if premises is None:
            yield label
        else:
            stack.extend((p.label, depth + 1) for p in reversed(premises))


def branch_estimate(formula: Formula) -> int:
    """Upper bound on the number of branches of the rewriting tree.

    Each distinct compound subformula is pivoted at most once per branch and
    contributes its premise fan-out as a factor.
    """
    from .formula import compound_subformulas

    estimate = 1
    for f in compound_subformulas(formula):
        if f == TOP:
            continue
        estimate *= 5 if isinstance(f, Conj) else 3
    return estimate


def weight_bound(n: int) -> int:
    """Cubic envelope for branch weights at connective count n."""
    return 24 * n**3 + 61 * n**2 + 50 * n + 13


@dataclass(frozen=True)
class Certificate:
    """Premise choices along one branch, zero padded to the connective count."""

    moves: tuple[int, ...]

    def to_json(self, formula: Formula) -> str:
        return json.dumps({"formula": render(formula), "moves": list(self.moves)})

    @classmethod
    def from_json(cls, text: str) -> tuple[Formula, Certificate]:
        data = json.loads(text)
        moves = data["moves"]
        if not isinstance(moves, list) or not all(isinstance(m, int) for m in moves):
            raise ValueError("certificate moves must be a list of integers")
        return parse(data["formula"]), cls(tuple(moves))


@dataclass(frozen=True)
class FollowResult:
    """Outcome of replaying a certificate: a root-to-leaf branch or a reason."""

    accepted: bool
    branch: tuple[RelationalHypersequent, ...] | None = None
    error: str | None = None


def follow_certificate(formula: Formula, certificate: Certificate) -> FollowResult:
    """Replay certificate moves against the rewriting calculus.

    Rejects on length mismatch, out-of-range indices, nonzero moves after the
    leaf has been reached, or a zero move on a still-reducible node.
    """
    n = complexity(formula)
    if len(certificate.moves) != n:
        return FollowResult(
            False, error=f"certificate length {len(certificate.moves)}, expected {n}"
        )
    label = root_label(formula)
    branch = [label]
    for position, move in enumerate(certificate.moves):
        if is_irreducible(label):
            if move != 0:
                return FollowResult(
                    False,
                    error=f"nonzero move {move} at position {position} after the leaf",
                )
            continue
        premises = rwbl_premises(label)
        if not 1 <= move <= len(premises):
            return FollowResult(
                False,
                error=f"move {move} at position {position} outside 1..{len(premises)}",
            )
        label = premises[move - 1].label
        branch.append(label)
    if not is_irreducible(label):
        return FollowResult(False, error="certificate ends before a leaf")
    return FollowResult(True, branch=tuple(branch))


def render_tree_lines(tree: ReductionTree) -> str:
    """Text dump, one node per line: id, depth, premise tag, label, child ids."""
    lines: list[str] = []
    counter = [0]

    def walk(node: ReductionNode, depth: int) -> int:
        node_id = counter[0]
        counter[0] += 1
        slot = len(lines)
        lines.append("")
        child_ids = [walk(child, depth + 1) for child in node.children]
        tag = node.premise_tag if node.premise_tag is not None else "root"
        children = ",".join(str(c) for c in child_ids) if child_ids else "-"
        lines[slot] = f"{node_id}\t{depth}\t{tag}\t{node.label.render()}\tchildren={children}"
        return node_id

    walk(tree.root, 0)
    return "\n".join(lines)


def render_tree_dot(tree: ReductionTree) -> str:
    """Graphviz rendering with premise tags on the edges."""
    lines = ["digraph reduction {", "  node [shape=box];"]
    counter = [0]

    def escape(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    def walk(node: ReductionNode) -> int:
        node_id = counter[0]
        counter[0] += 1
        lines.append(f'  n{node_id} [label="{escape(node.label.render())}"];')
        for child in node.children:
            child_id = walk(child)
            lines.append(f'  n{node_id} -> n{child_id} [label="{child.premise_tag}"];')
        return node_id

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines)


def tree_to_json(tree: ReductionTree) -> str:
    """Structured JSON with nested children and premise provenance per node."""

    def node_obj(node: ReductionNode) -> dict:
        obj: dict = {"label": node.label.render()}
        if node.premise_tag is not None:
            obj["premise"] = {"tag": node.premise_tag, "index": node.premise_index}
        obj["children"] = [node_obj(child) for child in node.children]
        return obj

    return json.dumps(
        {"formula": render(tree.formula), "mode": tree.mode, "root": node_obj(tree.root)}
    )
