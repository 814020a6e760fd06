"""Reduction trees, branch certificates and size statistics.

A reduction tree starts from the goal hypersequent ``top <= A`` and expands
every node with the premises of the whole-hypersequent rewriting calculus
until all leaves are irreducible.  One depth-first walker, ``fold_tree``,
does every expansion and keeps only the current branch: ``build_rwbl_tree``
folds the nodes and their statistics in one pass, and the provability
search folds its verdicts.  One depth guard, in that walker, bounds the
height: it never exceeds the connective count of A, because each step
removes the pivot from the set of compound formulas of the label and
introduces only proper subformulas, so the guard at that limit doubles as a
bug detector.  An expansion may also return no premises, which makes the
label a leaf: that is how a client cuts a subtree it already knows.  The
provability search does so for labels whose settled part is valid, and
``build_rwbl_tree`` for labels it has already folded.

The all-atomic sequents of a label, its settled part S, never pivot, and the
calculus carries them unchanged into every premise; the pivot and the
rewritten occurrences lie in the rest, the open part U.  So the premises of
S ∪ U are S joined to each premise of U, with the same tags and indices.
``build_rwbl_tree`` relies on this identity to expand each distinct open
part once per call.

A certificate compresses one branch into the sequence of premise indices
taken at each level, padded with zeros once a leaf is reached; its length is
exactly the connective count of the root formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .calculus import Premise, rwbl_premises
from .formula import TOP, Formula, check_limits, complexity, parse, render
from .hypersequent import (
    RelationalHypersequent,
    RelationalSequent,
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
    the root).  Leaves have no children.  In a tree from build_rwbl_tree,
    nodes with equal labels share one children tuple.
    """

    label: RelationalHypersequent
    premise_index: int | None
    premise_tag: str | None
    children: tuple[ReductionNode, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class TreeStats:
    """Height, node and leaf counts, and the heaviest branch weight.

    The counts describe every node occurrence.  A branch weighs the sum of
    label_weight over its labels, from the root to its leaf.
    """

    height: int
    node_count: int
    leaf_count: int
    max_branch_weight: int


@dataclass(frozen=True)
class ReductionTree:
    """The reduction tree of a formula, with the statistics of all its nodes."""

    formula: Formula
    root: ReductionNode
    stats: TreeStats


def root_label(formula: Formula) -> RelationalHypersequent:
    """The goal hypersequent asserting the formula is designated."""
    return hseq(seq((TOP,), preceq(), (formula,)))


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
    from its premises' values.  The walk keeps only the current branch, so
    every occurrence of a label is expanded and valued; a client cuts a
    subtree it already knows by returning no premises.  A reducible label at
    depth limit raises ReductionDepthError.  Returns (root value, None), or,
    as soon as stop holds for a leaf's value, that value and its path.
    """
    # One frame per inner node on the current branch: its label, premises,
    # and the values of the premises folded so far.
    frames: list[tuple[RelationalHypersequent, tuple[Premise, ...], list[V]]] = []
    label = root
    while True:
        check_generated_shape(label)
        if not is_irreducible(label):
            if len(frames) >= limit:
                raise ReductionDepthError("reducible node at the depth limit")
            premises = expand(label)
            if premises:
                frames.append((label, premises, []))
                label = premises[0].label
                continue
        value = leaf(label)
        if stop is not None and stop(value):
            moves = tuple(ps[len(vs)].index for _, ps, vs in frames)
            return value, (moves, tuple(f[0] for f in frames) + (label,))
        while frames:
            parent, premises, values = frames[-1]
            values.append(value)
            if len(values) < len(premises):
                label = premises[len(values)].label
                break
            frames.pop()
            value = inner(parent, premises, values)
        else:
            return value, None


def _by_open_part(expand: Expand) -> Expand:
    """expand, called at most once per distinct open part over the result's life.

    A label S ∪ U with a non-empty settled part S gets the premises of U, each
    joined to S by one set union, with U's tags and indices; a label with no
    settled part is its own open part and is expanded as it is.
    """
    memo: dict[frozenset[RelationalSequent], tuple[Premise, ...]] = {}

    def by_open_part(label: RelationalHypersequent) -> tuple[Premise, ...]:
        settled = frozenset(s for s in label if s.all_atomic)
        open_part = label - settled if settled else label
        premises = memo.get(open_part)
        if premises is None:
            premises = expand(RelationalHypersequent(open_part) if settled else label)
            memo[open_part] = premises
        if not settled:
            return premises
        return tuple(
            Premise(p.tag, p.index, RelationalHypersequent(settled | p.label))
            for p in premises
        )

    return by_open_part


def label_weight(g: RelationalHypersequent) -> int:
    """Size of a label: connectives plus atoms plus relations, over its sequents.

    A bare top element counts as a single atom; compound elements count
    their connectives and their literal leaves.  Each sequent caches its own
    share (``RelationalSequent.weight``), so a sequent shared by many labels
    is weighed once.
    """
    return sum(s.weight for s in g)


# A subtree as build_rwbl_tree folds it: its root's children and its statistics.
Folded = tuple[tuple[ReductionNode, ...], TreeStats]


def build_rwbl_tree(formula: Formula) -> ReductionTree:
    """Full reduction tree in the whole-hypersequent rewriting calculus.

    The depth limit is the connective count of the formula, which is a
    proven bound on the height; exceeding it raises ReductionDepthError.
    Formulas beyond the parser's size limits raise ValueError.  Premises of a
    label S ∪ U with settled part S are S ∪ premises(U), so each distinct
    open part U is expanded once.  The pass that builds the nodes also
    computes the tree's statistics.  A label already folded is cut from the
    walk and reuses its fold, so equal labels share one children tuple.
    """
    check_limits(formula)
    root = root_label(formula)
    limit = complexity(formula)
    by_open_part = _by_open_part(rwbl_premises)
    folded: dict[RelationalHypersequent, Folded] = {}

    def inner(
        label: RelationalHypersequent, premises: tuple[Premise, ...], subtrees: Sequence[Folded]
    ) -> Folded:
        children = tuple(
            ReductionNode(p.label, p.index, p.tag, sub) for p, (sub, _) in zip(premises, subtrees)
        )
        subs = [stats for _, stats in subtrees]
        folded[label] = children, TreeStats(
            1 + max(s.height for s in subs),
            1 + sum(s.node_count for s in subs),
            sum(s.leaf_count for s in subs),
            label_weight(label) + max(s.max_branch_weight for s in subs),
        )
        return folded[label]

    (children, stats), _ = fold_tree(
        root,
        lambda label: () if label in folded else by_open_part(label),
        limit,
        lambda label: folded.get(label) or ((), TreeStats(0, 1, 1, label_weight(label))),
        inner,
    )
    # The walk does not enter a reused fold, so its depth guard misses one
    # that sits deeper than its first occurrence allows; the root's height,
    # the greatest depth plus subtree height over all occurrences, does not.
    if stats.height > limit:
        raise ReductionDepthError("reducible node at the depth limit")
    return ReductionTree(formula, ReductionNode(root, None, None, children), stats)


def tree_stats(tree: ReductionTree) -> TreeStats:
    """The statistics build_rwbl_tree computed while building the tree."""
    return tree.stats


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
        # type() and not isinstance(): JSON true and false are bool, a subclass of int.
        if not isinstance(moves, list) or not all(type(m) is int for m in moves):
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
    Formulas beyond the parser's size limits raise ValueError.
    """
    check_limits(formula)
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
        {"formula": render(tree.formula), "mode": "rwbl", "root": node_obj(tree.root)}
    )
