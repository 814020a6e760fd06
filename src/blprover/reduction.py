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
bug detector.  A leaf is an irreducible label; a client cuts a subtree it
already knows by returning no premises, which makes the label an inner node
with no premises.  The provability search cuts labels whose settled part is
valid, and ``build_rwbl_tree`` labels it has already folded.

Sibling subtrees share most of their sequents, and the calculus rewrites a
sequent the same way wherever it meets it.  So ``build_rwbl_tree``, like
the provability search, hands ``rwbl_premises`` one memo per call, and each
distinct sequent that holds a pivot is rewritten once per call.

A certificate compresses one branch into the 1-based position of the
premise taken at each level, padded with zeros once a leaf is reached; its
length is exactly the connective count of the root formula.  A tree keeps
only labels; the renderers tag each edge with its parent's pivot connective
and its position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .calculus import rwbl_premises
from .formula import TOP, Conj, Formula, check_limits, complexity, parse, render
from .hypersequent import (
    RelationalHypersequent,
    hseq,
    is_irreducible,
    most_complex,
    preceq,
    seq,
)

V = TypeVar("V")
# A step's premise labels, in case order.
Labels = tuple[RelationalHypersequent, ...]
# Premise positions (1-based) from the root, and the labels from the root to the leaf.
LeafPath = tuple[tuple[int, ...], tuple[RelationalHypersequent, ...]]


class ReductionDepthError(RuntimeError):
    """A branch exceeded the depth guard; this signals an implementation bug."""


@dataclass(frozen=True)
class ReductionNode:
    """A tree node: its label and its expansions, in premise order.

    Leaves have no children.  In a tree from build_rwbl_tree, nodes with
    equal labels share one children tuple.
    """

    label: RelationalHypersequent
    children: tuple[ReductionNode, ...]


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
    expand: Callable[[RelationalHypersequent], Labels],
    limit: int,
    leaf: Callable[[RelationalHypersequent], V],
    inner: Callable[[RelationalHypersequent, Labels, Sequence[V]], V],
    stop: Callable[[V], bool] | None = None,
) -> tuple[V, LeafPath | None]:
    """Fold the tree below root bottom-up, depth first in premise order.

    expand(label) gives the premise labels of a reducible label in case
    order.  leaf(label) values a leaf, which is irreducible; inner(label,
    premises, values) values a reducible label from its premises' values,
    and a label whose expansion gave no premises, a subtree the client cut,
    by inner(label, (), []).  The walk keeps only the current branch, so
    every occurrence of a label is expanded and valued.  A reducible label
    at depth limit raises ReductionDepthError.  Returns (root value, None),
    or, as soon as stop holds for a leaf's value, that value and its path,
    whose moves are the 1-based positions of the premises taken.
    """
    # One frame per inner node on the current branch: its label, premise
    # labels, and the values of the premises folded so far.
    frames: list[tuple[RelationalHypersequent, Labels, list[V]]] = []
    label = root
    while True:
        if is_irreducible(label):
            value = leaf(label)
            if stop is not None and stop(value):
                moves = tuple(len(vs) + 1 for _, _, vs in frames)
                return value, (moves, tuple(f[0] for f in frames) + (label,))
        else:
            if len(frames) >= limit:
                raise ReductionDepthError("reducible node at the depth limit")
            premises = expand(label)
            if premises:
                frames.append((label, premises, []))
                label = premises[0]
                continue
            value = inner(label, (), [])
        while frames:
            parent, premises, values = frames[-1]
            values.append(value)
            if len(values) < len(premises):
                label = premises[len(values)]
                break
            frames.pop()
            value = inner(parent, premises, values)
        else:
            return value, None


def label_weight(g: RelationalHypersequent) -> int:
    """Size of a label: connectives plus atoms plus relations, over its sequents.

    A bare top element counts as a single atom; compound elements count
    their connectives and their literal leaves.  Each sequent caches its own
    share (``RelationalSequent.weight``), so a sequent shared by many labels
    is weighed once.
    """
    return sum(s.weight for s in g)


# A subtree as build_rwbl_tree folds it: its root's children and its height,
# node count, leaf count and heaviest branch weight, the fields of TreeStats
# (a plain tuple: only the root's statistics become a TreeStats).
Folded = tuple[tuple[ReductionNode, ...], tuple[int, int, int, int]]


def build_rwbl_tree(formula: Formula) -> ReductionTree:
    """Full reduction tree in the whole-hypersequent rewriting calculus.

    The depth limit is the connective count of the formula, which is a
    proven bound on the height; exceeding it raises ReductionDepthError.
    Formulas beyond the parser's size limits raise ValueError.  One memo of
    rewrites serves every expansion of the call, so each distinct sequent
    that holds a pivot is rewritten once.  The pass that builds the nodes
    also computes the tree's statistics.  A label already folded is cut and
    reuses its fold, so equal labels share one children tuple.
    """
    check_limits(formula)
    root = root_label(formula)
    limit = complexity(formula)
    memo: dict = {}
    folded: dict[RelationalHypersequent, Folded] = {}

    def expand(label: RelationalHypersequent) -> Labels:
        return () if label in folded else rwbl_premises(label, memo)

    def inner(
        label: RelationalHypersequent, premises: Labels, subtrees: Sequence[Folded]
    ) -> Folded:
        if not premises:
            return folded[label]
        children = tuple(ReductionNode(p, sub) for p, (sub, _) in zip(premises, subtrees))
        heights, nodes, leaves, weights = zip(*[stats for _, stats in subtrees])
        folded[label] = children, (
            1 + max(heights),
            1 + sum(nodes),
            sum(leaves),
            label_weight(label) + max(weights),
        )
        return folded[label]

    (children, stats), _ = fold_tree(
        root, expand, limit, lambda label: ((), (0, 1, 1, label_weight(label))), inner
    )
    # The walk does not enter a reused fold, so its depth guard misses one
    # that sits deeper than its first occurrence allows; the root's height,
    # the greatest depth plus subtree height over all occurrences, does not.
    if stats[0] > limit:
        raise ReductionDepthError("reducible node at the depth limit")
    return ReductionTree(formula, ReductionNode(root, children), TreeStats(*stats))


def tree_stats(tree: ReductionTree) -> TreeStats:
    """The statistics build_rwbl_tree computed while building the tree."""
    return tree.stats


@dataclass(frozen=True)
class Certificate:
    """Premise choices along one branch, zero padded to the connective count."""

    moves: tuple[int, ...]

    def __post_init__(self) -> None:
        # type() and not isinstance(): True and False are bool, a subclass of int.
        if not all(type(m) is int for m in self.moves):
            raise ValueError("certificate moves must be a list of integers")

    def to_json(self, formula: Formula) -> str:
        return json.dumps({"formula": render(formula), "moves": list(self.moves)})

    @classmethod
    def from_json(cls, text: str) -> tuple[Formula, Certificate]:
        data = json.loads(text)
        moves = data["moves"]
        # A dict or a string would iterate into moves too.
        if not isinstance(moves, list):
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
        label = premises[move - 1]
        branch.append(label)
    if not is_irreducible(label):
        return FollowResult(False, error="certificate ends before a leaf")
    return FollowResult(True, branch=tuple(branch))


def _edge_tags(node: ReductionNode) -> list[str]:
    """Each child edge's tag: node's pivot connective and the child's 1-based position."""
    if not node.children:
        return []
    kind = "conj" if isinstance(most_complex(node.label), Conj) else "impl"
    return [f"{kind}{i}" for i in range(1, len(node.children) + 1)]


def render_tree_lines(tree: ReductionTree) -> str:
    """Text dump, one node per line: id, depth, premise tag, label, child ids."""
    lines: list[str] = []

    def walk(node: ReductionNode, depth: int, tag: str) -> int:
        # One line per node in pre-order, so a node's id is its line's index.
        node_id = len(lines)
        lines.append("")
        child_ids = [
            walk(child, depth + 1, child_tag)
            for child, child_tag in zip(node.children, _edge_tags(node))
        ]
        children = ",".join(str(c) for c in child_ids) if child_ids else "-"
        lines[node_id] = f"{node_id}\t{depth}\t{tag}\t{node.label.render()}\tchildren={children}"
        return node_id

    walk(tree.root, 0, "root")
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
        for child, tag in zip(node.children, _edge_tags(node)):
            child_id = walk(child)
            lines.append(f'  n{node_id} -> n{child_id} [label="{tag}"];')
        return node_id

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines)


def tree_to_json(tree: ReductionTree) -> str:
    """Structured JSON with nested children and premise provenance per node."""

    def node_obj(node: ReductionNode, premise: dict | None) -> dict:
        obj: dict = {"label": node.label.render()}
        if premise is not None:
            obj["premise"] = premise
        obj["children"] = [
            node_obj(child, {"tag": tag, "index": i})
            for i, (child, tag) in enumerate(zip(node.children, _edge_tags(node)), start=1)
        ]
        return obj

    return json.dumps(
        {"formula": render(tree.formula), "mode": "rwbl", "root": node_obj(tree.root, None)}
    )
