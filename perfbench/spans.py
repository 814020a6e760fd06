"""Span tracing around the package's layer boundaries, from outside the package.

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that records one span: name, start, end and the span that
was open when it began.  Spans stay in flat arrays until ``drain``, which
turns them into per-name call counts, total time and self time (total minus
the time covered by direct child spans).  Counters measured at the same
boundaries (premises made, leaves, solve outcomes, rows) live beside them.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter, defaultdict
from collections.abc import Sized
from time import perf_counter


class MissingTarget(RuntimeError):
    """A module attribute the tracer must wrap is gone."""


def _count_premises(tracer, args, kwargs, result):
    tracer.counters["premises_made"] += len(result)


def _count_leaf(tracer, args, kwargs, result):
    tracer.counters["axioms"] += bool(result.is_axiom)
    tracer.item_leaves.add(args[0])


def _count_solve(tracer, args, kwargs, result):
    tracer.counters["feasible"] += bool(result.feasible)


def _sized_rows(tracer, args, kwargs):
    # Count the rows handed to the solver; an iterator is materialised first
    # so that counting it does not consume the solver's input.
    rows = args[0] if isinstance(args[0], Sized) else list(args[0])
    tracer.counters["rows_in"] += len(rows)
    return (rows, *args[1:]), kwargs


_SUBST = (
    "subst_all",
    "subst_pair",
    "subst_balanced_conj",
    "subst_impl",
    "decompose",
    "expand_abbreviation",
)

# (module, attribute, span name, hook run before the call, hook run after it).
TARGETS = [
    ("blprover", "parse", "formula.parse", None, None),
    ("blprover", "check_tautology", "prover.check_tautology", None, None),
    ("blprover", "check_no_tautology", "prover.check_no_tautology", None, None),
    ("blprover", "build_rwbl_tree", "reduction.build_rwbl_tree", None, None),
    ("blprover", "tree_stats", "reduction.tree_stats", None, None),
    ("blprover.prover", "rwbl_premises", "calculus.rwbl_premises", None, _count_premises),
    ("blprover.reduction", "rwbl_premises", "calculus.rwbl_premises", None, _count_premises),
    ("blprover.prover", "is_irreducible", "hypersequent.is_irreducible", None, None),
    ("blprover.reduction", "is_irreducible", "hypersequent.is_irreducible", None, None),
    ("blprover.prover", "follow_certificate", "reduction.follow_certificate", None, None),
    ("blprover.prover", "check_axiom", "axiom_check.check_axiom", None, _count_leaf),
    ("blprover.axiom_check", "contract_and_sort", "axiom_check.contract_and_sort", None, None),
    ("blprover.axiom_check", "build_lp", "axiom_check.build_lp", None, None),
    ("blprover.axiom_check", "solve", "linfeas.solve", _sized_rows, _count_solve),
    ("blprover.axiom_check", "satisfies", "semantics.satisfies", None, None),
] + [("blprover.calculus", name, "hypersequent.subst", None, None) for name in _SUBST]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self.item_leaves: set = set()
        self._reset_spans()

    def _reset_spans(self) -> None:
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")

    def install(self) -> None:
        """Wrap every target; refuse to run if any of them has disappeared."""
        resolved = []
        missing = []
        for module_name, attr, span_name, before, after in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(f"{module_name}.{attr}")
                continue
            resolved.append((module, attr, original, span_name, before, after))
        if missing:
            raise MissingTarget("cannot trace, attributes not found: " + ", ".join(missing))
        for module, attr, original, span_name, before, after in resolved:
            setattr(module, attr, self._wrap(original, span_name, before, after))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span_name: str, before, after):
        name_id = self._name_ids.setdefault(span_name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span_name)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            index = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent_of.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def end_item(self) -> None:
        """Close the per-item distinct-leaf count."""
        self.counters["distinct_leaves"] += len(self.item_leaves)
        self.item_leaves.clear()

    def drain(self) -> tuple[dict, float]:
        """Per-name {calls, total, self} for the spans so far, and root-span time."""
        count = len(self.start)
        child = [0.0] * count
        duration = [self.end[i] - self.start[i] for i in range(count)]
        parent_of = self.parent_of
        root_time = 0.0
        for i in range(count):
            parent = parent_of[i]
            if parent >= 0:
                child[parent] += duration[i]
            else:
                root_time += duration[i]
        summary: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0}
        )
        names = self.names
        name_of = self.name_of
        for i in range(count):
            entry = summary[names[name_of[i]]]
            entry["calls"] += 1
            entry["total"] += duration[i]
            entry["self"] += duration[i] - child[i]
        self._reset_spans()
        return dict(summary), root_time
