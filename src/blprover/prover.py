"""Provability decisions, certificate checking and the command line interface."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .axiom_check import AxiomVerdict, check_axiom, verify_branch_countermodel
from .calculus import Premise, rwbl_premises
from .formula import Formula, ParseError, check_limits, complexity, parse, render
from .hypersequent import RelationalHypersequent, RelationalSequent
from .hypersequent import is_irreducible  # noqa: F401  a perfbench trace target
from .reduction import (
    Certificate,
    build_rwbl_tree,
    fold_tree,
    follow_certificate,
    render_tree_dot,
    render_tree_lines,
    root_label,
    tree_to_json,
)
from .semantics import Valuation, eval_formula, render_value


@dataclass(frozen=True)
class ProveResult:
    """Verdict of check_tautology.

    Unprovable formulas carry a countermodel, the refuted branch from root to
    leaf, and a replayable certificate.
    """

    provable: bool
    certificate: Certificate | None = None
    countermodel: Valuation | None = None
    branch: tuple[RelationalHypersequent, ...] | None = None


@dataclass(frozen=True)
class VerifyOutcome:
    accepted: bool
    reason: str
    countermodel: Valuation | None = None


def check_tautology(formula: Formula) -> ProveResult:
    """Decide provability by exhaustive reduction and leaf classification.

    The search walks the rewriting tree depth first, keeping only its branch,
    whose height is at most the connective count.  Premises are explored in
    ascending index, so the reported refutation is the first invalid leaf in
    that deterministic order.  The certificate is the list of premise
    indices along the refuted branch, padded with zeros to the connective
    count.

    A label whose settled part (its all-atomic sequents, which every premise
    keeps) is an axiom is not expanded: every leaf below contains that valid
    part, so the first invalid leaf and its path do not change.  Each
    settled part is classified once and keeps only that flag; the leaf that
    ends the search is classified again if its part was met before.  One
    memo of rewrites serves the whole search, as in build_rwbl_tree.  A
    prune check reads only the verdict, so no countermodel is built unless
    a leaf ends the search.  The countermodel is the refuted leaf's,
    unchanged, as in check_no_tautology; by acceptance criterion 8 (variable
    preservation) every leaf keeps the formula's variables, so it binds them
    all.  Raises ValueError on formulas beyond the parser's size limits.
    """
    check_limits(formula)
    n = complexity(formula)
    # Settled part -> whether it is an axiom.  A leaf is its own settled part.
    valid: dict[frozenset[RelationalSequent], bool] = {}
    memo: dict = {}

    def refutation(label: RelationalHypersequent) -> AxiomVerdict | None:
        settled = frozenset(s for s in label if s.all_atomic)
        if valid.get(settled):
            return None
        verdict = check_axiom(RelationalHypersequent(settled))
        valid[settled] = verdict.is_axiom
        return None if verdict.is_axiom else verdict

    def premises(label: RelationalHypersequent) -> tuple[Premise, ...]:
        settled = frozenset(s for s in label if s.all_atomic)
        # A part known to fail is not checked again; it cannot prune.
        if settled and valid.get(settled) is not False and refutation(label) is None:
            return ()
        return rwbl_premises(label, memo)

    verdict, path = fold_tree(
        root_label(formula), premises, n, refutation, lambda *_: None, lambda v: v is not None
    )
    if path is None:
        return ProveResult(True)
    moves, branch = path
    certificate = Certificate(moves + (0,) * (n - len(moves)))
    if verdict.countermodel is None:
        raise AssertionError("refuted leaf came without a countermodel")
    if not verify_branch_countermodel(verdict.countermodel, branch, formula):
        raise AssertionError("countermodel failed to refute the full branch")
    return ProveResult(False, certificate, verdict.countermodel, branch)


def check_no_tautology(formula: Formula, certificate: Certificate) -> VerifyOutcome:
    """Accept exactly when the certificate replays to a non-axiom leaf.

    Only the certified branch is rebuilt and only its leaf is classified, so
    acceptance takes time polynomial in the formula size, with no search.
    Raises ValueError on formulas beyond the parser's size limits.
    """
    followed = follow_certificate(formula, certificate)
    if not followed.accepted:
        return VerifyOutcome(False, followed.error or "certificate replay failed")
    if followed.branch is None:
        raise AssertionError("accepted certificate replay came without a branch")
    leaf = followed.branch[-1]
    verdict = check_axiom(leaf)
    if verdict.is_axiom:
        return VerifyOutcome(False, "certified leaf is an axiom")
    if verdict.countermodel is None:
        raise AssertionError("refuted leaf came without a countermodel")
    if not verify_branch_countermodel(verdict.countermodel, followed.branch, formula):
        raise AssertionError("countermodel failed to refute the certified branch")
    return VerifyOutcome(True, "leaf refuted", verdict.countermodel)


def _build_cli() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blprover",
        description="Decision procedure for provability in basic fuzzy logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="decide whether a formula is provable")
    prove.set_defaults(run=_cmd_prove)
    prove.add_argument("formula", help="formula text, e.g. '(p1 * p2) -> p1'")
    prove.add_argument(
        "--countermodel", action="store_true", help="print a countermodel when unprovable"
    )
    prove.add_argument(
        "--certificate",
        action="store_true",
        help="print a replayable certificate when unprovable",
    )
    prove.add_argument(
        "--json", action="store_true", dest="as_json", help="machine-readable output"
    )

    verify = sub.add_parser("verify", help="replay a certificate of unprovability")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("formula")
    verify.add_argument("--cert", required=True, help="path to a certificate JSON file")

    tree = sub.add_parser("tree", help="dump the reduction tree of a formula")
    tree.set_defaults(run=_cmd_tree)
    tree.add_argument("formula")
    tree.add_argument("--emit", choices=("dot", "json"), help="output format")
    tree.add_argument("--stats", action="store_true", help="print tree statistics")

    evaluate = sub.add_parser("eval", help="evaluate a formula under a valuation")
    evaluate.set_defaults(run=_cmd_eval)
    evaluate.add_argument("formula")
    evaluate.add_argument(
        "--valuation", required=True, help="path to a countermodel JSON file"
    )
    return parser


def _cmd_prove(args, formula: Formula) -> int:
    result = check_tautology(formula)
    evidence: dict = {}
    if args.countermodel and result.countermodel is not None:
        evidence["countermodel"] = result.countermodel.to_json()
    if args.certificate and result.certificate is not None:
        evidence["certificate"] = json.loads(result.certificate.to_json(formula))
    if args.as_json:
        print(json.dumps({"formula": render(formula), "provable": result.provable, **evidence}))
    else:
        print("provable" if result.provable else "not provable")
        for item in evidence.values():
            print(json.dumps(item))
    return 0 if result.provable else 1


def _read_json_file(path: str, what: str, decode: Callable[[Any], Any]) -> Any:
    """decode applied to a JSON file's contents, or None once stderr says why not.

    Unreadable or undecodable bytes give ``cannot read``; bad JSON, JSON
    nested too deep to parse, and data decode rejects give ``malformed``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {what} file: {exc}", file=sys.stderr)
        return None
    try:
        return decode(json.loads(text))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"malformed {what} file: {exc}", file=sys.stderr)
        return None


def _decode_certificate(data: Any) -> tuple[Formula, Certificate]:
    if isinstance(data, dict) and isinstance(data.get("certificate"), dict):
        data = data["certificate"]
    return Certificate.from_json(json.dumps(data))


def _cmd_verify(args, formula: Formula) -> int:
    loaded = _read_json_file(args.cert, "certificate", _decode_certificate)
    if loaded is None:
        return 2
    cert_formula, certificate = loaded
    if cert_formula != formula:
        print("rejected: certificate was issued for a different formula")
        return 1
    outcome = check_no_tautology(formula, certificate)
    if outcome.accepted:
        print("accepted")
        return 0
    print(f"rejected: {outcome.reason}")
    return 1


def _cmd_tree(args, formula: Formula) -> int:
    tree = build_rwbl_tree(formula)
    if args.emit == "dot":
        print(render_tree_dot(tree))
    elif args.emit == "json":
        print(tree_to_json(tree))
    elif not args.stats:
        print(render_tree_lines(tree))
    if args.stats:
        stats = tree.stats
        print(
            f"height={stats.height} nodes={stats.node_count} "
            f"leaves={stats.leaf_count} max_branch_weight={stats.max_branch_weight}"
        )
    return 0


def _cmd_eval(args, formula: Formula) -> int:
    valuation = _read_json_file(args.valuation, "valuation", Valuation.from_json)
    if valuation is None:
        return 2
    try:
        value = eval_formula(valuation, formula)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_value(value))
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_cli()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        formula = parse(args.formula)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    return args.run(args, formula)
