"""End-to-end provability decisions and the command line interface."""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import blprover
import blprover.prover as prover
from blprover import (
    Certificate,
    check_no_tautology,
    check_tautology,
    cli_main,
    complexity,
    parse,
    verify_branch_countermodel,
)
from blprover import axiom_check
from blprover.axiom_check import check_axiom
from blprover.calculus import rwbl_premises
from blprover.formula import BOT, MAX_CONNECTIVES, MAX_NESTING, Conj, Impl, Var
from blprover.hypersequent import RelationalHypersequent, is_irreducible
from blprover.reduction import build_rwbl_tree, fold_tree, follow_certificate, root_label
from blprover.semantics import INF, Finite, Valuation, eval_formula
from support import (
    branch_estimate,
    implication_chain,
    oracle_leaf_satisfiable,
    random_formula,
    variables_in,
    walk_stats,
)

WEAKENING = "(p1 * p2) -> p1"
EX_FALSO = "0 -> p1"
COMMUTATIVITY = "(p1 * p2) -> (p2 * p1)"
IDENTITY = "p1 -> p1"

NON_THEOREMS = ["p1", "0", "p1 -> p1 * p1", "((p1 -> 0) -> 0) -> p1", "p1 -> p2"]

# Input files the CLI must refuse with exit 2, and the start of its error line:
# bytes that are not UTF-8, and JSON nested deeper than json.loads can recurse.
BAD_BYTES = [(b"\xff\xfe", "cannot read"), (b"[" * 200_000, "malformed")]
BAD_BYTES_IDS = ["not_utf8", "too_deep"]


@pytest.mark.parametrize("text", [WEAKENING, EX_FALSO, COMMUTATIVITY, IDENTITY])
def test_provable_formulas(text):
    result = check_tautology(parse(text))
    assert result.provable
    assert result.certificate is None
    assert result.countermodel is None
    assert result.branch is None


@pytest.mark.parametrize("text", NON_THEOREMS)
def test_unprovable_formulas_come_with_evidence(text):
    formula = parse(text)
    result = check_tautology(formula)
    assert not result.provable
    assert verify_branch_countermodel(result.countermodel, result.branch, formula)
    assert result.certificate is not None
    assert len(result.certificate.moves) == complexity(formula)
    outcome = check_no_tautology(formula, result.certificate)
    assert outcome.accepted
    assert outcome.reason == "leaf refuted"
    assert outcome.countermodel == result.countermodel


def test_branch_runs_from_root_to_a_leaf():
    formula = parse("p1 -> p1 * p1")
    result = check_tautology(formula)
    assert result.branch[0] == root_label(formula)
    assert is_irreducible(result.branch[-1])


def test_certificate_for_a_provable_formula_is_rejected():
    outcome = check_no_tautology(parse(IDENTITY), Certificate((1,)))
    assert not outcome.accepted
    assert outcome.reason == "certified leaf is an axiom"


def test_double_negation_is_not_eliminable_but_its_closure_holds():
    assert not check_tautology(parse("~~p1 -> p1")).provable
    assert check_tautology(parse("~~(~~p1 -> p1)")).provable
    assert check_tautology(parse("~~(p1 -> p1)")).provable


@pytest.mark.parametrize(
    "entry",
    [
        check_tautology,
        lambda formula: check_no_tautology(formula, Certificate((1,))),
        build_rwbl_tree,
        lambda formula: follow_certificate(formula, Certificate((1,))),
    ],
    ids=["rwbl", "verify", "rwbl_tree", "replay"],
)
def test_formulas_built_past_the_parser_limits_are_refused(entry):
    # The parser never sees API-built formulas; the recursive helpers would end
    # in RecursionError on this chain, so the entry points must refuse it first.
    with pytest.raises(ValueError, match="nested deeper than 100 levels"):
        entry(implication_chain(3000))


def test_soundness_checks_survive_optimised_mode():
    # Under -O assert statements vanish, so a refutation that comes without a
    # countermodel, a broken leaf-check invariant and a tree past its height
    # limit must still be stopped by an explicit raise.
    script = textwrap.dedent(
        """
        import sys
        import blprover.prover as prover
        from blprover import AxiomVerdict, Certificate, parse

        if __debug__:
            sys.exit("assertions are still enabled")
        prover.check_axiom = lambda leaf, cache=None: AxiomVerdict(False, lambda: None)
        formula = parse("p1 -> p2")
        for decide in (
            lambda: prover.check_tautology(formula),
            lambda: prover.check_no_tautology(formula, Certificate((1,))),
        ):
            try:
                decide()
            except AssertionError:
                continue
            sys.exit("a refutation without a countermodel was accepted")
        from blprover import TOP, Var, preceq, seq
        from blprover.axiom_check import LeafCache, _add_frac
        for broken in (
            lambda: _add_frac({}, TOP, 1),
            # p1 is outside the search's numbering, which p2's search made.
            lambda: LeafCache((Var(2),)).compile(seq((Var(1),), preceq(), ()), ()),
        ):
            try:
                broken()
            except AssertionError:
                continue
            sys.exit("a broken leaf-check invariant went unnoticed")
        import blprover.reduction as reduction
        from support import deep_reuse_table
        formula = parse("p1 -> p2 -> p3 -> p4")
        table = deep_reuse_table(formula)
        reduction.rwbl_premises = lambda label, memo: table[label]
        try:
            reduction.build_rwbl_tree(formula)
        except reduction.ReductionDepthError:
            pass
        else:
            sys.exit("a reused fold deeper than the height limit went unnoticed")
        """
    )
    src = str(Path(blprover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_decisions_are_deterministic():
    formula = parse("p1 -> p1 * p1")
    first = check_tautology(formula)
    second = check_tautology(formula)
    assert first.certificate == second.certificate
    assert first.countermodel == second.countermodel


def test_outputs_do_not_depend_on_the_hash_seed():
    """Labels iterate in hash order, so two seeds must print the same bytes.

    Sequents hash by identity, so that order follows memory addresses; the
    system allocator places objects elsewhere than Python's own, and must
    print the same bytes too.
    """
    # The four non-theorems of acceptance criterion 2.
    commands = [
        ["prove", text, "--json", "--countermodel", "--certificate"]
        for text in ("p1", "0", "p1 -> p1 * p1", "((p1 -> 0) -> 0) -> p1")
    ]
    commands += [
        ["tree", text, *emit]
        for text in (COMMUTATIVITY, "p1 -> p1 * p1", "(p1 -> (p2 -> p3)) -> ((p1 * p2) -> p3)")
        for emit in ([], ["--emit", "json"], ["--emit", "dot"])
    ]
    script = textwrap.dedent(
        """
        import json, sys
        from blprover import cli_main
        for argv in json.loads(sys.argv[1]):
            cli_main(argv)
        """
    )
    src = str(Path(blprover.__file__).resolve().parents[1])
    outputs = []
    for setting in ({"PYTHONHASHSEED": "1"}, {"PYTHONHASHSEED": "2"}, {"PYTHONMALLOC": "malloc"}):
        env = {**os.environ, "PYTHONPATH": src, **setting}
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    first, *others = (out.splitlines() for out in outputs)
    assert sum(line == "digraph reduction {" for line in first) == 3
    for other in others:
        # Line numbers, not a diff: a diff of outputs this long takes minutes.
        differing = [i for i, (a, b) in enumerate(zip(first, other)) if a != b]
        assert (len(first), differing[:5]) == (len(other), [])


GOLDEN_COMMANDS = [
    ["prove", "--json", "--countermodel", "--certificate"],
    ["tree"],
    ["tree", "--emit", "json"],
    ["tree", "--emit", "dot"],
    ["tree", "--stats"],
]

# The sha256 of each formula's outputs from the commands above, in order, each
# followed by its exit code.  A change that keeps every output keeps these;
# only a change meant to alter outputs may record them again.  The last six
# formulas come from the seed-1 corpus panels of the benchmark.
GOLDEN_CLI_DIGESTS = [
    ("p1 -> p1 * p1", "edf9332191ae66c180971ce53a0665ba85f28eef36a477428cf89e18d0302cfc"),
    ("p1 * p1 -> p1", "4eb58d3ff3b738a4506f1df710a0b1d9fe8bc5c5559ee527bce77daea7687bcb"),
    ("~~p1 -> p1", "9e9a1be576f07ca6af468f5a48928ebd97124631f69bdd8e9239cd842a84f525"),
    ("0 -> p1", "9a4d5e9fd935256aa1fa1b04ba2e2ea8a049c252d148a086fca4baa0cb1b861e"),
    ("(p1 -> p2) * (p2 -> p3) -> (p1 -> p3)", "42d1936142d178c77efa55a576ff6035fd5d4fa859769ec8f1898f3a07dfc7ef"),
    ("(p1 <-> p2) -> (p2 <-> p1)", "b0fc446dfc5cb5dde949f975521e36b22be86e203b7aa6abeb7434b3e2e1f612"),
    ("(p7 * (p9 -> p7))", "2e07962aec357774f71042ddbb5b18a2bcdb4ddf88420b2653df49fdd9b7ab53"),
    ("(((p9 * p5) -> 0) -> p3)", "6e40e7adc30e154d26316fdca6d159a6a13343b6c8ae276f573bd7811cfc70a5"),
    ("((p8 * (p6 -> p2)) * (0 -> 0))", "1bab2f196c0e9c6c49af1523a5fb22ff0b16cc1c862ff18b90c23bf63fdf6c35"),
    ("(p2 -> ((p2 * (p1 * p5)) -> p2))", "c7ba8a6fd1e07fa9752a19e7288d1666bedfbd3bbee18edfef3dbfac2640dbac"),
    ("(p4 * (p4 * ((p3 * p4) -> p4)))", "6d226da3f76194f1a20699a6b76f0a139fe9571b546331521b73570838675d93"),
    ("((p4 -> 0) -> (((p8 * p8) -> (0 * p8)) -> p8))", "8f0cd192e89296e254128683ed5df62f371743e0de686e12b57b4a0d45d3cfb9"),
]


@pytest.mark.parametrize("text,digest", GOLDEN_CLI_DIGESTS, ids=[t for t, _ in GOLDEN_CLI_DIGESTS])
def test_cli_outputs_match_their_recorded_digests(text, digest):
    out = io.StringIO()
    for command, *options in GOLDEN_COMMANDS:
        with contextlib.redirect_stdout(out):
            code = cli_main([command, text, *options])
        out.write(f"exit {code}\n")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def _reference_search(formula):
    """The search without the prune: every label expanded, every leaf classified."""

    def leaf(label):
        verdict = check_axiom(label)
        return None if verdict.is_axiom else verdict

    return fold_tree(
        root_label(formula),
        rwbl_premises,
        complexity(formula),
        leaf,
        lambda *_: None,
        lambda v: v is not None,
    )


def _assert_matches_reference(formula, result, reference):
    verdict, path = reference
    assert result.provable == (path is None)
    if path is None:
        return
    moves, branch = path
    assert result.branch == branch
    padded = moves + (0,) * (complexity(formula) - len(moves))
    assert result.certificate == Certificate(padded)
    assert result.countermodel.to_json() == verdict.countermodel.to_json()


@pytest.mark.parametrize(
    "text, provable",
    [
        ("(p1 -> p2) * (p2 -> p3) -> (p1 -> p3)", True),
        ("((p1 -> p2) -> p3) -> ((p2 -> p1) -> p3) -> p3", True),
        ("(p1 -> p2) * (p2 -> p3) -> (p3 -> p1)", False),
    ],
)
def test_the_search_builds_one_countermodel_per_refuted_formula(monkeypatch, text, provable):
    # Every refuted settled part used to get a countermodel, built and
    # re-checked, that the search threw away.  Now only the refuted leaf
    # that ends the search is read, and so is the one certificate replay.
    built, refuted = [], []
    build = axiom_check.build_countermodel
    monkeypatch.setattr(
        axiom_check, "build_countermodel", lambda *state: built.append(1) or build(*state)
    )

    def counting(leaf, cache=None):
        verdict = check_axiom(leaf, cache)
        refuted.append(not verdict.is_axiom)
        return verdict

    monkeypatch.setattr(prover, "check_axiom", counting)
    formula = parse(text)
    result = check_tautology(formula)
    assert result.provable == provable
    assert sum(refuted) > 1
    assert len(built) == (0 if provable else 1)
    if not provable:
        assert check_no_tautology(formula, result.certificate).accepted
        assert len(built) == 2


def test_pruned_search_matches_the_full_search():
    rng = random.Random(2026)
    rwbl = 0
    while rwbl < 120:
        formula = random_formula(rng, rng.randint(1, 7), 3)
        if branch_estimate(formula) > 3000:
            continue
        rwbl += 1
        result = check_tautology(formula)
        _assert_matches_reference(formula, result, _reference_search(formula))


def test_the_search_keeps_only_its_branch(monkeypatch):
    # Each frame of the branch holds its premises' labels, at most five, and
    # the branch is at most n frames deep; a memo of seen labels would grow
    # with the tree instead (1,639 live labels on this chain).
    formula = parse("(p1 -> p2) * (p2 -> p3) * (p3 -> p4) -> (p1 -> p4)")
    n = complexity(formula)

    def live_labels():
        return sum(type(o) is RelationalHypersequent for o in gc.get_objects())

    before = live_labels()
    calls = itertools.count(1)
    samples = []

    def sampling(leaf, cache=None):
        if next(calls) % 10 == 0:
            samples.append(live_labels() - before)
        return check_axiom(leaf, cache)

    monkeypatch.setattr(prover, "check_axiom", sampling)
    assert check_tautology(formula).provable
    assert samples and max(samples) <= 10 * n


def test_the_memo_holds_no_sequent_sets(monkeypatch):
    # The search keeps no memo of settled parts, and the LeafCache's memos
    # key records by sequent, groupings by bits and solves by row numbers;
    # a memo keyed by sets of sequents would grow with the tree instead
    # (1,051 live sets on this chain).  Labels are not counted.
    formula = parse("(p1 -> p2) * (p2 -> p3) * (p3 -> p4) -> (p1 -> p4)")
    n = complexity(formula)

    def live_sets():
        return sum(type(o) is frozenset for o in gc.get_objects())

    before = live_sets()
    calls = itertools.count(1)
    samples = []

    def sampling(leaf, cache=None):
        if next(calls) % 10 == 0:
            samples.append(live_sets() - before)
        return check_axiom(leaf, cache)

    monkeypatch.setattr(prover, "check_axiom", sampling)
    assert check_tautology(formula).provable
    assert samples and max(samples) <= 10 * n


@pytest.mark.parametrize(
    "text, provable, checks, groupings, solves",
    [
        ("(p1 -> p2) * (p2 -> p3) * (p3 -> p4) -> (p1 -> p4)", True, 1774, 533, 216),
        ("p1 -> (p2 -> (p3 -> (p4 -> (p5 -> (p6 -> p1)))))", True, 179, 147, 0),
        (
            "((p1 -> (p2 -> p3)) -> (p1 * p2 -> p3)) * ((p1 * p2 -> p3) -> (p1 -> (p2 -> p3)))",
            True,
            1054,
            142,
            73,
        ),
        ("(p1 -> p2) * (p2 -> p3) * (p3 -> p4) * (p4 -> p5) -> (p5 -> p1)", False, 258, 253, 96),
    ],
    ids=["chain3", "nested_weakening6", "residuation", "reversed_chain4"],
)
def test_the_memo_keeps_every_hit(monkeypatch, text, provable, checks, groupings, solves):
    # Each label the search visits is checked once: a leaf, and a reducible
    # label's settled part unless it is empty.  A part met before costs only
    # hits in the LeafCache's memos, so each distinct floor graph is grouped
    # and each distinct cluster solved once per search; a memo that lost
    # hits would group or solve more.
    counts = {"check_axiom": 0, "contract_and_sort": 0, "solve": 0}

    def counting(module, name):
        run = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return run(*args)

        monkeypatch.setattr(module, name, counted)

    counting(prover, "check_axiom")
    counting(axiom_check, "contract_and_sort")
    counting(axiom_check, "solve")
    assert check_tautology(parse(text)).provable == provable
    assert counts == {"check_axiom": checks, "contract_and_sort": groupings, "solve": solves}


def test_a_reimport_frees_the_earlier_copy():
    # perfbench imports the package afresh for each set-up.  typing caches
    # a subscripted alias built at import with strong references to its
    # arguments, so such an alias would keep every earlier copy alive.
    script = textwrap.dedent(
        """
        import gc, importlib, sys, weakref
        ref = weakref.ref(importlib.import_module("blprover").hypersequent.RelationalSequent)
        for _ in range(3):
            for name in [m for m in sys.modules if m == "blprover" or m.startswith("blprover.")]:
                del sys.modules[name]
            importlib.import_module("blprover")
        gc.collect()
        sys.exit("an earlier copy of blprover is still alive" if ref() is not None else 0)
        """
    )
    src = str(Path(blprover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_pruned_settled_parts_are_valid_by_the_oracle(monkeypatch):
    pruned = set()

    def spying_fold(root, expand, *rest):
        def recording(label):
            premises = expand(label)
            if not premises:
                pruned.add(RelationalHypersequent(tuple(s for s in label if s.all_atomic)))
            return premises

        return fold_tree(root, recording, *rest)

    monkeypatch.setattr(prover, "fold_tree", spying_fold)
    rng = random.Random(31)
    for _ in range(100):
        formula = random_formula(rng, rng.randint(2, 6), rng.randint(1, 4))
        if branch_estimate(formula) <= 3000:
            check_tautology(formula)
    assert len(pruned) >= 300
    for part in pruned:
        assert is_irreducible(part)
        assert oracle_leaf_satisfiable(part) is None, part.render()


_GRID = [INF] + [Finite(k, Fraction(n, 3)) for k in (0, 1) for n in range(3)]
_ATOMS = st.one_of(st.just(BOT), st.integers(min_value=1, max_value=3).map(Var))
_FORMULAS = st.recursive(
    _ATOMS, lambda sub: st.builds(Conj, sub, sub) | st.builds(Impl, sub, sub), max_leaves=7
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_FORMULAS)
def test_decisions_agree_with_a_grid_of_ordinal_sums(formula):
    result = check_tautology(formula)
    if result.countermodel is not None:
        assert not eval_formula(result.countermodel, formula).is_infinite
        # The refuted leaf binds every formula variable, and the certificate
        # replays to the countermodel that prove reported.
        assert {i for i, _ in result.countermodel.items()} == variables_in(formula)
        assert check_no_tautology(formula, result.certificate).countermodel == result.countermodel
    indices = sorted(variables_in(formula))
    for point in range(len(_GRID) ** len(indices)):
        values = {}
        for index in indices:
            point, digit = divmod(point, len(_GRID))
            values[index] = _GRID[digit]
        if not eval_formula(Valuation(values), formula).is_infinite:
            assert not result.provable, f"{values} refutes a formula reported provable"
            break


class TestCliProve:
    def test_provable_exit_zero(self, capsys):
        assert cli_main(["prove", WEAKENING]) == 0
        assert capsys.readouterr().out.strip() == "provable"

    def test_unprovable_exit_one(self, capsys):
        assert cli_main(["prove", "p1"]) == 1
        assert capsys.readouterr().out.strip() == "not provable"

    def test_countermodel_flag_prints_an_assignment(self, capsys):
        assert cli_main(["prove", "p1 -> p2", "--countermodel"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "not provable"
        assert "assignment" in json.loads(lines[1])

    def test_json_payload(self, capsys):
        code = cli_main(["prove", "p1 -> p2", "--json", "--countermodel", "--certificate"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["formula"] == "p1 -> p2"
        assert payload["provable"] is False
        assert "assignment" in payload["countermodel"]
        assert payload["certificate"]["formula"] == "p1 -> p2"

    @pytest.mark.parametrize("text", ["p1 -> p2", "p1 -> p1 * p1", WEAKENING])
    @pytest.mark.parametrize(
        "flags",
        [["--countermodel"], ["--certificate"], ["--countermodel", "--certificate"]],
        ids=["countermodel", "certificate", "both"],
    )
    def test_text_mode_prints_the_json_payloads_evidence(self, capsys, text, flags):
        provable = text == WEAKENING
        json_code = cli_main(["prove", text, "--json", *flags])
        payload = json.loads(capsys.readouterr().out)
        code = cli_main(["prove", text, *flags])
        lines = capsys.readouterr().out.splitlines()
        assert code == json_code == (0 if provable else 1)
        assert payload["provable"] is provable
        if provable:
            assert lines == ["provable"]
        else:
            keys = [key for key in ("countermodel", "certificate") if f"--{key}" in flags]
            evidence = [payload[key] for key in keys]
            assert lines == ["not provable", *map(json.dumps, evidence)]

    def test_parse_error(self, capsys):
        assert cli_main(["prove", "p1 ->"]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize(
        "text", ["~" * 3000 + "p1", "(" * 600 + "p1" + ")" * 600], ids=["negations", "brackets"]
    )
    def test_deep_nesting_is_a_parse_error(self, capsys, text):
        assert cli_main(["prove", text]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize(
        "command",
        [
            ["prove"],
            ["tree"],
            ["eval", "--valuation", "absent.json"],
            ["verify", "--cert", "absent.json"],
        ],
        ids=["prove", "tree", "eval", "verify"],
    )
    def test_a_numeral_past_the_digit_limit_is_a_parse_error(self, capsys, command):
        # int refuses more than 4,300 digits by default; every command parses
        # the formula before it reads a file.
        text = "p" + "9" * 4301 + " -> p1"
        assert cli_main([command[0], text, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err == "parse error: variable index has too many digits (at position 0)\n"

    def test_equivalence_chain_blow_up_is_a_parse_error(self, capsys):
        # Each <-> copies both operands: 30 operands would make 3 * (2**29 - 1)
        # connectives.
        start = time.perf_counter()
        assert cli_main(["prove", " <-> ".join(["p1"] * 30)]) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err.startswith("parse error:")

    def test_module_entry_point_runs_without_warnings(self):
        src = str(Path(blprover.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "blprover", "prove", "p1 -> p1"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "provable\n", "")

    def test_mode_option_is_a_usage_error(self, capsys):
        assert cli_main(["prove", "p1", "--mode", "rhbl"]) == 2
        assert "unrecognized arguments: --mode rhbl" in capsys.readouterr().err

    def test_missing_command_exits_two(self, capsys):
        assert cli_main([]) == 2


class TestCliVerify:
    @pytest.fixture()
    def cert_file(self, tmp_path):
        formula = parse("p1 -> p1 * p1")
        result = check_tautology(formula)
        path = tmp_path / "cert.json"
        path.write_text(result.certificate.to_json(formula), encoding="utf-8")
        return path

    def test_round_trip_accepts(self, cert_file, capsys):
        assert cli_main(["verify", "p1 -> p1 * p1", "--cert", str(cert_file)]) == 0
        assert capsys.readouterr().out.strip() == "accepted"

    def test_wrapper_object_is_unwrapped(self, cert_file, tmp_path, capsys):
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(
            json.dumps({"certificate": json.loads(cert_file.read_text())}),
            encoding="utf-8",
        )
        assert cli_main(["verify", "p1 -> p1 * p1", "--cert", str(wrapped)]) == 0

    def test_formula_mismatch_is_rejected(self, cert_file, capsys):
        assert cli_main(["verify", "p1 -> p2", "--cert", str(cert_file)]) == 1
        out = capsys.readouterr().out
        assert "certificate was issued for a different formula" in out

    def test_missing_file(self, tmp_path, capsys):
        code = cli_main(["verify", "p1", "--cert", str(tmp_path / "absent.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("cannot read certificate file:")

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]", encoding="utf-8")
        assert cli_main(["verify", "p1", "--cert", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("malformed certificate file:")

    @pytest.mark.parametrize("content, error", BAD_BYTES, ids=BAD_BYTES_IDS)
    def test_unparsable_bytes(self, tmp_path, capsys, content, error):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert cli_main(["verify", "p1", "--cert", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"{error} certificate file:")

    def test_certificate_pointing_at_an_axiom_leaf(self, tmp_path, capsys):
        path = tmp_path / "axiom.json"
        path.write_text(Certificate((1,)).to_json(parse(IDENTITY)), encoding="utf-8")
        assert cli_main(["verify", IDENTITY, "--cert", str(path)]) == 1
        assert capsys.readouterr().out.strip() == "rejected: certified leaf is an axiom"


class TestCliTree:
    def test_stats_line(self, capsys):
        assert cli_main(["tree", "p1", "--stats"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "height=0 nodes=1 leaves=1 max_branch_weight=3"

    @pytest.mark.parametrize(
        "text", [IDENTITY, "p1 * p1", "(p1 -> p2) * (p1 -> p2)", "(p1 * p2) -> (p2 -> p3)"]
    )
    def test_stats_alone_builds_no_tree(self, capsys, text):
        """tree --stats prints no tree, only a stats line that counts every node."""
        expected = walk_stats(build_rwbl_tree(parse(text)).root)
        assert cli_main(["tree", text, "--stats"]) == 0
        assert capsys.readouterr().out.strip() == (
            f"height={expected.height} nodes={expected.node_count} "
            f"leaves={expected.leaf_count} max_branch_weight={expected.max_branch_weight}"
        )

    def test_stats_follow_an_emitted_tree(self, capsys):
        assert cli_main(["tree", IDENTITY, "--emit", "json", "--stats"]) == 0
        payload, stats = capsys.readouterr().out.strip().splitlines()
        assert json.loads(payload)["mode"] == "rwbl"
        assert stats == "height=1 nodes=4 leaves=3 max_branch_weight=15"

    def test_line_dump(self, capsys):
        assert cli_main(["tree", IDENTITY]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_dot_output(self, capsys):
        assert cli_main(["tree", IDENTITY, "--emit", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_json_output(self, capsys):
        assert cli_main(["tree", IDENTITY, "--emit", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "rwbl"


class TestCliEval:
    @pytest.fixture()
    def valuation_file(self, tmp_path):
        path = tmp_path / "valuation.json"
        v = Valuation({1: Finite(2, Fraction(3, 8))})
        path.write_text(json.dumps(v.to_json()), encoding="utf-8")
        return path

    def test_variable_lookup(self, valuation_file, capsys):
        assert cli_main(["eval", "p1", "--valuation", str(valuation_file)]) == 0
        assert capsys.readouterr().out.strip() == "2+3/8"

    def test_tautology_evaluates_to_infinity(self, valuation_file, capsys):
        assert cli_main(["eval", IDENTITY, "--valuation", str(valuation_file)]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_unbound_variable(self, valuation_file, capsys):
        assert cli_main(["eval", "p2", "--valuation", str(valuation_file)]) == 2
        assert "does not bind" in capsys.readouterr().err

    def test_missing_valuation_file(self, tmp_path, capsys):
        code = cli_main(["eval", "p1", "--valuation", str(tmp_path / "nope.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("cannot read valuation file:")

    @pytest.mark.parametrize(
        "data",
        [
            {"assignment": "x"},
            {"assignment": None},
            {"assignment": {"p1": "0+1/0"}},
            {"assignment": {"p1": "1+1/2", "p01": "inf"}},
            {"assignment": {"p\u0661": "inf"}},
            {"assignment": {"p1": "1+\u0661/2"}},
        ],
        ids=[
            "string",
            "null",
            "zero_denominator",
            "leading_zero",
            "non_ascii_digit",
            "non_ascii_value_digit",
        ],
    )
    def test_malformed_valuation_file(self, tmp_path, capsys, data):
        path = tmp_path / "valuation.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["eval", "p1", "--valuation", str(path)]) == 2
        assert capsys.readouterr().err.startswith("malformed valuation file:")

    @pytest.mark.parametrize("content, error", BAD_BYTES, ids=BAD_BYTES_IDS)
    def test_unparsable_valuation_bytes(self, tmp_path, capsys, content, error):
        path = tmp_path / "valuation.json"
        path.write_bytes(content)
        assert cli_main(["eval", "p1", "--valuation", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"{error} valuation file:")


# The input contract over the whole CLI, with the parser's limits hit exactly.
# One <-> chain of k operands has 3 * (2**(k-1) - 1) connectives and 2(k-1)
# levels: 6,141 + 3,069 + 765, two joining * and 23 ~ make 10,000 in 47 levels.
def _iff_chain(operands):
    return "(" + " <-> ".join(["p1"] * operands) + ")"


_AT_CONNECTIVE_LIMIT = "~" * 23 + f"({_iff_chain(12)} * {_iff_chain(11)} * {_iff_chain(9)})"
_HUGE_NUMERAL = "9" * 4300  # the most digits int converts by default
_SMALL = ["p1 -> p2", "p1 * p2 -> p1", "~p1 -> (p1 -> 0)", "(p1 <-> p2) -> p1", "top -> p3"]
_STRAY = "()*~<->0pt$#;,.!?'\"\\ \t\u00e9\u2192\u0661\U0001f600\x00"


def _with_stray_characters(seed, count):
    """Small formulas, each with one character of _STRAY inserted at random."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        text = rng.choice(_SMALL)
        at = rng.randint(0, len(text))
        texts.append(text[:at] + rng.choice(_STRAY) + text[at:])
    return texts


CONTRACT_FORMULAS = [
    f"p{_HUGE_NUMERAL} -> p1",
    f"p{_HUGE_NUMERAL}9 -> p1",
    "~" * MAX_NESTING + "p1",
    "~" * (MAX_NESTING + 1) + "p1",
    "(" * MAX_NESTING + "p1" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "p1" + ")" * (MAX_NESTING + 1),
    _AT_CONNECTIVE_LIMIT,
    "~" + _AT_CONNECTIVE_LIMIT,
    "",
    " ",
    "()",
    "-> p1",
    "p1 -> ",
    "p1 $ p2",
    "p1 -> p2 ;",
    "p1 \u2192 p2",
    "p\u0661 -> p1",
    "p1 * p\uff12",
    "p01 -> p1",
    *_SMALL,
    *_with_stray_characters(44, 24),
]

_WELL_FORMED_CERTIFICATE = {"formula": "p1 -> p2", "moves": [1]}
CONTRACT_CERTIFICATES = [
    b"",
    b"null",
    b"[]",
    b"{}",
    b'{"certificate": 5}',
    b'{"formula": "p1 -> p2"}',
    b'{"formula": "p1 -> p2", "moves": "1"}',
    b'{"formula": "p1 -> p2", "moves": [true]}',
    b'{"formula": "p1 -> p2", "moves": [1.0]}',
    b'{"formula": "p1 -> p2", "moves": [1e999]}',
    b'{"formula": "p1 -> p2", "moves": [' + b"9" * 5000 + b"]}",
    b'{"formula": "p1 -> p2", "moves": [' + b"9" * 4000 + b"]}",
    b'{"formula": "p1 -> p2", "moves": [-1]}',
    b'{"formula": "p1 -> p2", "moves": [0]}',
    b'{"formula": "p1 -> p2", "moves": [1, 0]}',
    b'{"formula": "p2 -> p1", "moves": [1]}',
    b'{"formula": "p1 ->", "moves": [1]}',
    b'{"formula": 7, "moves": [1]}',
    b'{"formula": "p' + _HUGE_NUMERAL.encode() + b'9", "moves": []}',
    json.dumps({"certificate": _WELL_FORMED_CERTIFICATE}).encode(),
    json.dumps(_WELL_FORMED_CERTIFICATE).encode(),
    *(content for content, _ in BAD_BYTES),
]
_VALUATION = b'{"assignment": {"p1": "0+1/2", "p2": "1+0/1", "p3": "inf"}}'
CONTRACT_VALUATIONS = [
    b"",
    b"null",
    b"[]",
    b"{}",
    b'{"assignment": []}',
    b'{"assignment": {"p1": 5}}',
    b'{"assignment": {"p1": "inf", "q1": "0"}}',
    b'{"assignment": {"p1": "-1+1/2"}}',
    b'{"assignment": {"p1": "0+3/2"}}',
    b'{"assignment": {"p1": "0+1/' + b"9" * 5000 + b'"}}',
    b'{"assignment": {"p' + b"9" * 5000 + b'": "inf"}}',
    b'{"assignment": {"p1": "inf"}}',
    _VALUATION,
    *(content for content, _ in BAD_BYTES),
]


def _assert_contract(capsys, argv):
    """Exit 0, 1 or 2 and no traceback; exit 1 only with a verdict line."""
    try:
        code = cli_main(argv)
    except BaseException as exc:  # the command line would print a traceback
        pytest.fail(f"{argv[0]} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv[0], code)
    if code == 1:
        assert out.startswith(("not provable\n", "rejected: ")), out
    else:
        assert bool(out) == (code == 0) and bool(err) == (code == 2), (argv[0], code, out, err)


def test_every_input_ends_in_a_verdict_or_exit_two(tmp_path, capsys):
    # Only formulas that the parser rejects or that are known to be small reach
    # prove and tree: with no search budget, a large one would run for long.
    at_limit = parse(_AT_CONNECTIVE_LIMIT)
    assert (at_limit.complexity, at_limit.height) == (MAX_CONNECTIVES, 47)
    valuation = tmp_path / "valuation.json"
    valuation.write_bytes(_VALUATION)
    certificate = tmp_path / "certificate.json"
    for text in CONTRACT_FORMULAS:
        try:
            small = complexity(parse(text)) <= 6
        except ValueError:
            small = True
        certificate.write_text(json.dumps({"formula": text, "moves": []}), encoding="utf-8")
        commands = [["eval", "--valuation", str(valuation)], ["verify", "--cert", str(certificate)]]
        if small:
            commands += [["prove"], ["tree"]]
        for command, *options in commands:
            _assert_contract(capsys, [command, text, *options])
    for content in CONTRACT_CERTIFICATES:
        certificate.write_bytes(content)
        _assert_contract(capsys, ["verify", "p1 -> p2", "--cert", str(certificate)])
    for content in CONTRACT_VALUATIONS:
        valuation.write_bytes(content)
        _assert_contract(capsys, ["eval", "p1 -> p2", "--valuation", str(valuation)])
