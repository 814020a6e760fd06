"""End-to-end provability decisions and the command line interface."""

import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

import blprover
from blprover import (
    Certificate,
    check_no_tautology,
    check_tautology,
    cli_main,
    complexity,
    parse,
    verify_branch_countermodel,
)
from blprover.hypersequent import is_irreducible
from blprover.reduction import ReductionDepthError, root_label
from blprover.semantics import Finite, Valuation

WEAKENING = "(p1 * p2) -> p1"
EX_FALSO = "0 -> p1"
COMMUTATIVITY = "(p1 * p2) -> (p2 * p1)"
IDENTITY = "p1 -> p1"

NON_THEOREMS = ["p1", "0", "p1 -> p1 * p1", "((p1 -> 0) -> 0) -> p1", "p1 -> p2"]


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
    assert outcome.countermodel is not None


def test_branch_runs_from_root_to_a_leaf():
    formula = parse("p1 -> p1 * p1")
    result = check_tautology(formula)
    assert result.branch[0] == root_label(formula)
    assert is_irreducible(result.branch[-1])


def test_certificate_for_a_provable_formula_is_rejected():
    outcome = check_no_tautology(parse(IDENTITY), Certificate((1,)))
    assert not outcome.accepted
    assert outcome.reason == "certified leaf is an axiom"


@pytest.mark.parametrize("text", [WEAKENING, IDENTITY, "p1", "p1 -> p2", "p1 -> p1 * p1"])
def test_single_occurrence_mode_agrees(text):
    formula = parse(text)
    rewriting = check_tautology(formula)
    one_at_a_time = check_tautology(formula, mode="rhbl")
    assert rewriting.provable == one_at_a_time.provable
    assert one_at_a_time.certificate is None


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError):
        check_tautology(parse("p1"), mode="classical")


def test_double_negation_is_not_eliminable_but_its_closure_holds():
    assert not check_tautology(parse("~~p1 -> p1")).provable
    assert check_tautology(parse("~~(~~p1 -> p1)")).provable
    assert check_tautology(parse("~~(p1 -> p1)")).provable


def test_depth_limit_cuts_the_search():
    with pytest.raises(ReductionDepthError):
        check_tautology(parse(IDENTITY), depth_limit=0)
    assert check_tautology(parse(IDENTITY), depth_limit=1).provable


def test_soundness_checks_survive_optimised_mode():
    # Under -O assert statements vanish, so a refutation that comes without a
    # countermodel must still be stopped by an explicit raise.
    script = textwrap.dedent(
        """
        import sys
        import blprover.prover as prover
        from blprover import AxiomVerdict, Certificate, parse

        if __debug__:
            sys.exit("assertions are still enabled")
        prover.check_axiom = lambda leaf: AxiomVerdict(False, None, (), None)
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
        """
    )
    src = str(Path(blprover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
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

    def test_parse_error(self, capsys):
        assert cli_main(["prove", "p1 ->"]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize(
        "text", ["~" * 3000 + "p1", "(" * 600 + "p1" + ")" * 600], ids=["negations", "brackets"]
    )
    def test_deep_nesting_is_a_parse_error(self, capsys, text):
        assert cli_main(["prove", text]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    def test_equivalence_chain_blow_up_is_a_parse_error(self, capsys):
        # Each <-> copies both operands: 30 operands would make 3 * (2**29 - 1)
        # connectives.
        start = time.perf_counter()
        assert cli_main(["prove", " <-> ".join(["p1"] * 30)]) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err.startswith("parse error:")

    def test_no_certificates_in_single_occurrence_mode(self, capsys):
        code = cli_main(["prove", "p1", "--mode", "rhbl", "--certificate"])
        assert code == 2
        assert "certificates exist only in rwbl mode" in capsys.readouterr().err

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
