"""Decision procedure for provability in Hajek's basic logic BL.

The package parses formulas over strong conjunction and implication, reduces
the goal to irreducible relational hypersequents, classifies each leaf as an
axiom or refutes it with an explicit valuation into the extended unit
interval, and emits certificates of unprovability that replay in polynomial
time.
"""

from __future__ import annotations

from .axiom_check import AxiomVerdict, check_axiom, verify_branch_countermodel
from .calculus import rwbl_premises
from .formula import (
    BOT,
    TOP,
    Bottom,
    Conj,
    Formula,
    Impl,
    ParseError,
    Var,
    complexity,
    parse,
    render,
)
from .hypersequent import (
    LL,
    RelationalHypersequent,
    RelationalSequent,
    RelKind,
    hseq,
    prec,
    preceq,
    seq,
)
from .prover import (
    ProveResult,
    VerifyOutcome,
    check_no_tautology,
    check_tautology,
    cli_main,
)
from .reduction import (
    Certificate,
    ReductionTree,
    build_rwbl_tree,
    follow_certificate,
    tree_stats,
)
from .semantics import (
    INF,
    ZERO,
    Finite,
    Infinite,
    OmegaValue,
    Valuation,
    eval_formula,
    omega_imp,
    omega_mul,
    satisfies,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomVerdict",
    "BOT",
    "Bottom",
    "Certificate",
    "Conj",
    "Finite",
    "Formula",
    "INF",
    "Impl",
    "Infinite",
    "LL",
    "OmegaValue",
    "ParseError",
    "ProveResult",
    "ReductionTree",
    "RelKind",
    "RelationalHypersequent",
    "RelationalSequent",
    "TOP",
    "Valuation",
    "Var",
    "VerifyOutcome",
    "ZERO",
    "build_rwbl_tree",
    "check_axiom",
    "check_no_tautology",
    "check_tautology",
    "cli_main",
    "complexity",
    "eval_formula",
    "follow_certificate",
    "hseq",
    "omega_imp",
    "omega_mul",
    "parse",
    "prec",
    "preceq",
    "render",
    "rwbl_premises",
    "satisfies",
    "seq",
    "tree_stats",
    "verify_branch_countermodel",
]
