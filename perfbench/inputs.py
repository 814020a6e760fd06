"""Benchmark inputs and the reference checks, written without the package.

Formulas are plain tuples: ``("bot",)``, ``("var", i)``, ``("*", a, b)`` and
``("->", a, b)``.  They are rendered to text and handed to the program's
parser, so the program receives only the generated inputs.  Everything the
checks rely on (connective count, branch estimate, weight envelope and an
evaluator over ordinal sums of Lukasiewicz chains) is implemented here again,
so a defect in the package cannot hide behind itself.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

BOT = ("bot",)


def var(i: int) -> tuple:
    return ("var", i)


def imp(a: tuple, b: tuple) -> tuple:
    return ("->", a, b)


def conj(a: tuple, b: tuple) -> tuple:
    return ("*", a, b)


TOP = imp(BOT, BOT)


def render(f: tuple) -> str:
    if f[0] == "bot":
        return "0"
    if f[0] == "var":
        return f"p{f[1]}"
    return f"({render(f[1])} {f[0]} {render(f[2])})"


def complexity(f: tuple) -> int:
    if f[0] in ("bot", "var"):
        return 0
    return 1 + complexity(f[1]) + complexity(f[2])


def variables(f: tuple) -> set[int]:
    if f[0] == "bot":
        return set()
    if f[0] == "var":
        return {f[1]}
    return variables(f[1]) | variables(f[2])


def rename(f: tuple, mapping: dict[int, int]) -> tuple:
    if f[0] == "bot":
        return f
    if f[0] == "var":
        return var(mapping[f[1]])
    return (f[0], rename(f[1], mapping), rename(f[2], mapping))


def _compound(f: tuple, out: set) -> set:
    if f[0] not in ("bot", "var"):
        out.add(f)
        _compound(f[1], out)
        _compound(f[2], out)
    return out


def branch_estimate(f: tuple) -> int:
    """Product of premise fan-outs over distinct compound subformulas.

    Bare top is an atom for the calculus, so it contributes no factor.
    """
    estimate = 1
    for g in _compound(f, set()):
        if g != TOP:
            estimate *= 5 if g[0] == "*" else 3
    return estimate


def weight_bound(n: int) -> int:
    """The cubic branch-weight envelope the package documents."""
    return 24 * n**3 + 61 * n**2 + 50 * n + 13


def random_formula(rng: random.Random, connectives: int, var_count: int) -> tuple:
    """Random formula with exactly ``connectives`` connectives.

    Consumes the generator exactly as the acceptance suite's draw does, so a
    seed names the same corpus there and here.
    """
    if connectives == 0:
        if rng.random() < 0.15:
            return BOT
        return var(rng.randrange(var_count) + 1)
    left_budget = rng.randrange(connectives)
    left = random_formula(rng, left_budget, var_count)
    right = random_formula(rng, connectives - 1 - left_budget, var_count)
    return conj(left, right) if rng.random() < 0.5 else imp(left, right)


def draw_corpus(seed: int, size: int, estimate_cap: int) -> list[tuple]:
    """The first ``size`` random formulas with 1 to 8 connectives within the cap."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < size:
        f = random_formula(rng, rng.randint(1, 8), 3)
        if branch_estimate(f) <= estimate_cap:
            corpus.append(f)
    return corpus


def _chain(n: int) -> tuple:
    links = [imp(var(i), var(i + 1)) for i in range(1, n + 1)]
    premise = links[0]
    for link in links[1:]:
        premise = conj(premise, link)
    return imp(premise, imp(var(1), var(n + 1)))


def _nested_weakening(k: int) -> tuple:
    f = var(1)
    for i in range(k, 0, -1):
        f = imp(var(i), f)
    return f


def _iff(a: tuple, b: tuple) -> tuple:
    return conj(imp(a, b), imp(b, a))


def theorem_list() -> list[tuple[str, tuple]]:
    """The seven BL axiom schemes, two transitivity chains and nested weakening."""
    p1, p2, p3 = var(1), var(2), var(3)
    theorems = [
        ("suffixing", imp(imp(p1, p2), imp(imp(p2, p3), imp(p1, p3)))),
        ("weakening", imp(conj(p1, p2), p1)),
        ("commutativity", imp(conj(p1, p2), conj(p2, p1))),
        ("divisibility", imp(conj(p1, imp(p1, p2)), conj(p2, imp(p2, p1)))),
        ("residuation", _iff(imp(p1, imp(p2, p3)), imp(conj(p1, p2), p3))),
        (
            "case_split",
            imp(imp(imp(p1, p2), p3), imp(imp(imp(p2, p1), p3), p3)),
        ),
        ("ex_falso", imp(BOT, p1)),
    ]
    theorems += [(f"chain{n}", _chain(n)) for n in (2, 3)]
    theorems += [(f"nest{k}", _nested_weakening(k)) for k in range(4, 9)]
    return theorems


def random_renaming(rng: random.Random, indices: set[int]) -> dict[int, int]:
    """An injective renaming of the given variable indices into p1..p9."""
    targets = rng.sample(range(1, 10), len(indices))
    return dict(zip(sorted(indices), targets))


# Values of the extended chain: None is top, (n, q) is integer part n plus
# fraction q in [0, 1).  Integer parts order the Lukasiewicz blocks.


def _leq(x, y) -> bool:
    if y is None:
        return True
    if x is None:
        return False
    return x <= y


def _mul(x, y):
    if x is None:
        return y
    if y is None:
        return x
    if x[0] != y[0]:
        return min(x, y)
    s = x[1] + y[1]
    return (x[0], s - 1 if s >= 1 else Fraction(0))


def _imp(x, y):
    if _leq(x, y):
        return None
    if x is not None and y is not None and x[0] == y[0]:
        return (x[0], 1 - x[1] + y[1])
    return y


def evaluate(f: tuple, valuation: dict[int, object]):
    """Value of f; falsum is the bottom (0, 0)."""
    if f[0] == "bot":
        return (0, Fraction(0))
    if f[0] == "var":
        return valuation[f[1]]
    left = evaluate(f[1], valuation)
    right = evaluate(f[2], valuation)
    return _mul(left, right) if f[0] == "*" else _imp(left, right)


def parse_value(text: str):
    """Read the package's value notation: ``inf`` or ``n+a/b``."""
    if text == "inf":
        return None
    integer, fraction = text.split("+")
    return (int(integer), Fraction(fraction))


def valuation_from_json(data: dict) -> dict[int, object]:
    return {int(name[1:]): parse_value(text) for name, text in data["assignment"].items()}


GRID = [None] + [
    (n, Fraction(k, 3)) for n in range(2) for k in range(3)
]


def grid_refutation(f: tuple) -> dict[int, object] | None:
    """A grid valuation giving f a value below top, or None when there is none."""
    indices = sorted(variables(f))
    for values in itertools.product(GRID, repeat=len(indices)):
        valuation = dict(zip(indices, values))
        if evaluate(f, valuation) is not None:
            return valuation
    return None

