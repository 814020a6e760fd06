"""Propositional formulas of Basic Logic and their concrete syntax.

The language has the constant falsum, countably many variables, strong
conjunction and implication.  Truth is a defined constant: ``top`` abbreviates
``0 -> 0``.  The parser accepts the sugar ``~A`` for ``A -> 0``, ``1``/``top``
for ``0 -> 0`` and ``A <-> B`` for ``(A -> B) * (B -> A)``; the abstract syntax
stores only the four primitive constructors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


class ParseError(ValueError):
    """Raised on malformed input, with the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Bottom(Formula):
    """The falsum constant."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    """A propositional variable ``p<index>``."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"variable index must be nonnegative, got {self.index}")


@dataclass(frozen=True)
class Conj(Formula):
    """Strong conjunction."""

    left: Formula
    right: Formula

    def __hash__(self) -> int:
        # Deep formulas are hashed constantly during label canonicalization,
        # so the recursive hash is computed once per instance.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((Conj, self.left, self.right))
            object.__setattr__(self, "_hash", cached)
        return cached


@dataclass(frozen=True)
class Impl(Formula):
    """Implication."""

    left: Formula
    right: Formula

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((Impl, self.left, self.right))
            object.__setattr__(self, "_hash", cached)
        return cached


BOT = Bottom()
TOP = Impl(BOT, BOT)


def is_atomic(formula: Formula) -> bool:
    """True for falsum, variables and the bare truth constant.

    A bare occurrence of ``top`` is treated as an atom by the proof search
    (it is never selected for reduction), even though structurally it is the
    implication ``0 -> 0``.
    """
    return isinstance(formula, (Bottom, Var)) or formula == TOP


@lru_cache(maxsize=None)
def complexity(formula: Formula) -> int:
    """Number of connective occurrences.  The truth constant has complexity 1."""
    if isinstance(formula, (Bottom, Var)):
        return 0
    assert isinstance(formula, (Conj, Impl))
    return 1 + complexity(formula.left) + complexity(formula.right)


@lru_cache(maxsize=None)
def serialize_key(formula: Formula) -> bytes:
    """Canonical prefix serialization, used as a deterministic tie-breaker.

    The encoding is injective: two formulas serialize equally iff they are
    structurally equal.
    """
    if isinstance(formula, Bottom):
        return b"B"
    if isinstance(formula, Var):
        return b"v%d;" % formula.index
    if isinstance(formula, Conj):
        return b"*" + serialize_key(formula.left) + serialize_key(formula.right)
    assert isinstance(formula, Impl)
    return b">" + serialize_key(formula.left) + serialize_key(formula.right)


def complexity_key(formula: Formula) -> tuple[int, bytes]:
    """Sort key realizing the total order used for pivot selection."""
    return (complexity(formula), serialize_key(formula))


def cmp_complexity(a: Formula, b: Formula) -> int:
    """Three-way comparison in the total complexity order.

    Formulas are compared by connective count first; ties are broken by the
    canonical serialization, so the result is 0 only for structurally equal
    formulas.  Returns -1, 0 or 1.
    """
    ka, kb = complexity_key(a), complexity_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


@lru_cache(maxsize=None)
def variables_in(formula: Formula) -> frozenset[int]:
    """Indices of the variables occurring in the formula."""
    if isinstance(formula, Bottom):
        return frozenset()
    if isinstance(formula, Var):
        return frozenset({formula.index})
    assert isinstance(formula, (Conj, Impl))
    return variables_in(formula.left) | variables_in(formula.right)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<arrow>->)
  | (?P<star>\*)
  | (?P<tilde>~)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<var>p[0-9]+)
  | (?P<bot>0|bot\b)
  | (?P<top>1|top\b)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# The deepest formula (in connectives) and the deepest parser nesting (in
# brackets, ``~`` and right operands) that parse accepts.  The formula helpers,
# render and the prover recurse once per level, and so stay far below the
# default recursion limit.
MAX_NESTING = 100

# The most connectives a parsed formula may have.  ``A <-> B`` copies both
# operands, so short input can stand for a huge tree; render and
# serialize_key take time linear in the tree, about 10-20 ms at this size.
MAX_CONNECTIVES = 10_000


def check_limits(formula: Formula) -> None:
    """Raise ValueError on a formula taller than MAX_NESTING connectives or
    with more than MAX_CONNECTIVES of them.

    The walk is iterative and measures each shared node once, keyed by
    identity because hashing and equality recurse: a formula built through
    the API fails here, not with RecursionError in a recursive helper.
    """
    measured: dict[int, tuple[int, int]] = {}
    stack = [(formula, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            left = measured.get(id(node.left), (0, 0))
            right = measured.get(id(node.right), (0, 0))
            height, size = max(left[0], right[0]) + 1, left[1] + right[1] + 1
            if height > MAX_NESTING:
                raise ValueError(f"formula nested deeper than {MAX_NESTING} levels")
            if size > MAX_CONNECTIVES:
                raise ValueError(f"formula has more than {MAX_CONNECTIVES} connectives")
            measured[id(node)] = (height, size)
        elif isinstance(node, (Conj, Impl)) and id(node) not in measured:
            # The node is measured once both children are, which happens first.
            stack += ((node, True), (node.left, False), (node.right, False))


class _Parser:
    """Recursive descent over the token stream.

    Precedence, loosest first: ``<->``, ``->`` (right associative), ``*``
    (left associative), ``~``.  ``<->`` associates to the right.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.next()
        if token[0] != kind:
            raise ParseError(f"expected {kind}, found {token[1] or 'end of input'}", token[2])
        return token

    # Each method takes its nesting depth; every recursion reaches parse_unary
    # one level deeper before it can recurse again, so the check lives there.
    def parse_equiv(self, depth: int) -> Formula:
        left = self.parse_impl(depth)
        if self.peek() == "iff":
            self.next()
            right = self.parse_equiv(depth + 1)
            return Conj(Impl(left, right), Impl(right, left))
        return left

    def parse_impl(self, depth: int) -> Formula:
        left = self.parse_conj(depth)
        if self.peek() == "arrow":
            self.next()
            return Impl(left, self.parse_impl(depth + 1))
        return left

    def parse_conj(self, depth: int) -> Formula:
        result = self.parse_unary(depth)
        while self.peek() == "star":
            self.next()
            result = Conj(result, self.parse_unary(depth))
        return result

    def parse_unary(self, depth: int) -> Formula:
        if depth > MAX_NESTING:
            raise ParseError(
                f"formula nested deeper than {MAX_NESTING} levels", self.tokens[self.pos][2]
            )
        if self.peek() == "tilde":
            self.next()
            return Impl(self.parse_unary(depth + 1), BOT)
        return self.parse_atom(depth)

    def parse_atom(self, depth: int) -> Formula:
        kind, text, pos = self.next()
        if kind == "bot":
            return BOT
        if kind == "top":
            return TOP
        if kind == "var":
            if text.startswith("p0") and text != "p0":
                raise ParseError(f"variable {text} has a leading zero", pos)
            return Var(int(text[1:]))
        if kind == "lparen":
            inner = self.parse_equiv(depth + 1)
            self.expect("rparen")
            return inner
        raise ParseError(f"expected a formula, found {text or 'end of input'}", pos)


def parse(text: str) -> Formula:
    """Parse the concrete syntax into a formula.

    Raises ParseError on malformed input, on input nested deeper than
    MAX_NESTING levels and on formulas with more than MAX_CONNECTIVES
    connectives.  Height and size are measured after parsing (check_limits),
    so those errors point at the end of the input.
    """
    parser = _Parser(_tokenize(text))
    result = parser.parse_equiv(0)
    parser.expect("eof")
    try:
        check_limits(result)
    except ValueError as err:
        raise ParseError(str(err), len(text)) from None
    return result


_PREC_IMPL = 0
_PREC_CONJ = 1
_PREC_ATOM = 2


def _render(formula: Formula, min_prec: int) -> str:
    if formula == TOP:
        return "top"
    if isinstance(formula, Bottom):
        return "0"
    if isinstance(formula, Var):
        return f"p{formula.index}"
    if isinstance(formula, Conj):
        body = f"{_render(formula.left, _PREC_CONJ)} * {_render(formula.right, _PREC_ATOM)}"
        own = _PREC_CONJ
    else:
        assert isinstance(formula, Impl)
        body = f"{_render(formula.left, _PREC_CONJ)} -> {_render(formula.right, _PREC_IMPL)}"
        own = _PREC_IMPL
    return f"({body})" if own < min_prec else body


def render(formula: Formula) -> str:
    """Canonical concrete syntax.  parse(render(f)) == f for every formula.

    The truth constant is printed as ``top``; the other sugar forms are not
    reconstructed.
    """
    return _render(formula, _PREC_IMPL)
