"""Propositional formulas of Basic Logic and their concrete syntax.

The language has the constant falsum, countably many variables, strong
conjunction and implication.  Truth is a defined constant: ``top`` abbreviates
``0 -> 0``.  The parser accepts the sugar ``~A`` for ``A -> 0``, ``1``/``top``
for ``0 -> 0`` and ``A <-> B`` for ``(A -> B) * (B -> A)``; the abstract syntax
stores only the four primitive constructors.

Formulas are hash-consed: the constructors return the one live node for each
structurally distinct formula, so equality is identity and the hash is the
identity hash.  A node's connective count and height are fields set from its
children at construction; its serialization key is computed on first use
and kept on the node.
"""

from __future__ import annotations

import re
from typing import TypeVar
from weakref import KeyedRef

N = TypeVar("N")


class ParseError(ValueError):
    """Raised on malformed input, with the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InternTable(dict):
    """Canonical nodes by structural key, held through weak references.

    A reference's callback removes its entry only while the key still maps to
    that reference, so an entry dies with its node and a newer node entered
    under the same key stays.
    """

    def add(self, key: object, node: N) -> N:
        """Enter node under key and return the node the table now holds for it.

        That is node itself, unless another thread entered a live node first.
        """
        ref = KeyedRef(node, self._forget, key)
        held = self.setdefault(key, ref)
        if held is not ref:
            earlier = held()
            if earlier is not None:
                return earlier
            self[key] = ref
        return node

    def _forget(self, ref: KeyedRef) -> None:
        if self.get(ref.key) is ref:
            del self[ref.key]


class Interned:
    """Base of the hash-consed node types: immutable, compared and hashed by identity.

    ``_fields`` names the constructor arguments, which ``repr`` shows and
    pickling passes back to the constructor, so a copy is the same object.
    """

    __slots__ = ("__weakref__",)

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __repr__(self) -> str:
        # Nodes still to show and text already made share an explicit stack,
        # so a deep formula does not recurse.
        parts: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, Interned):
                stack.append(")")
                for k, name in reversed(list(enumerate(item._fields))):
                    value = getattr(item, name)
                    stack.append(value if isinstance(value, Interned) else repr(value))
                    stack.append(f"{', ' if k else ''}{name}=")
                item = f"{type(item).__name__}("
            parts.append(item)
        return "".join(parts)

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)


_INTERNED = InternTable()
_set = object.__setattr__


class Formula(Interned):
    """Base class for formula nodes.

    ``complexity`` is the connective count of the formula tree, counting a
    shared subformula once per occurrence, and ``height`` the longest chain
    of connectives from the root.
    """

    __slots__ = ("complexity", "height", "_key")

    complexity: int
    height: int


def _enter(key: tuple, node: N, complexity: int, height: int) -> N:
    _set(node, "complexity", complexity)
    _set(node, "height", height)
    _set(node, "_key", None)
    return _INTERNED.add(key, node)


class Bottom(Formula):
    """The falsum constant."""

    __slots__ = ()

    def __new__(cls) -> Bottom:
        key = (cls,)
        ref = _INTERNED.get(key)
        return (ref and ref()) or _enter(key, object.__new__(cls), 0, 0)


class Var(Formula):
    """A propositional variable ``p<index>``."""

    __slots__ = ("index",)
    _fields = ("index",)

    index: int

    def __new__(cls, index: int) -> Var:
        key = (cls, index)
        ref = _INTERNED.get(key)
        node = ref and ref()
        if node is None:
            if index < 0:
                raise ValueError(f"variable index must be nonnegative, got {index}")
            node = object.__new__(cls)
            _set(node, "index", index)
            node = _enter(key, node, 0, 0)
        return node


class _Connective(Formula):
    """A binary connective over two interned formulas."""

    __slots__ = ("left", "right")
    _fields = ("left", "right")

    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> _Connective:
        key = (cls, left, right)
        ref = _INTERNED.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls)
            _set(node, "left", left)
            _set(node, "right", right)
            node = _enter(
                key,
                node,
                1 + left.complexity + right.complexity,
                1 + max(left.height, right.height),
            )
        return node


class Conj(_Connective):
    """Strong conjunction."""

    __slots__ = ()


class Impl(_Connective):
    """Implication."""

    __slots__ = ()


BOT = Bottom()
TOP = Impl(BOT, BOT)


def is_atomic(formula: Formula) -> bool:
    """True for falsum, variables and the bare truth constant.

    A bare occurrence of ``top`` is treated as an atom by the proof search
    (it is never selected for reduction), even though structurally it is the
    implication ``0 -> 0``.
    """
    return formula.complexity == 0 or formula is TOP


def complexity(formula: Formula) -> int:
    """Number of connective occurrences.  The truth constant has complexity 1."""
    return formula.complexity


def serialize_key(formula: Formula) -> bytes:
    """Canonical prefix serialization, used as a deterministic tie-breaker.

    The encoding is injective: two formulas serialize equally iff they are
    structurally equal.  It is computed once per node and kept there; an
    explicit stack sets the keys of a node's children before its own, so a
    deep formula does not recurse.
    """
    key = formula._key
    if key is not None:
        return key
    stack = [(formula, False)]
    while stack:
        node, ready = stack.pop()
        if node._key is not None:
            continue
        if isinstance(node, Bottom):
            _set(node, "_key", b"B")
        elif isinstance(node, Var):
            _set(node, "_key", b"v%d;" % node.index)
        elif ready:
            tag = b"*" if isinstance(node, Conj) else b">"
            _set(node, "_key", tag + node.left._key + node.right._key)
        else:
            stack += ((node, True), (node.right, False), (node.left, False))
    return formula._key


def complexity_key(formula: Formula) -> tuple[int, bytes]:
    """Sort key realizing the total order used for pivot selection."""
    return (formula.complexity, serialize_key(formula))


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
# brackets, ``~`` and right operands) that parse accepts.  The parser, render
# and the prover recurse once per level, and so stay far below the default
# recursion limit; serialize_key and repr do not recurse.
MAX_NESTING = 100

# The most connectives a parsed formula may have.  ``A <-> B`` copies both
# operands, so short input can stand for a huge tree; render and
# serialize_key take time linear in the tree, about 10-20 ms at this size.
MAX_CONNECTIVES = 10_000


def check_limits(formula: Formula) -> None:
    """Raise ValueError on a formula taller than MAX_NESTING connectives or
    with more than MAX_CONNECTIVES of them.

    Both measures are fields of the node, so the check takes constant time;
    the recursive helpers call it first, so a formula built through the API
    fails here, not with RecursionError.
    """
    if formula.height > MAX_NESTING:
        raise ValueError(f"formula nested deeper than {MAX_NESTING} levels")
    if formula.complexity > MAX_CONNECTIVES:
        raise ValueError(f"formula has more than {MAX_CONNECTIVES} connectives")


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
            try:
                index = int(text[1:])
            except ValueError:  # more digits than int converts
                raise ParseError("variable index has too many digits", pos) from None
            return Var(index)
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
    if formula is TOP:
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
    reconstructed.  Raises ValueError on formulas beyond the parser's size
    limits.
    """
    check_limits(formula)
    return _render(formula, _PREC_IMPL)
