"""Arborescent tangle expressions: AST, concrete grammar, parsing, printing.

An expression denotes a tangle with four free ends (nw, ne, sw, se) built
from:

    O             a single positive crossing
    U             a single negative crossing
    E             the identity tangle (the 0-twist), also written 0
    n             a horizontal twist of |n| crossings, sign = handedness
    <expr>        mirror rotation (quarter turn plus mirror) of the inner tangle
    juxtaposition tangle addition, read left to right

Sugar accepted by the parser and expanded away (never present in a core AST):

    V               shorthand for <E>
    [a1,...,an]     continued-fraction nesting  <<...<an>...>a2> a1
    P(a1,...,an)    pretzel  <a1> <a2> ... <an>

Grammar (whitespace between tokens is ignored)::

    expr := term { term }
    term := atom | "<" [ expr ] ">"
    atom := "O" | "U" | "E" | "V" | int
          | "[" int { "," int } "]"
          | "P" "(" int { "," int } ")"
    int  := [ "-" ] digit { digit }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ExprSyntaxError


@dataclass(frozen=True)
class CrossingPos:
    """A single positive crossing, written ``O``."""


@dataclass(frozen=True)
class CrossingNeg:
    """A single negative crossing, written ``U``."""


@dataclass(frozen=True)
class IntTangle:
    """A horizontal twist of ``|n|`` crossings; ``IntTangle(0)`` is the identity ``E``."""

    n: int


@dataclass(frozen=True)
class Cross:
    """Mirror rotation of the inner tangle, written ``<inner>``."""

    inner: "Expr"


@dataclass(frozen=True)
class Concat:
    """Tangle addition of two or more parts, left to right."""

    parts: tuple["Expr", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("Concat needs at least two parts")


Expr = CrossingPos | CrossingNeg | IntTangle | Cross | Concat

_LEAF_TYPES = (CrossingPos, CrossingNeg, IntTangle)


def concat(*parts: Expr) -> Expr:
    """Join parts by tangle addition, flattening nested Concats.

    A single part is returned unchanged; zero parts is an error.
    """
    flat: list[Expr] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("empty concatenation")
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def continued_fraction(entries: list[int] | tuple[int, ...]) -> Expr:
    """Build the tangle of the continued fraction [a1,...,an].

    The nesting places the last entry innermost: [a,b,c] becomes <<c>b>a.
    """
    if not entries:
        raise ValueError("continued fraction needs at least one entry")
    expr: Expr = IntTangle(entries[-1])
    for a in reversed(entries[:-1]):
        expr = Concat((Cross(expr), IntTangle(a)))
    return expr


def pretzel(entries: list[int] | tuple[int, ...]) -> Expr:
    """Build the pretzel tangle <a1> <a2> ... <an>."""
    if not entries:
        raise ValueError("pretzel needs at least one entry")
    parts = tuple(Cross(IntTangle(a)) for a in entries)
    return parts[0] if len(parts) == 1 else Concat(parts)


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str
    value: int | None
    pos: int


_SINGLE = set("<>[](),OUEVP")
_TERM_START = frozenset({"<", "O", "U", "E", "V", "P", "INT", "["})


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SINGLE:
            tokens.append(_Token(c, None, i))
            i += 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", int(text[i:j]), i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("EOF", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, message: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                message or f"unexpected {tok.kind}", tok.pos, frozenset({kind})
            )
        return self.take()

    def parse_expr(self) -> Expr:
        parts = [self.parse_term()]
        while self.peek().kind in _TERM_START:
            parts.append(self.parse_term())
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def parse_term(self) -> Expr:
        tok = self.peek()
        if tok.kind == "<":
            self.take()
            if self.peek().kind == ">":
                self.take()
                return Cross(IntTangle(0))
            inner = self.parse_expr()
            closing = self.peek()
            if closing.kind != ">":
                raise ExprSyntaxError("unbalanced '<'", closing.pos, frozenset({">"}))
            self.take()
            return Cross(inner)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "O":
            return CrossingPos()
        if tok.kind == "U":
            return CrossingNeg()
        if tok.kind == "E":
            return IntTangle(0)
        if tok.kind == "V":
            return Cross(IntTangle(0))
        if tok.kind == "INT":
            return IntTangle(tok.value)  # type: ignore[arg-type]
        if tok.kind == "[":
            entries = self.parse_int_list("]")
            return continued_fraction(entries)
        if tok.kind == "P":
            self.expect("(", "expected '(' after P")
            entries = self.parse_int_list(")")
            return pretzel(entries)
        raise ExprSyntaxError(f"unexpected {tok.kind}", tok.pos, _TERM_START)

    def parse_int_list(self, closer: str) -> list[int]:
        entries = [self.expect("INT").value]
        while self.peek().kind == ",":
            self.take()
            entries.append(self.expect("INT").value)
        self.expect(closer)
        return entries  # type: ignore[return-value]


def parse(text: str) -> Expr:
    """Parse expression text into the core AST, expanding all sugar.

    Raises ExprSyntaxError on malformed input; an empty expression is an
    error rather than the identity tangle.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    if parser.peek().kind == "EOF":
        raise ExprSyntaxError("empty expression", 0, _TERM_START)
    expr = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        if trailing.kind == ">":
            raise ExprSyntaxError("unbalanced '>'", trailing.pos)
        raise ExprSyntaxError(f"unexpected {trailing.kind}", trailing.pos, _TERM_START)
    return expr


def to_text(e: Expr) -> str:
    """Canonical rendering; parse(to_text(e)) is structurally equal to e.

    Only parser-shaped trees round-trip exactly: a Concat nested directly
    inside another Concat reparses flattened (tangle addition is
    associative, so the meaning is unchanged).
    """
    if isinstance(e, CrossingPos):
        return "O"
    if isinstance(e, CrossingNeg):
        return "U"
    if isinstance(e, IntTangle):
        return "E" if e.n == 0 else str(e.n)
    if isinstance(e, Cross):
        return f"<{to_text(e.inner)}>"
    return " ".join(to_text(p) for p in e.parts)


def iter_leaves(e: Expr) -> Iterator[Expr]:
    """All IntTangle/crossing leaves in left-to-right source order."""
    if isinstance(e, _LEAF_TYPES):
        yield e
    elif isinstance(e, Cross):
        yield from iter_leaves(e.inner)
    else:
        for p in e.parts:
            yield from iter_leaves(p)


def leaves(e: Expr) -> list[tuple[int, Expr]]:
    """Leaves with their 1-based left-to-right positions."""
    return list(enumerate(iter_leaves(e), start=1))


def replace_leaf(e: Expr, index: int, new_leaf: Expr) -> Expr:
    """Return a copy of e with the leaf at 1-based position index swapped out."""
    count = len(leaves(e))
    if not 1 <= index <= count:
        raise ValueError(f"leaf index {index} out of range 1..{count}")

    counter = [0]

    def rebuild(node: Expr) -> Expr:
        if isinstance(node, _LEAF_TYPES):
            counter[0] += 1
            return new_leaf if counter[0] == index else node
        if isinstance(node, Cross):
            return Cross(rebuild(node.inner))
        return Concat(tuple(rebuild(p) for p in node.parts))

    return rebuild(e)


def mirror(e: Expr) -> Expr:
    """Mirror image: every crossing swaps handedness, twists negate."""
    if isinstance(e, CrossingPos):
        return CrossingNeg()
    if isinstance(e, CrossingNeg):
        return CrossingPos()
    if isinstance(e, IntTangle):
        return IntTangle(-e.n)
    if isinstance(e, Cross):
        return Cross(mirror(e.inner))
    return Concat(tuple(mirror(p) for p in e.parts))
