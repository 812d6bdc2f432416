"""Tiny boolean language for response preconditions.

Grammar (precedence NOT > AND > OR)::

    expr  := or
    or    := and ( "||" and )*
    and   := not ( "&&" not )*
    not   := "!" not | atom
    atom  := "true" | "false" | IDENT | "(" expr ")"
    IDENT := [a-z_][a-z0-9_]*

A precondition holds at most ``MAX_TOKENS`` tokens, which bounds both the
parser's recursion and the height of the tree.  Each node of the tree
evaluates itself against a fact map.  Fact names that are missing from
the fact map evaluate to ``false`` (fail-closed): a response whose
prerequisites cannot be verified must not be applied.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union


#: Most tokens one precondition may hold; the longest shipped or benchmark
#: precondition has 8.
MAX_TOKENS = 128


class PreconditionError(ValueError):
    """Raised for expressions that do not match the grammar or exceed
    ``MAX_TOKENS``."""


@dataclass(frozen=True, slots=True)
class Lit:
    value: bool

    def evaluate(self, facts: Mapping[str, bool]) -> bool:
        return self.value


@dataclass(frozen=True, slots=True)
class Fact:
    name: str

    def evaluate(self, facts: Mapping[str, bool]) -> bool:
        return bool(facts.get(self.name, False))


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Expr"

    def evaluate(self, facts: Mapping[str, bool]) -> bool:
        return not self.operand.evaluate(facts)


@dataclass(frozen=True, slots=True)
class And:
    left: "Expr"
    right: "Expr"

    def evaluate(self, facts: Mapping[str, bool]) -> bool:
        return self.left.evaluate(facts) and self.right.evaluate(facts)


@dataclass(frozen=True, slots=True)
class Or:
    left: "Expr"
    right: "Expr"

    def evaluate(self, facts: Mapping[str, bool]) -> bool:
        return self.left.evaluate(facts) or self.right.evaluate(facts)


Expr = Union[Lit, Fact, Not, And, Or]

_TOKEN = re.compile(r"\s*(?:([a-z_][a-z0-9_]*)|(&&|\|\||!|\(|\)))")


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise PreconditionError(
                f"unexpected character {rest[0]!r} at offset {len(text) - len(rest)}"
            )
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PreconditionError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_or(self) -> Expr:
        node = self.parse_and()
        while self.peek() == "||":
            self.take()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Expr:
        node = self.parse_not()
        while self.peek() == "&&":
            self.take()
            node = And(node, self.parse_not())
        return node

    def parse_not(self) -> Expr:
        if self.peek() == "!":
            self.take()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.take()
        if tok == "(":
            node = self.parse_or()
            if self.take() != ")":
                raise PreconditionError("expected ')'")
            return node
        if tok == "true":
            return Lit(True)
        if tok == "false":
            return Lit(False)
        if tok in ("&&", "||", ")", "!"):
            raise PreconditionError(f"unexpected token {tok!r}")
        return Fact(tok)


def parse_expr(text: str) -> Expr:
    tokens = tokenize(text)
    if len(tokens) > MAX_TOKENS:
        raise PreconditionError(f"{len(tokens)} tokens, more than the {MAX_TOKENS} allowed")
    parser = _Parser(tokens)
    node = parser.parse_or()
    if parser.peek() is not None:
        raise PreconditionError(f"trailing input starting at {parser.peek()!r}")
    return node


@dataclass(frozen=True)
class Precondition:
    """A parsed precondition, ready to evaluate against a fact map."""

    tree: Expr

    @classmethod
    def parse(cls, text: str) -> "Precondition":
        return cls(tree=parse_expr(text))

    def evaluate(self, facts: Mapping[str, bool]) -> bool:
        return self.tree.evaluate(facts)
