"""Tiny boolean language for response preconditions.

Grammar (precedence NOT > AND > OR)::

    expr  := or
    or    := and ( "||" and )*
    and   := not ( "&&" not )*
    not   := "!" not | atom
    atom  := "true" | "false" | IDENT | "(" expr ")"
    IDENT := [a-z_][a-z0-9_]*

Fact names that are missing from the fact map evaluate to ``false``
(fail-closed): a response whose prerequisites cannot be verified must not
be applied.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union


class PreconditionError(ValueError):
    """Raised for expressions that do not match the grammar."""


@dataclass(frozen=True)
class Lit:
    value: bool


@dataclass(frozen=True)
class Fact:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Fact, Not, And, Or]

_TOKEN = re.compile(r"\s*(?:([a-z_][a-z0-9_]*)|(&&|\|\||!|\(|\)))")


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PreconditionError(
                f"unexpected character {text[pos:].lstrip()[0]!r} at offset {pos}"
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
    parser = _Parser(tokenize(text))
    node = parser.parse_or()
    if parser.peek() is not None:
        raise PreconditionError(f"trailing input starting at {parser.peek()!r}")
    return node


def evaluate(expr: Expr, facts: Mapping[str, bool]) -> bool:
    """Evaluate an expression tree against a fact map (missing facts are false)."""
    match expr:
        case Lit(value):
            return value
        case Fact(name):
            return bool(facts.get(name, False))
        case Not(operand):
            return not evaluate(operand, facts)
        case And(left, right):
            return evaluate(left, facts) and evaluate(right, facts)
        case Or(left, right):
            return evaluate(left, facts) or evaluate(right, facts)
    raise PreconditionError(f"malformed expression node: {expr!r}")


@dataclass(frozen=True)
class Precondition:
    """A parsed precondition, ready to evaluate against a fact map."""

    tree: Expr

    @classmethod
    def parse(cls, text: str) -> "Precondition":
        return cls(tree=parse_expr(text))

    def evaluate(self, facts: Mapping[str, bool]) -> bool:
        return evaluate(self.tree, facts)
