"""Tiny boolean language for response preconditions.

Grammar (precedence NOT > AND > OR; ``||`` and ``&&`` nest to the left)::

    expr  := and ( "||" and )*
    and   := unary ( "&&" unary )*
    unary := "!" unary | "(" expr ")" | "true" | "false" | IDENT
    IDENT := [a-z_][a-z0-9_]*

``tokenize`` reads the text in one regular-expression pass, and
``parse_expr`` parses both binary operators with one rule over a table
of them, loosest first.  A precondition holds at most ``MAX_TOKENS``
tokens, which bounds both the parser's recursion and the height of the
tree.  Each node of the tree evaluates itself against a fact map.  Fact
names that are missing from the fact map evaluate to ``false``
(fail-closed): a response whose prerequisites cannot be verified must not
be applied.
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

#: The IDENT of the grammar: a fact name.  ``true`` and ``false`` match it
#: but are literals, so no precondition reads a fact of either name.
FACT_NAME = "[a-z_][a-z0-9_]*"

#: A fact name, an operator, or any other non-space character (an error).
_TOKEN = re.compile(rf"\s*(?:({FACT_NAME})|(&&|\|\||!|\(|\))|(\S))")
_FACT_NAME = re.compile(FACT_NAME)

#: The binary operators, loosest first, with the node each one builds.
_BINARY = (("||", Or), ("&&", And))


def is_fact_name(name: object) -> bool:
    """Whether a precondition can read a fact called ``name``."""
    return (
        isinstance(name, str) and _FACT_NAME.fullmatch(name) is not None
        and name not in ("true", "false")
    )


def tokenize(text: str) -> list[str]:
    tokens = []
    for m in _TOKEN.finditer(text):
        name, operator, unknown = m.groups()
        if unknown is not None:
            raise PreconditionError(f"unexpected character {unknown!r} at offset {m.start(3)}")
        tokens.append(name or operator)
    return tokens


def parse_expr(text: str) -> Expr:
    tokens = tokenize(text)
    if len(tokens) > MAX_TOKENS:
        raise PreconditionError(f"{len(tokens)} tokens, more than the {MAX_TOKENS} allowed")
    stack = [None, *reversed(tokens)]  # the next token on top, None for the end

    def take() -> str:
        if stack[-1] is None:
            raise PreconditionError("unexpected end of expression")
        return stack.pop()

    def binary(level: int) -> Expr:
        """One left-nested chain of ``_BINARY[level]``'s operator."""
        if level == len(_BINARY):
            return unary()
        operator, node = _BINARY[level]
        tree = binary(level + 1)
        while stack[-1] == operator:
            stack.pop()
            tree = node(tree, binary(level + 1))
        return tree

    def unary() -> Expr:
        tok = take()
        if tok == "!":
            return Not(unary())
        if tok == "(":
            tree = binary(0)
            if take() != ")":
                raise PreconditionError("expected ')'")
            return tree
        if tok in ("&&", "||", ")"):
            raise PreconditionError(f"unexpected token {tok!r}")
        return Lit(tok == "true") if tok in ("true", "false") else Fact(tok)

    tree = binary(0)
    if stack[-1] is not None:
        raise PreconditionError(f"trailing input starting at {stack[-1]!r}")
    return tree


@dataclass(frozen=True)
class Precondition:
    """A parsed precondition, ready to evaluate against a fact map."""

    tree: Expr

    @classmethod
    def parse(cls, text: str) -> "Precondition":
        return cls(tree=parse_expr(text))

    def evaluate(self, facts: Mapping[str, bool]) -> bool:
        return self.tree.evaluate(facts)
