"""Boolean place predicates: `(P2 & P7) | (P5 & P6)`, `!P1`, `true`.

Precedence: `!` binds tighter than `&`, which binds tighter than `|`.
A name tests "place is marked".  A predicate is evaluated over many
markings at once, one array operation per node of its syntax tree.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import PnetSyntaxError, UnknownPlaceName

# names that parse as constants; a place cannot be called either
CONSTANTS = {"true": True, "false": False}

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[&|!()]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise PnetSyntaxError(
                "bad character %r in predicate" % rest[0], column=pos + 1
            )
        group = "name" if m.group("name") else "op"
        out.append((m.group(group), m.start(group)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        col = self.tokens[self.pos][1] + 1 if self.pos < len(self.tokens) else len(self.text) + 1
        raise PnetSyntaxError("%s in predicate %r" % (message, self.text), column=col)

    def parse(self):
        node = self.parse_or()
        if self.peek() is not None:
            self.fail("unexpected %r" % self.peek())
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.peek() == "|":
            self.take()
            node = ("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.peek() == "&":
            self.take()
            node = ("and", node, self.parse_not())
        return node

    def parse_not(self):
        if self.peek() == "!":
            self.take()
            return ("not", self.parse_not())
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            node = self.parse_or()
            if self.peek() != ")":
                self.fail("missing ')'")
            self.take()
            return node
        if tok is None or tok in "&|!)":
            self.fail("expected a place name")
        self.take()
        if tok in CONSTANTS:
            return ("const", CONSTANTS[tok])
        return ("var", tok)


def parse_predicate(text: str):
    """Parse to a small AST of nested tuples."""
    tokens = _tokenize(text)
    if not tokens:
        raise PnetSyntaxError("empty predicate")
    return _Parser(tokens, text).parse()


def predicate_places(node) -> set[str]:
    kind = node[0]
    if kind == "var":
        return {node[1]}
    if kind == "const":
        return set()
    if kind == "not":
        return predicate_places(node[1])
    return predicate_places(node[1]) | predicate_places(node[2])


def evaluate_predicate(tree, place_index: dict[str, int],
                       bits: np.ndarray) -> np.ndarray:
    """Per row of `bits` (one 0/1 column per place, as `net.bit_rows`
    gives them), whether the predicate `tree` (from `parse_predicate`)
    holds there: one array operation per node of the tree, reading
    only the columns it names.  The result is a fresh array, never a
    view of `bits`.  A name not in `place_index` is an error."""
    def value(node):
        kind = node[0]
        if kind == "const":
            return np.full(len(bits), node[1])
        if kind == "var":
            if node[1] not in place_index:
                raise UnknownPlaceName(
                    "unknown place %r in forbidden expr" % node[1])
            return bits[:, place_index[node[1]]].astype(bool)
        if kind == "not":
            return ~value(node[1])
        if kind == "and":
            return value(node[1]) & value(node[2])
        return value(node[1]) | value(node[2])

    return value(tree)
