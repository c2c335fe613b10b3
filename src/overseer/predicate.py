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


def parse_predicate(text: str):
    """Parse to a small AST of nested tuples."""
    tokens = _tokenize(text)
    if not tokens:
        raise PnetSyntaxError("empty predicate")
    tokens.append((None, len(text)))  # the end of the text
    pos = 0

    def parse(level):
        # level 0 joins with |, level 1 with &; level 2 is a !, a
        # parenthesized predicate or a name
        nonlocal pos
        if level < 2:
            op, kind = ("|", "or") if level == 0 else ("&", "and")
            node = parse(level + 1)
            while tokens[pos][0] == op:
                pos += 1
                node = (kind, node, parse(level + 1))
            return node
        tok, col = tokens[pos]
        pos += 1
        if tok == "!":
            return ("not", parse(2))
        if tok == "(":
            node = parse(0)
            if tokens[pos][0] != ")":
                raise PnetSyntaxError("missing ')' in predicate %r" % text,
                                      column=tokens[pos][1] + 1)
            pos += 1
            return node
        if tok is None or tok in "&|)":
            raise PnetSyntaxError("expected a place name in predicate %r"
                                  % text, column=col + 1)
        return ("const", CONSTANTS[tok]) if tok in CONSTANTS else ("var", tok)

    node = parse(0)
    tok, col = tokens[pos]
    if tok is not None:
        raise PnetSyntaxError("unexpected %r in predicate %r" % (tok, text),
                              column=col + 1)
    return node


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
