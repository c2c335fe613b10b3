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

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[&|!()]")
# the first character no token can hold: one outside every token, or a
# digit that would start one
_BAD = re.compile(r"[^\sA-Za-z0-9_&|!()]|(?<![A-Za-z0-9_])[0-9]")


def _tokenize(text: str) -> list[str]:
    """The tokens of `text` as strings.  A character no token can hold
    is an error at its own column."""
    bad = _BAD.search(text)
    if bad:
        raise PnetSyntaxError("bad character %r in predicate" % bad.group(),
                              column=bad.start() + 1)
    return _TOKEN.findall(text)


def _column(text: str, k: int) -> int:
    """The column of token k of `text`, or just past its end."""
    starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    return starts[k] + 1


def parse_predicate(text: str):
    """Parse to a small AST of nested tuples."""
    tokens: list[str | None] = _tokenize(text)
    if not tokens:
        raise PnetSyntaxError("empty predicate")
    tokens.append(None)  # the end of the text
    pos = 0

    def parse(level):
        # level 0 joins with |, level 1 with &; level 2 is a !, a
        # parenthesized predicate or a name
        nonlocal pos
        if level < 2:
            op, kind = ("|", "or") if level == 0 else ("&", "and")
            node = parse(level + 1)
            while tokens[pos] == op:
                pos += 1
                node = (kind, node, parse(level + 1))
            return node
        tok = tokens[pos]
        pos += 1
        if tok == "!":
            return ("not", parse(2))
        if tok == "(":
            node = parse(0)
            if tokens[pos] != ")":
                raise PnetSyntaxError("missing ')' in predicate %r" % text,
                                      column=_column(text, pos))
            pos += 1
            return node
        if tok is None or tok in "&|)":
            raise PnetSyntaxError("expected a place name in predicate %r"
                                  % text, column=_column(text, pos - 1))
        return ("const", CONSTANTS[tok]) if tok in CONSTANTS else ("var", tok)

    node = parse(0)
    if tokens[pos] is not None:
        raise PnetSyntaxError("unexpected %r in predicate %r"
                              % (tokens[pos], text),
                              column=_column(text, pos))
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
