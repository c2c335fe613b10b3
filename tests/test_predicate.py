"""Forbidden-state predicate parsing and evaluation."""

import numpy as np
import pytest

from overseer import parse_predicate, predicate_places
from overseer.errors import PnetSyntaxError, UnknownPlaceName
from overseer.predicate import evaluate_predicate

IDX = {"P1": 0, "P2": 1, "P3": 2}


def _truth(expr, bits):
    tree = parse_predicate(expr)
    return bool(evaluate_predicate(tree, IDX, np.array([bits]))[0])


def test_single_place():
    assert _truth("P1", [1, 0, 0])
    assert not _truth("P1", [0, 1, 1])


def test_precedence_not_over_and_over_or():
    # !P1 & P2 | P3  ==  ((!P1) & P2) | P3
    for bits in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
        expected = ((not bits[0]) and bits[1]) or bits[2]
        assert _truth("!P1 & P2 | P3", bits) == bool(expected)


def test_parentheses_override():
    assert _truth("!(P1 | P2)", [0, 0, 1])
    assert not _truth("!(P1 | P2)", [1, 0, 0])


def test_constants():
    assert _truth("true", [0, 0, 0])
    assert not _truth("false", [1, 1, 1])


def test_places_collected():
    node = parse_predicate("(P2 & P7) | (P5 & P6)")
    assert predicate_places(node) == {"P2", "P5", "P6", "P7"}


def test_unknown_place_rejected():
    with pytest.raises(UnknownPlaceName):
        evaluate_predicate(parse_predicate("P9"), IDX,
                           np.zeros((1, 3), dtype=np.uint8))


def test_whole_truth_table_in_one_call():
    # one row per marking of three places; every node is one array op
    bits = np.array([[m >> i & 1 for i in range(3)] for m in range(8)])
    got = evaluate_predicate(parse_predicate("!P1 & P2 | P3"), IDX,
                             bits).tolist()
    assert got == [bool((not b[0] and b[1]) or b[2]) for b in bits.tolist()]
    assert evaluate_predicate(parse_predicate("true"), IDX,
                              bits).tolist() == [True] * 8


@pytest.mark.parametrize("expr", ["", "P1 &", "& P1", "(P1", "P1)", "P1 P2",
                                  "P1 && P2"])
def test_syntax_errors(expr):
    with pytest.raises(PnetSyntaxError):
        parse_predicate(expr)


# (predicate, start of the message, column); a bad character is
# reported at its own column
ERROR_COLUMNS = [
    ("P1 | | P2", "expected a place name", 6),
    ("!", "expected a place name", 2),
    ("A & (B | )", "expected a place name", 10),
    ("(A | B", "missing ')'", 7),
    ("A B", "unexpected 'B'", 3),
    ("A  $", "bad character '$'", 4),
    ("A &\t12", "bad character '1'", 5),
    ("A\u00e9", "bad character '\u00e9'", 2),
    ("  # A", "bad character '#'", 3),
]


def test_error_carries_column():
    for expr, message, column in ERROR_COLUMNS:
        with pytest.raises(PnetSyntaxError) as err:
            parse_predicate(expr)
        assert err.value.message.startswith(message), expr
        assert err.value.column == column, expr
