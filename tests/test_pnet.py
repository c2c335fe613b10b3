""".pnet text format: parsing, validation errors, canonical round-trip."""

import random
import re
from pathlib import Path

import pytest

import overseer
import pnet_reference
from overseer import BadStateSpec, Marking, PetriNet, parse_net, serialize_net
from overseer.errors import PnetSyntaxError, UnknownPlaceName

from netgen import random_spec, safe_net

MINIMAL = """\
net tiny
places Q
initial Q
"""

FULL = """\
# a comment
net demo
places A B C   # trailing comment
initial A
transition go controllable { in A ; out B }
transition fail uncontrollable { in B ; out C }
forbidden {
  expr "C & !A"
  deadlock
  state B C
}
"""


def test_minimal_net_parses():
    doc = parse_net(MINIMAL)
    assert doc.net.places == ("Q",)
    assert doc.net.n_transitions == 0
    assert doc.net.m0.support() == (0,)
    assert doc.spec is None


def test_full_document_parses():
    doc = parse_net(FULL)
    net = doc.net
    assert net.name == "demo"
    assert net.transitions == ("go", "fail")
    assert net.controllable == (True, False)
    assert doc.spec.expr == "C & !A"
    assert doc.spec.include_deadlocks
    assert [m.support() for m in doc.spec.explicit] == [(1, 2)]


def test_forbidden_block_on_one_line():
    doc = parse_net(
        "net n\nplaces A B\ninitial A\n"
        'forbidden { expr "A" deadlock state A B }\n'
    )
    assert doc.spec.expr == "A"
    assert doc.spec.include_deadlocks
    assert len(doc.spec.explicit) == 1


def test_unknown_place_in_arc():
    bad = "net n\nplaces A\ninitial A\n" \
          "transition t controllable { in A ; out Z }\n"
    with pytest.raises(UnknownPlaceName) as err:
        parse_net(bad)
    assert "Z" in str(err.value)


def test_unknown_place_in_expr():
    bad = "net n\nplaces A\ninitial A\nforbidden { expr \"A & Z\" }\n"
    with pytest.raises(UnknownPlaceName):
        parse_net(bad)


@pytest.mark.parametrize("name", ["true", "false"])
def test_predicate_constant_is_not_a_place_name(name):
    # in an expr the constant would silently shadow such a place
    with pytest.raises(PnetSyntaxError) as err:
        parse_net("net n\nplaces A %s\ninitial A\n" % name)
    assert (err.value.line, err.value.column) == (2, 10)
    assert "reserved" in str(err.value)


def test_duplicate_arc_entry_is_weight_error():
    bad = "net n\nplaces A B\ninitial A\n" \
          "transition t controllable { in A A ; out B }\n"
    with pytest.raises(PnetSyntaxError) as err:
        parse_net(bad)
    assert "arc weight" in str(err.value)


def test_syntax_error_location():
    with pytest.raises(PnetSyntaxError) as err:
        parse_net("net n\nplaces A\ntransition t loud { in ; out }\n",
                  source="f.pnet")
    assert err.value.source == "f.pnet"
    assert err.value.line == 3
    assert str(err.value).startswith("f.pnet:3:")


# every place parse_net raises: (id, text, exception, line, column, str)
H = "net n\nplaces A B\n"
T = H + "transition t controllable "
F = H + "forbidden "
ERRORS = [
    ("unexpected-character", H + "initial A $\n", PnetSyntaxError, 3, 11,
     "<string>:3:11: unexpected character '$'"),
    ("unterminated-string", F + '{ expr "A }\n', PnetSyntaxError, 3, 18,
     "<string>:3:18: unterminated string"),
    ("net-name-at-end-of-line", "net\n", PnetSyntaxError, 1, None,
     "<string>:1: expected net name, found end of line"),
    ("net-name-not-a-name", "net {\n", PnetSyntaxError, 1, 5,
     "<string>:1:5: expected net name, found '{'"),
    ("duplicate-net-line", "net n\nnet m\n", PnetSyntaxError, 2, 1,
     "<string>:2:1: duplicate net line"),
    ("duplicate-places-line", H + "places C\n", PnetSyntaxError, 3, 1,
     "<string>:3:1: duplicate places line"),
    ("duplicate-place", "net n\nplaces A B A\n", PnetSyntaxError, 2, 12,
     "<string>:2:12: duplicate place 'A'"),
    ("reserved-constant", "net n\nplaces A true\n", PnetSyntaxError, 2, 10,
     "<string>:2:10: place name 'true' is reserved for the predicate "
     "constant"),
    # a `state` list stops at an item keyword, so no place may be one
    ("reserved-state", "net n\nplaces A state\n", PnetSyntaxError, 2, 10,
     "<string>:2:10: place name 'state' is reserved for a forbidden block "
     "item"),
    ("reserved-expr", "net n\nplaces A expr\n", PnetSyntaxError, 2, 10,
     "<string>:2:10: place name 'expr' is reserved for a forbidden block "
     "item"),
    ("reserved-deadlock", "net n\nplaces A deadlock\n", PnetSyntaxError, 2,
     10, "<string>:2:10: place name 'deadlock' is reserved for a forbidden "
     "block item"),
    ("empty-places-line", "net n\nplaces\n", PnetSyntaxError, 2, 1,
     "<string>:2:1: places line declares no places"),
    ("duplicate-initial-line", H + "initial A\ninitial B\n",
     PnetSyntaxError, 4, 1,
     "<string>:4:1: duplicate initial line"),
    ("duplicate-initial-place", H + "initial A B A\n", PnetSyntaxError, 3, 13,
     "<string>:3:13: duplicate place 'A' in initial marking"),
    ("unknown-initial-place", H + "initial A Z\n",
     UnknownPlaceName, None, None,
     "<string>:3:11: unknown place 'Z'"),
    ("duplicate-transition", H + 2 * "transition t controllable {in;out}\n",
     PnetSyntaxError, 4, 12,
     "<string>:4:12: duplicate transition 't'"),
    ("bad-controllability", H + "transition t loud { in A ; out B }\n",
     PnetSyntaxError, 3, 14,
     "<string>:3:14: expected 'controllable' or 'uncontrollable', found "
     "'loud'"),
    ("transition-at-end-of-line", H + "transition t\n",
     PnetSyntaxError, 3, None,
     "<string>:3: expected 'controllable' or 'uncontrollable', found end of "
     "line"),
    ("transition-missing-brace", T + "in A ; out B\n", PnetSyntaxError, 3, 27,
     "<string>:3:27: expected '{', found 'in'"),
    ("transition-missing-in", T + "{ out B }\n", PnetSyntaxError, 3, 29,
     "<string>:3:29: expected 'in', found 'out'"),
    ("duplicate-in-place", T + "{ in A A ; out B }\n", PnetSyntaxError, 3, 34,
     "<string>:3:34: place 'A' listed twice in the in list of 't'; arc "
     "weights other than 1 are not supported"),
    ("duplicate-out-place", T + "{ in A ; out B B }\n", PnetSyntaxError, 3, 42,
     "<string>:3:42: place 'B' listed twice in the out list of 't'; arc "
     "weights other than 1 are not supported"),
    ("in-list-without-semicolon", T + "{ in A }\n", PnetSyntaxError, 3, 34,
     "<string>:3:34: expected place name, found '}'"),
    ("out-read-as-place", T + "{ in A out B }\n", UnknownPlaceName, None, None,
     "<string>:3:34: unknown place 'out'"),
    ("transition-missing-out", T + "{ in A ; B }\n", PnetSyntaxError, 3, 36,
     "<string>:3:36: expected 'out', found 'B'"),
    ("transition-never-closed", T + "{ in A ; out B\n",
     PnetSyntaxError, 3, None,
     "<string>:3: expected '}', found end of line"),
    ("trailing-after-transition", T + "{ in A ; out B } x\n",
     PnetSyntaxError, 3, 44,
     "<string>:3:44: trailing 'x' after transition"),
    ("duplicate-forbidden-block", F + "{ deadlock }\nforbidden { deadlock }\n",
     PnetSyntaxError, 4, 1,
     "<string>:4:1: duplicate forbidden block"),
    ("forbidden-at-end-of-line", F + "\n", PnetSyntaxError, 3, 1,
     "<string>:3:1: expected '{' after forbidden"),
    ("forbidden-missing-brace", F + "deadlock\n", PnetSyntaxError, 3, 1,
     "<string>:3:1: expected '{' after forbidden"),
    ("forbidden-never-closed", F + "{\n  deadlock\n", PnetSyntaxError, 3, None,
     "<string>:3: forbidden block is never closed"),
    ("trailing-after-block", F + "{ deadlock } x\n", PnetSyntaxError, 3, 24,
     "<string>:3:24: trailing 'x' after forbidden block"),
    ("trailing-brace-after-block", F + "{\n  deadlock\n} }\n",
     PnetSyntaxError, 5, 3,
     "<string>:5:3: trailing '}' after forbidden block"),
    ("duplicate-expr", F + '{ expr "A" expr "B" }\n', PnetSyntaxError, 3, 22,
     "<string>:3:22: duplicate expr in forbidden block"),
    ("duplicate-deadlock", F + "{ deadlock deadlock }\n",
     PnetSyntaxError, 3, 22,
     "<string>:3:22: duplicate deadlock in forbidden block"),
    ("empty-state", F + "{ state }\n", PnetSyntaxError, 3, 13,
     "<string>:3:13: forbidden state lists no places"),
    ("state-before-item", F + "{ state deadlock }\n", PnetSyntaxError, 3, 13,
     "<string>:3:13: forbidden state lists no places"),
    ("unquoted-expr", F + "{ expr A }\n", PnetSyntaxError, 3, 18,
     "<string>:3:18: expr needs a quoted expression, found 'A'"),
    ("expr-at-close-brace", F + "{ expr }\n", PnetSyntaxError, 3, 18,
     "<string>:3:18: expr needs a quoted expression, found '}'"),
    ("unknown-item", F + "{ foo }\n", PnetSyntaxError, 3, 13,
     "<string>:3:13: expected 'expr', 'deadlock', 'state' or '}', found "
     "'foo'"),
    ("state-non-name", F + "{ state A ; }\n", PnetSyntaxError, 3, 21,
     "<string>:3:21: expected place name, found ';'"),
    ("duplicate-state-place", F + "{ state A B A }\n", PnetSyntaxError, 3, 23,
     "<string>:3:23: duplicate place 'A' in forbidden state"),
    ("unknown-state-place-on-later-line", F + "{\n  state A\n  Z\n}\n",
     UnknownPlaceName, None, None,
     "<string>:5:3: unknown place 'Z'"),
    ("later-block-line-tokenized-first", F + "{ bogus\n  $ }\n",
     PnetSyntaxError, 4, 3,
     "<string>:4:3: unexpected character '$'"),
    ("bad-character-in-unclosed-block", F + "{\n  deadlock\n  $\n",
     PnetSyntaxError, 5, 3,
     "<string>:5:3: unexpected character '$'"),
    ("unknown-directive", H + "arc A B\n", PnetSyntaxError, 3, 1,
     "<string>:3:1: unknown directive 'arc'"),
    ("missing-net-line", "places A\n", PnetSyntaxError, None, None,
     "<string>: missing net line"),
    ("missing-places-line", "net n\n", PnetSyntaxError, None, None,
     "<string>: missing places line"),
    ("line-tokenized-before-read", "net n\nnet m $\n", PnetSyntaxError, 2, 7,
     "<string>:2:7: unexpected character '$'"),
    ("non-ascii-letter", H + "initial é\n", PnetSyntaxError, 3, 9,
     "<string>:3:9: expected place name, found 'é'"),
    ("digit-before-name", H + "initial 1A\n", PnetSyntaxError, 3, 9,
     "<string>:3:9: expected place name, found '1'"),
    # the net line takes nothing after the name, and an expr's errors
    # point at its quoted expression
    ("words-after-net-name", "net n extra words\nplaces A\n",
     PnetSyntaxError, 1, 7,
     "<string>:1:7: trailing 'extra' after net name"),
    ("expr-syntax-error", F + '{ expr "A & (B" }\n', PnetSyntaxError, 3, 18,
     "<string>:3:18: missing ')' in predicate 'A & (B'"),
    ("expr-unknown-place", F + '{\n  deadlock\n  expr "A | Z"\n}\n',
     UnknownPlaceName, None, None,
     "<string>:5:8: unknown place 'Z' in forbidden expr 'A | Z'"),
    ("hash-inside-quotes", F + '{ expr "A # B" }\n', PnetSyntaxError, 3, 18,
     "<string>:3:18: bad character '#' in predicate"),
    ("empty-expr", F + '{ expr "" }\n', PnetSyntaxError, 3, 18,
     "<string>:3:18: empty predicate"),
]


@pytest.mark.parametrize(
    "text, exc, line, column, message",
    [row[1:] for row in ERRORS], ids=[row[0] for row in ERRORS],
)
def test_error_contract(text, exc, line, column, message):
    with pytest.raises(exc) as err:
        parse_net(text)
    assert type(err.value) is exc
    assert getattr(err.value, "line", None) == line
    assert getattr(err.value, "column", None) == column
    assert str(err.value) == message


# what a mutation drops, inserts or replaces: a quoted string, a name,
# a run of white space or one other character
_PIECE = re.compile(r'"[^"]*"|[A-Za-z_][A-Za-z0-9_]*|\s+|.', re.S)
_DRAWS = ["{", "}", ";", "$", '"', "#", "\u00e9", "1", "\x0c", "net",
          "places", "initial", "transition", "controllable",
          "uncontrollable", "in", "out", "forbidden", "expr", "deadlock",
          "state", "true", "Z", "P99"]


def mutants(rng, text, count):
    """`count` copies of `text`, each with one or two pieces dropped,
    replaced by a draw, or preceded by one, bare or between spaces.
    The draws are the words and characters above and the names in
    `text`."""
    pieces = _PIECE.findall(text)
    draws = _DRAWS + sorted(set(re.findall(r"[A-Za-z_]\w*", text)))
    for _ in range(count):
        mutant = list(pieces)
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(len(mutant) + 1)
            draw = rng.choice(draws)
            op = rng.randrange(3) if k < len(mutant) else 2
            if op == 0:
                del mutant[k]
            elif op == 1:
                mutant[k] = draw
            else:
                mutant.insert(k, rng.choice([draw, " %s " % draw]))
        yield "".join(mutant)


def parse_outcome(parse, text):
    """The document's net and spec, or the error's class, text, line
    and column."""
    try:
        doc = parse(text)
    except Exception as exc:  # any class: the two parsers must agree
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return doc.net, doc.spec


def test_parse_matches_reference_on_mutants():
    # the parser of (text, column, line) tuples is the oracle: every
    # mutant gives the same document or the same error under both
    rng = random.Random(25)
    nets = Path(overseer.__file__).parent / "nets"
    inputs = [path.read_text(encoding="utf-8")
              for path in sorted(nets.glob("*.pnet"))]
    inputs += [row[1] for row in ERRORS] + [FULL]
    for _ in range(20):
        net, rg = safe_net(rng)
        inputs.append(serialize_net(net, random_spec(rng, net, rg)))
    for text in inputs:
        for mutant in mutants(rng, text, 12):
            assert (parse_outcome(parse_net, mutant)
                    == parse_outcome(pnet_reference.parse_net, mutant)), \
                mutant


# inputs that are easy to misread: (id, text, canonical form)
VALID = [
    ("hash-after-block-is-comment", F + '{ expr "A" } # "x#y" $\n',
     H + "initial \nforbidden {\n  expr \"A\"\n}\n"),
    ("quote-inside-comment", 'net n # a "quoted # comment\nplaces A B\n',
     H + "initial \n"),
    ("crlf-line-ends",
     "net n\r\nplaces A B\r\ninitial A\r\nforbidden {\r\n  deadlock\r\n}\r\n",
     H + "initial A\nforbidden {\n  deadlock\n}\n"),
    ("state-over-two-lines", F + "{\n  state A\n    B\n  deadlock\n}\n",
     H + "initial \nforbidden {\n  deadlock\n  state A B\n}\n"),
    ("items-share-a-line", F + '{ state A deadlock state B expr "!A" }\n',
     H + "initial \nforbidden {\n  expr \"!A\"\n  deadlock\n"
     "  state A\n  state B\n}\n"),
    ("expr-on-its-own-line", F + '{\n  expr\n  "A"\n}\n',
     H + "initial \nforbidden {\n  expr \"A\"\n}\n"),
    ("empty-forbidden-block", F + "{ }\n", H + "initial \n"),
    ("no-initial-line-and-empty-arcs", T + "{ in ; out }\n",
     H + "initial \ntransition t controllable { in ; out }\n"),
    ("expr-names-later-places", 'forbidden { expr "A" }\n' + H,
     H + "initial \nforbidden {\n  expr \"A\"\n}\n"),
]


@pytest.mark.parametrize(
    "text, canonical", [row[1:] for row in VALID],
    ids=[row[0] for row in VALID],
)
def test_valid_edge_cases(text, canonical):
    doc = parse_net(text)
    assert serialize_net(doc.net, doc.spec) == canonical


def test_round_trip_fixed():
    doc = parse_net(FULL)
    text = serialize_net(doc.net, doc.spec)
    doc2 = parse_net(text)
    assert doc2.net == doc.net
    assert doc2.spec == doc.spec
    assert serialize_net(doc2.net, doc2.spec) == text


def test_round_trip_random_nets():
    rng = random.Random(20)
    for _ in range(50):
        net, rg = safe_net(rng)
        spec = random_spec(rng, net, rg)
        text = serialize_net(net, spec)
        doc = parse_net(text)
        assert doc.net == net
        assert doc.spec == spec
        assert serialize_net(doc.net, doc.spec) == text


@pytest.mark.parametrize("name, places, transition, message", [
    ("n", ["A", "state"], "t",
     "the text format cannot express the place name 'state'"),
    ("n", ["A", "true"], "t",
     "the text format cannot express the place name 'true'"),
    ("n", ["A", "B C"], "t",
     "the text format cannot express the place name 'B C'"),
    ("n", ["A", "B"], "1t",
     "the text format cannot express the transition name '1t'"),
    ("my net", ["A", "B"], "t",
     "the text format cannot express the net name 'my net'"),
])
def test_serialize_refuses_names_parse_cannot_read(name, places, transition,
                                                   message):
    # a library-built net may hold names the text format cannot carry
    net = PetriNet(name, places, [transition], [True], [[0]], [[1]],
                   Marking.from_support(2, [0]))
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize_net(net)


@pytest.mark.parametrize("space", ["\n", "\r", "\r\n", "\x0b", "\x0c",
                                   "\x1c", "\x85", "\u2028", "\u2029"])
def test_serialize_refuses_expr_across_lines(space):
    # the predicate reads every line break as a space, but a quoted
    # string of the text format ends at its line
    net = PetriNet("n", ["A", "B"], ["t"], [True], [[0]], [[1]],
                   Marking.from_support(2, [0]))
    spec = BadStateSpec(expr="A%s| B" % space)
    with pytest.raises(ValueError, match="cannot express an expr that "
                                         "spans lines"):
        serialize_net(net, spec)


def test_serialize_refuses_empty_explicit_state():
    # `state` needs at least one place name
    net = PetriNet("n", ["A", "B"], ["t"], [True], [[0]], [[1]],
                   Marking.from_support(2, [0]))
    spec = BadStateSpec(explicit=[Marking(2, 0)])
    with pytest.raises(ValueError) as err:
        serialize_net(net, spec)
    assert str(err.value).endswith("use an expr like '!A & !B'")


def test_serialize_keeps_tab_in_expr():
    net = PetriNet("n", ["A", "B"], ["t"], [True], [[0]], [[1]],
                   Marking.from_support(2, [0]))
    spec = BadStateSpec(expr="A\t| B")
    doc = parse_net(serialize_net(net, spec))
    assert doc.spec == spec
