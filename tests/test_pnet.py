""".pnet text format: parsing, validation errors, canonical round-trip."""

import random

import pytest

from overseer import parse_net, serialize_net
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


def test_duplicate_place_declaration():
    with pytest.raises(PnetSyntaxError) as err:
        parse_net("net n\nplaces A A\n")
    assert err.value.line == 2


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


def test_missing_sections_rejected():
    with pytest.raises(PnetSyntaxError):
        parse_net("places A\n")
    with pytest.raises(PnetSyntaxError):
        parse_net("net n\n")


def test_unclosed_forbidden_block():
    with pytest.raises(PnetSyntaxError):
        parse_net("net n\nplaces A\ninitial A\nforbidden {\n  deadlock\n")


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
