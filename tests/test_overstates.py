"""Minimal over-states (the transversal engine against the enumerating
reference), pruning, minimal elements."""

import random
from itertools import combinations, product

import pytest

from overseer import overstate_union
from overseer import overstates
from overseer.errors import StateBudgetExceeded
from overseer.net import support
from overseer.overstates import (
    minimal_elements,
    minimal_transversals,
    prune_authorized,
)

from overstate_reference import reference_overstates, sub_supports


def _m(places):
    """The mask of a set of places."""
    return sum(1 << p for p in set(places))


def _reference(border, authorized):
    """The reference's minimal over-states."""
    return reference_overstates(border, authorized)[2]


def test_expansion_counts_all_nonempty_subsupports():
    m = _m([0, 2, 4])
    subs = sub_supports(m)
    assert len(subs) == 2 ** 3 - 1
    assert {support(b) for b in subs} == {
        tuple(sorted(c))
        for k in (1, 2, 3)
        for c in combinations((0, 2, 4), k)
    }


def test_expansion_ordered_small_to_large():
    sizes = [b.bit_count() for b in sub_supports(_m([1, 3, 5]))]
    assert sizes == sorted(sizes)


def test_empty_marking_has_no_over_states():
    assert sub_supports(_m([])) == []


def test_transversal_budget():
    # three disjoint pairs have 2^3 minimal transversals; after the
    # second pair 4 are in flight
    edges = [0b11, 0b1100, 0b110000]
    assert len(minimal_transversals(edges, budget=8)) == 8
    with pytest.raises(StateBudgetExceeded):
        minimal_transversals(edges, budget=7)
    with pytest.raises(StateBudgetExceeded):
        minimal_transversals(edges, budget=3)
    border = [_m(range(6))]
    authorized = [_m([2, 3, 4, 5]), _m([0, 1, 4, 5]), _m([0, 1, 2, 3])]
    assert len(overstate_union(border, authorized, budget=8)) == 8
    with pytest.raises(StateBudgetExceeded):
        overstate_union(border, authorized, budget=7)


def test_union_deduplicates():
    # nothing authorized: each border state's minimal over-states are
    # its single places, and the shared place 1 is listed once
    u = overstate_union([_m([0, 1]), _m([1, 2])], [])
    assert [support(b) for b in u] == [(0,), (1,), (2,)]
    u = overstate_union([_m([0, 1]), _m([1, 2])], [_m([1, 3])])
    assert [support(b) for b in u] == [(0,), (2,)]


def test_engine_without_over_states():
    # the empty marking has no nonempty sub-support, and a border state
    # inside an authorized one has no sub-support that escapes it
    for border, authorized, expected in (
        ([_m([])], [_m([0, 1])], []),
        ([_m([])], [], []),
        ([_m([1, 2])], [_m([0, 1, 2])], []),
        ([_m([1, 2]), _m([3, 4])], [_m([0, 1, 2])], [(3,), (4,)]),
    ):
        got = overstate_union(border, authorized)
        assert [support(b) for b in got] == expected
        assert got == _reference(border, authorized)
    assert minimal_transversals([0b101, 0]) == []
    assert minimal_transversals([]) == [0]


def _minimal_edges(border, authorized):
    """Per border state without an empty edge: the inclusion-minimal
    edges of {m} + {m & ~a}, sorted; each distinct set once."""
    out = set()
    for m in border:
        edges = {m} | {m & ~a for a in authorized}
        if 0 not in edges:
            out.add(tuple(sorted(e for e in edges if not any(
                f != e and not f & ~e for f in edges))))
    return out


def _on_both_paths(monkeypatch, border, authorized):
    """overstate_union with the numpy minimal-edge step never taken,
    then taken from the first border x authorized pair."""
    with monkeypatch.context() as mp:
        mp.setattr(overstates, "_minimal_edge_sets", None)
        by_int = overstate_union(border, authorized)
    with monkeypatch.context() as mp:
        mp.setattr(overstates, "_VECTOR_PAIRS", 0)
        by_numpy = overstate_union(border, authorized)
    return by_int, by_numpy


def test_engine_matches_reference_on_random_masks(monkeypatch):
    rng = random.Random(8)
    for _ in range(400):
        width = rng.randint(1, 10)
        density = rng.random()

        def draw():
            return sum(1 << p for p in range(width) if rng.random() < density)

        border = [draw() for _ in range(rng.randint(1, 5))]
        authorized = [draw() for _ in range(rng.randint(0, 8))]
        got, by_numpy = _on_both_paths(monkeypatch, border, authorized)
        assert got == by_numpy == _reference(border, authorized)
        assert overstates._minimal_edge_sets(border, authorized) \
            == _minimal_edges(border, authorized)
        assert minimal_elements(prune_authorized(got, authorized)) == got


def test_blocks_match_the_whole_engine(monkeypatch):
    # A is the product of random sets over a random partition of the
    # places, so each block is solved on its own; with one element
    # dropped, A does not factor once two blocks have two projections
    # or more, and the states are solved whole
    calls = []
    union = overstates._union

    def recording_union(border, authorized, budget):
        calls.append(border)
        return union(border, authorized, budget)

    monkeypatch.setattr(overstates, "_union", recording_union)
    rng = random.Random(26)
    for _ in range(150):
        width = rng.randint(2, 10)
        places = rng.sample(range(width), width)
        cuts = sorted(rng.sample(range(1, width),
                                 rng.randint(1, min(3, width - 1))))
        blocks = [_m(places[lo:hi])
                  for lo, hi in zip([0, *cuts], [*cuts, width])]
        parts = [{_m(p for p in support(c) if rng.random() < 0.5)
                  for _ in range(rng.randint(1, 3))} for c in blocks]
        authorized = [sum(combo) for combo in product(*parts)]
        rng.shuffle(authorized)
        border = [rng.randrange(1 << width) for _ in range(rng.randint(1, 5))]
        whole = overstate_union(border, authorized)
        calls.clear()
        assert overstate_union(border, authorized, blocks=blocks) == whole
        # one call per block with a border state outside its projection,
        # on states inside that block
        assert len(calls) == sum(
            bool({m & c for m in border} - part)
            for c, part in zip(blocks, parts))
        assert all(any(all(not m & ~c for m in rows) for c in blocks)
                   for rows in calls)
        dropped = authorized[1:]
        # authorized[0] leaves A; once two blocks have two projections
        # or more, each of its projections is still authorized, so no
        # block has a row for it and only the whole engine finds its
        # over-states
        border = [*border, authorized[0]]
        whole = overstate_union(border, dropped)
        calls.clear()
        assert overstate_union(border, dropped, blocks=blocks) == whole
        if sum(len(part) > 1 for part in parts) > 1:
            assert calls == [border]


def test_wide_nets_take_the_int_path(monkeypatch):
    # 70 places do not fit a uint64 mask, whatever the pair count
    monkeypatch.setattr(overstates, "_VECTOR_PAIRS", 0)
    monkeypatch.setattr(overstates, "_minimal_edge_sets", None)
    rng = random.Random(70)
    for _ in range(20):
        high = rng.sample(range(60, 70), 6)
        border = [_m(rng.sample(high, rng.randint(1, 6)))
                  for _ in range(3)]
        authorized = [_m(rng.sample(high, rng.randint(0, 6)))
                      for _ in range(4)]
        got = overstate_union(border, authorized)
        assert got == _reference(border, authorized)


def test_domination_by_authorized():
    # {0, 1} lies inside an authorized state, {0, 3} does not
    authorized = [_m([0, 1, 2])]
    kept = prune_authorized([_m([0, 1]), _m([0, 3])], authorized)
    assert [support(b) for b in kept] == [(0, 3)]


def test_minimal_elements_form_an_antichain():
    items = [_m([0]), _m([0, 1]), _m([2, 3]), _m([1, 2, 3]), _m([0])]
    mins = minimal_elements(items)
    assert {support(b) for b in mins} == {(0,), (2, 3)}
    for a in mins:
        for b in mins:
            if a != b:
                assert a & ~b


def test_minimal_elements_random_antichain():
    rng = random.Random(3)
    for _ in range(200):
        width = rng.randint(1, 8)
        items = [
            _m(rng.sample(range(width), rng.randint(1, width)))
            for _ in range(rng.randint(1, 12))
        ]
        mins = minimal_elements(items)
        # antichain, and every item is above some minimal element
        for a in mins:
            for b in mins:
                assert a == b or a & ~b
        for it in items:
            assert any(not b & ~it for b in mins)
