"""Core net model: markings, firing, reachability exploration."""

import random
import re
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import overseer.net
from overseer import (
    Marking,
    PetriNet,
    build_reachability_graph,
    canonical_order,
)
from overseer.net import support
from overseer.errors import SafenessViolation, StateBudgetExceeded

from netgen import random_net, safe_net

ROOT = Path(__file__).parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "benchmarks")]
import oracle  # noqa: E402
from reach_bench import fork_counter_net, ring_net  # noqa: E402


def _chain_net():
    # A -> t1 -> B -> t2 -> C
    return PetriNet(
        "chain", ["A", "B", "C"], ["t1", "t2"], [True, False],
        [[0], [1]], [[1], [2]], Marking.from_support(3, [0]),
    )


@pytest.mark.parametrize("change, message", [
    ({"places": ["A", "A", "C"]}, "duplicate place names"),
    ({"transitions": ["t1", "t1"]}, "duplicate transition names"),
    ({"controllable": [True]},
     "one controllability flag per transition required"),
    ({"m0": Marking.from_support(2, [0])},
     "initial marking width does not match place count"),
    ({"pre_sets": [[0]]}, "pre/post sets must match transition count"),
    ({"post_sets": [[1], [5]]}, "place index 5 out of range"),
])
def test_petri_net_refuses_malformed_arguments(change, message):
    args = {"name": "chain", "places": ["A", "B", "C"],
            "transitions": ["t1", "t2"], "controllable": [True, False],
            "pre_sets": [[0], [1]], "post_sets": [[1], [2]],
            "m0": Marking.from_support(3, [0])}
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        PetriNet(**{**args, **change})


def test_marking_basics():
    m = Marking.from_support(5, [0, 3])
    assert m.mask == 0b01001
    assert m.support() == (0, 3)
    assert m == Marking(5, 0b01001)
    assert m != Marking(6, 0b01001)
    assert hash(m) == hash(Marking(5, m.mask))
    assert repr(m) == "Marking(5, 0b10010)"
    with pytest.raises(ValueError):
        Marking(3, 0b1000)


def test_canonical_order_sorts_by_size_then_support():
    ms = [0b1100, 0b0001, 0b0110, 0b1000]
    ordered = canonical_order(ms)
    assert [support(m) for m in ordered] == [(0,), (3,), (1, 2), (2, 3)]


def test_fire_moves_token():
    rg = build_reachability_graph(_chain_net())
    assert [support(m) for m in rg.masks] == [(0,), (1,), (2,)]
    assert rg.edges.tolist() == [[0, 0, 1], [1, 1, 2]]


def test_fire_requires_enabledness():
    # t2 needs B: it does not fire at m0, and C is a deadlock
    rg = build_reachability_graph(_chain_net())
    assert rg.tr[rg.offsets[0]:rg.offsets[1]].tolist() == [0]
    assert rg.offsets[3] == rg.offsets[2]


def test_fire_rejects_unsafe_result():
    # t puts a token into an already marked place
    net = PetriNet(
        "unsafe", ["A", "B"], ["t"], [True],
        [[0]], [[0, 1]], Marking.from_support(2, [0, 1]),
    )
    # A is consumed and reproduced (self-loop, fine); B already marked
    with pytest.raises(SafenessViolation):
        build_reachability_graph(net)


def test_self_loop_is_not_a_safeness_violation():
    net = PetriNet(
        "loop", ["A"], ["t"], [True],
        [[0]], [[0]], Marking.from_support(1, [0]),
    )
    rg = build_reachability_graph(net)
    assert rg.n_states == 1
    assert rg.edges.tolist() == [[0, 0, 0]]
    assert net.pre_masks == net.post_masks == (1,)


def test_incidence_loses_self_loops_but_pre_post_keep_them():
    net = PetriNet(
        "loop2", ["A", "B"], ["t"], [True],
        [[0, 1]], [[1]], Marking.from_support(2, [0, 1]),
    )
    assert net.incidence().tolist() == [[-1], [0]]  # B: consumed, reproduced
    assert net.pre_masks == (0b11,)
    assert net.post_masks == (0b10,)


def test_reachability_bfs_order_deterministic():
    net = PetriNet(
        "fork", ["A", "B", "C"], ["u", "v"], [True, True],
        [[0], [0]], [[1], [2]], Marking.from_support(3, [0]),
    )
    rg = build_reachability_graph(net)
    # state 0 is m0; successors numbered in transition order
    assert rg.masks[0] == net.m0.mask
    assert support(rg.masks[1]) == (1,)
    assert support(rg.masks[2]) == (2,)
    assert rg.edges.tolist() == [[0, 0, 1], [0, 1, 2]]


def test_reachability_budget_enforced():
    # 8 independent set/clear bits (complement-place pairs): 2^8 states
    n = 8
    places = ["b%d" % i for i in range(n)] + ["c%d" % i for i in range(n)]
    pre = [[n + i] for i in range(n)] + [[i] for i in range(n)]
    post = [[i] for i in range(n)] + [[n + i] for i in range(n)]
    names = ["up%d" % i for i in range(n)] + ["dn%d" % i for i in range(n)]
    net = PetriNet(
        "counter", places, names, [True] * (2 * n), pre, post,
        Marking.from_support(2 * n, range(n, 2 * n)),
    )
    rg = build_reachability_graph(net, budget=1 << n)
    assert rg.n_states == 1 << n
    with pytest.raises(StateBudgetExceeded):
        build_reachability_graph(net, budget=(1 << n) - 1)


def _wide_chain_net(n=70):
    # a token walking down n places, one state per level
    places = ["p%d" % i for i in range(n)]
    pre = [[i] for i in range(n - 1)]
    post = [[i + 1] for i in range(n - 1)]
    names = ["t%d" % i for i in range(n - 1)]
    return PetriNet(
        "wide", places, names, [True] * (n - 1), pre, post,
        Marking.from_support(n, [0]),
    )


def test_reachability_wider_than_64_places():
    # 70 places: masks wider than a machine word explore the same way
    n = 70
    net = _wide_chain_net(n)
    rg = build_reachability_graph(net)
    assert rg.n_states == n
    assert support(rg.masks[-1]) == (n - 1,)


def test_unsafe_net_detected_during_exploration():
    net = PetriNet(
        "bad", ["A", "B"], ["t1", "t2"], [True, True],
        [[0], []], [[1], [1]], Marking.from_support(2, [0]),
    )
    # t2 creates tokens in B from nothing; firing it twice overflows
    with pytest.raises(SafenessViolation):
        build_reachability_graph(net)


def test_edge_rows_agree_with_firing():
    rng = random.Random(7)
    for _ in range(25):
        net, rg = safe_net(rng)
        assert rg.edges.shape == (len(rg.src), 3)
        assert rg.offsets[0] == 0 and rg.offsets[-1] == len(rg.edges)
        for s, m in enumerate(rg.masks):
            assert rg.state_id(m) == s
            rows = rg.edges[rg.offsets[s]:rg.offsets[s + 1]].tolist()
            # the rows of s: its enabled transitions, in index order
            assert [t for _, t, _ in rows] == [
                t for t, pre in enumerate(net.pre_masks) if not pre & ~m]
            for src, t, d in rows:
                assert src == s
                assert rg.masks[d] == m & ~net.pre_masks[t] | net.post_masks[t]


@pytest.mark.parametrize("width", [0, 1, 8, 9, 27, 64, 65, 70])
def test_format_mask_matches_support_form(width, monkeypatch):
    # blocks short enough that the longest list spans several
    monkeypatch.setattr(overseer.net, "_NAME_BLOCK", 50)
    rng = random.Random(width)
    places = ["P%d" % i for i in range(width)]
    net = PetriNet("fmt", places, [], [], [], [], Marking(width, 0))
    masks = {0, (1 << width) - 1}
    masks.update(rng.getrandbits(width) for _ in range(200) if width)
    for mask in sorted(masks):
        expected = "".join(places[i] for i in support(mask)) or "-"
        assert net.format_mask(mask) == expected
    ordered = sorted(masks)
    # one net names a list one short of the array path's threshold (the
    # memo), one at it (arrays, up to 64 places), then every mask
    n = overseer.net._NAME_VECTOR_FROM
    batches = [[0] + rng.choices(ordered, k=size - 1) for size in (n - 1, n)]
    for batch in batches + [ordered]:
        assert net.format_masks(batch) == [net.format_mask(m) for m in batch]


def _explore_outcome(net, budget):
    """The graph as (states, edges, offsets), or the error's class and
    message."""
    try:
        rg = build_reachability_graph(net, budget=budget)
    except (SafenessViolation, StateBudgetExceeded) as exc:
        return type(exc), str(exc)
    for s, m in enumerate(rg.masks):
        assert rg.state_id(m) == s
    assert rg.uncontrollable.tolist() == [not net.controllable[t]
                                          for t in rg.tr.tolist()]
    return rg.masks, [tuple(e) for e in rg.edges.tolist()], \
        rg.offsets.tolist()


def _oracle_outcome(net, budget):
    try:
        states, edges = oracle.explore(net.pre_masks, net.post_masks,
                                       net.m0.mask, budget)
    except oracle.Rejected:
        return None
    offsets = np.zeros(len(states) + 1, dtype=int)
    np.add.at(offsets, [s + 1 for s, _, _ in edges], 1)
    return states, edges, np.cumsum(offsets).tolist()


@cache
def _ring_outcome(k):
    return _oracle_outcome(ring_net(k), 1 << 20)


def _clash_nets():
    """Nets whose first level meets both an unsafe firing and a new
    state: the new state first, the unsafe firing first, and both at
    the same firing."""
    def net(pre, post):
        names = ["t%d" % t for t in range(len(pre))]
        return PetriNet("clash", ["A", "B"], names, [True] * len(pre),
                        pre, post, Marking.from_support(2, [0, 1]))

    return [net([[0], []], [[], [1]]), net([[], [0]], [[1], []]),
            net([[0]], [[1]])]


@pytest.mark.parametrize("vector_from", [0, 1, None])
def test_level_steps_match_oracle(monkeypatch, vector_from):
    """Whichever step expands each BFS level, the graph equals the
    oracle's, and a rejected net raises what the per-state loop raises."""
    if vector_from is not None:
        monkeypatch.setattr(overseer.net, "_VECTOR_FROM", vector_from)

    def loop_outcome(net, budget):
        with monkeypatch.context() as m:
            m.setattr(overseer.net, "_VECTOR_FROM", 1 << 62)
            return _explore_outcome(net, budget)

    rng = random.Random(2024)
    cases = [(random_net(rng), rng.choice((3, 8, 4096)))
             for _ in range(500)]
    cases += [(net, budget) for net in _clash_nets() for budget in (1, 8)]
    # masks wider than 64 bits take the loop even on levels counted wide
    cases.append((_wide_chain_net(), 1 << 20))
    rejected = 0
    for net, budget in cases:
        got = _explore_outcome(net, budget)
        expected = _oracle_outcome(net, budget)
        if expected is None:
            rejected += 1
            assert got == loop_outcome(net, budget)
            assert got[0] in (SafenessViolation, StateBudgetExceeded)
        else:
            assert got == expected
    assert 100 < rejected < 400
    assert [_explore_outcome(net, 1)[0] for net in _clash_nets()] \
        == [StateBudgetExceeded, SafenessViolation, SafenessViolation]

    for k in range(1, 10):
        assert _explore_outcome(ring_net(k), 1 << 20) == _ring_outcome(k)
    net = fork_counter_net(6, 5)
    assert _explore_outcome(net, 1 << 20) == _oracle_outcome(net, 1 << 20)


def test_wide_levels_switch_step_and_back(monkeypatch):
    """A fork's wide levels take the array step; its narrow first and
    last levels, and the counter's one-state levels after them, take
    the loop."""
    expanded = []
    expand = overseer.net._LevelStep.expand

    def spy(self, masks, lo, hi, *args):
        expanded.append((lo, hi))
        return expand(self, masks, lo, hi, *args)

    monkeypatch.setattr(overseer.net._LevelStep, "expand", spy)
    net = fork_counter_net(12, 8)
    got = _explore_outcome(net, 1 << 20)
    assert got == _oracle_outcome(net, 1 << 20)
    assert len(got[0]) == 2 ** 12 + 2 ** 8
    # the fork's levels hold C(12, i) states; the widest ones are arrays
    assert expanded
    assert all(hi - lo >= overseer.net._VECTOR_FROM for lo, hi in expanded)
    assert expanded[0][0] > 0 and expanded[-1][1] < 2 ** 12
