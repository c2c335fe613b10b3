"""Core net model: markings, firing, reachability exploration."""

import collections
import random
import re
import sys
import tracemalloc
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
    parse_net_file,
)
from overseer.net import support
from overseer.errors import SafenessViolation, StateBudgetExceeded

from conftest import NETS_DIR
from netgen import copies, random_net, safe_net, side_by_side

ROOT = Path(__file__).parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "benchmarks")]
import oracle  # noqa: E402
from reach_bench import (  # noqa: E402
    coupled,
    fork_counter_net,
    idle_first,
    ring_net,
)


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


def test_components_join_places_through_transitions():
    # t3 joins the blocks t1 and t2 made, t4 touches only F and t5 only
    # G; no transition touches E or H, which join the last block, G's
    net = PetriNet(
        "parts", list("ABCDEFGH"), ["t1", "t2", "t3", "t4", "t5"],
        [True] * 5, [[0], [2], [1], [5], [6]], [[1], [3], [2], [], [6]],
        Marking.from_support(8, [0]),
    )
    assert list(map(support, net.components)) == [
        (0, 1, 2, 3), (5,), (4, 6, 7)]
    assert _chain_net().components == (0b111,)


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
def test_format_mask_matches_support_form(width):
    rng = random.Random(width)
    places = ["P%d" % i for i in range(width)]
    net = PetriNet("fmt", places, [], [], [], [], Marking(width, 0))
    masks = {0, (1 << width) - 1}
    masks.update(rng.getrandbits(width) for _ in range(400) if width)
    for mask in sorted(masks):
        expected = "".join(places[i] for i in support(mask)) or "-"
        assert net.format_mask(mask) == expected
    # every mask in one list: more than 256 of them from 9 places up
    ordered = sorted(masks)
    assert len(ordered) > 256 or width < 9
    assert net.format_masks(ordered) == [net.format_mask(m) for m in ordered]


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


def _raw_outcome(net, budget):
    """`_explore`'s (masks, flat) as lists, or the error's class and
    message, which name no net."""
    try:
        masks, flat = overseer.net._explore(net.pre_masks, net.post_masks,
                                            net.m0.mask, budget)
    except (SafenessViolation, StateBudgetExceeded) as exc:
        return type(exc), str(exc)
    return masks, flat.tolist()


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
def _full_outcome(net):
    """`_oracle_outcome` under the default budget, once per net."""
    return _oracle_outcome(net, 1 << 20)


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
    split = collections.Counter()
    for net, budget in cases:
        got = _explore_outcome(net, budget)
        expected = _oracle_outcome(net, budget)
        if expected is None:
            rejected += 1
            assert got == loop_outcome(net, budget)
            assert got[0] in (SafenessViolation, StateBudgetExceeded)
        else:
            assert got == expected
        if len(net.components) > 1:
            # the graph or error of its one-component twin
            assert _raw_outcome(net, budget) \
                == _raw_outcome(coupled(net), budget)
            split[expected is None] += 1
    assert 100 < rejected < 400
    assert split[False] > 40 and split[True] > 40
    assert [_explore_outcome(net, 1)[0] for net in _clash_nets()] \
        == [StateBudgetExceeded, SafenessViolation, SafenessViolation]

    for k in range(1, 10):
        assert _explore_outcome(ring_net(k), 1 << 20) \
            == _full_outcome(ring_net(k))
    net = fork_counter_net(6, 5)
    assert _explore_outcome(net, 1 << 20) == _oracle_outcome(net, 1 << 20)


def _spy_expand(monkeypatch):
    """The (lo, hi) of each level `_LevelStep.expand` takes, as a list
    that fills while the search runs."""
    expanded = []
    expand = overseer.net._LevelStep.expand

    def spy(self, masks, lo, hi, *args):
        expanded.append((lo, hi))
        return expand(self, masks, lo, hi, *args)

    monkeypatch.setattr(overseer.net._LevelStep, "expand", spy)
    return expanded


def test_wide_levels_switch_step_and_back(monkeypatch):
    """A fork's wide levels take the array step, and so do its narrow
    last levels while the loop's dict has a larger backlog than the
    debt those levels ran up; then the loop takes the counter's
    one-state levels.  Its narrow first levels take the loop."""
    expanded = _spy_expand(monkeypatch)
    net = fork_counter_net(12, 8)
    got = _explore_outcome(net, 1 << 20)
    assert got == _oracle_outcome(net, 1 << 20)
    assert len(got[0]) == 2 ** 12 + 2 ** 8
    vector_from = overseer.net._VECTOR_FROM
    cost = vector_from * net.n_transitions
    # one run of consecutive levels: the fork's widest, then narrow ones
    assert expanded and expanded[0][0] > 0
    assert all(a[1] == b[0] for a, b in zip(expanded, expanded[1:]))
    narrow = [hi - lo < vector_from for lo, hi in expanded]
    first = narrow.index(True)
    assert not any(narrow[:first]) and all(narrow[first:])
    # the loop filled its dict up to the first array level's end; the
    # j-th narrow array level found a backlog above j levels' cost
    filled = expanded[0][1]
    tail = expanded[first:]
    assert all(hi - filled > j * cost for j, (_, hi) in enumerate(tail))
    # the level after them, which the loop takes, did not; so the
    # narrow array levels are bounded by the backlog, not by the tail
    _, edges, _ = got
    lo, hi = tail[-1]
    after = max(d for s, _, d in edges if lo <= s < hi) + 1
    assert after - filled <= len(tail) * cost
    assert len(tail) <= -(-len(got[0]) // cost)
    # the levels of 12 and 1 states end the fork, and the counter's
    # first level, its state 2^12, is the third; the loop takes the
    # counter's other 255 levels
    assert [hi - lo for lo, hi in tail] == [12, 1, 1]
    assert expanded[-1][1] == 2 ** 12 + 1


def test_short_narrow_tail_stays_on_the_array_step(monkeypatch):
    """ring_net(9) ends with levels of 45, 9 and 1 states; its coupled
    twin, one component, takes the sort step on the same graph.  Its
    dict's backlog, ~19,600 states, outweighs the debt of three narrow
    levels, so every level from the first array level on takes `expand`:
    no loop level follows, and the loop's dict never takes those
    states."""
    expanded = _spy_expand(monkeypatch)
    assert _explore_outcome(coupled(ring_net(9)), 1 << 20) \
        == _full_outcome(ring_net(9))
    assert expanded[0][0] > 0 and expanded[-1][1] == 3 ** 9
    assert all(a[1] == b[0] for a, b in zip(expanded, expanded[1:]))
    assert [hi - lo for lo, hi in expanded[-3:]] == [45, 9, 1]


def test_wide_keys_take_the_argsort_path(monkeypatch):
    """A level whose (successor, pair index) keys do not fit in 64 bits
    groups its successors with an argsort, and one whose keys fit with
    one sort of packed keys; the graphs equal the oracle's either way."""
    calls = []
    expand = overseer.net._LevelStep.expand

    def spy(self, *args):
        sorted_, argsorted = [], []
        sort, argsort = np.sort, np.argsort

        def argsort_spy(a, kind=None):
            # the merge's stable argsort orders known states, not pairs
            if kind is None:
                argsorted.append(len(a))
            return argsort(a, kind=kind)

        with monkeypatch.context() as m:
            m.setattr(np, "sort", lambda a: sorted_.append(len(a)) or sort(a))
            m.setattr(np, "argsort", argsort_spy)
            out = expand(self, *args)
        pairs = len(out[0][1])
        calls.append((pairs in sorted_, pairs in argsorted))
        return out

    monkeypatch.setattr(overseer.net._LevelStep, "expand", spy)
    # the coupled twin of 6 rings, one component, takes the sort step
    ring = coupled(ring_net(6))
    wide = idle_first(ring, 40)
    # bits 40-58: the level of 141 states has 846 pairs, 10 more bits
    assert max(wide.pre_masks + wide.post_masks).bit_length() == 59
    for net, packed in ((wide, False), (ring, True)):
        calls.clear()
        assert _explore_outcome(net, 1 << 20) == _oracle_outcome(net, 1 << 20)
        assert calls and all(c == (packed, not packed) for c in calls)


def _spy_steps(monkeypatch):
    """The (step class name, lo, hi) of each level an array step takes,
    as a list that fills while the search runs.  The levels of the
    components the product step explores alone are not listed."""
    expanded = []
    building = []
    of = overseer.net._ProductStep.of.__func__

    def of_spy(cls, *args):
        building.append(cls)
        try:
            return of(cls, *args)
        finally:
            building.pop()

    monkeypatch.setattr(overseer.net._ProductStep, "of",
                        classmethod(of_spy))
    for step in (overseer.net._ProductStep, overseer.net._LevelStep):
        def spy(self, masks, lo, hi, *args, expand=step.expand):
            if not building:
                expanded.append((type(self).__name__, lo, hi))
            return expand(self, masks, lo, hi, *args)

        monkeypatch.setattr(step, "expand", spy)
    return expanded


def _arcless_ring_net():
    """ring_net(6) with a transition without arcs declared fourth: it
    fires at every state and leads back to it."""
    ring = ring_net(6)
    pre = [support(m) for m in ring.pre_masks]
    post = [support(m) for m in ring.post_masks]
    return PetriNet("rings6_arcless", ring.places,
                    (*ring.transitions[:3], "noop", *ring.transitions[3:]),
                    (*ring.controllable, True), pre[:3] + [[]] + pre[3:],
                    post[:3] + [[]] + post[3:], ring.m0)


@cache
def _split_nets():
    two_machines = parse_net_file(NETS_DIR / "two_machines.pnet")
    return [ring_net(k) for k in range(1, 10)] \
        + [copies(two_machines, k).net for k in range(2, 5)] \
        + [idle_first(ring_net(9), 37), _arcless_ring_net()]


def _as_raw(outcome):
    """An oracle's graph as `_raw_outcome` gives it."""
    states, edges, offsets = outcome
    return states, [x for column in zip(*edges) for x in column] + offsets


@cache
def _split_oracle(i):
    """The oracle's graph of split net i as `_raw_outcome` gives it."""
    return _as_raw(_full_outcome(_split_nets()[i]))


@pytest.mark.parametrize("vector_from", [0, 1, None])
def test_split_nets_take_the_product_step(monkeypatch, vector_from):
    """A net of two or more components takes the product step where its
    coupled twin, one component, takes the sort step, level for level;
    the graph equals the oracle's and the twin's either way.  A net of
    one component (ring_net(1)) takes the sort step itself."""
    if vector_from is not None:
        monkeypatch.setattr(overseer.net, "_VECTOR_FROM", vector_from)
    expanded = _spy_steps(monkeypatch)
    product = 0
    for i, net in enumerate(_split_nets()):
        expanded.clear()
        got = _raw_outcome(net, 1 << 20)
        assert got == _split_oracle(i)
        levels = expanded[:]
        expanded.clear()
        twin = coupled(net)
        assert got == _raw_outcome(twin, 1 << 20)
        step = "_ProductStep" if len(net.components) > 1 else "_LevelStep"
        if twin.n_places <= 64:
            assert [(step, lo, hi) for _, lo, hi in expanded] == levels
        else:
            # the idle places fill bit 63, so the twin takes the loop
            assert not expanded and {s for s, _, _ in levels} == {step}
        product += bool(levels) and step == "_ProductStep"
    # every split net reaches an array level when any level does; at
    # the default width only 6 to 9 rings, 3 and 4 machines, the idle
    # ring_net(9) and the arc-less ring net do
    assert product == (13 if vector_from is not None else 8)


def test_rejected_split_nets_raise_what_their_twins_raise(monkeypatch):
    """A split net with a component that fires unsafely, or whose state
    count passes the budget, takes the sort step, which raises what its
    coupled twin raises."""
    monkeypatch.setattr(overseer.net, "_VECTOR_FROM", 0)
    source = PetriNet("source", ["S"], ["fill"], [True], [[]], [[0]],
                      Marking(1, 0))
    expanded = _spy_steps(monkeypatch)
    for net, budget, error in (
            (side_by_side([ring_net(3), source], "rs"), 1 << 20,
             SafenessViolation),
            (side_by_side([source, ring_net(3)], "sr"), 1 << 20,
             SafenessViolation),
            (ring_net(6), 3 ** 6 - 1, StateBudgetExceeded),
            (ring_net(6), 3 ** 6, None)):
        expanded.clear()
        got = _raw_outcome(net, budget)
        assert got == _raw_outcome(coupled(net), budget)
        steps = {step for step, _, _ in expanded}
        if error is None:
            assert steps == {"_ProductStep", "_LevelStep"}
        else:
            assert got[0] is error and steps == {"_LevelStep"}


def test_product_step_refuses_codes_past_intp():
    """64 marked places, each drained by its own transition, are 64
    components with 2^64 states, which no intp code numbers: under a
    budget that allows them the net gets no product step."""
    net = PetriNet("drains", ["P%d" % p for p in range(64)],
                   ["t%d" % t for t in range(64)], [True] * 64,
                   [[p] for p in range(64)], [[] for _ in range(64)],
                   Marking(64, (1 << 64) - 1))
    assert len(net.components) == 64
    assert overseer.net._ProductStep.of(net.pre_masks, net.post_masks,
                                        net.m0.mask, 64, 1 << 64) is None


def _spy_buffers(monkeypatch):
    """The graph buffers of the product steps built, as a list that
    fills while the search runs.  Each is filled with -1 when it is
    allocated, so that an entry no level writes shows."""
    buffers = []
    init = overseer.net._ProductStep.__init__

    def spy(self, *args):
        init(self, *args)
        self.flat.fill(-1)
        buffers.append(self.flat)

    monkeypatch.setattr(overseer.net._ProductStep, "__init__", spy)
    return buffers


def _assert_fills_its_buffer(net, buffers):
    """`_explore` returns the one buffer its product step allocated,
    holding exactly the oracle's graph."""
    buffers.clear()
    masks, flat = overseer.net._explore(net.pre_masks, net.post_masks,
                                        net.m0.mask, 1 << 20)
    assert len(buffers) == 1 and flat is buffers[0]
    assert (masks, flat.tolist()) == _as_raw(_full_outcome(net))


def test_product_step_holds_its_graph_once():
    """The product step writes each level into the graph's one buffer as
    the level is made, so the search's peak allocation on ring_net(9)
    stays under twice that buffer; keeping every level's arrays until a
    concatenation at the end takes more."""
    net = ring_net(9)
    overseer.net._explore(net.pre_masks, net.post_masks, net.m0.mask,
                          1 << 20)
    tracemalloc.start()
    try:
        _, flat = overseer.net._explore(net.pre_masks, net.post_masks,
                                        net.m0.mask, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(flat) == 3 * 9 * 3 ** 9 + 3 ** 9 + 1
    assert peak < 2 * flat.nbytes


def test_split_net_goes_from_the_product_step_to_the_loop(monkeypatch):
    """Twelve switches and an 8-bit counter beside one ring: the wide
    levels take the product step, and the counter's one-state levels,
    three states wide beside the ring, go to the loop once the backlog
    no longer outweighs the debt.  The loop levels before and after the
    product step's are copied into its buffer, which they fill."""
    net = side_by_side([fork_counter_net(12, 8), ring_net(1)], "fork_ring")
    assert _raw_outcome(net, 1 << 20) == _raw_outcome(coupled(net), 1 << 20)
    _assert_fills_its_buffer(net, _spy_buffers(monkeypatch))
    expanded = _spy_steps(monkeypatch)
    got = _explore_outcome(net, 1 << 20)
    assert got == _oracle_outcome(net, 1 << 20)
    assert len(got[0]) == 3 * (2 ** 12 + 2 ** 8)
    steps = [step for step, _, _ in expanded]
    levels = [(lo, hi) for _, lo, hi in expanded]
    assert steps and set(steps) == {"_ProductStep"}
    # one run of consecutive levels, after loop levels and before them
    assert levels[0][0] > 0 and levels[-1][1] < len(got[0])
    assert all(a[1] == b[0] for a, b in zip(levels, levels[1:]))
    assert [hi - lo for lo, hi in levels][-1] < overseer.net._VECTOR_FROM


def _fans_net(stages, width):
    """A token that spreads over `width` places and gathers again,
    `stages` times: BFS levels of 1, width, 1, width, ... states."""
    places, pre, post = [], [], []
    for i in range(stages):
        gather = len(places)
        places += ["s%d" % i] + ["b%d_%d" % (i, j) for j in range(width)]
        pre += [[gather]] * width + [[gather + 1 + j] for j in range(width)]
        post += [[gather + 1 + j] for j in range(width)] \
            + [[gather + 1 + width]] * width
    places.append("s%d" % stages)
    names = ["t%d" % t for t in range(len(pre))]
    return PetriNet("fans%d_%d" % (stages, width), places, names,
                    [True] * len(names), pre, post,
                    Marking.from_support(len(places), [0]))


def test_product_step_resumes_after_loop_levels(monkeypatch):
    """Fans beside a one-state loop, with the array steps from 4 states
    up: the levels of 4 states take the product step and the levels of
    one state soon go to the loop, so the product step resumes after
    loop levels and codes the states the loop found.  The loop levels
    between the product step's are copied into its buffer, which they
    fill."""
    monkeypatch.setattr(overseer.net, "_VECTOR_FROM", 4)
    buffers = _spy_buffers(monkeypatch)
    resumed = []
    expand = overseer.net._ProductStep.expand

    def spy(self, masks, lo, hi, *args):
        resumed.append(0 < self.known < hi)
        return expand(self, masks, lo, hi, *args)

    monkeypatch.setattr(overseer.net._ProductStep, "expand", spy)
    loop = PetriNet("loop", ["L"], ["spin"], [True], [[0]], [[0]],
                    Marking(1, 1))
    net = side_by_side([_fans_net(12, 4), loop], "fans_loop")
    got = _explore_outcome(net, 1 << 20)
    assert sum(resumed) > 2 and not all(resumed)
    assert got == _oracle_outcome(net, 1 << 20)
    _assert_fills_its_buffer(net, buffers)
    assert _raw_outcome(net, 1 << 20) == _raw_outcome(coupled(net), 1 << 20)
