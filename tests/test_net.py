"""Core net model: markings, firing, reachability exploration."""

import random

import numpy as np
import pytest

from overseer import (
    Marking,
    PetriNet,
    build_reachability_graph,
    canonical_order,
)
from overseer.errors import (
    NotEnabled,
    SafenessViolation,
    StateBudgetExceeded,
)

from netgen import safe_net


def _chain_net():
    # A -> t1 -> B -> t2 -> C
    return PetriNet(
        "chain", ["A", "B", "C"], ["t1", "t2"], [True, False],
        [[0], [1]], [[1], [2]], Marking.from_support(3, [0]),
    )


def test_marking_basics():
    m = Marking.from_support(5, [0, 3])
    assert m.bits() == (1, 0, 0, 1, 0)
    assert m.support() == (0, 3)
    assert m.card == 2
    assert m == Marking.from_bits([1, 0, 0, 1, 0])
    assert hash(m) == hash(Marking(5, m.mask))


def test_marking_subset_is_partial_order():
    a = Marking.from_support(4, [1])
    b = Marking.from_support(4, [1, 2])
    c = Marking.from_support(4, [3])
    assert a.issubset(b)
    assert not b.issubset(a)
    assert not a.issubset(c)
    assert a.issubset(a)


def test_canonical_order_sorts_by_size_then_support():
    ms = [
        Marking.from_support(4, [2, 3]),
        Marking.from_support(4, [0]),
        Marking.from_support(4, [1, 2]),
        Marking.from_support(4, [3]),
    ]
    ordered = canonical_order(ms)
    assert [m.support() for m in ordered] == [(0,), (3,), (1, 2), (2, 3)]


def test_fire_moves_token():
    net = _chain_net()
    m1 = net.fire(net.m0, 0)
    assert m1.support() == (1,)
    m2 = net.fire(m1, 1)
    assert m2.support() == (2,)


def test_fire_requires_enabledness():
    net = _chain_net()
    with pytest.raises(NotEnabled):
        net.fire(net.m0, 1)


def test_fire_rejects_unsafe_result():
    # t puts a token into an already marked place
    net = PetriNet(
        "unsafe", ["A", "B"], ["t"], [True],
        [[0]], [[0, 1]], Marking.from_support(2, [0, 1]),
    )
    # A is consumed and reproduced (self-loop, fine); B already marked
    with pytest.raises(SafenessViolation):
        net.fire(net.m0, 0)


def test_self_loop_is_not_a_safeness_violation():
    net = PetriNet(
        "loop", ["A"], ["t"], [True],
        [[0]], [[0]], Marking.from_support(1, [0]),
    )
    assert net.fire(net.m0, 0) == net.m0
    rg = build_reachability_graph(net)
    assert rg.n_states == 1
    assert rg.edges.tolist() == [[0, 0, 0]]
    assert net.self_loops() == [(0, 0)]


def test_incidence_loses_self_loops_but_pre_post_keep_them():
    net = PetriNet(
        "loop2", ["A", "B"], ["t"], [True],
        [[0, 1]], [[1]], Marking.from_support(2, [0, 1]),
    )
    w = net.incidence()
    assert w[1, 0] == 0  # consumed and reproduced
    assert net.pre_matrix()[1, 0] == 1
    assert net.post_matrix()[1, 0] == 1


def test_from_matrices_rejects_weights():
    pre = np.array([[2], [0]])
    post = np.array([[0], [1]])
    with pytest.raises(ValueError):
        PetriNet.from_matrices(
            "w", ["A", "B"], ["t"], [True], pre, post,
            Marking.from_support(2, [0]),
        )


def test_reachability_bfs_order_deterministic():
    net = PetriNet(
        "fork", ["A", "B", "C"], ["u", "v"], [True, True],
        [[0], [0]], [[1], [2]], Marking.from_support(3, [0]),
    )
    rg = build_reachability_graph(net)
    # state 0 is m0; successors numbered in transition order
    assert rg.marking(0) == net.m0
    assert rg.marking(1).support() == (1,)
    assert rg.marking(2).support() == (2,)
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


def test_reachability_wider_than_64_places():
    # 70 places: masks wider than a machine word explore the same way
    n = 70
    places = ["p%d" % i for i in range(n)]
    pre = [[i] for i in range(n - 1)]
    post = [[i + 1] for i in range(n - 1)]
    names = ["t%d" % i for i in range(n - 1)]
    net = PetriNet(
        "wide", places, names, [True] * (n - 1), pre, post,
        Marking.from_support(n, [0]),
    )
    rg = build_reachability_graph(net)
    assert rg.n_states == n
    assert rg.marking(rg.n_states - 1).support() == (n - 1,)


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
        for s in range(rg.n_states):
            m = rg.marking(s)
            assert rg.state_id(m) == s
            rows = rg.edges[rg.offsets[s]:rg.offsets[s + 1]].tolist()
            # the rows of s: its enabled transitions, in index order
            assert [t for _, t, _ in rows] == list(net.enabled(m))
            for src, t, d in rows:
                assert src == s
                assert rg.marking(d) == net.fire(m, t)


@pytest.mark.parametrize("width", [0, 1, 27, 70])
def test_format_mask_matches_support_form(width):
    rng = random.Random(width)
    places = ["P%d" % i for i in range(width)]
    net = PetriNet("fmt", places, [], [], [], [], Marking(width, 0))
    masks = {0, (1 << width) - 1}
    masks.update(rng.getrandbits(width) for _ in range(200) if width)
    for mask in sorted(masks):
        m = Marking(width, mask)
        expected = "".join(places[i] for i in m.support()) or "-"
        assert net.format_mask(mask) == expected
        assert net.format_marking(m) == expected
