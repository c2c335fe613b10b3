"""State partition: bad states, uncontrollable closure, border."""

import random

import pytest

from overseer import (
    BadStateSpec,
    Marking,
    PetriNet,
    build_reachability_graph,
    deadlocks,
    partition_states,
    primal_bad,
)
from overseer.errors import ForbiddenInitialMarking

from netgen import random_spec, safe_net


def _rg(net):
    return build_reachability_graph(net)


def _linear_net(controllable_mid):
    # A --t1(c)--> B --t2--> C --t3(c)--> D ; t2 controllability varies
    return PetriNet(
        "lin", ["A", "B", "C", "D"], ["t1", "t2", "t3"],
        [True, controllable_mid, True],
        [[0], [1], [2]], [[1], [2], [3]],
        Marking.from_support(4, [0]),
    )


def test_deadlocks_found():
    net = _linear_net(True)
    rg = _rg(net)
    dead = deadlocks(rg)
    assert [rg.marking(s).support() for s in sorted(dead)] == [(3,)]


def test_primal_bad_union_of_sources():
    net = _linear_net(True)
    rg = _rg(net)
    spec = BadStateSpec(
        expr="C",
        explicit=(Marking.from_support(4, [1]),),
        include_deadlocks=True,
    )
    bad = primal_bad(rg, spec)
    assert {rg.marking(s).support() for s in bad} == {(1,), (2,), (3,)}


def test_closure_climbs_uncontrollable_edges():
    # D bad; C -> D controllable, B -> C uncontrollable: forbidding D
    # drags in C's predecessor only when the edge cannot be disabled
    net = _linear_net(False)
    rg = _rg(net)
    spec = BadStateSpec(expr="C")
    partition = partition_states(rg, spec)
    forbidden = {rg.marking(s).support() for s in partition.m_f}
    # C is bad; B reaches C by uncontrollable t2, so B is forbidden too.
    # D stays authorized: the closure walks backward, not forward.
    assert forbidden == {(1,), (2,)}
    authorized = {rg.marking(s).support() for s in partition.m_a}
    assert authorized == {(0,), (3,)}


def test_controllable_edges_stop_the_closure():
    net = _linear_net(True)
    rg = _rg(net)
    partition = partition_states(rg, BadStateSpec(expr="C"))
    forbidden = {rg.marking(s).support() for s in partition.m_f}
    # t2 is controllable, so B stays authorized
    assert forbidden == {(2,)}
    border = {rg.marking(s).support() for s in partition.m_b}
    assert border == {(2,)}


def test_border_needs_authorized_controllable_predecessor():
    net = _linear_net(False)
    rg = _rg(net)
    partition = partition_states(rg, BadStateSpec(expr="C"))
    border = {rg.marking(s).support() for s in partition.m_b}
    # the authorized->forbidden crossing is A --t1--> B (controllable)
    assert border == {(1,)}


def test_forbidden_initial_marking_aborts():
    net = _linear_net(True)
    rg = _rg(net)
    with pytest.raises(ForbiddenInitialMarking):
        partition_states(rg, BadStateSpec(expr="A"))


def test_closure_reaches_m0_through_uncontrollable_chain():
    # every transition uncontrollable: forbidding the end forbids the start
    net = PetriNet(
        "chain", ["A", "B"], ["u"], [False],
        [[0]], [[1]], Marking.from_support(2, [0]),
    )
    rg = _rg(net)
    with pytest.raises(ForbiddenInitialMarking):
        partition_states(rg, BadStateSpec(expr="B"))


def test_no_spec_means_nothing_forbidden():
    net = _linear_net(True)
    rg = _rg(net)
    partition = partition_states(rg, None)
    assert partition.m_f == frozenset()
    assert partition.m_a == partition.m_r
    assert partition.m_b == frozenset()


def test_partition_invariants_on_random_nets():
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        net, rg = safe_net(rng)
        spec = random_spec(rng, net, rg)
        try:
            partition = partition_states(rg, spec)
        except ForbiddenInitialMarking:
            continue
        checked += 1
        assert partition.m_a | partition.m_f == partition.m_r
        assert partition.m_a & partition.m_f == frozenset()
        assert partition.m_b <= partition.m_f
        assert 0 in partition.m_a
        # no uncontrollable edge may cross from authorized to forbidden
        edges = rg.edges.tolist()
        for s, t, d in edges:
            if s in partition.m_a and d in partition.m_f:
                assert net.controllable[t]
        # every border state has the defining predecessor
        for b in partition.m_b:
            assert any(
                net.controllable[t] and s in partition.m_a
                for s, t, d in edges if d == b
            )
    assert checked >= 40  # the suite must not be vacuous
