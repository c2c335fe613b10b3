"""State partition: bad states, uncontrollable closure, border."""

import random

import numpy as np
import pytest

from overseer import (
    BadStateSpec,
    Marking,
    PetriNet,
    build_reachability_graph,
    deadlocks,
    parse_predicate,
    partition_states,
)
from overseer.errors import ForbiddenInitialMarking, PnetSyntaxError
from overseer.net import support
from overseer.partition import _primal_mask

from netgen import copies, random_spec, safe_net


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
    assert [support(rg.masks[s]) for s in dead.tolist()] == [(3,)]


def test_primal_bad_union_of_sources():
    net = _linear_net(True)
    rg = _rg(net)
    spec = BadStateSpec(
        expr="C",
        explicit=(Marking.from_support(4, [1]),),
        include_deadlocks=True,
    )
    bad = _primal_mask(rg, spec).nonzero()[0].tolist()
    assert {support(rg.masks[s]) for s in bad} == {(1,), (2,), (3,)}


def test_partition_leaves_the_bit_matrix_alone():
    # the primal mask marks explicit and deadlock states in the array
    # the predicate returns, so that array must not share rg.bits
    net = _linear_net(True)
    rg = _rg(net)
    before = rg.bits.copy()
    spec = BadStateSpec(
        expr="C",
        explicit=(Marking.from_support(4, [1]),),
        include_deadlocks=True,
    )
    partition_states(rg, spec)
    assert np.array_equal(rg.bits, before)


def test_spec_parses_its_expr():
    spec = BadStateSpec(expr="C | !D")
    assert spec.tree == parse_predicate("C | !D")
    assert spec == BadStateSpec(expr="C | !D")
    assert "tree" not in repr(spec)
    assert BadStateSpec(include_deadlocks=True).tree is None
    # a syntax error raises when the spec is built, not in the partition
    with pytest.raises(PnetSyntaxError):
        BadStateSpec(expr="C & (D")
    # the tree always comes from the expr
    with pytest.raises(TypeError):
        BadStateSpec(expr="C", tree=("var", "D"))


def test_spec_needs_a_source():
    with pytest.raises(ValueError, match="^bad-state specification needs a "
                                         "predicate, explicit states, or "
                                         "the deadlock flag$"):
        BadStateSpec()


def test_closure_climbs_uncontrollable_edges():
    # D bad; C -> D controllable, B -> C uncontrollable: forbidding D
    # drags in C's predecessor only when the edge cannot be disabled
    net = _linear_net(False)
    rg = _rg(net)
    spec = BadStateSpec(expr="C")
    partition = partition_states(rg, spec)
    forbidden = {support(rg.masks[s]) for s in partition.m_f}
    # C is bad; B reaches C by uncontrollable t2, so B is forbidden too.
    # D stays authorized: the closure walks backward, not forward.
    assert forbidden == {(1,), (2,)}
    authorized = {support(rg.masks[s]) for s in partition.m_a}
    assert authorized == {(0,), (3,)}


def test_controllable_edges_stop_the_closure():
    net = _linear_net(True)
    rg = _rg(net)
    partition = partition_states(rg, BadStateSpec(expr="C"))
    forbidden = {support(rg.masks[s]) for s in partition.m_f}
    # t2 is controllable, so B stays authorized
    assert forbidden == {(2,)}
    border = {support(rg.masks[s]) for s in partition.m_b}
    assert border == {(2,)}


def test_border_needs_authorized_controllable_predecessor():
    net = _linear_net(False)
    rg = _rg(net)
    partition = partition_states(rg, BadStateSpec(expr="C"))
    border = {support(rg.masks[s]) for s in partition.m_b}
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
    assert partition.m_f.tolist() == []
    assert partition.m_a.tolist() == list(range(rg.n_states))
    assert partition.m_b.tolist() == []


def _reference_partition(rg, spec):
    """The partition by its definitions, in plain Python: the predicate
    walked node by node for each marking, the uncontrollable closure
    as a fixpoint, the border as the targets of controllable edges
    from authorized to forbidden states.  Returns the primal bad states
    and the outcome `partition_states` must give: sorted forbidden,
    authorized and border ids, or the error."""
    net = rg.net
    states = range(rg.n_states)
    edges = rg.edges.tolist()

    def holds(node, mask):
        kind = node[0]
        if kind == "const":
            return node[1]
        if kind == "var":
            return bool(mask >> net.place_index[node[1]] & 1)
        if kind == "not":
            return not holds(node[1], mask)
        if kind == "and":
            return holds(node[1], mask) and holds(node[2], mask)
        return holds(node[1], mask) or holds(node[2], mask)

    bad = set()
    if spec.expr is not None:
        node = parse_predicate(spec.expr)
        bad |= {s for s in states if holds(node, rg.masks[s])}
    explicit = {m.mask for m in spec.explicit}
    bad |= {s for s in states if rg.masks[s] in explicit}
    if spec.include_deadlocks:
        bad |= set(states) - {s for s, _, _ in edges}

    forbidden = set(bad)
    changed = True
    while changed:
        changed = False
        # sweeping against the edge order climbs a chain in one sweep
        for s, t, d in reversed(edges):
            if not net.controllable[t] and d in forbidden \
                    and s not in forbidden:
                forbidden.add(s)
                changed = True

    if 0 in forbidden:
        outcome = ForbiddenInitialMarking
    else:
        border = {d for s, t, d in edges
                  if net.controllable[t]
                  and s not in forbidden and d in forbidden}
        outcome = (sorted(forbidden),
                   sorted(set(states) - forbidden), sorted(border))
    return sorted(bad), outcome


def _outcome(rg, spec):
    try:
        partition = partition_states(rg, spec)
    except ForbiddenInitialMarking:
        return ForbiddenInitialMarking
    for ids in (partition.m_f, partition.m_a, partition.m_b):
        assert ids.dtype == np.intp
    return (partition.m_f.tolist(), partition.m_a.tolist(),
            partition.m_b.tolist())


def _check_against_reference(rg, spec):
    bad, outcome = _reference_partition(rg, spec)
    assert _primal_mask(rg, spec).nonzero()[0].tolist() == bad
    assert _outcome(rg, spec) == outcome
    return outcome


def test_partition_invariants_on_random_nets():
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        net, rg = safe_net(rng)
        spec = random_spec(rng, net, rg)
        if _check_against_reference(rg, spec) is ForbiddenInitialMarking:
            continue
        partition = partition_states(rg, spec)
        checked += 1
        m_r = set(range(rg.n_states))
        m_f = set(partition.m_f.tolist())
        m_a = set(partition.m_a.tolist())
        m_b = set(partition.m_b.tolist())
        assert m_a | m_f == m_r
        assert m_a & m_f == set()
        assert m_b <= m_f
        assert 0 in m_a
        # no uncontrollable edge may cross from authorized to forbidden
        edges = rg.edges.tolist()
        for s, t, d in edges:
            if s in m_a and d in m_f:
                assert net.controllable[t]
        # every border state has the defining predecessor
        for b in m_b:
            assert any(
                net.controllable[t] and s in m_a
                for s, t, d in edges if d == b
            )
    assert checked >= 40  # the suite must not be vacuous


def test_partition_matches_reference_on_copies(two_machines):
    doc = copies(two_machines, 3)
    rg = _rg(doc.net)
    m_f, m_a, m_b = _check_against_reference(rg, doc.spec)
    assert (len(m_f), len(m_a), len(m_b)) == (1603, 125, 375)


def _counter_chain(bits):
    """A controllable step S -> G starts a `bits`-bit binary counter
    whose uncontrollable increments run from 0 to all ones: a chain of
    2^bits + 1 states.  Bit i is place b<i>, its complement n<i>; inc<k>
    fires when exactly the k lowest bits are ones below a zero."""
    places = ["S", "G"] + ["b%d" % i for i in range(bits)] \
        + ["n%d" % i for i in range(bits)]
    b = [2 + i for i in range(bits)]
    n = [2 + bits + i for i in range(bits)]
    pre = [[0]] + [[1] + b[:k] + [n[k]] for k in range(bits)]
    post = [[1]] + [[1] + n[:k] + [b[k]] for k in range(bits)]
    return PetriNet(
        "counter", places, ["go"] + ["inc%d" % k for k in range(bits)],
        [True] + [False] * bits, pre, post,
        Marking.from_support(len(places), [0] + n),
    )


def test_closure_climbs_a_long_uncontrollable_chain():
    # the last state is bad: the closure climbs the whole uncontrollable
    # chain and stops at the controllable first step, which makes the
    # state after it the only border state
    net = _counter_chain(11)
    rg = _rg(net)
    last = rg.n_states - 1
    assert last == 2048
    assert [(s, d) for s, _, d in rg.edges.tolist()] \
        == [(s, s + 1) for s in range(last)]
    assert rg.uncontrollable.tolist() == [False] + [True] * (last - 1)
    spec = BadStateSpec(expr=" & ".join("b%d" % i for i in range(11)))
    m_f, m_a, m_b = _check_against_reference(rg, spec)
    assert m_f == list(range(1, last + 1))
    assert m_a == [0]
    assert m_b == [1]
