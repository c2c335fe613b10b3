"""Closed-loop verification on the plant graph against the composite
reference exploration in `closed_loop_reference.py`."""

import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from overseer import (
    BadStateSpec,
    Marking,
    NetDocument,
    PetriNet,
    build_reachability_graph,
    empty_controller,
    partition_states,
    run_pipeline,
    synthesize,
    verify_closed_loop,
)
from overseer.errors import ForbiddenInitialMarking, InitialMarkingViolation, StageFailure
from overseer.net import support as places_of
from overseer.synthesis import Controller

from closed_loop_reference import authorized_reachable, reference_verify
from netgen import copies, random_spec, safe_net

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from reach_bench import ring_net  # noqa: E402

RANDOM_NETS = 200


def _violations(report):
    return [(v.control_place, v.transition, v.state)
            for v in report.admissibility_violations]


def assert_matches_reference(net, controller, partition, rg):
    """verify_closed_loop gives what the composite exploration gives,
    and calls the loop isomorphic exactly when it keeps the invariant
    and its states are R; returns the report."""
    got = verify_closed_loop(controller, partition, rg)
    ref = reference_verify(net, controller, partition, rg)
    assert got.state_count == ref.state_count
    assert got.states.tolist() == ref.states.tolist()
    assert got.control_markings.tolist() == ref.control_markings.tolist()
    assert got.edges.tolist() == ref.edges.tolist()
    assert got.missing_authorized == ref.missing_authorized
    assert got.extra_states == ref.extra_states
    assert got.edge_mismatches == ref.edge_mismatches
    assert _violations(got) == _violations(ref)
    assert got.invariant_ok == ref.invariant_ok
    r = {rg.masks[s] for s in authorized_reachable(rg, partition)}
    assert got.isomorphic == (ref.invariant_ok
                              and set(rg.masks_of(ref.states)) == r)
    assert got.max_control_marking == ref.max_control_marking
    return got


def _token_sum(net, rows):
    """Controller for `sum(m(p) for p in support) <= bound`, one
    (support, bound) per row, with any bound; None when m0 violates it."""
    weights = np.zeros((len(rows), net.n_places), dtype=int)
    for i, (support, _) in enumerate(rows):
        weights[i, list(support)] = 1
    bounds = np.array([bound for _, bound in rows], dtype=int)
    try:
        return synthesize(net, weights, bounds)
    except InitialMarkingViolation:
        return None


def _random_controller(rng, net, rg):
    """Random token sums that m0 satisfies, from tight to vacuous, and
    sometimes one that forbids the target of an uncontrollable edge, so
    that a control place must block that edge."""
    rows = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(net.n_places),
                             rng.randint(1, min(3, net.n_places)))
        at_m0 = sum(net.m0.mask >> p & 1 for p in support)
        rows.append((support, rng.randint(at_m0, len(support))))
    uncontrollable = [d for _, t, d in rg.edges.tolist()
                      if not net.controllable[t]]
    if uncontrollable and rng.random() < 0.5:
        support = places_of(rg.masks[rng.choice(uncontrollable)])
        if support:
            rows.append((support, len(support) - 1))
    return _token_sum(net, rows)


def test_two_machines(two_machines):
    result = run_pipeline(two_machines)
    got = assert_matches_reference(two_machines.net, result.controller,
                                   result.partition, result.rg)
    assert got.isomorphic and got.state_count == 5


def test_two_copies_of_two_machines(two_machines):
    result = run_pipeline(copies(two_machines, 2))
    got = assert_matches_reference(result.doc.net, result.controller,
                                   result.partition, result.rg)
    assert got.isomorphic and got.state_count == 25


def test_drop_job_with_fallback(drop_job):
    result = run_pipeline(drop_job, fallback=True)
    got = assert_matches_reference(drop_job.net, result.controller,
                                   result.partition, result.rg)
    # the exact row -m(Q) + m(P1) - m(P2) <= 0 forbids P1 alone
    assert result.controller.weights.tolist() == [[-1, 1, -1]]
    assert got.isomorphic and got.state_count == 2
    assert not got.missing_authorized


def test_drop_job_without_fallback(drop_job):
    # no over-state covers the border state, so the pipeline stops
    # before it has a controller; check the plant left uncontrolled
    with pytest.raises(StageFailure):
        run_pipeline(drop_job)
    net = drop_job.net
    rg = build_reachability_graph(net)
    partition = partition_states(rg, drop_job.spec)
    got = assert_matches_reference(net, empty_controller(net), partition, rg)
    assert got.extra_states and got.edge_mismatches
    assert not got.isomorphic


def test_rings():
    net = ring_net(4)
    rg = build_reachability_graph(net)
    partition = partition_states(rg, None)
    got = assert_matches_reference(net, empty_controller(net), partition, rg)
    assert got.state_count == 81 and len(got.edges) == 4 * 81
    # at most two of the four rings in their second place
    ctrl = _token_sum(net, [((1, 4, 7, 10), 2)])
    got = assert_matches_reference(net, ctrl, partition, rg)
    assert 0 < got.state_count < 81


def test_control_place_that_blocks_nothing(two_machines):
    # m(P1) <= 1 never binds on a safe net: the walk admits every state
    # and numbers them as the plant's own search does
    net = two_machines.net
    rg = build_reachability_graph(net)
    partition = partition_states(rg, two_machines.spec)
    got = assert_matches_reference(net, _token_sum(net, [((0,), 1)]),
                                   partition, rg)
    assert got.states.tolist() == list(range(rg.n_states))
    assert got.state_count == 12
    assert got.edges.tolist() == rg.edges.tolist()
    assert got.edge_mismatches == [
        "two_machines allows c2 at P1P3P6", "two_machines allows c2 at P2P3P6",
        "two_machines allows c1 at P1P3P7", "two_machines allows c1 at P1P4P7",
        "two_machines allows c1 at P1P5P7"]
    # on levels wide enough for the plant's search to expand with numpy
    net = ring_net(6)
    rg = build_reachability_graph(net)
    partition = partition_states(rg, None)
    got = assert_matches_reference(net, _token_sum(net, [((0, 3), 2)]),
                                   partition, rg)
    assert got.states.tolist() == list(range(rg.n_states))
    assert got.edges.tolist() == rg.edges.tolist()
    assert got.isomorphic


def test_wider_than_64_places():
    # a token walks down a 70-place chain, masks wider than a machine
    # word; the last place is forbidden and its controllable input
    # transition is blocked
    n = 70
    net = PetriNet(
        "wide", ["p%d" % i for i in range(n)],
        ["t%d" % i for i in range(n - 1)], [i % 2 == 0 for i in range(n - 1)],
        [[i] for i in range(n - 1)], [[i + 1] for i in range(n - 1)],
        Marking.from_support(n, [0]),
    )
    rg = build_reachability_graph(net)
    partition = partition_states(rg, BadStateSpec(expr="p69"))
    ctrl = _token_sum(net, [((69,), 0)])
    got = assert_matches_reference(net, ctrl, partition, rg)
    assert got.state_count == 69 and got.isomorphic


def test_token_sums_beyond_int8():
    # 130 marked places, one of which a transition empties: the token
    # sum over them is 130 at m0, beyond an int8, and a bound of 300
    # leaves a control marking of 170
    n = 130
    net = PetriNet(
        "many", ["p%d" % i for i in range(n + 1)], ["t"], [True],
        [[0]], [[n]], Marking.from_support(n + 1, range(n)),
    )
    rg = build_reachability_graph(net)
    partition = partition_states(rg, None)
    for bound, markings in ((130, [[0], [1]]), (300, [[170], [171]])):
        ctrl = _token_sum(net, [(range(n), bound)])
        got = assert_matches_reference(net, ctrl, partition, rg)
        assert got.control_markings.tolist() == markings
        assert got.isomorphic


def test_random_nets():
    seen = Counter()
    rng = random.Random(909)
    while seen["nets"] < RANDOM_NETS:
        net, rg = safe_net(rng, min_states=2)
        spec = random_spec(rng, net, rg)
        try:
            partition = partition_states(rg, spec)
        except ForbiddenInitialMarking:
            continue
        seen["nets"] += 1
        try:
            result = run_pipeline(NetDocument(net, spec), fallback=True)
            controllers = [result.controller]
        except StageFailure:
            controllers = []
        controllers.append(_random_controller(rng, net, rg))
        for ctrl in controllers:
            if ctrl is None:
                continue
            got = assert_matches_reference(net, ctrl, partition, rg)
            seen["checked"] += 1
            seen["isomorphic"] += got.isomorphic
            seen["blocked"] += got.state_count < rg.n_states
            seen["violations"] += bool(got.admissibility_violations)
            seen["mismatches"] += bool(got.edge_mismatches)
            seen["missing"] += bool(got.missing_authorized)
            seen["extra"] += bool(got.extra_states)
    # the draw must reach every kind of finding, not skirt them
    for key in ("isomorphic", "blocked", "violations", "mismatches",
                "missing", "extra"):
        assert seen[key] >= 20, sorted(seen.items())


def _broken(ctrl, **change):
    fields = dict(incidence=ctrl.incidence.copy(), initial=ctrl.initial.copy(),
                  bounds=ctrl.bounds, weights=ctrl.weights,
                  place_names=ctrl.place_names)
    fields.update(change)
    return Controller(**fields)


def test_wrong_initial_marking_does_not_verify(two_machines):
    result = run_pipeline(two_machines)
    initial = result.controller.initial.copy()
    initial[0] += 1
    bad = _broken(result.controller, initial=initial)
    report = verify_closed_loop(bad, result.partition, result.rg)
    assert not report.invariant_ok
    assert not report.isomorphic


def test_wrong_incidence_does_not_verify(two_machines):
    result = run_pipeline(two_machines)
    ctrl = result.controller
    # a transition the closed loop fires, with one entry off by one
    t = int(result.closed.edges[0, 1])
    incidence = ctrl.incidence.copy()
    incidence[1, t] += 1
    bad = _broken(ctrl, incidence=incidence)
    report = verify_closed_loop(bad, result.partition, result.rg)
    assert not report.invariant_ok
    assert not report.isomorphic


def test_wrong_incidence_on_a_blocked_transition_does_not_verify():
    # A --t--> B with B forbidden: the one control place keeps t blocked
    # at m0, so the closed loop never fires it
    net = PetriNet("gate", ["A", "B"], ["t"], [True], [[0]], [[1]],
                   Marking.from_support(2, [0]))
    rg = build_reachability_graph(net)
    partition = partition_states(rg, BadStateSpec(expr="B"))
    good = Controller(incidence=np.array([[-1]]), initial=np.array([0]),
                      bounds=np.array([0]), weights=np.array([[0, 1]]),
                      place_names=("c0",))
    assert assert_matches_reference(net, good, partition, rg).isomorphic
    # -2 keeps t blocked, so the composite exploration, which only fires
    # allowed edges, never sees the wrong entry; the check on every edge
    # leaving a closed-loop state does
    bad = _broken(good, incidence=np.array([[-2]]))
    ref = reference_verify(net, bad, partition, rg)
    assert ref.invariant_ok and ref.isomorphic
    report = verify_closed_loop(bad, partition, rg)
    assert report.edges.tolist() == ref.edges.tolist() == []
    assert not report.invariant_ok
    assert not report.isomorphic
