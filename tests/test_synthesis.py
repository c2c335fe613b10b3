"""Controller algebra and closed-loop verification."""

from collections import Counter

import numpy as np
import pytest

from overseer import (
    BadStateSpec,
    Marking,
    PetriNet,
    StatePartition,
    assemble_controlled_net,
    build_constraint_matrix,
    build_reachability_graph,
    empty_controller,
    parse_net,
    partition_states,
    serialize_net,
    synthesize,
    verify_closed_loop,
)
from overseer.errors import InitialMarkingViolation, NonBinaryController
from overseer.net import bit_rows, support
from overseer.report import build_report
from overseer.synthesis import Controller, format_constraint


def _m(places):
    """The mask of a set of places."""
    return sum(1 << p for p in set(places))


def _simple_net():
    # A --go(c)--> B --back(c)--> A, plus B --risk(u)--> C
    return PetriNet(
        "simple", ["A", "B", "C"], ["go", "back", "risk"],
        [True, True, False],
        [[0], [1], [1]], [[1], [0], [2]],
        Marking.from_support(3, [0]),
    )


def test_constraint_matrix_layout():
    weights, bounds = build_constraint_matrix(
        [_m([0, 2]), _m([1])],
        n_places=4,
    )
    assert weights.tolist() == [[1, 0, 1, 0], [0, 1, 0, 0]]
    assert bounds.tolist() == [1, 0]
    assert len(weights) == 2


def test_constraint_matrix_of_no_states():
    weights, bounds = build_constraint_matrix([], n_places=3)
    assert weights.shape == (0, 3) and bounds.shape == (0,)
    # no rows synthesize the controller that has no control place
    net = _simple_net()
    got = synthesize(net, *build_constraint_matrix((), net.n_places))
    want = empty_controller(net)
    for name in ("incidence", "initial", "bounds", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
    assert got.place_names == want.place_names == ()
    assert got.k == 0 and assemble_controlled_net(net, got) is net


def test_constraint_row_of_overstate():
    weights, bounds = build_constraint_matrix([_m([1, 4])], 6)
    assert weights.tolist() == [[0, 1, 0, 0, 1, 0]]
    assert bounds.tolist() == [1]
    assert format_constraint(["P%d" % (i + 1) for i in range(6)],
                             weights[0], bounds[0]) \
        == "m(P2) + m(P5) <= 1"


def test_constraint_row_violated_iff_covering():
    b = _m([1, 4])
    weights, bounds = build_constraint_matrix([b], 6)
    for mask, bits in enumerate(bit_rows(range(2 ** 6), 6)):
        total = int(weights[0] @ bits)
        assert (total > bounds[0]) == (not b & ~mask)
        assert (total <= bounds[0]) != (total > bounds[0])


def test_constraint_rows_preserve_order():
    weights, _ = build_constraint_matrix([_m([2, 3]), _m([0])], 4)
    assert [tuple(np.flatnonzero(row)) for row in weights] == [(2, 3), (0,)]


def test_constraint_matrix_rejects_bad_overstates():
    # an empty over-state, and one naming a place the net does not have
    with pytest.raises(ValueError):
        build_constraint_matrix([_m([1]), 0], 3)
    with pytest.raises(ValueError):
        build_constraint_matrix([_m([1, 3])], 3)


def test_exact_rows_follow_the_overstate_rows():
    # u = {P1} of three places: +1 on u, -1 elsewhere, bound |u| - 1;
    # the empty marking gets -m(A) - m(B) - m(C) <= -1
    weights, bounds = build_constraint_matrix([_m([2])], 3,
                                              exact=[_m([1]), 0])
    assert weights.tolist() == [[0, 0, 1], [-1, 1, -1], [-1, -1, -1]]
    assert bounds.tolist() == [0, 0, -1]
    weights, bounds = build_constraint_matrix([], 3, exact=[_m([0, 2])])
    assert weights.tolist() == [[1, -1, 1]]
    assert bounds.tolist() == [1]
    with pytest.raises(ValueError):
        build_constraint_matrix([], 3, exact=[_m([3])])


def test_exact_row_violated_by_its_own_marking_only():
    every = bit_rows(range(2 ** 5), 5)
    for u in range(2 ** 5):
        (row,), (bound,) = build_constraint_matrix([], 5, exact=[u])
        assert (every @ row > bound).nonzero()[0].tolist() == [u]


def test_format_constraint_signed_and_weighted_terms():
    places = ["Q", "P1", "P2"]
    assert format_constraint(places, [-1, 1, -1], 0) \
        == "-m(Q) + m(P1) - m(P2) <= 0"
    assert format_constraint(["A", "B"], [-1, -1], -1) \
        == "-m(A) - m(B) <= -1"
    assert format_constraint(places, [0, 2, -3], 1) \
        == "2 m(P1) - 3 m(P2) <= 1"
    assert format_constraint(places, [-2, 0, 1], 0) \
        == "-2 m(Q) + m(P2) <= 0"


def test_controller_incidence_is_negated_weighted_incidence():
    net = _simple_net()
    weights, bounds = build_constraint_matrix([_m([2])], 3)
    ctrl = synthesize(net, weights, bounds)
    # risk moves a token into C: the control place must feed risk
    w = net.incidence()
    assert (ctrl.incidence == -(weights @ w)).all()
    assert ctrl.incidence.tolist() == [[0, 0, -1]]
    assert ctrl.initial.tolist() == [0]
    assert ctrl.place_names == ("Pc1",)


def test_initial_marking_violation():
    net = _simple_net()
    weights, bounds = build_constraint_matrix([_m([0])], 3)
    with pytest.raises(InitialMarkingViolation):
        synthesize(net, weights, bounds)


def test_control_place_names_avoid_collisions():
    net = PetriNet(
        "named", ["Pc1", "X"], ["t"], [True],
        [[0]], [[1]], Marking.from_support(2, [0]),
    )
    weights, bounds = build_constraint_matrix([_m([1])], 2)
    ctrl = synthesize(net, weights, bounds)
    assert ctrl.place_names[0] not in net.places


def test_assembled_net_matches_incidence():
    net = _simple_net()
    weights, bounds = build_constraint_matrix([_m([1, 2])], 3)
    ctrl = synthesize(net, weights, bounds)
    controlled = assemble_controlled_net(net, ctrl)
    assert controlled.places == ("A", "B", "C", "Pc1")
    w = controlled.incidence()
    assert w[3].tolist() == ctrl.incidence[0].tolist()
    # the original rows are untouched
    assert (w[:3] == net.incidence()).all()
    # round-trips through the text format
    doc = parse_net(serialize_net(controlled))
    assert doc.net == controlled


def test_non_binary_controller_refused_as_net():
    # one firing fills two constrained places: arc weight 2 needed
    net = PetriNet(
        "pair", ["A", "B", "D"], ["both"], [True],
        [[2]], [[0, 1]], Marking.from_support(3, [2]),
    )
    weights, bounds = build_constraint_matrix([_m([0, 1])], 3)
    ctrl = synthesize(net, weights, bounds)
    assert not ctrl.is_binary()
    with pytest.raises(NonBinaryController):
        assemble_controlled_net(net, ctrl)


def test_multi_token_control_place_verified_without_assembly():
    # three tokens may accumulate; the control place counts down from 2
    net = PetriNet(
        "acc", ["S1", "S2", "A", "B", "C"], ["a", "b", "c"],
        [True, True, True],
        [[0], [1], [2]], [[2], [3], [4]],
        Marking.from_support(5, [0, 1]),
    )
    # at most two of A, B, C marked at once
    weights, bounds = build_constraint_matrix([_m([2, 3, 4])], 5)
    ctrl = synthesize(net, weights, bounds)
    assert ctrl.initial.tolist() == [2]
    rg = build_reachability_graph(net)
    partition = partition_states(rg, None)
    report = verify_closed_loop(ctrl, partition, rg)
    assert report.invariant_ok
    assert max(report.max_control_marking) == 2


def test_empty_controller_reproduces_plant():
    net = _simple_net()
    rg = build_reachability_graph(net)
    partition = partition_states(rg, None)
    report = verify_closed_loop(empty_controller(net), partition, rg)
    assert report.state_count == rg.n_states
    assert report.isomorphic
    assert report.invariant_ok
    assert not report.admissibility_violations
    assert set(rg.masks_of(report.states)) == set(rg.masks)


def test_supervisor_blocks_exactly_the_border(two_machines):
    net = two_machines.net
    rg = build_reachability_graph(net)
    partition = partition_states(rg, two_machines.spec)
    weights, bounds = build_constraint_matrix(
        [_m([3, 5]), _m([1, 6])],
        net.n_places,
    )
    ctrl = synthesize(net, weights, bounds)
    report = verify_closed_loop(ctrl, partition, rg)
    assert report.isomorphic
    assert report.state_count == len(partition.m_a)
    assert not report.admissibility_violations
    assert not report.edge_mismatches


def test_admissibility_violation_surfaces():
    # forbid B outright although only an uncontrollable firing fills it:
    # the control place becomes the sole disabler of risk at B's source
    net = PetriNet(
        "unc", ["A", "B"], ["risk"], [False],
        [[0]], [[1]], Marking.from_support(2, [0]),
    )
    weights, bounds = build_constraint_matrix([_m([1])], 2)
    ctrl = synthesize(net, weights, bounds)
    rg = build_reachability_graph(net)
    partition = StatePartition(
        m_f=np.array([1]),
        m_a=np.array([0]), m_b=np.arange(0),
    )
    report = verify_closed_loop(ctrl, partition, rg)
    assert len(report.admissibility_violations) == 1
    v = report.admissibility_violations[0]
    assert v.transition == 0
    assert v.control_place == 0
    assert "risk" in v.format(net, ctrl)
    # the text report lists the violation under its count
    text = build_report(net, rg, partition, None, ctrl, report, []
                        ).render_text().splitlines()
    at = text.index("  admissibility violations: 1")
    assert text[at + 1] == "    %s" % v.format(net, ctrl)
    assert text[at + 2] == "  isomorphic to authorized subgraph: no"


def test_over_restrictive_controller_reports_missing_states():
    net = _simple_net()
    rg = build_reachability_graph(net)
    partition = partition_states(rg, None)
    # pointless constraint: forbid B although B is authorized
    weights, bounds = build_constraint_matrix([_m([1])], 3)
    ctrl = synthesize(net, weights, bounds)
    report = verify_closed_loop(ctrl, partition, rg)
    assert not report.isomorphic
    assert [support(m) for m in report.missing_authorized] \
        == [(1,), (2,)]
    assert report.edge_mismatches


def test_weight_row_shape_checked():
    net = _simple_net()
    weights, bounds = build_constraint_matrix([_m([0])], 5)
    with pytest.raises(ValueError):
        synthesize(net, weights, bounds)
    # empty weights are zero rows of the net's width
    got = synthesize(net, [], [])
    assert got.k == 0 and got.weights.shape == (0, 3)
    assert got.incidence.shape == (0, 3) and got.initial.shape == (0,)
    # one bound per row, as a flat list
    for bad in ([1, 2], [], [[1]]):
        with pytest.raises(ValueError):
            synthesize(net, [[1, 0, 0]], bad)
    with pytest.raises(ValueError):
        synthesize(net, [1, 0, 0], [1])


def test_wrong_incidence_on_a_leaving_edge_does_not_verify(monkeypatch):
    # the nets and controllers of test_random_nets, each checked again
    # with one incidence entry off by one: at the transition of the first
    # edge leaving a closed-loop state that the closed loop takes, and of
    # the first one a control place blocks.  Either way the invariant
    # fails on that edge.
    import test_closed_loop_reference as reference
    matches_reference = reference.assert_matches_reference
    seen = Counter()

    def check(net, ctrl, partition, rg):
        got = matches_reference(net, ctrl, partition, rg)
        closed = set(got.states.tolist())
        leaving = [(t, d not in closed) for s in sorted(closed)
                   for t, d in zip(*(col[rg.offsets[s]:rg.offsets[s + 1]]
                                     .tolist() for col in (rg.tr, rg.dst)))]
        picks = ([e for e in leaving if not e[1]][:1]
                 + [e for e in leaving if e[1]][:1])
        for t, blocked in picks if ctrl.k else ():
            incidence = ctrl.incidence.copy()
            incidence[t % ctrl.k, t] += 1
            bad = verify_closed_loop(Controller(
                incidence=incidence, initial=ctrl.initial, bounds=ctrl.bounds,
                weights=ctrl.weights, place_names=ctrl.place_names,
            ), partition, rg)
            assert not bad.invariant_ok
            assert not bad.isomorphic
            seen["blocked" if blocked else "taken"] += 1
        return got

    monkeypatch.setattr(reference, "assert_matches_reference", check)
    reference.test_random_nets()
    assert seen["blocked"] >= 20 and seen["taken"] >= 20, seen
