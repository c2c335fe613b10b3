"""Acceptance gate.

Each criterion prints exactly one PASS/FAIL line (straight to the real
stdout so the lines survive pytest's capture).  Golden values for the
two-machine example are exact; the randomized suite runs 500 generated
safe nets, then two fixed nets that reach the cover search, and
persists any counterexample among the generated ones under
tests/failures/ for triage.
"""

import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

from overseer import (
    build_cover_table,
    build_constraint_matrix,
    build_reachability_graph,
    check_final_coverage,
    overstate_union,
    parse_net,
    parse_net_file,
    partition_states,
    run_pipeline,
    select_final_cover,
    serialize_net,
    synthesize,
    verify_closed_loop,
)
from overseer.cli import main as cli_main
from overseer.errors import ForbiddenInitialMarking, StageFailure
from overseer.net import bit_rows, support
from overseer.pipeline import minimal_elements, prune_authorized

from closed_loop_reference import authorized_reachable
from conftest import FAILURE_DIR
from cover_reference import minimum_selection, reference_greedy, search_runs
from netgen import random_spec, safe_net
from overstate_reference import antichain, clear_of, reference_overstates

EXPECTED_AUTHORIZED = {"P1P3P6", "P2P3P6", "P1P3P7", "P1P4P7", "P1P5P7"}
EXPECTED_BORDER = {"P1P4P6", "P2P4P6", "P2P3P7", "P2P4P7", "P2P5P7"}
EXPECTED_FORBIDDEN = EXPECTED_BORDER | {"P1P5P6", "P2P5P6"}
EXPECTED_PRUNED = {
    "P2P4", "P2P5", "P2P7", "P4P6",
    "P1P4P6", "P2P4P6", "P2P3P7", "P2P4P7", "P2P5P7",
}
EXPECTED_MINIMAL = {"P4P6", "P2P4", "P2P7", "P2P5"}
EXPECTED_COVER_COUNTS = [1, 2, 1, 2, 2]
EXPECTED_SELECTED = ["P4P6", "P2P7"]
EXPECTED_WEIGHTS = [[0, 0, 0, 1, 0, 1, 0], [0, 1, 0, 0, 0, 0, 1]]
EXPECTED_CTRL_INCIDENCE = [[0, 1, -1, 1, -1], [-1, 0, 0, 0, 1]]
EXPECTED_CTRL_INITIAL = [0, 1]

PROPERTY_NETS = 500
PROPERTY_SEED = 101

# Two nets on which greedy picks 2 rows, none of them essential, so the
# search for fewer rows runs (and finds that 2 is the minimum).  No
# drawn net of the property suite reaches the search.
SEARCH_NETS = ["""\
net gen
places P1 P2 P3 P4 P5 P6 P7 P8 P9 P10
initial P9 P10
transition t1 controllable { in P10 ; out P4 P5 }
transition t2 controllable { in P9 P10 ; out P1 P3 }
transition t3 controllable { in P8 ; out }
forbidden {
  expr "!P10"
}
""", """\
net gen
places P1 P2 P3 P4 P5 P6 P7 P8
initial P4 P5 P6
transition t1 controllable { in P5 P6 ; out P2 P7 }
transition t2 controllable { in P6 ; out P3 P8 }
forbidden {
  deadlock
  state P2 P4 P7
}
"""]


def _announce(label, ok):
    print("%s: %s" % (label, "PASS" if ok else "FAIL"),
          file=sys.__stdout__, flush=True)


@contextmanager
def _criterion(label):
    try:
        yield
    except BaseException:
        _announce(label, False)
        raise
    _announce(label, True)


def _example(two_machines_path):
    doc = parse_net_file(two_machines_path)
    rg = build_reachability_graph(doc.net)
    partition = partition_states(rg, doc.spec)
    return doc, rg, partition


def _names(net, rg, ids):
    return {net.format_mask(rg.masks[s]) for s in ids}


def test_criterion_1_partition(two_machines_path):
    with _criterion("criterion 1 (reachability and partition)"):
        doc, rg, partition = _example(two_machines_path)
        assert rg.n_states == 12
        assert len(partition.m_f) == 7
        assert len(partition.m_a) == 5
        assert _names(doc.net, rg, partition.m_a) == EXPECTED_AUTHORIZED
        assert _names(doc.net, rg, partition.m_f) == EXPECTED_FORBIDDEN
        assert _names(doc.net, rg, partition.m_b) == EXPECTED_BORDER


def test_criterion_2_over_states(two_machines_path):
    with _criterion("criterion 2 (over-state pipeline)"):
        doc, rg, partition = _example(two_machines_path)
        net = doc.net
        border = rg.masks_of(partition.m_b)
        authorized = rg.masks_of(partition.m_a)
        candidates, pruned, minimal = reference_overstates(border, authorized)
        # independent recount: all nonempty sub-supports of the border
        expected = set()
        for m in border:
            s = support(m)
            for k in range(1, len(s) + 1):
                expected.update(combinations(s, k))
        assert len(expected) == 23
        assert {support(b) for b in candidates} == expected
        assert len(candidates) == 23
        assert {net.format_mask(b) for b in pruned} == EXPECTED_PRUNED
        assert len(pruned) == 9
        assert {net.format_mask(b) for b in minimal} == EXPECTED_MINIMAL
        # the transversal engine finds the minimal ones directly
        assert overstate_union(border, authorized) == minimal


def test_criterion_3_cover_table(two_machines_path):
    with _criterion("criterion 3 (cover table and selection)"):
        doc, rg, partition = _example(two_machines_path)
        net = doc.net
        border = rg.masks_of(partition.m_b)
        authorized = rg.masks_of(partition.m_a)
        _, _, minimal = reference_overstates(border, authorized)
        assert overstate_union(border, authorized) == minimal
        table = build_cover_table(minimal, border)
        assert len(table.rows) == 4
        assert table.counts == EXPECTED_COVER_COUNTS
        select_final_cover(table)
        assert [net.format_mask(b) for b in table.selected_rows()] \
            == EXPECTED_SELECTED
        assert check_final_coverage(table)
        assert table.final_counts() == [1, 1, 1, 1, 1]


def test_criterion_4_synthesis_algebra(two_machines_path):
    with _criterion("criterion 4 (synthesis algebra)"):
        doc, _, _ = _example(two_machines_path)
        result = run_pipeline(doc)
        ctrl = result.controller
        assert ctrl.weights.tolist() == EXPECTED_WEIGHTS
        assert ctrl.incidence.tolist() == EXPECTED_CTRL_INCIDENCE
        assert ctrl.initial.tolist() == EXPECTED_CTRL_INITIAL
        assert ctrl.bounds.tolist() == [1, 1]


def test_criterion_5_closed_loop(two_machines_path):
    with _criterion("criterion 5 (closed loop)"):
        doc, rg, partition = _example(two_machines_path)
        result = run_pipeline(doc)
        closed = result.closed
        assert closed.state_count == 5
        assert set(rg.masks_of(closed.states)) \
            == {rg.masks[s] for s in partition.m_a}
        assert not closed.admissibility_violations
        assert closed.isomorphic


def _persist_counterexample(name, net, spec):
    FAILURE_DIR.mkdir(exist_ok=True)
    path = FAILURE_DIR / ("%s.pnet" % name)
    path.write_text(serialize_net(net, spec), encoding="utf-8")
    return path


def _check_generated_net(net, rg, spec, stats):
    try:
        partition = partition_states(rg, spec)
    except ForbiddenInitialMarking:
        stats["m0_forbidden"] += 1
        return

    border = rg.masks_of(partition.m_b)
    authorized = rg.masks_of(partition.m_a)

    if not len(partition.m_f):
        stats["no_forbidden"] += 1
        from overseer import empty_controller
        closed = verify_closed_loop(empty_controller(net), partition, rg)
        assert closed.isomorphic, "empty controller must keep the plant"
        assert closed.invariant_ok
        return

    _, _, minimal = reference_overstates(border, authorized)
    union = overstate_union(border, authorized)
    assert union == minimal, \
        "transversal engine and enumerating reference disagree"
    # the call the pipeline makes, one connected component at a time
    # where the authorized set factors
    by_part = overstate_union(border, authorized, blocks=net.components)
    assert by_part == minimal, \
        "per-component engine and enumerating reference disagree"
    # by the reference's own scans its list is an antichain that no
    # authorized state covers, so the pipeline's pruning and antichain
    # keep every candidate
    assert antichain(by_part) == by_part \
        == clear_of(by_part, authorized), \
        "the over-state union is not an antichain clear of R"
    assert minimal_elements(by_part) == by_part \
        == prune_authorized(by_part, authorized), \
        "the pipeline's guard drops an over-state"

    # (a) constraint semantics == covering semantics, exhaustively
    every = bit_rows(range(1 << net.n_places), net.n_places)
    for b in minimal:
        (row,), (bound,) = build_constraint_matrix([b], net.n_places)
        violated = every @ row > bound
        for mask, v in enumerate(violated.tolist()):
            assert v == (not b & ~mask), \
                "constraint and over-state disagree on %s" % bin(mask)

    # (b) minimal elements form an antichain
    for x in minimal:
        for y in minimal:
            assert x == y or x & ~y, "antichain violated"

    # (a') the exact row of a border state no over-state covers is
    # violated by that marking alone, exhaustively
    table = build_cover_table(minimal, border)
    uncovered = table.uncovered
    for u in uncovered:
        (row,), (bound,) = build_constraint_matrix([], net.n_places,
                                                   exact=[u])
        assert (every @ row > bound).nonzero()[0].tolist() == [u], \
            "exact row of %s is violated elsewhere" % bin(u)
    if uncovered:
        stats["uncoverable"] += 1
    select_final_cover(table)

    # (f) the selection is a valid cover, and a minimum one wherever
    # the search for fewer rows runs
    assert check_final_coverage(table), "selection left a column bare"
    selected = table.selected_rows()
    _, picks, n_essential = reference_greedy(table.rows, table.cols)
    searched = search_runs(table.rows, table.cols, picks, n_essential)
    if searched:
        stats["searched"] += 1
        assert len(selected) == len(
            minimum_selection(table.rows, table.cols)), \
            "the search missed a smaller cover"
    if len(selected) == len(picks) or not searched:
        assert table.picks == picks, "greedy picks changed"

    # (c) selected constraints, and the exact rows after them, split
    # authorized from border exactly
    weights, bounds = build_constraint_matrix(selected, net.n_places,
                                              exact=uncovered)
    sums = bit_rows(authorized, net.n_places) @ weights.T
    for m, row in zip(authorized, sums):
        assert (row <= bounds).all(), \
            "authorized %s violates a constraint" % (m,)
    sums = bit_rows(border, net.n_places) @ weights.T
    for m, row in zip(border, sums):
        assert (row > bounds).any(), \
            "border state %s slips through" % (m,)

    controller = synthesize(net, weights, bounds)
    closed = verify_closed_loop(controller, partition, rg)

    # (d) the defining place invariant holds on every reachable state
    assert closed.invariant_ok, "place invariant broken"

    # (e) differential against the brute-force supervisor: the closed
    # loop is R, the whole authorized set or, where the plant reaches
    # some authorized states only through forbidden ones, less
    oracle = authorized_reachable(rg, partition)
    oracle_masks = {rg.masks[s] for s in oracle}
    assert set(rg.masks_of(closed.states)) == oracle_masks, \
        "closed loop differs from the RG-filtered supervisor"
    assert not closed.admissibility_violations, \
        "supervisor had to disable an uncontrollable transition"
    assert closed.isomorphic, "closed loop verified as not isomorphic"
    if oracle == frozenset(partition.m_a.tolist()):
        stats["isomorphic"] += 1
    else:
        stats["authorized_unreachable"] += 1
    stats["synthesized"] += 1
    if uncovered:
        stats["fallback_oracle"] += 1


def _draw_case(rng):
    """One random safe net plus a spec that gives it a fighting chance:
    redraw the forbidden-state description a few times if it forbids the initial marking or
    forbids nothing at all.  The last draw is kept either way so the
    degenerate paths still get exercised."""
    net, rg = safe_net(rng, min_states=4)
    spec = None
    for _ in range(10):
        spec = random_spec(rng, net, rg)
        try:
            partition = partition_states(rg, spec)
        except ForbiddenInitialMarking:
            continue
        if len(partition.m_f):
            break
    return net, rg, spec


def test_criterion_6_property_suite():
    with _criterion("criterion 6 (randomized property suite, %d nets)"
                    % PROPERTY_NETS):
        stats = Counter()
        failures = []
        for i in range(PROPERTY_NETS):
            rng = random.Random(PROPERTY_SEED * 100_000 + i)
            net, rg, spec = _draw_case(rng)
            try:
                _check_generated_net(net, rg, spec, stats)
            except AssertionError as exc:
                path = _persist_counterexample("case_%05d" % i, net, spec)
                failures.append("%s (%s)" % (path.name, exc))
        assert not failures, "counterexamples persisted: %s" % failures
        for text in SEARCH_NETS:
            doc = parse_net(text)
            _check_generated_net(doc.net, build_reachability_graph(doc.net),
                                 doc.spec, stats)
        # the draw must exercise the interesting paths, not skirt them
        assert stats["synthesized"] >= 120, dict(stats)
        assert stats["isomorphic"] >= 80, dict(stats)
        assert stats["uncoverable"] >= 50, dict(stats)
        assert stats["fallback_oracle"] >= 200, dict(stats)
        assert stats["m0_forbidden"] >= 20, dict(stats)
        assert stats["searched"] >= 2, dict(stats)
        print("  property suite coverage: %s" % dict(stats),
              file=sys.__stdout__, flush=True)


def test_criterion_7_negative_paths(tmp_path, drop_job_path, capsys):
    with _criterion("criterion 7 (negative paths)"):
        doomed = tmp_path / "doomed.pnet"
        doomed.write_text(
            "net doomed\nplaces A B\ninitial A\n"
            "transition t controllable { in A ; out B }\n"
            'forbidden { expr "A" }\n',
            encoding="utf-8",
        )
        assert cli_main([str(doomed)]) == 3

        assert cli_main([str(drop_job_path)]) == 4

        out = tmp_path / "fallback.pnet"
        assert cli_main([str(drop_job_path), "--fallback",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        doc = parse_net_file(drop_job_path)
        result = run_pipeline(doc, fallback=True)
        report = result.report.to_dict()
        assert report["fallback"]["used"]
        assert report["controller"]["constraints"] \
            == ["-m(Q) + m(P1) - m(P2) <= 0"]
        assert result.closed.isomorphic
        assert out.exists()


def test_total_runtime_under_one_second(two_machines_path):
    with _criterion("runtime (example pipeline under 1 s)"):
        doc = parse_net_file(two_machines_path)
        t0 = time.perf_counter()
        run_pipeline(doc)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, "pipeline took %.3f s" % elapsed
