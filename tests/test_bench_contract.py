"""What the pipeline benchmark reads from the program.

`perfbench/spans.py` wraps the functions named in its TARGETS and takes
counts from their arguments and results; the benchmark's per-layer
metrics are sums of those counts.  They must stay plain ints equal to
the true sizes, or the benchmark's output is malformed.
`perfbench/workloads.py` builds its nets through the library's
`PetriNet`, `Marking`, `BadStateSpec` and `serialize_net`.
"""

import random
import sys
from pathlib import Path

import pytest

import overseer.cli
from overseer import (
    StageFailure,
    build_reachability_graph,
    parse_net,
    run_pipeline,
    serialize_net,
)

ROOT = Path(__file__).parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "benchmarks")]
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reach_bench import ring_net  # noqa: E402


def test_every_target_exists():
    for owner, attr, name, _ in spans.TARGETS:
        assert owner.__dict__.get(attr) is not None, name


def _traced_counts(path, tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = overseer.cli.main([str(path), "--report",
                                str(tmp_path / "r.json")])
    finally:
        tracer.restore()
    assert rc == 0
    return tracer.totals()[1]


@pytest.mark.parametrize("which", ["rings3", "two_machines"])
def test_counts_are_true_ints(which, tmp_path, two_machines, two_machines_path,
                              capsys):
    if which == "rings3":
        net = ring_net(3)
        path = tmp_path / "rings3.pnet"
        path.write_text(serialize_net(net), encoding="utf-8")
        closed = None  # nothing forbidden: the closed loop is the plant
        partition = {"forbidden": 0, "authorized": 27, "border": 0}
    else:
        net = two_machines.net
        path = two_machines_path
        closed = {"closed_states": 5, "closed_edges": 5}
        partition = {"forbidden": 7, "authorized": 5, "border": 5}
    states, edges = oracle.explore(net.pre_masks, net.post_masks,
                                   net.m0.mask, 1 << 16)
    reach = {"states": len(states), "edges": len(edges)}
    if closed is None:
        closed = {"closed_states": len(states), "closed_edges": len(edges)}

    counts = _traced_counts(path, tmp_path)
    capsys.readouterr()
    for span, expected in (("net.reach", reach),
                           ("synthesis.verify", closed),
                           ("partition.partition", partition)):
        got = counts[span]
        assert got == expected, span
        assert all(type(v) is int for v in got.values()), (span, got)


def test_workload_builders_run_through_the_pipeline():
    rng = random.Random(0)
    # (text, plant states, closed-loop states, constraints)
    families = [(workloads.machines(2, rng), 144, 25, 4),
                (workloads.rings(2, rng), 9, 9, 0)]
    for text, states, closed, constraints in families:
        result = run_pipeline(parse_net(text))
        assert result.rg.n_states == states
        assert result.closed.state_count == closed
        assert result.controller.k == constraints
        assert result.closed.isomorphic
    outcomes = set()
    for _ in range(6):
        case = workloads.random_case(rng)
        doc = parse_net(case.text)
        masks, _ = oracle.explore(case.pre, case.post, case.m0,
                                  workloads.GEN_BUDGET)
        assert build_reachability_graph(doc.net).masks == masks
        try:
            result = run_pipeline(doc)
        except StageFailure as exc:
            outcomes.add(exc.stage)
        else:
            outcomes.add(result.closed.isomorphic)
    assert len(outcomes) > 1  # the cases do not all end the same way
