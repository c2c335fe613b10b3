"""What the pipeline benchmark reads from the program.

`perfbench/spans.py` wraps the functions named in its TARGETS and takes
counts from their arguments and results; the benchmark's per-layer
metrics are sums of those counts.  They must stay plain ints equal to
the true sizes, or the benchmark's output is malformed.
`perfbench/workloads.py` builds its nets through the library's
`PetriNet`, `Marking`, `BadStateSpec` and `serialize_net`.  One call on
each family net passes the benchmark's answer check.  The first
nets of the random-batch pool go through the benchmark's own calls and
answer checks, and through the same answer checks under `--fallback`.
The scripts in `benchmarks/` run here on their smallest sizes.
"""

import json
import random
import runpy
import sys
from collections import Counter
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
BENCH_DIRS = [str(ROOT / "perfbench"), str(ROOT / "benchmarks")]
sys.path[:0] = BENCH_DIRS
import oracle  # noqa: E402
import run as bench_run  # noqa: E402
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


@pytest.mark.parametrize("workload", list(bench_run.FAMILIES))
def test_family_call_passes_the_benchmark_check(workload, tmp_path):
    # the family checks read the report's counts, not its state lists
    _, path, check = next(bench_run.family_source(workload, 0, tmp_path))
    call, _ = bench_run.run_one(path, check, tmp_path / "r.json")
    assert not call.failed and call.wrong is None, (call.rc, call.wrong)


def test_random_batch_slice_passes_the_benchmark_check(tmp_path):
    pool = bench_run.random_pool(bench_run.RANDOM_POOL_SEED, 100)
    calls = [bench_run.run_one(path, check, tmp_path / "r.json")[0]
             for _, path, check in bench_run.random_source(pool, 0, 1,
                                                           tmp_path)]
    assert len(calls) == 100
    assert [c.rc for c in calls if c.failed] == []
    assert [c.wrong for c in calls if c.wrong] == []


def test_random_batch_slice_passes_the_benchmark_check_under_fallback(
        tmp_path, capsys):
    # with --fallback every net that admits a supervisor exits 0 with
    # the oracle's answer, and every other net exits 3
    path, report = tmp_path / "net.pnet", tmp_path / "r.json"
    codes, bad = Counter(), []
    for i, case in enumerate(bench_run.random_pool(
            bench_run.RANDOM_POOL_SEED, 100)):
        path.write_text(case.text, encoding="utf-8")
        report.unlink(missing_ok=True)
        rc = overseer.cli.main([str(path), "--fallback",
                                "--report", str(report)])
        doc = json.loads(report.read_text()) if report.exists() else None
        expected = oracle.supervised(case, workloads.GEN_BUDGET)
        failed, wrong = bench_run.check_random(case, expected, rc, doc)
        codes[rc] += 1
        if failed or wrong or rc not in (0, 3):
            bad.append((i, rc, wrong))
    capsys.readouterr()
    assert bad == []
    assert set(codes) == {0, 3}, codes


@pytest.mark.parametrize("argv", [
    ["overstate_bench.py", "--max-k", "2", "--repeats", "1"],
    ["reach_bench.py", "--max-rings", "2", "--repeats", "1"],
    ["differential.py", "/dev/null", "--pool", "20", "--max-k", "2"],
])
def test_benchmark_scripts_run(argv, monkeypatch, capsys):
    # each script asserts its own counts, and overstate_bench checks its
    # oracle at k=2.  It runs as from the command line: its own folder
    # heads the path, and the modules this file imported from the bench
    # folders are imported afresh, so a broken import fails here.
    script = ROOT / "benchmarks" / argv[0]
    monkeypatch.setattr(sys, "argv", [str(script)] + argv[1:])
    monkeypatch.setattr(sys, "path", [str(script.parent)] + [
        p for p in sys.path if p not in BENCH_DIRS])
    for name in ("oracle", "spans", "workloads", "reach_bench"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
