"""Over-state benchmark: minimal over-states of k copies of two_machines.

The workload is the benchmark family of k disjoint copies of the bundled
two_machines net (12^k plant states), built by the pipeline benchmark's
own generator.  Each copy contributes 4 minimal over-states and 2
constraints, so the run checks 4k and 2k before any timing is reported;
up to ORACLE_MAX_K copies it also checks the minimal over-states against
the tests' enumerating reference (`tests/overstate_reference.py`: every
sub-support of every border state, pruned and reduced to its antichain),
which is exponential in k.  The "over-states" time is the pipeline's own
timing of its over-states stage, which solves each copy on its own (the
authorized set is the product of the copies' authorized sets).  The
"whole" time is one `overstate_union` call without `blocks`, the engine
that solves all copies at once; the run checks that it lists the same
over-states.

A second table times the numpy step that reduces the border x
authorized product to its minimal edges, on nets the pipeline solves
whole: k copies of two_machines with the one forbidden term
`P2_0 & P7_1`, which joins two copies, so the authorized set is no
product of the copies' sets.  It times one `overstate_union` call as the
pipeline makes it ("numpy") and the same call with the numpy threshold
raised above the product, so that Berge gets every edge ("loop"), and
checks that both list the pipeline's over-states.  Up to COUPLED_MAX_K
copies, and no more than --max-k.

    python3 benchmarks/overstate_bench.py [--max-k K] [--repeats N]
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "benchmarks"), str(ROOT / "tests")]

import overseer.overstates
from overseer import (
    BadStateSpec,
    NetDocument,
    overstate_union,
    parse_net,
    run_pipeline,
)
from overstate_reference import reference_overstates
from workloads import machines

# the reference lists 28,646 sub-supports at k=3 and 822,878 at k=4
ORACLE_MAX_K = 3

# on a 2-core host the coupled net's loop path took 0.21 s at k=3
# (648 x 1,080 pairs) and 23 s at k=4 (7,776 x 12,960)
COUPLED_MAX_K = 3


def reference_minimal(rg, partition):
    """The enumerating reference's minimal over-states of the partition
    (`tests/overstate_reference.py`)."""
    return reference_overstates(rg.masks_of(partition.m_b),
                                rg.masks_of(partition.m_a))[2]


def best_time(repeats, call):
    """The result of `call()` and its best wall time over `repeats` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - t0)
    return out, best


def coupled_rows(max_k, repeats):
    print()
    print("%3s %8s %7s %10s %11s %8s %10s %10s"
          % ("k", "states", "border", "authorized", "pairs", "minimal",
             "numpy", "loop"))
    for k in range(2, min(max_k, COUPLED_MAX_K) + 1):
        net = parse_net(machines(k, random.Random(k))).net
        result = run_pipeline(NetDocument(net,
                                          BadStateSpec(expr="P2_0 & P7_1")))
        assert result.closed.isomorphic
        border = result.rg.masks_of(result.partition.m_b)
        authorized = result.rg.masks_of(result.partition.m_a)
        pairs = len(border) * len(authorized)
        assert pairs >= overseer.overstates._VECTOR_PAIRS, pairs

        def union():
            return overstate_union(border, authorized)

        listed, vector_s = best_time(repeats, union)
        default = overseer.overstates._VECTOR_PAIRS
        overseer.overstates._VECTOR_PAIRS = pairs + 1
        try:
            loop, loop_s = best_time(repeats, union)
        finally:
            overseer.overstates._VECTOR_PAIRS = default
        assert listed == loop == result.table.rows, k
        print("%3d %8d %7d %10d %11d %8d %8.1fms %8.1fms"
              % (k, result.rg.n_states, len(border), len(authorized), pairs,
                 len(listed), vector_s * 1e3, loop_s * 1e3))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-k", type=int, default=5,
                    help="largest number of copies to time")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repetitions, best is kept")
    args = ap.parse_args()

    print("%3s %8s %7s %8s %12s %11s %10s %7s"
          % ("k", "states", "border", "minimal", "constraints",
             "over-states", "whole", "oracle"))
    for k in range(2, args.max_k + 1):
        doc = parse_net(machines(k, random.Random(k)))
        best = float("inf")
        for _ in range(args.repeats):
            result = run_pipeline(doc)
            r = result.report.to_dict()
            best = min(best, next(t["seconds"] for t in r["timings"]
                                  if t["stage"] == "over-states"))
        minimal = r["over_states"]["minimal"]
        assert len(minimal) == 4 * k, len(minimal)
        assert result.controller.k == 2 * k, result.controller.k
        assert result.closed.isomorphic
        border = result.rg.masks_of(result.partition.m_b)
        authorized = result.rg.masks_of(result.partition.m_a)
        listed, whole = best_time(
            args.repeats, lambda: overstate_union(border, authorized))
        assert listed == result.table.rows, k
        checked = "-"
        if k <= ORACLE_MAX_K:
            ref = reference_minimal(result.rg, result.partition)
            assert minimal == doc.net.format_masks(ref)
            checked = "same"
        print("%3d %8d %7d %8d %12d %9.1fms %8.1fms %7s"
              % (k, result.rg.n_states, len(result.partition.m_b),
                 len(minimal), result.controller.k, best * 1e3,
                 whole * 1e3, checked))
    coupled_rows(args.max_k, args.repeats)


if __name__ == "__main__":
    main()
