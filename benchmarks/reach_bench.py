"""Reachability benchmark: BFS exploration time on scaled token rings.

The workload is a family of k independent three-place token rings, so
the state count is exactly 3^k and every state has k enabled
transitions.  The state and edge counts are checked before any timing
is reported.

    python3 benchmarks/reach_bench.py [--max-rings K] [--repeats N]
"""

import argparse
import time

from overseer import Marking, PetriNet, build_reachability_graph


def ring_net(k):
    """k disjoint rings of three places, one token circling each."""
    places = []
    transitions = []
    controllable = []
    pre = []
    post = []
    for r in range(k):
        base = 3 * r
        places += ["R%da" % r, "R%db" % r, "R%dc" % r]
        for step in range(3):
            transitions.append("t%d_%d" % (r, step))
            controllable.append(True)
            pre.append([base + step])
            post.append([base + (step + 1) % 3])
    m0 = Marking.from_support(3 * k, [3 * r for r in range(k)])
    return PetriNet("rings%d" % k, places, transitions, controllable,
                    pre, post, m0)


def best_time(net, budget, repeats):
    rg = None
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        rg = build_reachability_graph(net, budget=budget)
        best = min(best, time.perf_counter() - t0)
    return best, rg


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-rings", type=int, default=9,
                    help="largest ring count to time (3^k states)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repetitions, best is kept")
    args = ap.parse_args()

    print("%6s %8s %8s %10s" % ("rings", "states", "edges", "time"))
    for k in range(2, args.max_rings + 1):
        net = ring_net(k)
        t, rg = best_time(net, 3 ** k + 1, args.repeats)
        assert rg.n_states == 3 ** k
        assert len(rg.edges) == k * 3 ** k
        print("%6d %8d %8d %8.2fms" % (k, rg.n_states, len(rg.edges), t * 1e3))


if __name__ == "__main__":
    main()
