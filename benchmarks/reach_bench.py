"""Reachability benchmark: BFS exploration time on scaled token rings
and on a net whose BFS levels are wide, then one state wide.

The main workload is a family of k independent three-place token rings,
so the state count is exactly 3^k and every state has k enabled
transitions.  For each ring count the time to name every state
(`PetriNet.format_masks`, as the report does) is printed next to the
BFS time, once the names are checked against `format_mask` of each
state.  The second net (`fork_counter_net`) has BFS levels of up
to 924 states, then a tail of 2048 levels of one state each: the wide part
is expanded with whole-array operations and the tail one state at a
time, so a kernel that keeps the array step on narrow levels shows up
as a slowdown here.  The state and edge counts are checked before any
timing is reported.

    python3 benchmarks/reach_bench.py [--max-rings K] [--repeats N]
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

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


def fork_counter_net(bits, counter_bits):
    """`bits` one-shot switches that fire in any order (2^bits states, BFS
    level i holding C(bits, i) of them), then a join that starts a
    binary counter of `counter_bits` bits (2^counter_bits states, one per
    level).  Each counter bit is a pair of places, one marked when the bit
    is 0, one when it is 1; at each value only the transition that sets
    the lowest 0 bit and clears the 1 bits below it is enabled."""
    off = ["a%d" % i for i in range(bits)]
    on = ["b%d" % i for i in range(bits)]
    zero = ["z%d" % i for i in range(counter_bits)]
    one = ["o%d" % i for i in range(counter_bits)]
    places = off + on + zero + one
    z0, o0 = 2 * bits, 2 * bits + counter_bits
    transitions = ["set%d" % i for i in range(bits)] + ["join"] \
        + ["inc%d" % j for j in range(counter_bits)]
    pre = [[i] for i in range(bits)] + [list(range(bits, 2 * bits))] \
        + [[o0 + i for i in range(j)] + [z0 + j] for j in range(counter_bits)]
    post = [[bits + i] for i in range(bits)] \
        + [list(range(z0, z0 + counter_bits))] \
        + [[z0 + i for i in range(j)] + [o0 + j] for j in range(counter_bits)]
    m0 = Marking.from_support(len(places), range(bits))
    return PetriNet("fork%d_counter%d" % (bits, counter_bits), places,
                    transitions, [True] * len(transitions), pre, post, m0)


def best_time(call, repeats):
    """The least time of `repeats` calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-rings", type=int, default=9,
                    help="largest ring count to time (3^k states)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repetitions, best is kept")
    args = ap.parse_args()

    print("%6s %8s %8s %10s %10s" % ("rings", "states", "edges", "time",
                                     "names"))
    for k in range(2, args.max_rings + 1):
        net = ring_net(k)
        t, rg = best_time(
            lambda: build_reachability_graph(net, budget=3 ** k + 1),
            args.repeats)
        assert rg.n_states == 3 ** k
        assert len(rg.edges) == k * 3 ** k
        t_names, names = best_time(lambda: net.format_masks(rg.masks),
                                   args.repeats)
        assert names == [net.format_mask(m) for m in rg.masks]
        print("%6d %8d %8d %8.2fms %8.2fms" % (
            k, rg.n_states, len(rg.edges), t * 1e3, t_names * 1e3))

    bits, counter_bits = 12, 11
    net = fork_counter_net(bits, counter_bits)
    states = 2 ** bits + 2 ** counter_bits
    t, rg = best_time(lambda: build_reachability_graph(net, budget=states),
                      args.repeats)
    assert rg.n_states == states
    assert len(rg.edges) == bits * 2 ** (bits - 1) + 2 ** counter_bits
    print()
    print("%16s %8s %8s %10s" % ("net", "states", "edges", "time"))
    print("%16s %8d %8d %8.2fms" % (net.name, rg.n_states, len(rg.edges),
                                    t * 1e3))


if __name__ == "__main__":
    main()
