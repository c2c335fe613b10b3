"""Reachability benchmark: BFS exploration time on scaled token rings
and on a net whose BFS levels are wide, then one state wide.

The main workload is a family of k independent three-place token rings,
so the state count is exactly 3^k and every state has k enabled
transitions.  Its rings are k components that share no transition, so
its wide levels take the product step (`_ProductStep`); each ring count
is also timed on its coupled twin (`coupled`), which a dead transition
joins into one component, so that its wide levels take the sort step
(`_LevelStep`).  Both graphs are checked to have 3^k states and k * 3^k
edges.  Beside each step's time are its minor page faults per call
(`ru_minflt` over the timed calls), which count the memory the
allocator gives back to the system and takes again on the next call,
and the tracemalloc peak of one call divided by the bytes of the graph
it returns (`p` the product step, `s` the sort step).  The product step
writes the graph into its one buffer as it goes, while the sort step
keeps its levels and concatenates them at the end, so it holds the
graph twice.  For each ring count the time to name every state
(`PetriNet.format_masks`, as the DOT writers do) is printed next to the
BFS times, once the names are checked against `format_mask` of each
state.  The second net (`fork_counter_net`) has BFS levels of up
to 924 states, then a tail of 2048 levels of one state each: the wide part
is expanded with whole-array operations and the tail one state at a
time, so a kernel that keeps the array step on narrow levels shows up
as a slowdown here.  The third net is the coupled twin of ring_net(9)
with 36 idle places declared first, so that its masks reach bit 63 and
no level's (successor, pair index) keys fit in 64 bits: its levels
group their successors with an argsort instead of one sort of packed
keys, and its time against the twin's is that fallback's cost.  The
state and edge counts are checked before any timing is reported.

Then the dining philosophers (`phils_net`), a net that does not split:
n philosophers share n forks, so every wide level takes the sort step.
Each row is checked at its closed-form state count Q_n and timed twice,
as `build_reachability_graph` explores it ("sort") and with
`_VECTOR_FROM` raised above Q_n, so that every level takes the
per-state loop ("loop"); both graphs are checked to be the same.  The
rows run n = 2, 4, ... up to --max-rings + 5.

Then the narrow tails: for ring_net(9) and its twin, whose last levels
hold 45, 9 and 1 states, and for fork_counter_net(12, 8) and (12, 11),
whose one-state counter tails run 256 and 2,048 levels, the `_explore`
time and the number of narrow levels (fewer than `_VECTOR_FROM` states)
the array steps took before the loop took over, if it did.

    python3 benchmarks/reach_bench.py [--max-rings K] [--repeats N]
"""

import argparse
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import overseer.net  # noqa: E402
from overseer import Marking, PetriNet, build_reachability_graph  # noqa: E402
from overseer.net import support  # noqa: E402


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


def phils_net(n):
    """n >= 2 dining philosophers round a table, 4n places: philosopher i
    thinks (T_i), holds the left fork (L_i) or eats (E_i), and fork i is
    on the table (F_i).  `l_i` takes the left fork (T_i F_i -> L_i) and
    `r_i` the right one (L_i F_{i+1} -> E_i), both controllable; `d_i`,
    uncontrollable, puts both down (E_i -> T_i F_i F_{i+1}).  Neighbours
    share a fork, so the net is one component.  It has Q_n states,
    Q_n = 2 Q_{n-1} + Q_{n-2} with Q_2 = 6 and Q_3 = 14."""
    def at(kind, i):
        return 4 * (i % n) + "TLEF".index(kind)

    places = ["%s%d" % (kind, i) for i in range(n) for kind in "TLEF"]
    transitions, controllable, pre, post = [], [], [], []
    for i in range(n):
        transitions += ["l%d" % i, "r%d" % i, "d%d" % i]
        controllable += [True, True, False]
        pre += [[at("T", i), at("F", i)], [at("L", i), at("F", i + 1)],
                [at("E", i)]]
        post += [[at("L", i)], [at("E", i)],
                 [at("T", i), at("F", i), at("F", i + 1)]]
    m0 = Marking.from_support(4 * n, [at(kind, i) for i in range(n)
                                      for kind in "TF"])
    return PetriNet("phils%d" % n, places, transitions, controllable, pre,
                    post, m0)


def idle_first(net, idle):
    """`net` with `idle` unmarked places that no transition touches
    declared before its own, which shifts every mask up by `idle` bits."""
    def shifted(masks):
        return [[p + idle for p in range(net.n_places) if m >> p & 1]
                for m in masks]

    return PetriNet("%s_idle%d" % (net.name, idle),
                    ["I%d" % i for i in range(idle)] + list(net.places),
                    net.transitions, net.controllable,
                    shifted(net.pre_masks), shifted(net.post_masks),
                    Marking(idle + net.n_places, net.m0.mask << idle))


def coupled(net):
    """`net` with one more place, declared last and never marked, and a
    dead transition, declared last, from it into the first place of each
    of the net's components.  The twin has one component, and `_explore`
    returns the net's masks and edges for it, or raises the net's
    error."""
    into = [support(part)[0] for part in net.components]
    n = net.n_places
    return PetriNet("%s_coupled" % net.name, (*net.places, "dead"),
                    (*net.transitions, "couple"), (*net.controllable, True),
                    [support(m) for m in net.pre_masks] + [[n]],
                    [support(m) for m in net.post_masks] + [into],
                    Marking(n + 1, net.m0.mask))


def best_time(call, repeats):
    """The least time of `repeats` calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - t0)
    return best, out


def loop_alone(call, levels_below, repeats):
    """`best_time` of `call` with `_VECTOR_FROM` raised to `levels_below`,
    so that every narrower level takes the per-state loop."""
    default = overseer.net._VECTOR_FROM
    overseer.net._VECTOR_FROM = levels_below
    try:
        return best_time(call, repeats)
    finally:
        overseer.net._VECTOR_FROM = default


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_ratio(call):
    """The tracemalloc peak of one call that returns a reachability
    graph, divided by the bytes of the graph's buffer."""
    tracemalloc.start()
    try:
        rg = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / rg._flat.nbytes


def explore(net):
    return overseer.net._explore(net.pre_masks, net.post_masks, net.m0.mask,
                                 overseer.net.DEFAULT_STATE_BUDGET)


def narrow_array_levels(net):
    """How many levels of fewer than `_VECTOR_FROM` states `_explore`
    hands to an array step (`_ProductStep` or `_LevelStep`) on `net`."""
    narrow = []
    steps = (overseer.net._ProductStep, overseer.net._LevelStep)
    expands = [step.expand for step in steps]

    def counting(expand):
        def count(self, masks, lo, hi, *args):
            if hi - lo < overseer.net._VECTOR_FROM:
                narrow.append(lo)
            return expand(self, masks, lo, hi, *args)
        return count

    for step, expand in zip(steps, expands):
        step.expand = counting(expand)
    try:
        explore(net)
    finally:
        for step, expand in zip(steps, expands):
            step.expand = expand
    return len(narrow)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-rings", type=int, default=9,
                    help="largest ring count to time (3^k states)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repetitions, best is kept")
    args = ap.parse_args()

    print("%6s %8s %8s %10s %10s %8s %8s %8s %8s %10s" % (
        "rings", "states", "edges", "product", "sort", "p faults",
        "s faults", "p peak", "s peak", "names"))
    for k in range(2, args.max_rings + 1):
        ring = ring_net(k)
        times, faults, peaks = [], [], []
        for net in (ring, coupled(ring)):
            def call():
                return build_reachability_graph(net, budget=3 ** k + 1)

            f0 = minor_faults()
            t, rg = best_time(call, args.repeats)
            faults.append((minor_faults() - f0) / args.repeats)
            assert rg.n_states == 3 ** k
            assert len(rg.edges) == k * 3 ** k
            times.append(t)
            peaks.append(peak_ratio(call))
        t_names, names = best_time(lambda: ring.format_masks(rg.masks),
                                   args.repeats)
        assert names == [ring.format_mask(m) for m in rg.masks]
        print("%6d %8d %8d %8.2fms %8.2fms %8.0f %8.0f %7.2fx %7.2fx "
              "%8.2fms" % (k, rg.n_states, len(rg.edges),
                           *(t * 1e3 for t in times), *faults, *peaks,
                           t_names * 1e3))

    bits, counter_bits = 12, 11
    fork = fork_counter_net(bits, counter_bits)
    twin = coupled(ring_net(9))
    wide = idle_first(twin, 36)
    print()
    print("%22s %8s %8s %10s" % ("net", "states", "edges", "time"))
    for net, states, edges in (
            (fork, 2 ** bits + 2 ** counter_bits,
             bits * 2 ** (bits - 1) + 2 ** counter_bits),
            (twin, 3 ** 9, 9 * 3 ** 9), (wide, 3 ** 9, 9 * 3 ** 9)):
        t, rg = best_time(
            lambda: build_reachability_graph(net, budget=states),
            args.repeats)
        assert rg.n_states == states and len(rg.edges) == edges
        print("%22s %8d %8d %8.2fms" % (net.name, rg.n_states,
                                        len(rg.edges), t * 1e3))

    print()
    print("%22s %8s %8s %10s %10s" % ("philosophers", "states", "edges",
                                      "sort", "loop"))
    last = args.max_rings + 5
    q = {2: 6, 3: 14}
    for n in range(4, last + 1):
        q[n] = 2 * q[n - 1] + q[n - 2]
    for n in range(2, last + 1, 2):
        net = phils_net(n)

        def call():
            return build_reachability_graph(net, budget=q[n])

        t_sort, rg = best_time(call, args.repeats)
        t_loop, by_loop = loop_alone(call, q[n] + 1, args.repeats)
        assert rg.n_states == q[n], (n, rg.n_states)
        assert by_loop.masks == rg.masks
        assert np.array_equal(by_loop._flat, rg._flat)
        print("%22s %8d %8d %8.2fms %8.2fms" % (net.name, rg.n_states,
                                                len(rg.edges), t_sort * 1e3,
                                                t_loop * 1e3))

    ring = ring_net(9)
    print()
    print("%22s %8s %10s %14s" % ("narrow tail of", "states", "_explore",
                                  "narrow arrays"))
    for net in (ring, twin, fork_counter_net(12, 8),
                fork_counter_net(12, 11)):
        t, (masks, _) = best_time(lambda: explore(net), args.repeats)
        print("%22s %8d %8.2fms %14d" % (net.name, len(masks), t * 1e3,
                                         narrow_array_levels(net)))


if __name__ == "__main__":
    main()
