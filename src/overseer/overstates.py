"""Minimal over-states of the border states.

An over-state is a partial marking b, an int mask like every marking
here; forbidding b (through the token-sum constraint over its support,
`synthesis.build_constraint_matrix`) forbids every marking that covers
it.  An over-state b of a border state m is a nonempty sub-support of m
that no authorized state covers.  For b inside m, "a does not cover b"
means that b meets m & ~a, so the usable over-states of m are the
transversals inside m of the hypergraph {m} + {m & ~a : a authorized}
(the edge m keeps b nonempty), and the cheapest ones are its minimal
transversals.
They are computed directly with Berge's incremental algorithm on int
masks.  An edge that contains another adds no constraint on a
transversal, and Berge's step leaves the family as it is for one.  When
the masks fit in 64 bits and there are many border x authorized pairs,
numpy first cuts each hypergraph to its inclusion-minimal edges, for a
block of border states at a time; otherwise Berge takes every edge.
`over_states`, which lists every sub-support, remains as the reference
the tests compare against.

A net made of disjoint parts is solved one part at a time when its
authorized set A is the product of its projections A_c onto the parts
(the pipeline passes `PetriNet.components`).  A sub-support S of m then
escapes every a in A iff, in some part c, S & c escapes every a_c in
A_c, so the minimal over-states of m are those of its projections m & c
against A_c, joined over the parts.  A projection that is itself in A_c
has none.  Berge meets the same minimal edges in the same order for a
border state that leaves A in one part only, as every border state of
such a net does, so the budget stops the search where it stops the
search of the whole.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

import numpy as np

from .cover import row_bits
from .errors import StateBudgetExceeded
from .net import DEFAULT_STATE_BUDGET, canonical_order, support


def over_states(m: int) -> list[int]:
    """All 2^n - 1 nonempty sub-supports of m, smallest first.  Exponential
    in the support; the reference enumeration for tests."""
    places = support(m)
    return [sum(1 << p for p in combo)
            for size in range(1, len(places) + 1)
            for combo in combinations(places, size)]


def minimal_transversals(edges, budget: int = DEFAULT_STATE_BUDGET
                         ) -> list[int]:
    """Minimal masks that meet every edge (int masks), by Berge's
    incremental algorithm.  An empty edge admits no transversal.

    Edges are taken smallest first.  An edge that contains one already
    taken leaves the family as it is: every transversal meets it.
    Raises StateBudgetExceeded when more than `budget` transversals are
    in flight.
    """
    family = [0]
    # ties in size go in mask order, so the family in flight, and with
    # it the budget check, depends only on the set of edges
    for e in sorted(sorted(set(edges)), key=int.bit_count):
        if not e:
            return []
        family = _add_edge(family, e, budget)
    return family


def _add_edge(family: list[int], e: int, budget: int) -> list[int]:
    """Berge's step: the minimal transversals of the edges so far plus e,
    from those of the edges so far (an antichain)."""
    hit = [t for t in family if t & e]
    grown = list(hit)
    for t in family:
        if t & e:
            continue
        rest = e
        while rest:
            v = rest & -rest
            rest ^= v
            c = t | v
            # the new family stays an antichain: c is minimal unless a
            # transversal that already meets e, through v, is inside it
            if not any(h & v and not h & ~c for h in hit):
                grown.append(c)
        if len(grown) > budget:
            raise StateBudgetExceeded(
                "over-state search: more than %d minimal transversals "
                "in flight (raise --state-budget to search further)" % budget
            )
    return grown


# A border x authorized product of at least this many pairs, of masks
# that fit in 64 bits, is reduced to its minimal edges with numpy; a
# smaller one goes to Berge edge by edge, which has no fixed cost.  On a
# 2-core host the numpy step cost 0.07 ms for 5 x 5 pairs, where the
# int path took 0.03 ms, and 0.12 ms for 50 x 25 pairs, where it took
# 0.70 ms (copies of two_machines).  On nets solved whole, the coupled
# rows of `benchmarks/overstate_bench.py`, it took 7 ms against 0.21 s
# at 648 x 1,080 pairs and 0.76 s against 23 s at 7,776 x 12,960.
_VECTOR_PAIRS = 256

# Cells (border states x edges) per numpy block: a few MB of temporaries.
_BLOCK_CELLS = 1 << 18


def overstate_union(border: list[int], authorized: list[int],
                    budget: int = DEFAULT_STATE_BUDGET,
                    blocks=()) -> list[int]:
    """Deduplicated union of the border states' minimal over-states, in
    canonical (cardinality, support) order.  A border state that some
    authorized state covers contributes none.

    `blocks` are disjoint place masks that together hold every place of
    the states, such as `PetriNet.components`.  When there are two or
    more and the authorized set is the product of its projections onto
    them, each block is solved on its own and the results are joined;
    otherwise the states are solved whole."""
    if len(blocks) > 1:
        parts = [{a & c for a in authorized} for c in blocks]
        # the authorized set lies inside the product of its projections,
        # so it is that product when the sizes agree
        if prod(map(len, parts)) == len(set(authorized)):
            found: set[int] = set()
            for c, part in zip(blocks, parts):
                rows = {m & c for m in border} - part
                if rows:
                    found |= _union(sorted(rows), sorted(part), budget)
            return canonical_order(found)
    return canonical_order(_union(border, authorized, budget))


def _union(border: list[int], authorized: list[int], budget: int
           ) -> set[int]:
    """The border states' minimal over-states, as a set."""
    if (len(border) * len(authorized) >= _VECTOR_PAIRS
            and max([*border, *authorized]).bit_length() <= 64):
        hypergraphs = _minimal_edge_sets(border, authorized)
    else:
        hypergraphs = ([m] + [m & ~a for a in authorized] for m in border)
    found: set[int] = set()
    for edges in hypergraphs:
        found.update(minimal_transversals(edges, budget))
    return found


def _minimal_edge_sets(border: list[int], auth: list[int]) -> set[tuple]:
    """The distinct sets of inclusion-minimal edges of the hypergraphs
    {m} + {m & ~a : a in auth}, one per border state m without an empty
    edge, each as a sorted tuple of masks (at most 64 places).

    A row's minimal edges come out one per round: the live edge of
    least size is minimal, and it kills every live edge containing it,
    itself and its copies included.  A row runs out of live edges after
    as many rounds as it has minimal edges."""
    free = ~np.array(auth, dtype=np.uint64)
    masks = np.array(border, dtype=np.uint64)
    done = np.uint8(255)  # the size of a dead edge
    out: set[tuple] = set()
    step = max(1, _BLOCK_CELLS // (len(auth) + 1))
    for lo in range(0, len(border), step):
        m = masks[lo:lo + step, None]
        edges = np.concatenate([m, m & free], axis=1)
        size = np.bitwise_count(edges)
        # a border state with an empty edge has no over-state
        keep = size.min(axis=1) > 0
        if not keep.all():
            edges, size = edges[keep], size[keep]
        picks = []
        while True:
            least = size.argmin(axis=1)[:, None]
            live = np.take_along_axis(size, least, axis=1) < done
            if not live.any():
                break
            # a row with no live edge left picks 0, dropped from its tuple
            pick = np.take_along_axis(edges, least, axis=1) * live
            picks.append(pick)
            np.putmask(size, (edges & pick) == pick, done)
        if picks:
            for row in np.sort(np.concatenate(picks, axis=1)).tolist():
                out.add(tuple(row[row.count(0):]))
    return out


def prune_authorized(candidates, authorized) -> list[int]:
    """Candidates whose constraints forbid no authorized state: those
    whose bitset over the authorized states, as the cover table builds
    it, is empty."""
    rows = list(candidates)
    bits = row_bits(rows, list(authorized))
    return [b for b, hit in zip(rows, bits) if not hit]


def minimal_elements(items) -> list[int]:
    """Antichain of componentwise-minimal elements (duplicates collapse
    to one), in canonical order.  A smaller over-state forbids
    everything a larger one does, so only the minimal ones matter."""
    pool = canonical_order(set(items))
    return [b for b in pool if not any(o != b and not o & ~b for o in pool)]
