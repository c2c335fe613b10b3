"""Reference minimal over-states over int masks, scanned in full: every
nonempty sub-support of each border state, then those that no
authorized state covers, then their antichain.

A state covers a partial marking when every place of the partial
marking is marked in it.  The enumeration is exponential in the
support, so this is the test oracle of
`overseer.overstates.overstate_union`, which finds the minimal
over-states directly as hypergraph transversals; it imports nothing
from that module or from `overseer.cover`.
"""

from __future__ import annotations

from itertools import combinations

from overseer.net import canonical_order, support


def sub_supports(m: int) -> list[int]:
    """All 2^n - 1 nonempty sub-supports of m, smallest first."""
    places = support(m)
    return [sum(1 << p for p in combo)
            for size in range(1, len(places) + 1)
            for combo in combinations(places, size)]


def clear_of(candidates, authorized) -> list[int]:
    """The candidates that no authorized state covers, in their order."""
    return [b for b in candidates if all(b & ~a for a in authorized)]


def antichain(items) -> list[int]:
    """The minimal elements of items, each once, in canonical order."""
    pool = canonical_order(set(items))
    return [b for b in pool if not any(o != b and not o & ~b for o in pool)]


def reference_overstates(border, authorized):
    """(candidates, pruned, minimal): every nonempty sub-support of every
    border state, each once, in order of first appearance; those that no
    authorized state covers; and their antichain."""
    candidates = list(dict.fromkeys(b for m in border
                                    for b in sub_supports(m)))
    pruned = clear_of(candidates, authorized)
    return candidates, pruned, antichain(pruned)
