"""Cover table over border states and selection of the final over-states.

Rows are candidate over-states, columns border states, both int masks;
a row covers a column when the row lies inside it (row <= column as
partial markings).  Each row is stored as one int bitset over the
columns (bit j = column j), and the number of rows covering each column
is counted once, when the table is built; selection and the coverage
checks work on those bitsets.  Selection works like a prime-implicant
chart: essential rows first (sole cover of some column), then greedily
the row covering the most still-uncovered columns, ties broken by
smaller support then by support order.  When greedy adds two or more
rows, a bounded search over the rows left after the essential ones
(the cyclic core) looks for fewer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .net import bit_rows, canonical_key, support


@dataclass
class CoverTable:
    rows: list[int]
    cols: list[int]
    bits: list[int]  # per row: the columns it covers
    counts: list[int]  # per column: how many rows cover it
    # the selected rows, by index, in the order they were picked
    picks: list[int] = field(default_factory=list)

    @property
    def selected(self) -> list[bool]:
        """Per row: is it selected."""
        chosen = set(self.picks)
        return [i in chosen for i in range(len(self.rows))]

    @property
    def coverable(self) -> int:
        """The bitset of the columns some row covers."""
        covered = 0
        for b in self.bits:
            covered |= b
        return covered

    @property
    def uncovered(self) -> list[int]:
        """The columns no row covers."""
        return [m for m, c in zip(self.cols, self.counts) if c == 0]

    def final_counts(self) -> list[int]:
        """Per column: how many selected rows cover it."""
        return _column_counts([self.bits[i] for i in self.picks],
                              len(self.cols))

    def selected_rows(self) -> list[int]:
        """Selected over-states in the order they were picked (essential
        rows first); constraint rows inherit this order."""
        return [self.rows[i] for i in self.picks]


# A table of at least this many cells is built and counted with numpy;
# a smaller one with plain loops, which have no fixed cost.  On a
# 2-core host building a 3 x 4 table took 29 us with numpy and 13 us
# with the loops; the 12 x 375 table of two_machines x3 took 0.18 ms
# with numpy and 1.6 ms with the loops.
_VECTOR_CELLS = 256


def _column_counts(bits: list[int], n_cols: int) -> list[int]:
    """Per column: how many of the bitsets hold it."""
    if len(bits) * n_cols < _VECTOR_CELLS:
        return [sum(b >> j & 1 for b in bits) for j in range(n_cols)]
    return bit_rows(bits, n_cols).sum(axis=0).tolist()


def build_cover_table(candidates, border) -> CoverTable:
    rows = list(candidates)
    cols = list(border)
    if len(rows) * len(cols) < _VECTOR_CELLS:
        bits = [sum(1 << j for j, m in enumerate(cols) if not b & ~m)
                for b in rows]
    else:
        bits = _row_bits(rows, cols)
    return CoverTable(rows=rows, cols=cols, bits=bits,
                      counts=_column_counts(bits, len(cols)))


def _row_bits(rows: list[int], cols: list[int]) -> list[int]:
    """Per row: the bitset of the columns that mark every place of it."""
    width = max(rows + cols).bit_length()
    # per place: the bitset of the columns that mark it
    step = (len(cols) + 7) // 8
    raw = np.packbits(bit_rows(cols, width), axis=0,
                      bitorder="little").T.tobytes()
    marked = [int.from_bytes(raw[p * step:(p + 1) * step], "little")
              for p in range(width)]
    full = (1 << len(cols)) - 1
    bits = []
    for b in rows:
        covers = full
        for p in support(b):
            covers &= marked[p]
        bits.append(covers)
    return bits


# The search for a smaller cover runs only when it tries at most this
# many subsets: on a 2-core host a subset took ~1.1 us, so ~70 ms.
_SEARCH_SUBSETS = 1 << 16


def select_final_cover(table: CoverTable) -> CoverTable:
    """Fill table.picks with a cover of the columns some row covers;
    `table.uncovered` lists the others.

    Essential rows (sole cover of a column) come first: every cover
    holds them.  Then greedy adds the row covering the most uncovered
    columns; ties go to the smallest, then first-in-support-order
    over-state.  When greedy adds two or more rows, the first smaller
    set of rows, by size then canonical order, that covers what the
    essential rows leave open takes their place.  The search is skipped
    when it would try more than `_SEARCH_SUBSETS` subsets.
    """
    bits = table.bits
    # the essential rows, in the order of their first essential column;
    # `seen` is every column some row covers, the greedy loop's target
    seen = shared = 0
    for b in bits:
        shared |= seen & b
        seen |= b
    essential = seen & ~shared
    first = {}
    for i, b in enumerate(bits):
        own = b & essential
        if own:
            first[i] = (own & -own).bit_length()
    picks = sorted(first, key=first.__getitem__)
    covered = 0
    for i in picks:
        covered |= bits[i]
    n_essential = len(picks)
    open_cols = seen & ~covered

    keys = [canonical_key(b) for b in table.rows]
    while covered != seen:
        best = None
        best_key = None
        for i, b in enumerate(bits):
            # a picked row gains nothing: its columns are covered
            gain = (b & ~covered).bit_count()
            if gain == 0:
                continue
            key = (-gain,) + keys[i]
            if best_key is None or key < best_key:
                best, best_key = i, key
        picks.append(best)
        covered |= bits[best]

    # every cover of the columns the essential rows leave open draws
    # from the rows that meet them; try them by size, then canonical order
    core = sorted((i for i, b in enumerate(bits) if b & open_cols),
                  key=keys.__getitem__)
    sizes = range(1, len(picks) - n_essential)
    if sum(math.comb(len(core), s) for s in sizes) <= _SEARCH_SUBSETS:
        for combo in (c for s in sizes for c in combinations(core, s)):
            union = 0
            for i in combo:
                union |= bits[i]
            if not open_cols & ~union:
                picks[n_essential:] = combo
                break
    table.picks = picks
    return table


def check_final_coverage(table: CoverTable) -> bool:
    """Every border state that some over-state covers is covered by a
    *selected* one.  With no `uncovered` column, the selected
    constraints define exactly the authorized behavior; a count above
    one is merely redundant coverage."""
    covered = 0
    for i in table.picks:
        covered |= table.bits[i]
    return covered == table.coverable
