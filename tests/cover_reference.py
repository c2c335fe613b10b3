"""Reference cover selection over a table of int masks, scanned in full:
the essential-then-greedy rule, and an exhaustive minimum cover.

Rows and columns are partial markings; a row covers a column when its
places all lie in the column's.  These are test oracles for
`overseer.cover.select_final_cover`, which works on row bitsets and
searches only the rows the essential ones leave open.
"""

from __future__ import annotations

import math
from itertools import combinations

from overseer.cover import _SEARCH_SUBSETS
from overseer.net import canonical_key


def cells(rows, cols) -> list[list[bool]]:
    """Per row, per column: does the row cover it."""
    return [[not r & ~c for c in cols] for r in rows]


def reference_greedy(rows, cols):
    """Cover counts, the essential-then-greedy picks and how many of
    them are essential.  Ties go to the smaller, then
    first-in-support-order row."""
    table = cells(rows, cols)
    counts = [sum(row[j] for row in table) for j in range(len(cols))]
    picks = []
    for j in range(len(cols)):
        if counts[j] == 1:
            i = next(i for i, row in enumerate(table) if row[j])
            if i not in picks:
                picks.append(i)
    n_essential = len(picks)
    covered = [any(table[i][j] for i in picks) or not counts[j]
               for j in range(len(cols))]
    while not all(covered):
        gains = [sum(row[j] and not covered[j] for j in range(len(cols)))
                 for row in table]
        best = min((i for i in range(len(rows))
                    if i not in picks and gains[i]),
                   key=lambda i: (-gains[i], canonical_key(rows[i])))
        picks.append(best)
        covered = [c or table[best][j] for j, c in enumerate(covered)]
    return counts, picks, n_essential


def search_runs(rows, cols, picks, n_essential) -> bool:
    """Whether the selection searches for a smaller cover than these
    greedy picks: greedy added two or more rows, and the rows covering a
    column the essential ones leave open have few enough subsets."""
    added = len(picks) - n_essential
    table = cells(rows, cols)
    left = [j for j in range(len(cols))
            if any(row[j] for row in table)
            and not any(table[i][j] for i in picks[:n_essential])]
    core = sum(any(row[j] for j in left) for row in table)
    return added >= 2 and sum(
        math.comb(core, s) for s in range(1, added)) <= _SEARCH_SUBSETS


def minimum_selection(rows, cols) -> list[int]:
    """The rows of a minimum cover of the columns some row covers, in
    canonical order (exhaustive)."""
    table = cells(rows, cols)
    target = [j for j in range(len(cols)) if any(row[j] for row in table)]
    order = sorted(range(len(rows)), key=lambda i: canonical_key(rows[i]))
    # all rows together cover the target, so some size up to len(rows) does
    for size in range(len(rows) + 1):
        for combo in combinations(order, size):
            if all(any(table[i][j] for i in combo) for j in target):
                return list(combo)
