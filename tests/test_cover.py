"""Cover table construction and final over-state selection."""

import random
from itertools import combinations

import pytest

from overseer import (
    build_cover_table,
    check_final_coverage,
    select_final_cover,
)
from overseer import cover
from overseer.errors import StateBudgetExceeded
from overseer.net import support


def _m(places):
    """The mask of a set of places."""
    return sum(1 << p for p in set(places))


def _covers(row, col):
    """The row's places all lie in the column's."""
    return not _m(row) & ~_m(col)


def _table(rows, cols):
    return build_cover_table([_m(r) for r in rows], [_m(c) for c in cols])


def _cells(table):
    """The row bitsets read back as one bool per (row, column)."""
    return [[bool(b >> j & 1) for j in range(len(table.cols))]
            for b in table.bits]


# the table sizes from which numpy builds and counts: the default,
# which no table in these tests reaches, and every table
BOTH_PATHS = (cover._VECTOR_CELLS, 0)


def test_cells_are_subset_tests(monkeypatch):
    # every cell is the subset test, also on a table wider than a byte
    rows = [[0], [1, 2], [0, 3], [4, 5, 6], []]
    cols = [[0, 1, 2, 3, 4, 5, 6, 7]] + [[i, (i + 1) % 8, (i + 3) % 8]
                                         for i in range(8)]
    for cells in BOTH_PATHS:
        monkeypatch.setattr(cover, "_VECTOR_CELLS", cells)
        t = _table([[0], [0, 1]], [[0, 1, 2], [0, 3]])
        assert _cells(t) == [[True, True], [True, False]]
        assert t.counts == [2, 1]
        t = _table(rows, cols)
        assert _cells(t) == [[_covers(r, c) for c in cols] for r in rows]


def test_uncovered_column_detected():
    t = _table([[0], [1]], [[0, 1], [2, 3], [0, 4]])
    assert [support(m) for m in t.uncovered] == [(2, 3)]
    # the selection covers the columns some row covers, in both modes
    for exact in (False, True):
        select_final_cover(t, exact=exact)
        assert [support(m) for m in t.selected_rows()] == [(0,)]
        assert check_final_coverage(t)
        assert t.final_counts() == [1, 0, 1]
    assert _table([[0]], [[0, 1]]).uncovered == []


def test_essential_rows_picked_first():
    # each column has exactly one covering row: all three are essential
    # and are picked in column order
    t = _table([[0], [1], [3]], [[0, 4], [1, 2], [3, 4]])
    select_final_cover(t)
    picked = [support(m) for m in t.selected_rows()]
    assert picked == [(0,), (1,), (3,)]
    assert check_final_coverage(t)


def test_greedy_prefers_larger_gain():
    # one row covers both columns, two rows cover one each
    t = _table([[0], [1], [2]], [[0, 2], [1, 2]])
    select_final_cover(t)
    assert [support(m) for m in t.selected_rows()] == [(2,)]


def test_tie_broken_by_smaller_then_lex():
    t = _table([[4, 5], [1], [2]], [[1, 4, 5], [2, 4, 5]])
    select_final_cover(t)
    # all rows gain 1 except [4,5] which gains 2
    assert [support(m) for m in t.selected_rows()] == [(4, 5)]
    t2 = _table([[3], [1]], [[1, 3]])
    select_final_cover(t2)
    assert [support(m) for m in t2.selected_rows()] == [(1,)]


def test_exact_mode_finds_minimum():
    # greedy would pick the size-3 covering row plus one more; the
    # minimum is two disjoint rows -- construct such a trap
    rows = [[0, 1], [2, 3], [1, 2], [0], [3]]
    cols = [[0, 1, 7], [1, 2, 7], [2, 3, 7], [0, 6, 7], [3, 6, 7]]
    t = _table(rows, cols)
    select_final_cover(t, exact=True)
    exact_size = len(t.picks)
    assert sum(t.selected) == exact_size
    # no selection of fewer rows covers every column
    assert not any(
        all(any(_covers(rows[i], c) for i in combo) for c in cols)
        for combo in combinations(range(len(rows)), exact_size - 1))
    t2 = _table(rows, cols)
    select_final_cover(t2)
    assert len(t2.picks) >= exact_size
    assert check_final_coverage(t2)


def test_exact_refuses_large_tables():
    rows = [[i] for i in range(21)]
    cols = [[i] for i in range(21)]
    big = _table(rows, cols)
    with pytest.raises(StateBudgetExceeded):
        select_final_cover(big, exact=True)


def test_empty_table_is_trivially_covered():
    t = _table([], [])
    select_final_cover(t)
    assert t.selected_rows() == []
    assert check_final_coverage(t)


def _reference_greedy(rows, cols):
    """The selection rule on a list-of-lists table, scanned in full:
    cover counts, greedy picks, final counts."""
    cells = [[_covers(r, c) for c in cols] for r in rows]
    counts = [sum(row[j] for row in cells) for j in range(len(cols))]
    picks = []
    for j in range(len(cols)):
        if counts[j] == 1:
            i = next(i for i, row in enumerate(cells) if row[j])
            if i not in picks:
                picks.append(i)
    covered = [any(cells[i][j] for i in picks) for j in range(len(cols))]
    while not all(covered):
        gains = [sum(row[j] and not covered[j] for j in range(len(cols)))
                 for row in cells]
        best = min((i for i in range(len(rows))
                    if i not in picks and gains[i]),
                   key=lambda i: (-gains[i], len(rows[i]), rows[i]))
        picks.append(best)
        covered = [c or cells[best][j] for j, c in enumerate(covered)]
    final = [sum(cells[i][j] for i in picks) for j in range(len(cols))]
    return counts, picks, final


def test_greedy_vs_exact_on_random_tables(monkeypatch):
    rng = random.Random(17)
    for _ in range(150):
        width = rng.randint(2, 7)
        cols = []
        for _ in range(rng.randint(1, 5)):
            cols.append(rng.sample(range(width), rng.randint(1, width)))
        rows = []
        for c in cols:
            # guarantee coverability: one sub-support row per column
            rows.append(rng.sample(c, rng.randint(1, len(c))))
        for _ in range(rng.randint(0, 4)):
            rows.append(rng.sample(range(width), rng.randint(1, width)))
        rows = [tuple(sorted(r)) for r in rows]
        rows = [list(r) for r in dict.fromkeys(rows)]
        counts, picks, final = _reference_greedy(rows, cols)
        for cells in BOTH_PATHS:
            monkeypatch.setattr(cover, "_VECTOR_CELLS", cells)
            greedy = _table(rows, cols)
            assert greedy.counts == counts
            select_final_cover(greedy)
            assert check_final_coverage(greedy)
            assert greedy.picks == picks
            assert greedy.selected == [i in picks for i in range(len(rows))]
            assert greedy.final_counts() == final
        exact = _table(rows, cols)
        select_final_cover(exact, exact=True)
        assert check_final_coverage(exact)
        assert len(exact.picks) <= len(greedy.picks)
