"""Cover table construction and final over-state selection."""

import random

import pytest

from overseer import (
    OverseerWarning,
    build_cover_table,
    check_final_coverage,
    select_final_cover,
)
from overseer import cover
from overseer.net import support

from cover_reference import (
    cells,
    minimum_selection,
    reference_greedy,
    search_runs,
)


def _m(places):
    """The mask of a set of places."""
    return sum(1 << p for p in set(places))


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
    for vector in BOTH_PATHS:
        monkeypatch.setattr(cover, "_VECTOR_CELLS", vector)
        t = _table([[0], [0, 1]], [[0, 1, 2], [0, 3]])
        assert _cells(t) == [[True, True], [True, False]]
        assert t.counts == [2, 1]
        t = _table(rows, cols)
        assert _cells(t) == cells([_m(r) for r in rows],
                                  [_m(c) for c in cols])


def test_uncovered_column_detected():
    t = _table([[0], [1]], [[0, 1], [2, 3], [0, 4]])
    assert [support(m) for m in t.uncovered] == [(2, 3)]
    # the selection covers the columns some row covers
    select_final_cover(t)
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


def test_exact_mode_finds_minimum(monkeypatch):
    # no row is essential, and greedy's first pick {0} is in no minimum
    # cover: greedy takes {0} {3} {5}, the search finds {3} {5}
    rows = [[0], [3], [4], [5], [1, 2]]
    cols = [[2, 3, 4], [0, 1, 2, 3], [0, 2, 4, 5], [1, 2, 5]]
    masks = [_m(r) for r in rows], [_m(c) for c in cols]
    assert reference_greedy(*masks)[1:] == ([0, 1, 3], 0)
    assert len(minimum_selection(*masks)) == 2
    t = _table(rows, cols)
    select_final_cover(t)
    assert [support(m) for m in t.selected_rows()] == [(3,), (5,)]
    assert check_final_coverage(t)
    assert t.final_counts() == [1, 1, 1, 1]
    # sizes 1 and 2 of the 5 open rows: 5 + 10 subsets to try; a bound
    # below that skips the search, and says so
    monkeypatch.setattr(cover, "_SEARCH_SUBSETS", 15)
    assert select_final_cover(_table(rows, cols)).picks == [1, 3]
    monkeypatch.setattr(cover, "_SEARCH_SUBSETS", 14)
    with pytest.warns(OverseerWarning, match=(
            "^the search for a smaller cover would try 15 subsets, more "
            "than 14; greedy's 3 rows are kept and may not be a minimum "
            "cover$")):
        assert select_final_cover(_table(rows, cols)).picks == [0, 1, 3]


def test_empty_table_is_trivially_covered():
    t = _table([], [])
    select_final_cover(t)
    assert t.selected_rows() == []
    assert check_final_coverage(t)


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
        masks = [_m(r) for r in rows], [_m(c) for c in cols]
        counts, picks, n_essential = reference_greedy(*masks)
        searched = search_runs(*masks, picks, n_essential)
        minimum = len(minimum_selection(*masks))
        expected = cells(*masks)
        for vector in BOTH_PATHS:
            monkeypatch.setattr(cover, "_VECTOR_CELLS", vector)
            t = _table(rows, cols)
            assert t.counts == counts
            select_final_cover(t)
            assert check_final_coverage(t)
            assert t.picks[:n_essential] == picks[:n_essential]
            # a search that runs finds a minimum cover; greedy's picks
            # stay when it does not run or finds nothing smaller
            if searched:
                assert len(t.picks) == minimum
            if len(t.picks) == len(picks):
                assert t.picks == picks
            else:
                assert searched and len(t.picks) < len(picks)
            assert t.selected == [i in t.picks for i in range(len(rows))]
            assert t.final_counts() == [
                sum(expected[i][j] for i in t.picks) for j in range(len(cols))]
