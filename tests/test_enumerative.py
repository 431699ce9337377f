"""Tests for the integer tables.

All expected values below were recomputed independently (recursion by hand
for low rows, closed forms evaluated separately, determinants cross-checked
against the printed polynomial specializations) before being frozen here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import triangle_rows_reference
from triwedge.enumerative import (
    MultidegreeTriangle,
    chern,
    fundamental_locus_degrees,
    multidegrees,
    stratum_class_degree,
    tables_rows,
    triangle,
)

TRIANGLE_A_ROWS = (
    (1,),
    (0, 0),
    (1, 1, 1),
    (0, 1, 2, 2),
    (1, 2, 4, 6, 6),
    (0, 2, 6, 12, 18, 18),
    (1, 3, 9, 21, 39, 57, 57),
    (0, 3, 12, 33, 72, 129, 186, 186),
    (1, 4, 16, 49, 121, 250, 436, 622, 622),
    (0, 4, 20, 69, 190, 440, 876, 1498, 2120, 2120),
)

TRIANGLE_B_ROWS = (
    (1,),
    (1, 1),
    (1, 2, 2),
    (1, 3, 5, 5),
    (1, 4, 9, 14, 14),
    (1, 5, 14, 28, 42, 42),
    (1, 6, 20, 48, 90, 132, 132),
    (1, 7, 27, 75, 165, 297, 429, 429),
    (1, 8, 35, 110, 275, 572, 1001, 1430, 1430),
    (1, 9, 44, 154, 429, 1001, 2002, 3432, 4862, 4862),
)

TRIANGLE_C_ROWS = (
    (0,),
    (1, 1),
    (0, 1, 1),
    (1, 2, 3, 3),
    (0, 2, 5, 8, 8),
    (1, 3, 8, 16, 24, 24),
    (0, 3, 11, 27, 51, 75, 75),
    (1, 4, 15, 42, 93, 168, 243, 243),
    (0, 4, 19, 61, 154, 322, 565, 808, 808),
    (1, 5, 24, 85, 239, 561, 1126, 1934, 2742, 2742),
)

FINE = (1, 0, 1, 2, 6, 18, 57, 186, 622, 2120)
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862)


def test_triangle_a_rows_zero_through_nine():
    assert triangle("a", 10).rows == TRIANGLE_A_ROWS


def test_triangle_b_rows_zero_through_nine():
    assert triangle("b", 10).rows == TRIANGLE_B_ROWS


def test_triangle_c_rows_zero_through_nine():
    assert triangle("c", 10).rows == TRIANGLE_C_ROWS


def test_triangle_c_equals_b_minus_a():
    a = triangle("a", 12).rows
    b = triangle("b", 12).rows
    c = triangle("c", 12).rows
    for ar, br, cr in zip(a, b, c):
        assert tuple(bv - av for av, bv in zip(ar, br)) == cr


def test_triangle_diagonals_are_fine_and_catalan():
    assert triangle("a", 10).diagonal() == FINE
    assert triangle("b", 10).diagonal() == CATALAN


def test_triangle_rejects_bad_kind_and_depth():
    with pytest.raises(ValueError):
        triangle("d", 5)
    with pytest.raises(ValueError):
        triangle("a", 0)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from("abc"), depth=st.integers(1, 60))
def test_triangle_matches_the_entry_by_entry_recursion(kind, depth):
    assert triangle(kind, depth).rows == triangle_rows_reference(kind, depth)


def reference_table_row(n: int) -> dict:
    """The multidegree columns of table row n, read from reference triangles
    of depth exactly n."""
    width = (n - 1) // 2 + 1
    row = {"n": n}
    for name, kind in zip("XBY", "abc"):
        rows = triangle_rows_reference(kind, n)
        row[f"multidegree_{name}"] = [rows[n - 1 - l][l] for l in range(width)]
        row[f"deg{name}"] = rows[n - 1][n - 1]
    return row


@settings(max_examples=20, deadline=None)
@given(n_max=st.integers(3, 60))
def test_tables_rows_match_triangles_built_per_n(n_max):
    rows = tables_rows(n_max)
    assert [row["n"] for row in rows] == list(range(3, n_max + 1))
    for row in rows:
        expected = reference_table_row(row["n"])
        assert {key: row[key] for key in expected} == expected


@pytest.mark.parametrize(
    ("method", "kind", "message"),
    [
        ("antidiagonal", "b", "closed-form B"),
        ("antidiagonal", "a", "Y antidiagonal does not equal B - X"),
        ("entry", "b", r"degB disagrees with C\(2n-2,n\)/\(n-1\)"),
        ("entry", "a", "degY does not equal degB - degX"),
    ],
)
@pytest.mark.parametrize(
    "build", [multidegrees, tables_rows], ids=["multidegrees", "tables_rows"]
)
def test_each_per_n_cross_assertion_fires(monkeypatch, method, kind, message, build):
    """One triangle read off by one (an antidiagonal's first entry, or the
    last diagonal entry) trips exactly the check that reads it."""
    original = getattr(MultidegreeTriangle, method)

    def off_by_one(self, *args):
        value = original(self, *args)
        if self.kind != kind:
            return value
        if method == "antidiagonal":
            return (value[0] + 1,) + value[1:]
        i, j = args
        return value + 1 if i == j == len(self.rows) - 1 else value

    monkeypatch.setattr(MultidegreeTriangle, method, off_by_one)
    with pytest.raises(RuntimeError, match=message):
        build(8)


def test_multidegrees_n7():
    md = multidegrees(7)
    assert md.X == (1, 2, 4, 2)
    assert md.degX == 57
    assert md.Y == (0, 3, 5, 3)
    assert md.degY == 75
    assert md.degB == 132


def test_multidegrees_n9():
    md = multidegrees(9)
    assert md.X == (1, 3, 9, 12, 6)
    assert md.degX == 622
    assert md.Y == (0, 4, 11, 16, 8)
    assert md.degY == 808


def test_multidegrees_n5_degree_sum():
    md = multidegrees(5)
    assert md.degX + md.degY == md.degB == 14
    assert md.degB == comb(8, 5) // 4


def test_multidegree_B_closed_formula_through_n15():
    for n in range(3, 16):
        md = multidegrees(n)  # internal cross-assertions fire on disagreement
        width = (n - 1) // 2 + 1
        assert md.B == tuple(
            comb(n - 2, i) - (comb(n - 2, i - 2) if i >= 2 else 0)
            for i in range(width)
        )
        assert md.degX + md.degY == md.degB


def test_chern_low_coefficients():
    assert chern(6).c[1] == 2
    assert chern(7).c[2] == Fraction(13, 4)
    assert chern(9).c[3] == 6
    for n in range(4, 10):
        assert chern(n).c[0] == 1


def test_stratum_class_degree_table_values():
    assert stratum_class_degree(9, 6) == 15
    assert stratum_class_degree(7, 4) == 6
    assert stratum_class_degree(10, 6) == 99


def test_stratum_class_degree_full_corank_sequences():
    # rank <= n-4 strata on even n, rank <= n-5 on odd n; values recomputed
    # from the banded determinant and its printed polynomial independently
    assert [stratum_class_degree(n, n - 4) for n in (6, 8, 10, 12, 14, 16)] == [
        0, 18, 99, 364, 1064, 2652,
    ]
    assert [stratum_class_degree(n, n - 5) for n in (7, 9, 11, 13)] == [
        18, 99, 858, 5824,
    ]


def test_stratum_class_degree_top_stratum_matches_first_chern_coefficient():
    for n in (4, 6, 8, 10, 12):
        assert stratum_class_degree(n, n - 2) == chern(n).c[1]


def test_stratum_class_degree_rejects_odd_or_out_of_range_rank():
    with pytest.raises(ValueError):
        stratum_class_degree(7, 3)
    with pytest.raises(ValueError):
        stratum_class_degree(7, 8)


def test_fundamental_locus_degrees_even():
    fl6 = fundamental_locus_degrees(6)
    assert (fl6.degF, fl6.degG0, fl6.degG0_meet_plane) == (2, 4, 2)
    fl8 = fundamental_locus_degrees(8)
    assert (fl8.degF, fl8.degG0, fl8.degG0_meet_plane) == (3, 12, 6)
    assert fl6.degG is None


def test_fundamental_locus_degrees_odd():
    fl9 = fundamental_locus_degrees(9)
    assert (fl9.degF, fl9.degG) == (15, 4)
    fl5 = fundamental_locus_degrees(5)
    assert (fl5.degF, fl5.degG) == (2, 2)
    fl7 = fundamental_locus_degrees(7)
    assert (fl7.degF, fl7.degG) == (6, 3)
    assert fl9.degG0 is None


def test_fundamental_locus_odd_degF_matches_stratum_degree():
    for n in (5, 7, 9, 11):
        assert fundamental_locus_degrees(n).degF == stratum_class_degree(n, n - 3)


def test_tables_rows_shape_and_sample():
    rows = tables_rows(9)
    assert [row["n"] for row in rows] == list(range(3, 10))
    n7 = next(row for row in rows if row["n"] == 7)
    assert n7["multidegree_X"] == [1, 2, 4, 2]
    assert n7["degY"] == 75
    assert n7["degG"] == 3
    n6 = next(row for row in rows if row["n"] == 6)
    assert n6["degG0"] == 4
