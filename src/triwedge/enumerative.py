"""Integer tables for the line congruence and its companions: recursive
triangles, multidegrees, Chern coefficients of the half-twisted cotangent
bundle, determinantal stratum degrees, and fundamental-locus degrees.

Three jagged triangles drive everything.  Each satisfies the additive
recursion entry(i, j) = entry(i, j-1) + entry(i-1, j) with out-of-range
entries read as 0; they differ only in the seed column:

  a: first column alternates 1, 0, 1, 0, ...  (rows of even index start 1)
  b: first column is all 1
  c: first column alternates 0, 1, 0, 1, ...  and equals b - a entrywise

Antidiagonals of a/b/c give the multidegrees of the kernel-line congruence,
of a generic linear congruence of the same codimension, and of the residual
congruence; diagonals give degrees (Fine numbers for a, Catalan numbers for
b).  Every quantity here is computed two independent ways whenever a second
route exists, and the alternate routes are cross-asserted at runtime: c = b - a
once per triangle build, the B, Y = B - X, Catalan and degY checks once per n.
Rows 0..n-1 of a triangle do not depend on its depth, so `tables_rows` builds
the triangles once, and its table is a prefix of the table for any larger n_max.

Chern coefficients come from the formal series (1 + t/2)^(n+1) / (1 + 3t/2):
the half-integer twist has no underlying line bundle, so the coefficients
are formal rationals; they are exactly what the banded Harris-Tu determinant
for the degree of a rank-<=r degeneracy stratum consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb

from .exact_scalar import FieldSpec, Matrix

__all__ = [
    "MultidegreeTriangle",
    "ChernVector",
    "Multidegrees",
    "FundamentalLocusDegrees",
    "triangle",
    "multidegrees",
    "chern",
    "stratum_class_degree",
    "fundamental_locus_degrees",
    "tables_rows",
]


@dataclass(frozen=True)
class MultidegreeTriangle:
    """Jagged integer triangle under the entry(i,j) = entry(i,j-1) + entry(i-1,j)
    recursion; row r has r+1 entries."""

    kind: str
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("a", "b", "c"):
            raise ValueError(f"triangle kind must be a|b|c, got {self.kind!r}")
        for r, row in enumerate(self.rows):
            if len(row) != r + 1:
                raise ValueError(f"row {r} must have {r + 1} entries")

    def entry(self, i: int, j: int) -> int:
        """Entry with out-of-range indices reading as 0."""
        if i < 0 or j < 0 or i >= len(self.rows) or j > i:
            return 0
        return self.rows[i][j]

    def antidiagonal(self, n: int) -> tuple[int, ...]:
        """(entry(n-1, 0), entry(n-2, 1), ...) down to the middle of row n-1."""
        return tuple(self.entry(n - 1 - l, l) for l in range((n - 1) // 2 + 1))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(len(self.rows)))


_SEED_COLUMNS = {"a": lambda i: 1 - i % 2, "b": lambda i: 1, "c": lambda i: i % 2}


def _triangles(depth: int) -> tuple[MultidegreeTriangle, ...]:
    """The a, b and c triangles to the given number of rows, each built once
    by its own recursion; c is checked against b - a over the full depth."""
    built = []
    for kind, seed in _SEED_COLUMNS.items():
        rows = [(seed(0),)]
        for i in range(1, depth):
            rows.append(tuple(accumulate(rows[-1][1:] + (0,), initial=seed(i))))
        built.append(MultidegreeTriangle(kind, tuple(rows)))
    tri_a, tri_b, tri_c = built
    for ar, br, cr in zip(tri_a.rows, tri_b.rows, tri_c.rows):
        if cr != tuple(bv - av for av, bv in zip(ar, br)):
            raise RuntimeError("triangle c: recursion and b-a routes disagree")
    return tri_a, tri_b, tri_c


def triangle(kind: str, depth: int) -> MultidegreeTriangle:
    """Build a triangle to the given number of rows.

    All three kinds are built together, so the c triangle is always computed
    both by its own recursion (seed column 0, 1, 0, 1, ...) and as b - a
    entrywise; the two must agree.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if kind not in _SEED_COLUMNS:
        raise ValueError(f"triangle kind must be a|b|c, got {kind!r}")
    return _triangles(depth)["abc".index(kind)]


@dataclass(frozen=True)
class Multidegrees:
    """Multidegrees and degrees of the kernel-line congruence X, the generic
    linear congruence B of the same codimension, and the residual Y = B - X."""

    n: int
    X: tuple[int, ...]
    B: tuple[int, ...]
    Y: tuple[int, ...]
    degX: int
    degB: int
    degY: int


def multidegrees(n: int) -> Multidegrees:
    """Antidiagonal multidegrees and diagonal degrees, each cross-checked
    against an independent closed-form or difference route."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return _multidegrees(n, *_triangles(n))


def _multidegrees(n: int, *triangles: MultidegreeTriangle) -> Multidegrees:
    """Multidegrees at n from the a, b and c triangles of any depth >= n."""
    X, B, Y = (tri.antidiagonal(n) for tri in triangles)
    width = (n - 1) // 2 + 1
    binom = [comb(n - 2, i) for i in range(width)]
    closed_B = tuple(v - (binom[i - 2] if i >= 2 else 0) for i, v in enumerate(binom))
    if B != closed_B:
        raise RuntimeError(f"n={n}: triangle and closed-form B multidegrees disagree")
    if Y != tuple(bv - xv for xv, bv in zip(X, B)):
        raise RuntimeError(f"n={n}: Y antidiagonal does not equal B - X")
    degX, degB, degY = (tri.entry(n - 1, n - 1) for tri in triangles)
    catalan, rem = divmod(comb(2 * n - 2, n), n - 1)
    if rem != 0 or degB != catalan:
        raise RuntimeError(f"n={n}: triangle degB disagrees with C(2n-2,n)/(n-1)")
    if degY != degB - degX:
        raise RuntimeError(f"n={n}: degY does not equal degB - degX")
    return Multidegrees(n, X, B, Y, degX, degB, degY)


@dataclass(frozen=True)
class ChernVector:
    """Coefficients c[i] of h^i in the i-th Chern class of the half-twisted
    cotangent bundle on P^n; formal rationals from the series
    (1 + t/2)^(n+1) / (1 + 3t/2)."""

    n: int
    c: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.c[0] != 1:
            raise ValueError("c[0] must be 1")
        if len(self.c) > 1 and self.c[1] != Fraction(self.n, 2) - 1:
            raise ValueError("c[1] must be n/2 - 1")


def _chern_coefficient(n: int, i: int) -> Fraction:
    """Coefficient of t^i in (1 + t/2)^(n+1) * sum_j (-3t/2)^j, any i >= 0."""
    if i < 0:
        return Fraction(0)
    total = Fraction(0)
    for k in range(0, i + 1):
        total += comb(n + 1, k) * Fraction(1, 2) ** k * Fraction(-3, 2) ** (i - k)
    return total


def chern(n: int) -> ChernVector:
    """Chern coefficients c[0..n]; asserts the printed low-degree specializations."""
    if n < 3:
        raise ValueError("n must be >= 3")
    coeffs = tuple(_chern_coefficient(n, i) for i in range(n + 1))
    if coeffs[1] != Fraction(n, 2) - 1:
        raise RuntimeError("c1 specialization failed")
    if coeffs[2] != Fraction(n * n - 5 * n + 12, 8):
        raise RuntimeError("c2 specialization failed")
    if coeffs[3] != Fraction(n**3 - 9 * n**2 + 44 * n - 108, 48):
        raise RuntimeError("c3 specialization failed")
    return ChernVector(n, coeffs)


def stratum_class_degree(n: int, r: int) -> int:
    """Degree of the stratum where the contraction matrix has rank <= r:
    the k x k banded determinant det(c_{n-r-1-2i+j}), k = n-r-1, with c_0 = 1
    and negative indices read as 0.  Asserts the printed closed forms for
    r = n-2, n-3, n-4, n-5 and integrality of the result."""
    if r % 2 != 0:
        raise ValueError("rank bound r must be even")
    if not (0 <= r < n):
        raise ValueError("need 0 <= r < n")
    k = n - r - 1

    def cc(i: int) -> Fraction:
        if i < 0:
            return Fraction(0)
        return _chern_coefficient(n, i)

    entries = tuple(cc(n - r - 1 - 2 * i + j) for i in range(k) for j in range(k))
    value = Matrix(FieldSpec.rationals(), k, k, entries).det()

    expected: Fraction | None = None
    if r == n - 2:
        expected = Fraction(n, 2) - 1
    elif r == n - 3:
        expected = Fraction(comb(n - 1, 3), 4) + 1
    elif r == n - 4:
        expected = Fraction(
            n * (n - 6) * (n + 1) * (n + 2) * (n * n - 9 * n + 44), 2880
        )
    elif r == n - 5:
        expected = Fraction(
            n * (n - 1) * (n + 1) ** 2 * (n + 2) * (n + 3)
            * (n**4 - 26 * n**3 + 311 * n**2 - 1966 * n + 5400),
            4838400,
        )
    if expected is not None and value != expected:
        raise RuntimeError(
            f"stratum degree determinant {value} disagrees with closed form "
            f"{expected} at (n={n}, r={r})"
        )
    if value.denominator != 1:
        raise RuntimeError(f"stratum degree {value} is not an integer")
    return int(value)


@dataclass(frozen=True)
class FundamentalLocusDegrees:
    """Degrees of the locus F of extra-degenerate points and of the residual
    fundamental locus: a single hypersurface degree for odd n, the pair
    (component G0, its plane section) for even n."""

    n: int
    degF: int
    degG: int | None = None  # odd n: hypersurface degree of the second component
    degG0: int | None = None  # even n: degree of the positive-dimensional part
    degG0_meet_plane: int | None = None  # even n: degree of its plane section


def fundamental_locus_degrees(n: int) -> FundamentalLocusDegrees:
    if n < 3:
        raise ValueError("n must be >= 3")
    if n % 2 == 0:
        m = n // 2
        return FundamentalLocusDegrees(
            n,
            degF=m - 1,
            degG0=2 * comb(m + 1, 3) - comb(m + 1, 2) + 2,
            degG0_meet_plane=(m - 1) * (m - 2),
        )
    m = (n - 1) // 2
    quarter, rem = divmod(comb(n - 1, 3), 4)
    if rem != 0:
        raise RuntimeError(f"C({n - 1},3) not divisible by 4")
    return FundamentalLocusDegrees(n, degF=quarter + 1, degG=m)


def tables_rows(n_max: int) -> list[dict]:
    """Numeric table rows for 3 <= n <= n_max (consumed by the CLI), read from
    triangles built and checked for c = b - a once, to depth n_max; each n runs
    the per-n checks of `multidegrees`.  Rows 0..n-1 of a triangle do not depend
    on its depth, so the table is a prefix of the table for any larger n_max."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    triangles = _triangles(n_max)
    rows = []
    for n in range(3, n_max + 1):
        md = _multidegrees(n, *triangles)
        fl = fundamental_locus_degrees(n)
        row = {
            "n": n,
            "multidegree_X": list(md.X),
            "multidegree_B": list(md.B),
            "multidegree_Y": list(md.Y),
            "degX": md.degX,
            "degB": md.degB,
            "degY": md.degY,
            "degF": fl.degF,
        }
        if n % 2 == 0:
            row["degG0"] = fl.degG0
            row["degG0_meet_plane"] = fl.degG0_meet_plane
        else:
            row["degG"] = fl.degG
        rows.append(row)
    return rows
