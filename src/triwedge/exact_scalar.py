"""Exact scalar arithmetic, exact linear algebra, Pfaffians, and univariate polynomials.

Every quantity in this package is an exact integer, rational, or prime-field
element, so this module deliberately avoids floating point.  Scalars are
represented by `fractions.Fraction` over the rationals and by Python ints in
``[0, p)`` over a prime field; a `FieldSpec` value carries the arithmetic for
whichever field is in play; it rejects floats, which are no exact value.
Linear algebra takes lists of vectors of field elements and gives vectors
back: `matrix_rank` ranks a list of vectors, which may be the rows or the
columns of a matrix alike, eliminating whichever orientation has fewer rows,
and `rank_kernel` takes a matrix as its rows and returns the rank and the
kernel vectors.  Over the rationals the hot loops run on ints: `as_ints`
gives field elements as ints over one shared denominator (the values
themselves over F_p), and a result becomes one Fraction at the end.
`row_reduce` is the one Gauss-Jordan elimination, on int rows over both
fields: modulo p on ints in ``[0, p)``, and over the rationals
fraction-free on rows each scaled to its primitive integer multiple.
`rank_kernel` reads each kernel entry off its rows (one Fraction over the
rationals); `rank_kernel_ints` does the same on int rows a caller already
holds, such as the numerators of a form, so that no entry passes through a
Fraction on the way in; `matrix_rank` builds no kernel and eliminates
forward only, clearing each pivot's column in the rows below it.
`Matrix`, an immutable dense array, is kept for what needs a whole matrix:
`Matrix.det`,
`pfaffian`, `Matrix.is_skew_symmetric`, and the evaluated skew matrix and
the residual line system whose minors are taken.  `Matrix.matvec` takes int
dot products the same way as the eliminations: reduced mod p, or over the
rationals on numerators over common denominators with one Fraction per
output row.  `packed_skew_mod_p` is the one skew elimination
over F_p, giving the rank and the Pfaffian of a principal block of an
alternating matrix: pairwise elimination on rows packed one int each, a slot
of `skew_slot_width` bits per entry, wide enough that no entry is reduced
until it is read.  `pfaffian` packs list rows into it; over the rationals
it runs the same elimination on Fractions.  Over F_p with 2·(p − 1) <= 255,
that is p <= 127, `lane_skew_ranks` ranks a block of alternating matrices
at once, one matrix per byte of a `bytes` string (a lane): sums are int
additions of whole strings, and products and quotients go through the
discrete-logarithm tables of `ByteLanes` by `bytes.translate`;
`lane_ranks` does the same for matrices of any shape, and `lane_sum`
evaluates a linear form on a block's coordinate columns.  `byte_lanes`
builds those tables on its first call for each p and keeps them.
`Matrix.det` runs the Schur-complement elimination that pivots on the first
row with a nonzero first entry, on ints mod p over F_p and on Fractions
over the rationals.  Univariate polynomials store
coefficients lowest-degree first and provide the monic Euclidean GCD and
Lagrange interpolation (on int lists over both fields, reduced into the
field once at the end) used to restrict determinantal loci to lines.
Over F_p two helpers work on int coefficient lists with no `UniPoly` per
step: `poly_roots_mod_p`, the distinct roots in increasing order in time
polynomial in log p (gcd(f, x^p - x), then equal-degree splitting), and
`poly_resultant_mod_p`, the Sylvester determinant by Euclid's algorithm.
`randbelow` is the package's one uniform draw below a bound: the values and
generator state of `random.Random.randrange`, at a fraction of its cost;
`randbelow_many` draws a run of such values, leaving the generator where as
many `randbelow` calls would: below a bound of at most 8 bits it is
`randbelow_bytes`, which cuts one `getrandbits` call per refill into bytes
and returns them as one `bytes`, and above that it makes one call per
value.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[Fraction, int]

__all__ = [
    "ConventionError",
    "FieldSpec",
    "Matrix",
    "UniPoly",
    "row_reduce",
    "rank_kernel",
    "rank_kernel_ints",
    "matrix_rank",
    "as_ints",
    "packed_skew_mod_p",
    "ByteLanes",
    "byte_lanes",
    "lane_skew_ranks",
    "lane_ranks",
    "lane_sum",
    "skew_slot_width",
    "pfaffian",
    "poly_gcd",
    "poly_resultant_mod_p",
    "poly_roots_mod_p",
    "interpolate",
    "randbelow",
    "randbelow_many",
    "randbelow_bytes",
]


class ConventionError(ValueError):
    """A value violates a structural convention (e.g. non-skew Pfaffian input)."""


def randbelow(rng: random.Random, bound: int) -> int:
    """``rng.randrange(bound)``: the same value, leaving the generator in the
    same state, without `randrange`'s other argument handling.  A bound
    below 1 raises `ValueError`, as it does in `randrange`.

    It draws ``bound.bit_length()`` random bits and redraws while the value is
    at least ``bound``, which is how `random.Random` draws below a bound.
    """
    if bound < 1:
        raise ValueError(f"empty range below {bound}")
    bits = bound.bit_length()
    draw = rng.getrandbits
    value = draw(bits)
    while value >= bound:
        value = draw(bits)
    return value


def randbelow_many(rng: random.Random, bound: int, count: int) -> list[int]:
    """``[randbelow(rng, bound) for _ in range(count)]``: the same values,
    leaving the generator in the same state; a bound below 1 raises
    `ValueError`.

    It draws as many words of ``bound.bit_length()`` bits as values are still
    missing and keeps those below ``bound``, until it has ``count``.  Each
    value is the next accepted word, as in `randbelow`, and a refill of r
    words accepts at most r values, so no word past the last accepted one
    is drawn.  A bound of at most 8 bits draws through `randbelow_bytes`;
    wider bounds make one ``getrandbits`` call per word.
    """
    if bound < 1:
        raise ValueError(f"empty range below {bound}")
    bits = bound.bit_length()
    if bits <= 8:
        return list(randbelow_bytes(rng, bound, count))
    draw = rng.getrandbits
    values: list[int] = []
    while len(values) < count:
        values += [v for v in map(draw, repeat(bits, count - len(values))) if v < bound]
    return values


def randbelow_bytes(rng: random.Random, bound: int, count: int) -> bytes:
    """`randbelow_many` as ``count`` bytes, for a bound of at most 8 bits:
    the same values, leaving the generator in the same state.  A bound
    below 1 raises `ValueError`, as does one of more than 8 bits, whose
    values no byte holds.

    The generator emits 32-bit words, and ``getrandbits(k)`` for k <= 32 is
    the top k bits of one word, so a refill of r missing values is one
    ``getrandbits(32*r)`` call: the top byte of each of its r words,
    translated and filtered by `_byte_tables`.
    """
    if bound < 1:
        raise ValueError(f"empty range below {bound}")
    if bound > 255:
        raise ValueError(f"the bound {bound} has more than 8 bits")
    table, reject = _byte_tables(bound)
    draw = rng.getrandbits
    values = b""
    while (missing := count - len(values)) > 0:
        words = draw(32 * missing).to_bytes(4 * missing, "little")
        values += words[3::4].translate(table, reject)
    return values


@cache
def _byte_tables(bound: int) -> tuple[bytes, bytes]:
    """For a bound of at most 8 bits, the `bytes.translate` arguments that
    turn the top byte of a word into the word's top ``bound.bit_length()``
    bits: the table shifting each byte right by the bits it drops, and the
    bytes to delete first, those whose value so shifted is at least
    ``bound``."""
    shift = 8 - bound.bit_length()
    table = bytes(b >> shift for b in range(256))
    reject = bytes(b for b in range(256) if b >> shift >= bound)
    return table, reject


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13, the least strong pseudoprime to all of the first 13 prime bases:
# below it, Miller-Rabin with those bases decides primality exactly.
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases.

    Exact for every modulus below psi_13 = 3,317,044,064,679,887,385,961,981;
    a modulus at or above that bound raises `ConventionError`, since the test
    could no longer tell a prime from a strong pseudoprime.
    """
    if p >= _MR_DETERMINISTIC_LIMIT:
        raise ConventionError(
            f"modulus {p} is at or above {_MR_DETERMINISTIC_LIMIT}, the limit "
            "below which primality is decided exactly"
        )
    if p < 2:
        return False
    for small in _MR_WITNESSES:
        if p == small:
            return True
        if p % small == 0:
            return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The field scalars live in: the rationals, or integers modulo a prime.

    ``kind`` is ``"rational"`` or ``"prime"``; ``p`` is the modulus and is
    present exactly when ``kind == "prime"``.  All scalar arithmetic is
    routed through this object so callers never branch on the field.
    """

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "rational":
            if self.p is not None:
                raise ConventionError("rational field carries no modulus")
        elif self.kind == "prime":
            if self.p is None or not _is_prime(self.p):
                raise ConventionError(f"modulus {self.p!r} is not prime")
        else:
            raise ConventionError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("rational")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime", p)

    @property
    def char(self) -> int:
        return 0 if self.kind == "rational" else int(self.p)  # type: ignore[arg-type]

    # -- element construction ------------------------------------------------

    def coerce(self, value: Scalar | str) -> Scalar:
        """Canonicalize ints, Fractions, or strings like ``"-2/5"`` into the field.

        A float raises `ConventionError`: it is no exact value, and rounding it
        silently would let floating point into exact results.
        """
        if isinstance(value, str):
            value = Fraction(value)
        if self.kind == "rational":
            if isinstance(value, float):
                raise ConventionError(f"float {value!r} is not an exact scalar")
            return Fraction(value)
        p = self.p  # type: ignore[assignment]
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(den, -1, p) % p
        if isinstance(value, float):
            raise ConventionError(f"float {value!r} is not an exact scalar")
        return int(value) % p

    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "rational" else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.kind == "rational" else 1

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.kind == "rational" else (a + b) % self.p  # type: ignore[operator]

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.kind == "rational" else (a - b) % self.p  # type: ignore[operator]

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.kind == "rational" else (a * b) % self.p  # type: ignore[operator]

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.kind == "rational" else (-a) % self.p  # type: ignore[operator]

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(self.coerce(a)):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "rational":
            return Fraction(1) / a
        return pow(int(a), -1, self.p)  # type: ignore[arg-type]

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0


def _scaled_to_ints(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """Rational values (ints or Fractions) as integer numerators over the lcm
    of their denominators, with that lcm."""
    den = reduce(lcm, [x.denominator for x in values], 1)
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


def as_ints(field: FieldSpec, values: Sequence[Scalar]) -> tuple[list[int], int]:
    """Field elements as ints over one shared denominator, so that sums of
    products can run on ints: over F_p the values themselves over 1, over
    the rationals numerators over the lcm of their denominators."""
    if field.kind == "prime":
        return list(values), 1  # type: ignore[arg-type]
    return _scaled_to_ints(values)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over one field, entries in row-major order."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def matvec(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """The product with a column vector, as one int dot product per row:
        reduced mod p over F_p, and over the rationals taken on numerators
        over common denominators and divided once per row."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        if self.field.kind == "prime":
            p = self.field.p
            return tuple(
                sum(map(operator.mul, self.row(i), vec)) % p  # type: ignore[operator]
                for i in range(self.rows)
            )
        cols = self.cols
        entries, den = _scaled_to_ints(self.entries)
        ints, vec_den = _scaled_to_ints(vec)
        den *= vec_den
        return tuple(
            Fraction(sum(map(operator.mul, entries[i * cols : (i + 1) * cols], ints)), den)
            for i in range(self.rows)
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        flat = tuple(self.entry(i, j) for i in row_idx for j in col_idx)
        return Matrix(self.field, len(row_idx), len(col_idx), flat)

    def is_skew_symmetric(self) -> bool:
        """Square, zero on the diagonal, and each entry above it the field's
        negation of its mirror (``-x % p`` over F_p: the mirror may be unreduced)."""
        size = self.rows
        if size != self.cols:
            return False
        e = self.entries
        if any(e[:: size + 1]):
            return False
        p = self.field.p
        for i in range(size):
            for j in range(i + 1, size):
                negated = -e[j * size + i]
                if e[i * size + j] != (negated if p is None else negated % p):
                    return False
        return True

    def det(self) -> Scalar:
        """Determinant by exact Gaussian elimination (independent of `pfaffian`).

        Each step pivots on the first remaining row whose first entry is
        nonzero, at 0-based position ``pos``: the determinant gains the factor
        (-1)**pos * pivot, and the other rows become the Schur complement
        r[1:] - (r[0] / pivot) * pivot_row[1:].  A zero first column makes the
        determinant zero.  The rows are ints reduced mod p over F_p and
        Fractions over the rationals.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        field = self.field
        p = field.p
        size = self.rows
        e = self.entries
        rows = [e[i * size : (i + 1) * size] for i in range(size)]
        det = field.one()
        while rows:
            for pos, prow in enumerate(rows):
                if prow[0]:
                    break
            else:
                return field.zero()
            del rows[pos]
            det = (-det if pos % 2 else det) * prow[0]
            tail = prow[1:]
            if p is None:
                inv = Fraction(1) / prow[0]
                rows = [
                    [x - factor * y for x, y in zip(row[1:], tail)]
                    if (factor := row[0] * inv)
                    else row[1:]
                    for row in rows
                ]
            else:
                det %= p
                inv = _pivot_inverse(prow[0], p)
                rows = [
                    [(x - factor * y) % p for x, y in zip(row[1:], tail)]
                    if (factor := row[0] * inv % p)
                    else row[1:]
                    for row in rows
                ]
        return det


def _pivot_inverse(pivot: int, p: int) -> int:
    """``pivot**-1 mod p``.  Rows and matrices are taken as given, so a
    pivot can be a nonzero multiple of p; that raises `ConventionError`."""
    try:
        return pow(pivot, -1, p)
    except ValueError:
        raise ConventionError(f"matrix entry {pivot} is a nonzero multiple of {p}") from None


def _integer_rows(field: FieldSpec, rows: Iterable[Sequence[Scalar]]) -> list[list[int]]:
    """Rows of field elements as fresh int lists for `row_reduce`: over F_p
    the entries themselves; over the rationals each row scaled to integers
    by the lcm of its denominators and divided by the gcd of its entries,
    the primitive integer multiple of the row, sign kept (the same ints as
    scaling by the lcm of the whole matrix, since that multiple is unique)."""
    if field.kind == "prime":
        return [list(row) for row in rows]  # type: ignore[misc]
    out = []
    for row in rows:
        ints = _scaled_to_ints(row)[0]
        # reduce rather than gcd(*row): an argument tuple per row update
        # raised the peak RSS of a rational verify pass by ~1.5 MB (~7%)
        content = reduce(gcd, ints, 0)
        if content > 1:
            ints = [x // content for x in ints]
        out.append(ints)
    return out


def _eliminated(target: list[int], prow: list[int], col: int) -> list[int]:
    """``target`` with its entry in ``col`` cleared against the pivot row
    ``prow``, fraction-free: (pv/g)·target − (f/g)·prow with g = gcd(pv, f),
    then divided by the gcd of its entries."""
    pv, f = prow[col], target[col]
    g = gcd(pv, f)
    s, t = pv // g, f // g
    target = [s * x - t * y for x, y in zip(target, prow)]
    content = reduce(gcd, target, 0)
    if content > 1:
        target = [x // content for x in target]
    return target


def row_reduce(
    field: FieldSpec, rows: list[list[int]], cols: int, *, back_substitute: bool = True
) -> list[int]:
    """Gauss-Jordan elimination on int rows of length ``cols``, in place;
    returns the pivot column list.

    Each pivot column takes the first remaining row with a nonzero entry
    there, swaps it up, and clears that column in every other row.  Over
    F_p the rows hold ints in ``[0, p)``: the pivot row is scaled to pivot
    1 and a row is cleared by ``(x - f·y) mod p`` from the pivot column on,
    so the rows end in reduced row echelon form.  Over the rationals the
    rows hold integers (`as_ints`) and are cleared fraction-free by
    `_eliminated`: row ``r`` ends as a multiple of reduced row ``r``, its
    pivot entry the multiplier.  Rows below the rank end zero.  Without
    ``back_substitute`` a pivot clears its column only in the rows below it:
    forward elimination, which gives the same pivots.
    """
    p = field.p
    pivots: list[int] = []
    pivot_row = 0
    nrows = len(rows)
    for col in range(cols):
        src = next((r for r in range(pivot_row, nrows) if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        prow = rows[pivot_row]
        start = 0 if back_substitute else pivot_row + 1
        if p is None:
            for r in range(start, nrows):
                if r != pivot_row and rows[r][col]:
                    rows[r] = _eliminated(rows[r], prow, col)
        else:
            inv = _pivot_inverse(prow[col], p)
            for c in range(col, cols):
                prow[c] = prow[c] * inv % p
            for r in range(start, nrows):
                target = rows[r]
                factor = target[col]
                if factor and r != pivot_row:
                    for c in range(col, cols):
                        target[c] = (target[c] - factor * prow[c]) % p
        pivots.append(col)
        pivot_row += 1
        if pivot_row == nrows:
            break
    return pivots


# `perfbench/tracer.py` wraps the elimination by these names; no module calls them.
_rref = _rref_prime = row_reduce


def skew_slot_width(p: int, size: int, bound: int) -> int:
    """Slot width in bits under which `packed_skew_mod_p` on ``size`` rows,
    every slot starting in ``[0, bound]``, never carries across a slot.

    A step adds at most p - 1 times each of two rows to a row, so it maps a
    slot bound B to at most (2p - 1)·B, and there are at most size // 2
    steps: every slot stays below ``2**width``.
    """
    return (bound * (2 * p - 1) ** (size // 2)).bit_length()


def packed_skew_mod_p(
    p: int, rows: list[int], width: int, indices: Sequence[int] | None = None
) -> tuple[int, int]:
    """Rank and Pfaffian over F_p of the principal block on ``indices``
    (every index by default) of an alternating matrix on packed rows.

    Row a is one int whose slot b (bits ``b*width`` up to ``(b+1)*width``)
    holds a non-negative representative of ``a[a][b]``; ``rows`` is
    overwritten and ``width`` comes from `skew_slot_width`.  Each step, the
    last remaining index i pivots on its first nonzero entry ``a[i][j]``, at
    0-based position ``pos`` among the remaining indices: the rank gains 2,
    the Pfaffian the factor ``(-1)**pos * a[j][i]``, and each remaining row
    k becomes ``rk + u*rj + (p - v)*ri`` with ``u = a[k][i] / a[i][j]`` and
    ``v = a[k][j] / a[i][j]`` mod p, only the nonzero terms.  That is the
    alternating Schur complement on the remaining block; no slot is
    reduced, so an entry is read as ``(row >> b*width & mask) % p``.  An
    index whose row is zero on the remaining block is dropped and makes the
    Pfaffian 0, as does an odd block.
    """
    mask = (1 << width) - 1
    live = list(range(len(rows)) if indices is None else indices)
    rank = 0
    pf = 1
    while live:
        i = live.pop()
        ri = rows[i]
        for pos, j in enumerate(live):
            pivot = (ri >> j * width & mask) % p
            if pivot:
                break
        else:
            pf = 0
            continue
        del live[pos]
        rank += 2
        pf = pf * (pivot if pos % 2 else p - pivot) % p
        if len(live) < 2:
            break
        rj = rows[j]
        inv = pow(pivot, -1, p)
        si = i * width
        sj = j * width
        for k in live:
            rk = rows[k]
            u = (rk >> si & mask) * inv % p
            v = (rk >> sj & mask) * inv % p
            if u:
                rk += u * rj
            if v:
                rk += (p - v) * ri
            rows[k] = rk
    return rank, 0 if live else pf


def _packed_skew_rows(p: int, rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The rows of a square alternating matrix over F_p packed for
    `packed_skew_mod_p`, each entry reduced mod p, and their slot width."""
    width = skew_slot_width(p, len(rows), p - 1)
    packed = []
    for row in rows:
        acc = 0
        for value in reversed(row):
            acc = acc << width | value % p
        packed.append(acc)
    return packed, width


class ByteLanes(NamedTuple):
    """Arithmetic over F_p on byte lanes, for a prime with 2·(p − 1) <= 255.

    A lane vector is a `bytes` string holding one residue in ``[0, p)`` per
    lane; read as one int (``int.from_bytes(..., "little")``) two lane
    vectors add lane by lane with no carry as long as every lane sum stays
    below 256.  Products go through discrete logarithms to the primitive
    root ``g``: each table below maps a byte through `bytes.translate`, and
    a zero lane, which has no logarithm, is masked out with ``nonzero``.

    - ``log``: x -> the logarithm of x, and ``neg_log``: x -> that of -x
      (0 for x = 0);
    - ``inv_log``: x -> the logarithm of 1/x (0 for x = 0);
    - ``exp``: s -> g**s and ``neg_exp``: s -> -g**s, for any s < 256, so
      a sum of two logarithms, at most 2·(p − 2), maps to its product;
    - ``nonzero``: x -> 0xFF when x is not 0, else 0 (a byte, so it also
      tells whether an OR of lane vectors is zero in a lane);
    - ``reduce``: s -> s mod p and ``reduce_log``: s -> s mod (p − 1);
    - ``scale[c]``: x -> c·x mod p for each residue c.
    """

    p: int
    log: bytes
    neg_log: bytes
    inv_log: bytes
    exp: bytes
    neg_exp: bytes
    nonzero: bytes
    reduce: bytes
    reduce_log: bytes
    scale: tuple[bytes, ...]


@cache
def byte_lanes(p: int) -> ByteLanes | None:
    """The `ByteLanes` tables of F_p, built on the first call for each p, or
    None when 2·(p − 1) > 255, where a sum of two residues overflows a byte.
    ``p`` must be prime."""
    if 2 * (p - 1) > 255:
        return None
    order = p - 1
    factors = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    g = next(g for g in range(1, p) if all(pow(g, order // q, p) != 1 for q in factors))
    powers = [pow(g, s, p) for s in range(order)]
    logs = [0] * 256
    for s, x in enumerate(powers):
        logs[x] = s
    half = order // 2  # -1 = g**half
    low = range(256)
    return ByteLanes(
        p=p,
        log=bytes(logs[x % p] for x in low),
        neg_log=bytes((logs[x % p] + half) % order if x % p else 0 for x in low),
        inv_log=bytes(-logs[x % p] % order for x in low),
        exp=bytes(powers[s % order] for s in low),
        neg_exp=bytes(-powers[s % order] % p for s in low),
        nonzero=bytes(255 if x else 0 for x in low),
        reduce=bytes(x % p for x in low),
        reduce_log=bytes(x % order for x in low),
        scale=tuple(bytes(c * x % p for x in low) for c in range(p)),
    )


def lane_skew_ranks(
    lanes: ByteLanes, count: int, entries: dict[tuple[int, int], bytes], indices: Sequence[int]
) -> tuple[bytes, bytes]:
    """Ranks over F_p of the principal blocks on ``indices`` of ``count``
    alternating matrices at once, one matrix per byte lane.

    ``entries`` maps each pair a < b of ``indices`` to the lane vector (see
    `ByteLanes`) of the (a, b) entries, ``count`` bytes; a missing pair is
    zero in every lane.  Each step pivots every lane on one pair (i, j), the
    remaining entry with the most nonzero lanes, and takes the alternating
    Schur complement a_kl += (a_jk·a_il − a_ik·a_jl) / a_ij on the remaining
    indices, each product one `translate` of a sum of logarithms; the rank
    of each lane whose pivot is nonzero grows by 2.  A lane whose pivot is
    zero while one of its remaining entries is not falls out: it is zeroed
    in every entry, so it stays out of later pivots.  The elimination stops
    when every remaining entry is zero in every lane.

    Returns the rank of each lane as ``count`` bytes and the lanes that fell
    out as ``count`` bytes, 0xFF for such a lane (its rank byte is then
    meaningless) and 0 otherwise.  ``entries`` is consumed.
    """
    p = lanes.p
    frombytes = int.from_bytes
    log, neg_log, inv_log = lanes.log, lanes.neg_log, lanes.inv_log
    exp, neg_exp = lanes.exp, lanes.neg_exp
    nonzero, reduce_p, reduce_log = lanes.nonzero, lanes.reduce, lanes.reduce_log
    # a residue plus two products stays below 256 only for small p
    one_reduction = 3 * (p - 1) <= 255
    full = (1 << 8 * count) - 1
    twos = full // 255 * 2
    ranks = fallen = 0
    live = sorted(indices)
    entries = {key: e for key, e in entries.items() if e.count(0) < count}
    while entries:
        ints = {key: frombytes(e, "little") for key, e in entries.items()}
        i, j = min(entries, key=lambda key: entries[key].count(0))
        pivot = entries[(i, j)]
        pivot_mask = frombytes(pivot.translate(nonzero), "little")
        ranks += pivot_mask & twos
        some = reduce(operator.or_, ints.values()).to_bytes(count, "little")
        drop = frombytes(some.translate(nonzero), "little") & ~pivot_mask
        fallen |= drop
        keep = full ^ drop
        inv = frombytes(pivot.translate(inv_log), "little")
        live.remove(i)
        live.remove(j)
        # for each remaining r: log of a_jr / a_ij and of a_ir, with the
        # masks of the lanes where a_jr and a_ir are nonzero
        over: dict[int, tuple[int, int]] = {}
        row_i: dict[int, tuple[int, int]] = {}
        for r in live:
            e = entries.get((j, r) if j < r else (r, j))
            if e is not None:
                s = frombytes(e.translate(log if j < r else neg_log), "little") + inv
                over[r] = (
                    frombytes(s.to_bytes(count, "little").translate(reduce_log), "little"),
                    frombytes(e.translate(nonzero), "little"),
                )
            e = entries.get((i, r) if i < r else (r, i))
            if e is not None:
                row_i[r] = (
                    frombytes(e.translate(log if i < r else neg_log), "little"),
                    frombytes(e.translate(nonzero), "little"),
                )
        updated: dict[tuple[int, int], bytes] = {}
        for pos, k in enumerate(live):
            xk = over.get(k)
            yk = row_i.get(k)
            for l in live[pos + 1 :]:
                acc = ints.get((k, l), 0)
                changed = False
                yl = row_i.get(l)
                if xk is not None and yl is not None:
                    # a_jk/a_ij · a_il
                    s = (xk[0] + yl[0]).to_bytes(count, "little").translate(exp)
                    acc += frombytes(s, "little") & xk[1] & yl[1]
                    changed = True
                xl = over.get(l)
                if yk is not None and xl is not None:
                    # -(a_ik · a_jl/a_ij)
                    s = (yk[0] + xl[0]).to_bytes(count, "little").translate(neg_exp)
                    term = frombytes(s, "little") & yk[1] & xl[1]
                    if changed and acc and not one_reduction:
                        acc = frombytes(
                            acc.to_bytes(count, "little").translate(reduce_p), "little"
                        )
                    acc += term
                    changed = True
                if not acc:
                    continue
                if not (changed or drop):
                    updated[(k, l)] = entries[(k, l)]
                    continue
                e = (acc & keep).to_bytes(count, "little").translate(reduce_p)
                if e.count(0) < count:
                    updated[(k, l)] = e
        entries = updated
    return ranks.to_bytes(count, "little"), fallen.to_bytes(count, "little")


def lane_ranks(
    lanes: ByteLanes, count: int, entries: dict[tuple[int, int], bytes]
) -> tuple[bytes, bytes]:
    """Ranks over F_p of ``count`` matrices at once, one matrix per byte lane:
    the sibling of `lane_skew_ranks` for matrices of any shape.

    ``entries`` maps each position (r, c) to the lane vector (see
    `ByteLanes`) of the (r, c) entries, ``count`` bytes; a missing position
    is zero in every lane.  Each step pivots every lane on one position
    (i, j), the remaining entry with the most nonzero lanes, drops row i and
    column j, and takes a_rc −= a_rj·a_ic / a_ij on the rest: the quotient
    a_rj / a_ij is the logarithm of a_rj plus that of 1/a_ij, reduced mod
    p − 1 (``reduce_log``), and the negated product one `translate` by
    ``neg_exp``, masked to the lanes where a_rj and a_ic are nonzero; the
    rank of each lane whose pivot is nonzero grows by 1.  A lane whose pivot
    is zero while one of its remaining entries is not falls out, as in
    `lane_skew_ranks`: it is zeroed in every entry, so it stays out of later
    pivots.  The elimination stops when every remaining entry is zero in
    every lane.

    Returns the rank of each lane as ``count`` bytes and the lanes that fell
    out as ``count`` bytes, 0xFF for such a lane (its rank byte is then
    meaningless) and 0 otherwise.
    """
    frombytes = int.from_bytes
    log, inv_log, neg_exp = lanes.log, lanes.inv_log, lanes.neg_exp
    nonzero, reduce_p, reduce_log = lanes.nonzero, lanes.reduce, lanes.reduce_log
    full = (1 << 8 * count) - 1
    ones = full // 255
    ranks = fallen = 0
    entries = {key: e for key, e in entries.items() if e.count(0) < count}
    while entries:
        i, j = min(entries, key=lambda key: entries[key].count(0))
        pivot = entries[(i, j)]
        pivot_mask = frombytes(pivot.translate(nonzero), "little")
        ranks += pivot_mask & ones
        some = reduce(operator.or_, (frombytes(e, "little") for e in entries.values()))
        drop = frombytes(some.to_bytes(count, "little").translate(nonzero), "little")
        drop &= ~pivot_mask
        fallen |= drop
        keep = full ^ drop
        inv = frombytes(pivot.translate(inv_log), "little")
        # for each other row r: the log of a_rj / a_ij and the mask of a_rj;
        # for each other column c: the log of a_ic and the mask of a_ic
        over: dict[int, tuple[int, int]] = {}
        row_i: dict[int, tuple[int, int]] = {}
        for (r, c), e in entries.items():
            if c == j and r != i:
                s = (frombytes(e.translate(log), "little") + inv).to_bytes(count, "little")
                over[r] = (
                    frombytes(s.translate(reduce_log), "little"),
                    frombytes(e.translate(nonzero), "little"),
                )
            elif r == i and c != j:
                row_i[c] = (
                    frombytes(e.translate(log), "little"),
                    frombytes(e.translate(nonzero), "little"),
                )
        updated: dict[tuple[int, int], bytes] = {}
        for (r, c), e in entries.items():
            if r == i or c == j:
                continue
            x, y = over.get(r), row_i.get(c)
            if x is None or y is None:
                if drop:
                    e = (frombytes(e, "little") & keep).to_bytes(count, "little")
                if e.count(0) < count:
                    updated[(r, c)] = e
                continue
            s = (x[0] + y[0]).to_bytes(count, "little").translate(neg_exp)
            acc = frombytes(e, "little") + (frombytes(s, "little") & x[1] & y[1])
            e = (acc & keep).to_bytes(count, "little").translate(reduce_p)
            if e.count(0) < count:
                updated[(r, c)] = e
        # the positions that were zero in every lane and fill in
        for r, x in over.items():
            for c, y in row_i.items():
                if (r, c) not in entries:
                    s = (x[0] + y[0]).to_bytes(count, "little").translate(neg_exp)
                    e = (frombytes(s, "little") & x[1] & y[1] & keep).to_bytes(count, "little")
                    if e.count(0) < count:
                        updated[(r, c)] = e
        entries = updated
    return ranks.to_bytes(count, "little"), fallen.to_bytes(count, "little")


def lane_sum(
    lanes: ByteLanes,
    columns: Sequence[bytes],
    count: int,
    terms: Sequence[tuple[int, int]],
    scaled: dict[tuple[int, int], int],
) -> bytes:
    """The lane vector of sum_k c·x_k over the terms (k, c) of ``terms``,
    residues c in [1, p), at the coordinate columns ``columns`` of ``count``
    lanes: each c·x_k one `translate`, kept in ``scaled`` as an int for the
    other sums on the same columns, and the ints summed and reduced whenever
    one more residue could overflow a byte."""
    if len(terms) == 1:
        k, c = terms[0]
        return columns[k].translate(lanes.scale[c])
    frombytes = int.from_bytes
    reduce_p = lanes.reduce
    per_reduction = 255 // (lanes.p - 1)
    acc = held = 0
    for term in terms:
        value = scaled.get(term)
        if value is None:
            k, c = term
            value = scaled[term] = frombytes(columns[k].translate(lanes.scale[c]), "little")
        if held == per_reduction:
            acc = frombytes(acc.to_bytes(count, "little").translate(reduce_p), "little")
            held = 1
        acc += value
        held += 1
    return acc.to_bytes(count, "little").translate(reduce_p)


def rank_kernel(
    field: FieldSpec, rows: Sequence[Sequence[Scalar]], cols: int
) -> tuple[int, tuple[tuple[Scalar, ...], ...]]:
    """Exact rank and a kernel basis of the matrix with the given rows, each
    of length ``cols``: the vectors v with row·v = 0 for every row.

    Satisfies rank + len(kernel) == cols.  Free coordinates of kernel
    vectors are 0/1, so the basis is in reduced form.  Each entry is read
    off the rows of `row_reduce` as -row[fc] / row[pc]: p - row[fc] over
    F_p, where the pivot is 1; one Fraction over the rationals.  A row of
    another length raises `ValueError`.
    """
    if any(len(row) != cols for row in rows):
        raise ValueError(f"every row needs length {cols}")
    return rank_kernel_ints(field, _integer_rows(field, rows), cols)


def rank_kernel_ints(
    field: FieldSpec, a: list[list[int]], cols: int
) -> tuple[int, tuple[tuple[Scalar, ...], ...]]:
    """`rank_kernel` of int rows as `row_reduce` takes them, eliminated in
    place: residues in ``[0, p)`` over F_p, and over the rationals any
    integer multiples of the rows (the kernel is the same), so a caller
    that holds numerators hands them over with no Fraction per entry."""
    p = field.p
    pivots = row_reduce(field, a, cols)
    free = [c for c in range(cols) if c not in pivots]
    zero, one = field.zero(), field.one()
    kernel: list[tuple[Scalar, ...]] = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for row, pc in zip(a, pivots):
            x = row[fc]
            if x:
                vec[pc] = p - x if p is not None else Fraction(-x, row[pc])
        kernel.append(tuple(vec))
    return len(pivots), tuple(kernel)


def matrix_rank(field: FieldSpec, vectors: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank of a list of vectors of one length, building no kernel:
    forward elimination by `row_reduce`.  The rank is that of the matrix
    with the vectors as rows or as columns alike, so the elimination runs
    on whichever of the two has fewer rows.  Vectors of different lengths
    raise `ValueError`."""
    length = len(vectors[0]) if vectors else 0
    if any(len(vector) != length for vector in vectors):
        raise ValueError("vectors of different lengths have no rank")
    if len(vectors) > length:
        vectors, length = list(zip(*vectors)), len(vectors)
    rows = _integer_rows(field, vectors)
    return len(row_reduce(field, rows, length, back_substitute=False))


def pfaffian(m: Matrix) -> Scalar:
    """Pfaffian of an even-size skew-symmetric matrix.

    Sign convention: pfaffian([[0, 1], [-1, 0]]) == 1, and the Pfaffian of a
    direct sum is the product of the blocks' Pfaffians.  Satisfies
    pfaffian(m)**2 == m.det().  Raises `ConventionError` for non-skew or
    odd-size input.

    Over F_p it is read off `packed_skew_mod_p`, every entry reduced mod p
    first (the skew check lets an entry below the diagonal stay unreduced).
    Over the rationals the first remaining index i pivots on its first
    nonzero entry a[i][j], at 0-based position ``pos`` among the others: the
    Pfaffian gains the factor (-1)**pos * a[i][j], the rest becomes its
    alternating Schur complement, and a zero row makes the Pfaffian zero.
    """
    if m.rows != m.cols:
        raise ConventionError("pfaffian requires a square matrix")
    if m.rows % 2 != 0:
        raise ConventionError(
            "pfaffian requires even size; pass an even-size principal submatrix"
        )
    if not m.is_skew_symmetric():
        raise ConventionError("pfaffian requires a skew-symmetric matrix")
    p = m.field.p
    if p is not None:
        packed, width = _packed_skew_rows(p, [m.row(i) for i in range(m.rows)])
        return packed_skew_mod_p(p, packed, width)[1]
    a = [list(m.row(i)) for i in range(m.rows)]
    live = list(range(m.rows))
    pf = Fraction(1)
    while live:
        i = live.pop(0)
        ri = a[i]
        pos = next((pos for pos, c in enumerate(live) if ri[c]), None)
        if pos is None:
            return Fraction(0)
        j = live.pop(pos)
        rj = a[j]
        pivot = ri[j]
        pf = pf * pivot if pos % 2 == 0 else -pf * pivot
        inv = Fraction(1) / pivot
        for k in live:
            rk = a[k]
            u = rk[i] * inv
            v = rk[j] * inv
            if u or v:
                for l in live:
                    rk[l] += u * rj[l] - v * ri[l]
    return pf


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial; coefficients lowest degree first, trailing zeros stripped."""

    field: FieldSpec
    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.field.is_zero(self.coeffs[-1]):
            raise ValueError("leading coefficient must be nonzero (use from_coeffs)")

    @staticmethod
    def from_coeffs(field: FieldSpec, coeffs: Iterable[Scalar | str]) -> "UniPoly":
        vals = [field.coerce(c) for c in coeffs]
        while vals and field.is_zero(vals[-1]):
            vals.pop()
        return UniPoly(field, tuple(vals))

    @staticmethod
    def zero(field: FieldSpec) -> "UniPoly":
        return UniPoly(field, ())

    @staticmethod
    def one(field: FieldSpec) -> "UniPoly":
        return UniPoly(field, (field.one(),))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def add(self, other: "UniPoly") -> "UniPoly":
        self._check_field(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [
            f.add(
                self.coeffs[i] if i < len(self.coeffs) else f.zero(),
                other.coeffs[i] if i < len(other.coeffs) else f.zero(),
            )
            for i in range(n)
        ]
        return UniPoly.from_coeffs(f, out)

    def mul(self, other: "UniPoly") -> "UniPoly":
        self._check_field(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(f)
        out = [f.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if f.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return UniPoly.from_coeffs(f, out)

    def scale(self, c: Scalar) -> "UniPoly":
        f = self.field
        c = f.coerce(c)
        if f.is_zero(c):
            return UniPoly.zero(f)
        return UniPoly(f, tuple(f.mul(c, a) for a in self.coeffs))

    def eval(self, at: Scalar) -> Scalar:
        f = self.field
        at = f.coerce(at)
        acc = f.zero()
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, at), c)
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check_field(other)
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(f), self
        quot = [f.zero()] * (dq + 1)
        inv_lead = f.inv(other.leading())
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if f.is_zero(top):
                continue
            q = f.mul(top, inv_lead)
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = f.sub(rem[k + j], f.mul(q, b))
        return UniPoly.from_coeffs(f, quot), UniPoly.from_coeffs(f, rem)

    def _check_field(self, other: "UniPoly") -> None:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic GCD by the Euclidean algorithm; gcd(0, 0) is the zero polynomial."""
    if f.field != g.field:
        raise ValueError("polynomials over different fields")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def interpolate(
    field: FieldSpec, points: Sequence[tuple[Scalar, Scalar]]
) -> UniPoly:
    """Lagrange interpolation through distinct nodes; exact over any field.

    Each Lagrange basis polynomial is built on a list of native ints (of
    Fractions where a rational node is not an integer) with no reduction,
    and `UniPoly.from_coeffs` reduces the sum into the field once.
    """
    xs = [field.coerce(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    xs = [x.numerator if x.denominator == 1 else x for x in xs]
    coeffs = [0] * len(xs)
    for i, (_, yi) in enumerate(points):
        yi = field.coerce(yi)
        if not yi:
            continue
        xi = xs[i]
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            # basis * (t - xj)
            basis = [shifted - xj * c for shifted, c in zip([0] + basis, basis + [0])]
            denom *= xi - xj
        scale = field.div(yi, field.coerce(denom))
        coeffs = [a + scale * c for a, c in zip(coeffs, basis)]
    return UniPoly.from_coeffs(field, coeffs)


# -- int-list polynomials over F_p ------------------------------------------------
#
# Coefficients lowest degree first, ints in [0, p), no trailing zeros unless
# a function says that its lengths are formal degrees.


def _trimmed(coeffs: list[int]) -> list[int]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _rem_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g over F_p, trimmed; g has a nonzero leading coefficient."""
    rem = list(f)
    top = len(g) - 1
    inv = pow(g[top], -1, p)
    for k in range(len(rem) - 1, top - 1, -1):
        q = rem[k] * inv % p
        if q:
            shift = k - top
            for j in range(top):
                rem[shift + j] = (rem[shift + j] - q * g[j]) % p
        rem[k] = 0
    return _trimmed(rem[:top])


def _monic_gcd_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd over F_p of f and g, not both zero."""
    while g:
        f, g = g, _rem_mod_p(f, g, p)
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _mulmod_p(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """a·b mod ``modulus`` over F_p."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _rem_mod_p([c % p for c in out], modulus, p)


def _powmod_p(base: list[int], exponent: int, modulus: list[int], p: int) -> list[int]:
    """base**exponent mod ``modulus`` over F_p, by square-and-multiply."""
    result = [1]
    base = _rem_mod_p(base, modulus, p)
    for bit in bin(exponent)[2:]:
        result = _mulmod_p(result, result, modulus, p)
        if bit == "1":
            result = _mulmod_p(result, base, modulus, p)
    return result


def _sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of ``a`` modulo the odd prime p by Tonelli–Shanks, or
    None when ``a`` is no square; the root returned is the one the algorithm
    lands on, not a chosen one of the two."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


def _quadratic_roots(b: int, c: int, p: int) -> list[int]:
    """The roots of the monic x^2 + b*x + c over F_p, p odd."""
    half = pow(2, -1, p)
    root = _sqrt_mod_p(b * b - 4 * c, p)
    if root is None:
        return []
    return sorted({(-b + root) * half % p, (-b - root) * half % p})


def _split_linear_factors(g: list[int], p: int) -> list[int]:
    """The roots of a monic product of distinct linear factors over F_p, p
    odd: equal-degree splitting by gcd(g, (x + a)^((p - 1)/2) - 1) at the
    shifts a = 0, 1, 2, ... (Cantor and Zassenhaus 1981).  A factor split at
    shift a has roots that agree at every shift up to a, so its parts go on
    from a + 1."""
    roots = []
    pending = [(g, 0)]
    while pending:
        g, shift = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        if len(g) == 3:
            roots.extend(_quadratic_roots(g[1], g[0], p))
            continue
        while True:
            if shift >= p:
                raise RuntimeError("internal error: no shift splits a product of roots")
            probe = _powmod_p([shift, 1], (p - 1) // 2, g, p) or [0]
            probe[0] = (probe[0] - 1) % p
            factor = _monic_gcd_mod_p(g, _trimmed(probe), p)
            shift += 1
            if 1 < len(factor) < len(g):
                pending.append((factor, shift))
                pending.append((_exact_quotient_mod_p(g, factor, p), shift))
                break
    return roots


def _exact_quotient_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    """f / g over F_p for a monic g that divides f."""
    rem = list(f)
    top = len(g) - 1
    quotient = [0] * (len(f) - top)
    for k in range(len(f) - 1, top - 1, -1):
        q = quotient[k - top] = rem[k]
        if q:
            for j in range(top + 1):
                rem[k - top + j] = (rem[k - top + j] - q * g[j]) % p
    return quotient


def poly_roots_mod_p(coeffs: Sequence[int], p: int) -> list[int]:
    """The distinct roots in F_p of a nonzero polynomial, in increasing order.

    ``coeffs`` are ints, lowest degree first, reduced here.  Degree 1 takes
    one inverse, degree 2 the discriminant's square root (`_sqrt_mod_p`).
    Higher degrees take g = gcd(f, x^p - x), the product of the distinct
    linear factors of f, with x^p mod f by square-and-multiply, and split g
    by `_split_linear_factors`.  Over F_2 the two elements are tried.  The
    zero polynomial raises `ConventionError`.
    """
    f = _trimmed([c % p for c in coeffs])
    if not f:
        raise ConventionError("the zero polynomial vanishes at every point")
    if p == 2:
        return [t for t, value in ((0, f[0]), (1, sum(f))) if not value % 2]
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    if len(f) == 1:
        return []
    if len(f) == 2:
        return [-f[0] % p]
    if len(f) == 3:
        return _quadratic_roots(f[1], f[0], p)
    frobenius = _powmod_p([0, 1], p, f, p) + [0, 0]
    frobenius[1] -= 1
    g = _monic_gcd_mod_p(f, _trimmed([c % p for c in frobenius]), p)
    return sorted(_split_linear_factors(g, p)) if len(g) > 1 else []


def poly_resultant_mod_p(f: Sequence[int], g: Sequence[int], p: int) -> int:
    """The resultant over F_p of f and g at the formal degrees ``len(f) - 1``
    and ``len(g) - 1``, whose leading coefficients may be zero: the
    determinant of their Sylvester matrix, by Euclid's algorithm.

    With a = f's leading coefficient nonzero and r = g mod f of degree k,
    Res_(m,n)(f, g) = a^(n-k)·Res_(m,k)(f, r) = (-1)^(mk)·a^(n-k)·Res_(k,m)(r, f);
    a zero r with m > 0 gives 0, as do two zero leading coefficients, and
    Res_(m,0)(f, c) = c^m.
    """
    f = [c % p for c in f]
    g = [c % p for c in g]
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        raise ConventionError("a resultant needs two polynomials of formal degree >= 0")
    factor = 1
    while True:
        if m == 0:
            return factor * pow(f[0], n, p) % p
        if n == 0:
            return factor * pow(g[0], m, p) % p
        if not f[m]:
            if not g[n]:
                return 0
            f, g, m, n = g, f, n, m
            factor = -factor if m * n % 2 else factor
        r = _rem_mod_p(g, f, p)
        if not r:
            return 0
        k = len(r) - 1
        factor = factor * pow(f[m], n - k, p) % p
        factor = -factor if m * k % 2 else factor
        f, g, m, n = r, f, k, m
