"""Exterior algebra over a fixed space: wedge, pairing, contraction, splitting.

An `AlternatingTensor` is a sparse alternating k-vector or k-form: a map from
strictly increasing index tuples over ``{0..n}`` to nonzero field scalars.
The same representation carries both variances; "vector" tensors live in
Λ^k(V) and "form" tensors in Λ^k(V*), and only the pairing and contraction
mix the two.  All sign conventions are anchored to the determinant pairing

    <x_{i1}^...^x_{ik}, e_{j1}^...^e_{jk}> = det(<x_{i_s}, e_{j_t}>)

which equals the Kronecker delta on matching sorted index sets; contraction
is then *defined* by the adjunction <contract(f, v), w> = <f, v^w>, so every
other sign in the package is forced rather than chosen.

The reduced square of a bivector L halves the wedge square, L^L = 2·L^[2],
which keeps decomposability detection valid in characteristic 2; its
coefficients are the principal 4x4 Pfaffians of the skew coefficient matrix
of L.  `split_along_covector` realizes the decomposition omega = omega_x +
beta_x^x used throughout the rank analysis, with a deterministic pivot rule
for the auxiliary vector e (minimal index with x_i != 0, scaled so x(e)=1).

`wedge`, `contract`, `covector_contract` and `reduced_square` each have two
paths that give the same terms.  The plan path runs on dense operands: an
index plan, built on first use and cached per (dim, degrees), lists for
each output index set in lexicographic order a fixed number of products,
each a position in the left operand's dense coordinates times a position
in the right operand's coordinates followed by their negatives (the sign is
an offset).  The kernel is then one ``map(mul, ...)`` over two
``itemgetter`` gathers, summed in groups, and the terms come out with
``itertools.compress``; each tensor keeps its dense int coordinates after
first use (`AlternatingTensor._dense_ints`), and `random_tensor` and the
plan path over F_p store them as they build one.  `contraction_gathers`
lays the contraction's products out as a matrix, a gather per row and per
column over a form's coordinates, their negatives and zero, so that
`form_analysis` ranks and reduces contraction matrices on a form's ints
with the sign convention of `contract` itself.  The bitmask loops run on
sparse operands (catalog forms, basis vectors), where a plan would multiply
mostly zeros: a kernel takes its plan when its loop would visit at least
half as many term pairs as the plan has products (`_is_dense`).  Measured
per call at dim 8 over F_101 the plan wins from about a third of that
count for `wedge` and `reduced_square` and a fifth for the contraction, and
at dim 6, where a plan is short, from one half to all of it.

In the loops an index set is an int bitmask (bit i for index i), the
"bitmap" representation of basis blades (Dorst, Fontijne and Mann,
*Geometric Algebra for Computer Science*, 2007, ch. 19): two sets are
disjoint when ``a & b == 0``, and the sign of merging them is the parity of
a popcount.  Masks and the sorted tuples of ``terms`` convert through
module tables that grow with the distinct index sets in use (at most 2^dim
for one space).  Contraction looks each position subset of a term of the
larger tensor up among the terms of the smaller one.  The kernels (`wedge`,
`contract`, `covector_contract`, `reduced_square`, `pair`, `pullback`,
`pullback_rows`) run on ints over both fields: each operand's values are
ints over one denominator (over the rationals numerators from
`exact_scalar.as_ints`, kept on the tensor after first use), products
accumulate as ints per output key, and each key is settled once, reduced
mod p, or over the rationals as one canonical Fraction of the sum over the
product of the operands' denominators.

Validation: the public constructor ``AlternatingTensor(...)`` checks every
term (`__post_init__`), and `make` checks the variance, the degree and the
size and range of each index set it keeps, since its input guarantees none of
them.  Results of the operations here (`wedge`, `contract`, `neg`, ...) and
of `random_tensor` are canonical by construction and skip the check.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb
from operator import itemgetter, mul, neg
from typing import Iterable, Iterator, Mapping, Sequence

from .exact_scalar import (
    ConventionError,
    FieldSpec,
    Scalar,
    as_ints,
    randbelow_many,
)

__all__ = [
    "SpaceContext",
    "AlternatingTensor",
    "pair",
    "wedge",
    "contract",
    "covector_contract",
    "reduced_square",
    "split_along_covector",
    "hyperplane_restriction",
    "require_three_form",
    "random_tensor",
    "contraction_gathers",
    "pullback",
    "pullback_rows",
    "reduce_mod_p",
    "projective_points",
    "projective_point_count",
    "form_to_document",
    "form_from_document",
    "derive_seed",
]

IndexSet = tuple[int, ...]


@dataclass(frozen=True)
class SpaceContext:
    """An (n+1)-dimensional vector space over a fixed field, n >= 3 projective."""

    n: int
    field: FieldSpec

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ConventionError(f"projective dimension must be >= 3, got {self.n}")

    @property
    def dim(self) -> int:
        return self.n + 1

    def index_sets(self, k: int) -> Iterable[IndexSet]:
        return itertools.combinations(range(self.dim), k)

    def basis_vector(self, i: int) -> "AlternatingTensor":
        return AlternatingTensor.make(self, 1, "vector", {(i,): 1})

    def basis_covector(self, i: int) -> "AlternatingTensor":
        return AlternatingTensor.make(self, 1, "form", {(i,): 1})

    def zero_tensor(self, degree: int, variance: str) -> "AlternatingTensor":
        return AlternatingTensor.make(self, degree, variance, {})

    def vector_from_coords(self, coords: Sequence[Scalar]) -> "AlternatingTensor":
        return AlternatingTensor.make(
            self, 1, "vector", {(i,): c for i, c in enumerate(coords)}
        )

    def tensor_from_coords(
        self, k: int, variance: str, coords: Sequence[Scalar]
    ) -> "AlternatingTensor":
        """Inverse of AlternatingTensor.coords(): dense vector over the
        lexicographic index sets back to a sparse tensor."""
        keys = list(self.index_sets(k))
        if len(coords) != len(keys):
            raise ValueError(
                f"need {len(keys)} coordinates for degree {k}, got {len(coords)}"
            )
        return AlternatingTensor.make(
            self, k, variance, dict(zip(keys, coords))
        )

    @cached_property
    def quadric_check_pairs(
        self,
    ) -> tuple[tuple["AlternatingTensor", "AlternatingTensor"], ...]:
        """The three seeded bivectors L on which `form_analysis.quadric_of`
        checks a polar matrix, each with its reduced square: L is
        ``random_tensor(self, 2, "vector", derive_seed("quadric-check", s))``
        for s = 0, 1, 2.  Drawn on first read and kept on this instance, so
        an equal context built elsewhere draws its own."""
        bivectors = (
            random_tensor(self, 2, "vector", derive_seed("quadric-check", s))
            for s in range(3)
        )
        return tuple((L, reduced_square(L)) for L in bivectors)


_VARIANCES = ("vector", "form")


class _KeyTable(dict):
    """Bitmask -> sorted index tuple, filled on first use."""

    def __missing__(self, mask: int) -> IndexSet:
        key = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        self[mask] = key
        _MASKS[key] = mask
        return key


class _MaskTable(dict):
    """Sorted, strictly increasing index tuple -> bitmask, filled on first use.

    Only keys of stored terms are looked up with ``[]``; raw keys handed to
    `make` use ``.get``, which never fills the table.
    """

    def __missing__(self, key: IndexSet) -> int:
        mask = 0
        for i in key:
            mask |= 1 << i
        self[key] = mask
        _KEYS[mask] = key
        return mask


class _BelowParityTable(dict):
    """Bitmask B -> the mask of positions l with an odd number of elements of
    B below l (all higher bits set when |B| is odd).  The sign of merging A
    then B is the parity of popcount(A & table[B])."""

    def __missing__(self, mask: int) -> int:
        out, odd, i, rest = 0, 0, 0, mask
        while rest:
            if odd:
                out |= 1 << i
            odd ^= rest & 1
            rest >>= 1
            i += 1
        if odd:
            out |= -1 << i
        self[mask] = out
        return out


@cache
def _position_subsets(k: int, j: int) -> tuple[tuple[itemgetter, int], ...]:
    """For each j-subset S of the positions 0..k-1 of a sorted k-tuple: a
    getter returning the entries at S as a tuple, and whether moving them to
    the front (in order) is an odd permutation."""
    rows = []
    for positions in itertools.combinations(range(k), j):
        # a slice returns a tuple even for j < 2, unlike itemgetter(*positions)
        if j == 0 or positions[-1] - positions[0] == j - 1:
            start = positions[0] if j else 0
            pick = itemgetter(slice(start, start + j))
        else:
            pick = itemgetter(*positions)
        rows.append((pick, (sum(positions) - j * (j - 1) // 2) & 1))
    return tuple(rows)


@cache
def _lexicographic_positions(dim: int, k: int) -> dict[IndexSet, int]:
    """Position of each sorted k-set of range(dim) in lexicographic order."""
    keys = itertools.combinations(range(dim), k)
    return {key: i for i, key in enumerate(keys)}


def _gather(positions: Sequence[int]) -> itemgetter:
    """A getter returning the entries at ``positions`` as a sequence, also
    for a single position (where ``itemgetter(i)`` returns the entry
    itself)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def _inversions(first: IndexSet, second: IndexSet) -> int:
    """Parity of the permutation sorting ``first + second`` (disjoint)."""
    return sum(x > y for x in first for y in second) & 1


# An index plan: for each output index set in lexicographic order, ``group``
# products (left entry) * (right entry), the left entry read from the left
# operand's dense coordinates and the right one from the right operand's
# coordinates followed by their negatives, so that a sign is an offset.
Plan = tuple[itemgetter, itemgetter, int, dict[IndexSet, int]]


def _plan(
    keys: dict[IndexSet, int],
    group: int,
    products: Iterable[tuple[int, int, int]],
    shift: int,
) -> Plan:
    """A plan from (left position, right position, odd) triples, ``group``
    per output key in order, the negated right coordinates ``shift`` on."""
    left, right = [], []
    for a, b, odd in products:
        left.append(a)
        right.append(b + shift if odd else b)
    return _gather(left), _gather(right), group, keys


@cache
def _wedge_plan(dim: int, ka: int, kb: int) -> Plan:
    """The plan of `wedge` for degrees ka and kb: each output K sums, over
    the ka-subsets A of K in order, a[A] * b[K - A] with the sign of
    sorting A + (K - A)."""
    a_pos = _lexicographic_positions(dim, ka)
    b_pos = _lexicographic_positions(dim, kb)
    keys = _lexicographic_positions(dim, ka + kb)

    def products() -> Iterable[tuple[int, int, int]]:
        for key in keys:
            for first in itertools.combinations(key, ka):
                second = tuple(i for i in key if i not in first)
                yield a_pos[first], b_pos[second], _inversions(first, second)

    return _plan(keys, comb(ka + kb, ka), products(), len(b_pos))


def _contract_products(dim: int, big: int, small: int) -> Iterator[tuple[int, int, int]]:
    """The products of a contraction for degrees big and small: for each
    output R in lexicographic order and each small-subset S of the
    complement of R in order, (position of S + R among the big-sets,
    position of S among the small-sets, whether sorting S + R is odd), the
    term big[S + R] * small[S] with that sign.  Generated, not kept: the
    plans built from them are cached."""
    big_pos = _lexicographic_positions(dim, big)
    small_pos = _lexicographic_positions(dim, small)
    for rest in _lexicographic_positions(dim, big - small):
        others = [i for i in range(dim) if i not in rest]
        for front in itertools.combinations(others, small):
            whole = tuple(sorted(front + rest))
            yield big_pos[whole], small_pos[front], _inversions(front, rest)


@cache
def _contract_plan(dim: int, big: int, small: int) -> Plan:
    """The plan of `_contract` for degrees big and small: each output
    R sums, over the small-subsets S of the complement of R in order,
    big[S + R] * small[S] with the sign of sorting S + R
    (`_contract_products`)."""
    return _plan(
        _lexicographic_positions(dim, big - small),
        comb(dim - big + small, small),
        _contract_products(dim, big, small),
        comb(dim, small),
    )


@cache
def contraction_gathers(
    dim: int, degree: int, j: int
) -> tuple[tuple[itemgetter, ...], tuple[itemgetter, ...]]:
    """The matrix of the map (j-vectors) -> (forms of degree ``degree`` - j),
    contraction against a ``degree``-form on a space of dimension ``dim``,
    as gathers: one per column (the image of each basis j-vector, in the
    lexicographic order of the j-index sets) and one per row (each
    (degree - j)-index set in that order).  Each reads a form's dense
    coordinates followed by their negatives and one zero.  Entry (R, S) is
    the form's coordinate at S + R, negated when sorting S + R is odd, and
    zero when S and R meet: the products `contract` sums
    (`_contract_products`), so the matrix keeps its sign convention.
    Cached per (dim, degree, j); j outside 1 <= j < degree <= dim raises
    `ValueError`."""
    if not (1 <= j < degree <= dim):
        raise ValueError("need 1 <= j < degree")
    count = comb(dim, degree)
    group = comb(dim - degree + j, j)
    matrix = [[2 * count] * comb(dim, j) for _ in range(comb(dim, degree - j))]
    for index, (whole, front, odd) in enumerate(_contract_products(dim, degree, j)):
        matrix[index // group][front] = whole + count * odd
    return (
        tuple(itemgetter(*column) for column in zip(*matrix)),
        tuple(itemgetter(*row) for row in matrix),
    )


@cache
def _square_plan(dim: int) -> Plan:
    """The plan of `reduced_square`: each output (i, j, h, k) sums the three
    products of its Pfaffian, L[ij] L[hk] - L[ih] L[jk] + L[ik] L[jh]."""
    pos = _lexicographic_positions(dim, 2)
    keys = _lexicographic_positions(dim, 4)

    def products() -> Iterable[tuple[int, int, int]]:
        for i, j, h, k in keys:
            yield pos[i, j], pos[h, k], 0
            yield pos[i, h], pos[j, k], 1
            yield pos[i, k], pos[j, h], 0

    return _plan(keys, 3, products(), len(pos))


_KEYS = _KeyTable()
_MASKS = _MaskTable()
_BELOW = _BelowParityTable()


def _mask_with_sign(indices: Sequence[int]) -> tuple[int | None, int]:
    """Bitmask of an index tuple and the parity of the permutation sorting it.

    Repeated indices make the alternating term vanish; flagged by (None, 0).
    """
    mask = 0
    odd = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"index set {tuple(indices)} out of range")
        bit = 1 << i
        if mask & bit:
            return None, 0
        odd ^= (mask >> i).bit_count() & 1
        mask |= bit
    return mask, odd


def _reduced(
    pairs: Iterable[tuple[IndexSet, Scalar]], p: int | None
) -> list[tuple[IndexSet, Scalar]]:
    """The pairs with each value reduced mod p and zeros dropped; over the
    rationals (``p is None``) the values are exact already."""
    if p is None:
        return [(k, v) for k, v in pairs if v]
    return [(k, r) for k, v in pairs if (r := v % p)]


def _settle(
    acc: dict[int, Scalar], p: int | None
) -> tuple[tuple[IndexSet, Scalar], ...]:
    """Terms from sums accumulated per bitmask: reduced once per key, zeros
    dropped, sorted by index set."""
    found = _reduced(zip(map(_KEYS.__getitem__, acc), acc.values()), p)
    found.sort()
    return tuple(found)


def _int_terms(
    t: "AlternatingTensor",
) -> tuple[Sequence[tuple[IndexSet, int]], int]:
    """``t``'s terms with int values over one shared denominator: the terms
    themselves (over 1) over a prime field, and over the rationals
    `AlternatingTensor._numerator_terms`."""
    if t.ctx.field.p is not None:
        return t.terms, 1
    return t._numerator_terms


def _settle_ints(
    acc: dict[int, int], p: int | None, den: int
) -> tuple[tuple[IndexSet, Scalar], ...]:
    """Terms from int sums accumulated per bitmask: reduced mod p once per
    key over a prime field, one Fraction ``sum / den`` per nonzero key over
    the rationals; zeros dropped, sorted by index set."""
    if p is not None:
        return _settle(acc, p)
    keys = _KEYS
    if den == 1:
        found = [(keys[m], Fraction(v)) for m, v in acc.items() if v]
    else:
        found = [(keys[m], Fraction(v, den)) for m, v in acc.items() if v]
    found.sort()
    return tuple(found)


@dataclass(frozen=True)
class AlternatingTensor:
    """Sparse alternating tensor: sorted index sets mapped to nonzero scalars."""

    ctx: SpaceContext
    degree: int
    variance: str
    terms: tuple[tuple[IndexSet, Scalar], ...]

    def __post_init__(self) -> None:
        if self.variance not in ("vector", "form"):
            raise ValueError(f"variance must be vector|form, got {self.variance!r}")
        if not (0 <= self.degree <= self.ctx.dim):
            raise ValueError(f"degree {self.degree} out of range for n={self.ctx.n}")
        field = self.ctx.field
        previous: IndexSet | None = None
        for key, value in self.terms:
            if len(key) != self.degree:
                raise ValueError(f"index set {key} has wrong size")
            if any(not (0 <= i <= self.ctx.n) for i in key):
                raise ValueError(f"index set {key} out of range")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"index set {key} not strictly increasing")
            if field.is_zero(value):
                raise ValueError("stored zero coefficient (use make)")
            if previous is not None and key <= previous:
                raise ValueError("terms not sorted by index set")
            previous = key

    @staticmethod
    def make(
        ctx: SpaceContext,
        degree: int,
        variance: str,
        coeffs: Mapping[Sequence[int], Scalar | str]
        | Iterable[tuple[Sequence[int], Scalar | str]],
    ) -> "AlternatingTensor":
        """Canonicalize arbitrary (indices, coeff) data: sort indices with sign,
        accumulate duplicates, coerce scalars, drop zeros.

        Raises `ValueError` for a bad variance or degree, and for an index set
        of the wrong size or out of range that keeps a nonzero coefficient.
        """
        if variance not in _VARIANCES:
            raise ValueError(f"variance must be vector|form, got {variance!r}")
        if not (0 <= degree <= ctx.dim):
            raise ValueError(f"degree {degree} out of range for n={ctx.n}")
        field = ctx.field
        # Values already of the field's own type skip `coerce`; prime-field
        # ints are reduced with the sums.
        exact = Fraction if field.p is None else int
        known = _MASKS.get
        acc: dict[int, Scalar] = {}
        get = acc.get
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for raw_key, raw_value in items:
            key = raw_key if type(raw_key) is tuple else tuple(raw_key)
            mask = known(key)
            odd = 0
            if mask is None:
                mask, odd = _mask_with_sign(key)
                if mask is None:
                    continue
            value = raw_value if type(raw_value) is exact else field.coerce(raw_value)
            acc[mask] = get(mask, 0) - value if odd else get(mask, 0) + value
        terms = _settle(acc, field.p)
        for key, _ in terms:
            if len(key) != degree:
                raise ValueError(f"index set {key} has wrong size")
            if key and key[-1] > ctx.n:
                raise ValueError(f"index set {key} out of range")
        return _trusted(ctx, degree, variance, terms)

    @cached_property
    def _numerator_terms(self) -> tuple[list[tuple[IndexSet, int]], int]:
        """Over the rationals: the terms with int numerators over the
        denominator they share (`as_ints`).  Made by the first kernel that
        reads them and kept, since one operand often meets many others."""
        ints, den = as_ints(self.ctx.field, [v for _, v in self.terms])
        return list(zip([k for k, _ in self.terms], ints)), den

    @cached_property
    def _dense_ints(self) -> tuple[list[int], int]:
        """The coordinates over all index sets in lexicographic order as ints
        over one denominator (`_int_terms`), for the index plans of the
        kernels.  Made by the first planned kernel that reads them and kept;
        `random_tensor` and the planned kernels over F_p store them as they
        build a tensor."""
        positions = _lexicographic_positions(self.ctx.dim, self.degree)
        terms, den = _int_terms(self)
        out = [0] * len(positions)
        for key, value in terms:
            out[positions[key]] = value
        return out, den

    # -- inspection ------------------------------------------------------------

    def coeff_map(self) -> dict[IndexSet, Scalar]:
        return dict(self.terms)

    def coefficient(self, indices: Sequence[int]) -> Scalar:
        key = tuple(indices)
        zero = self.ctx.field.zero()
        if any(i < 0 for i in key):
            return zero
        mask, odd = _mask_with_sign(key)
        if mask is None:
            return zero
        value = self.coeff_map().get(tuple(sorted(key)))
        if value is None:
            return zero
        return self.ctx.field.neg(value) if odd else value

    def is_zero(self) -> bool:
        return not self.terms

    def coords(self) -> tuple[Scalar, ...]:
        """Dense coefficient vector over all sorted index sets, lexicographic."""
        positions = _lexicographic_positions(self.ctx.dim, self.degree)
        out = [self.ctx.field.zero()] * len(positions)
        for key, value in self.terms:
            out[positions[key]] = value
        return tuple(out)

    # -- linear structure --------------------------------------------------------

    def _check_same_space(self, other: "AlternatingTensor") -> None:
        if self.ctx != other.ctx:
            raise ValueError("tensors live in different spaces")

    def add(self, other: "AlternatingTensor") -> "AlternatingTensor":
        self._check_same_space(other)
        if (self.degree, self.variance) != (other.degree, other.variance):
            raise ValueError("degree/variance mismatch in addition")
        merged: list[tuple[Sequence[int], Scalar]] = list(self.terms)
        merged.extend(other.terms)
        return AlternatingTensor.make(self.ctx, self.degree, self.variance, merged)

    def neg(self) -> "AlternatingTensor":
        terms = _reduced(((k, -v) for k, v in self.terms), self.ctx.field.p)
        return _trusted(self.ctx, self.degree, self.variance, tuple(terms))

    def sub(self, other: "AlternatingTensor") -> "AlternatingTensor":
        return self.add(other.neg())

    def scale(self, c: Scalar | str) -> "AlternatingTensor":
        c = self.ctx.field.coerce(c)
        terms = _reduced(((k, c * v) for k, v in self.terms), self.ctx.field.p)
        return _trusted(self.ctx, self.degree, self.variance, tuple(terms))


_new_tensor = object.__new__


def _trusted(
    ctx: SpaceContext,
    degree: int,
    variance: str,
    terms: tuple[tuple[IndexSet, Scalar], ...],
) -> AlternatingTensor:
    """A tensor from terms that are canonical by construction, built without
    running `__post_init__`."""
    t = _new_tensor(AlternatingTensor)
    fields = t.__dict__
    fields["ctx"] = ctx
    fields["degree"] = degree
    fields["variance"] = variance
    fields["terms"] = terms
    return t


def _is_dense(visits: int, products: int) -> bool:
    """Whether a kernel takes its index plan: when its bitmask loop would
    visit at least half as many term pairs as the plan has products."""
    return 2 * visits >= products


def _planned(
    plan: Plan,
    left: AlternatingTensor,
    right: AlternatingTensor,
    degree: int,
    variance: str,
) -> AlternatingTensor:
    """The tensor a plan makes from two operands: every product in one
    ``map(mul, ...)`` over gathered coordinates, summed in groups, then
    reduced mod p over F_p (keeping the dense residues on the result), or
    over the rationals one Fraction per nonzero sum over the product of the
    operands' denominators."""
    take_left, take_right, group, keys = plan
    a, a_den = left._dense_ints
    b, b_den = right._dense_ints
    products = map(mul, take_left(a), take_right(b + list(map(neg, b))))
    sums = list(map(sum, zip(*[products] * group)) if group > 1 else products)
    ctx = left.ctx
    p = ctx.field.p
    if p is not None:
        values = [v % p for v in sums]
        terms = tuple(zip(itertools.compress(keys, values), filter(None, values)))
        t = _trusted(ctx, degree, variance, terms)
        t.__dict__["_dense_ints"] = values, 1
        return t
    den = a_den * b_den
    nonzero = filter(None, sums)
    if den == 1:
        fractions = map(Fraction, nonzero)
    else:
        fractions = map(Fraction, nonzero, itertools.repeat(den))
    terms = tuple(zip(itertools.compress(keys, sums), fractions))
    return _trusted(ctx, degree, variance, terms)


def pair(f: AlternatingTensor, v: AlternatingTensor) -> Scalar:
    """Determinant pairing of a k-form against a k-vector (delta on index sets)."""
    if f.ctx != v.ctx:
        raise ValueError("pairing across different spaces")
    if f.variance != "form" or v.variance != "vector":
        raise ValueError("pair expects (form, vector)")
    if f.degree != v.degree:
        raise ValueError("pairing degrees differ")
    p = f.ctx.field.p
    f_terms, f_den = _int_terms(f)
    v_terms, v_den = _int_terms(v)
    vmap = dict(v_terms)
    acc = 0
    for key, a in f_terms:
        b = vmap.get(key)
        if b is not None:
            acc += a * b
    return Fraction(acc, f_den * v_den) if p is None else acc % p


def wedge(a: AlternatingTensor, b: AlternatingTensor) -> AlternatingTensor:
    """Alternating product with shuffle signs; graded-commutative.

    From `_wedge_plan` when the two operands have at least half as many
    pairs of terms as the plan has products, else from `_wedge_loop`."""
    a._check_same_space(b)
    if a.variance != b.variance:
        raise ValueError("wedge requires matching variance")
    if a.degree + b.degree > a.ctx.dim:
        raise ValueError("wedge degree exceeds space dimension")
    dim, ka, kb = a.ctx.dim, a.degree, b.degree
    if _is_dense(len(a.terms) * len(b.terms), comb(dim, ka) * comb(dim - ka, kb)):
        return _planned(_wedge_plan(dim, ka, kb), a, b, ka + kb, a.variance)
    return _trusted(a.ctx, ka + kb, a.variance, _wedge_loop(a, b))


def _wedge_loop(
    a: AlternatingTensor, b: AlternatingTensor
) -> tuple[tuple[IndexSet, Scalar], ...]:
    """Terms of ``a ^ b`` from the bitmask loop over pairs of terms."""
    masks, below = _MASKS, _BELOW
    a_terms, a_den = _int_terms(a)
    b_terms, b_den = _int_terms(b)
    right = []
    for kb, vb in b_terms:
        mb = masks[kb]
        right.append((mb, below[mb], vb))
    acc: dict[int, int] = {}
    get = acc.get
    for ka, va in a_terms:
        ma = masks[ka]
        for mb, pb, vb in right:
            if ma & mb:
                continue
            m = ma | mb
            if (ma & pb).bit_count() & 1:
                acc[m] = get(m, 0) - va * vb
            else:
                acc[m] = get(m, 0) + va * vb
    return _settle_ints(acc, a.ctx.field.p, a_den * b_den)


def _contract(
    big: AlternatingTensor, small: AlternatingTensor, variance: str
) -> AlternatingTensor:
    """The contraction of ``big`` by ``small`` (small's index sets moved to
    the front and removed), of the given variance: from the index plan when
    ``big`` is dense enough, else from `_contract_loop`."""
    dim, kb, ks = big.ctx.dim, big.degree, small.degree
    if small.terms and _is_dense(len(big.terms), comb(dim, kb)):
        return _planned(_contract_plan(dim, kb, ks), big, small, kb - ks, variance)
    return _trusted(big.ctx, kb - ks, variance, _contract_loop(big, small))


def _contract_loop(
    big: AlternatingTensor, small: AlternatingTensor
) -> tuple[tuple[IndexSet, Scalar], ...]:
    """Terms of the contraction of ``big`` by ``small`` from the bitmask
    loop: every position subset of a term of ``big`` is looked up among the
    terms of ``small``."""
    masks = _MASKS
    big_terms, big_den = _int_terms(big)
    small_terms, small_den = _int_terms(small)
    lookup = {key: (masks[key], c) for key, c in small_terms}.get
    subsets = _position_subsets(big.degree, small.degree)
    acc: dict[int, int] = {}
    get = acc.get
    for key, cb in big_terms:
        mb = masks[key]
        for pick, odd in subsets:
            hit = lookup(pick(key))
            if hit is None:
                continue
            ms, cs = hit
            rest = mb ^ ms
            if odd:
                acc[rest] = get(rest, 0) - cs * cb
            else:
                acc[rest] = get(rest, 0) + cs * cb
    return _settle_ints(acc, big.ctx.field.p, big_den * small_den)


def contract(f: AlternatingTensor, v: AlternatingTensor) -> AlternatingTensor:
    """Interior product defined by <contract(f, v), w> = <f, v^w>.

    From `_contract_plan` when f has at least half of its coefficients
    nonzero (and v is not zero), else from `_contract_loop`."""
    if f.ctx != v.ctx:
        raise ValueError("contraction across different spaces")
    if f.variance != "form" or v.variance != "vector":
        raise ValueError("contract expects (form, vector)")
    if v.degree > f.degree:
        raise ValueError("cannot contract by a higher degree")
    return _contract(f, v, "form")


def covector_contract(f: AlternatingTensor, v: AlternatingTensor) -> AlternatingTensor:
    """Contraction on the vector side: <g, covector_contract(f, v)> = <f^g, v>
    for every form g of the complementary degree.  Returns a vector of degree
    v.degree - f.degree.  Dispatched as `contract`, on the density of v."""
    if f.ctx != v.ctx:
        raise ValueError("contraction across different spaces")
    if f.variance != "form" or v.variance != "vector":
        raise ValueError("covector_contract expects (form, vector)")
    if f.degree > v.degree:
        raise ValueError("cannot contract by a higher degree")
    return _contract(v, f, "vector")


def projective_point_count(p: int, length: int) -> int:
    """Number of points of projective (length-1)-space over F_p."""
    if p < 2:
        raise ConventionError(f"modulus {p} is below 2")
    return (p**length - 1) // (p - 1)


def projective_points(field: FieldSpec, length: int) -> Iterable[tuple[int, ...]]:
    """All points of P^(length-1) over a prime field, normalized so the first
    nonzero coordinate is 1.  Deterministic order: by the position of that
    1, then the coordinates after it as a base-p counter whose first digit
    runs fastest (the reversed tuples of `itertools.product`)."""
    if field.kind != "prime":
        raise ValueError("projective enumeration needs a finite field")
    digits = range(field.p)  # type: ignore[arg-type]
    for pivot in range(length):
        head = (0,) * pivot + (1,)
        for tail in itertools.product(digits, repeat=length - pivot - 1):
            yield head + tail[::-1]


def reduced_square(L: AlternatingTensor) -> AlternatingTensor:
    """Half the wedge square of a bivector: the 4-vector of principal 4x4
    Pfaffians of its skew coefficient matrix.  Zero iff L is decomposable,
    in every characteristic (including 2, where L^L itself is uninformative).

    Each unordered pair of disjoint terms contributes once, which is the
    Pfaffian a_ij a_hk - a_ih a_jk + a_ik a_jh summed over its three pairings.
    From `_square_plan` when L's pairs of terms number at least half of the
    plan's 3·C(dim, 4) products, else from `_reduced_square_loop`.
    """
    if L.variance != "vector" or L.degree != 2:
        raise ValueError("reduced_square expects a degree-2 vector")
    size, dim = len(L.terms), L.ctx.dim
    if _is_dense(size * (size - 1) // 2, 3 * comb(dim, 4)):
        return _planned(_square_plan(dim), L, L, 4, "vector")
    return _trusted(L.ctx, 4, "vector", _reduced_square_loop(L))


def _reduced_square_loop(L: AlternatingTensor) -> tuple[tuple[IndexSet, Scalar], ...]:
    """Terms of the reduced square of ``L`` from the bitmask loop over
    unordered pairs of its terms."""
    masks, below = _MASKS, _BELOW
    terms, den = _int_terms(L)
    items = []
    for key, value in terms:
        m = masks[key]
        items.append((m, below[m], value))
    acc: dict[int, int] = {}
    get = acc.get
    for start, (ma, _, va) in enumerate(items, 1):
        for mb, pb, vb in items[start:]:
            if ma & mb:
                continue
            m = ma | mb
            if (ma & pb).bit_count() & 1:
                acc[m] = get(m, 0) - va * vb
            else:
                acc[m] = get(m, 0) + va * vb
    return _settle_ints(acc, L.ctx.field.p, den * den)


def require_three_form(omega: AlternatingTensor) -> None:
    """Raise `ConventionError` unless ``omega`` is an alternating 3-form."""
    if omega.degree != 3 or omega.variance != "form":
        raise ConventionError("expected an alternating 3-form")


def split_along_covector(
    omega: AlternatingTensor, x: AlternatingTensor
) -> tuple[AlternatingTensor, AlternatingTensor, AlternatingTensor]:
    """Split a 3-form as omega = omega_x + beta_x^x with both parts killed by e.

    The auxiliary vector e is pinned by a deterministic pivot rule: the minimal
    index i with x_i != 0, scaled so that x(e) = 1.  Returns (omega_x, beta_x, e);
    contract(omega_x, e) = contract(beta_x, e) = 0 and the sum reassembles omega.
    """
    require_three_form(omega)
    if x.variance != "form" or x.degree != 1:
        raise ValueError("split expects a 1-form direction")
    if x.is_zero():
        raise ValueError("cannot split along the zero covector")
    if omega.ctx != x.ctx:
        raise ValueError("tensors live in different spaces")
    field = omega.ctx.field
    pivot, coeff = x.terms[0]  # terms sorted, so this is the minimal nonzero index
    e = AlternatingTensor.make(
        omega.ctx, 1, "vector", {pivot: field.inv(coeff)}
    )
    beta = contract(omega, e)
    omega_x = omega.sub(wedge(beta, x))
    return omega_x, beta, e


def hyperplane_restriction(
    omega: AlternatingTensor, z: AlternatingTensor
) -> AlternatingTensor:
    """A 3-form restricted to the hyperplane {z = 0} of a nonzero covector
    z, in a fresh SpaceContext one dimension down: `pullback` along the
    basis that `rank_kernel` gives the annihilator of z, b_i = e_i −
    (z_i/z_q)·e_q for i != q in increasing order, with q the first index at
    which z is nonzero.

    With e = e_q / z_q, omega(b_a, b_b, b_c) for a, b, c != q is
    omega_abc − (z_a·omega(e, e_b, e_c) − z_b·omega(e, e_a, e_c) +
    z_c·omega(e, e_a, e_b)), the (a, b, c) coefficient of omega − (ι_e
    omega) ∧ z: the first part of `split_along_covector`, whose pivot rule
    picks the same e.  That part is killed by e, so no term of it holds the
    index q, and the result is its terms with each index above q moved down
    by one; no basis vector is built and nothing is contracted per basis
    vector.
    """
    omega_z = split_along_covector(omega, z)[0]
    (q,), _ = z.terms[0]
    sub_ctx = SpaceContext(omega.ctx.n - 1, omega.ctx.field)
    terms = tuple((tuple(k - (k > q) for k in key), c) for key, c in omega_z.terms)
    return _trusted(sub_ctx, 3, "form", terms)


def derive_seed(*parts: object) -> int:
    """Deterministic integer sub-seed from a tuple of labels (stable across runs)."""
    text = "|".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def random_tensor(
    ctx: SpaceContext, k: int, variance: str, seed: int
) -> AlternatingTensor:
    """Seed-deterministic random tensor: uniform coefficients over a prime
    field, small integers in [-10, 10] over the rationals.  The keys are the
    index sets in lexicographic order and the values residues or Fractions,
    so the terms are canonical once the zeros are dropped, and the tensor is
    built without `make`."""
    if not (0 <= k <= ctx.dim):
        raise ValueError(f"degree {k} out of range")
    if variance not in _VARIANCES:
        raise ValueError(f"variance must be vector|form, got {variance!r}")
    rng = random.Random(derive_seed("tensor", ctx.n, ctx.field, k, variance, seed))
    keys = _lexicographic_positions(ctx.dim, k)
    if ctx.field.kind == "prime":
        values = randbelow_many(rng, ctx.field.p, len(keys))  # type: ignore[arg-type]
        nonzero = filter(None, values)
    else:
        values = [rng.randint(-10, 10) for _ in keys]
        nonzero = map(Fraction, filter(None, values))
    terms = tuple(zip(itertools.compress(keys, values), nonzero))
    t = _trusted(ctx, k, variance, terms)
    t.__dict__["_dense_ints"] = values, 1
    return t


def _contract_ints(
    f: dict[int, int], v: list[tuple[int, int]], p: int | None
) -> dict[int, int]:
    """The contraction of a form by a vector: the form as int values per
    bitmask, the vector as (bit, int value) pairs; reduced mod p over F_p,
    zeros dropped.  Removing bit b from a mask moves it past the bits below
    it, the parity that `_BELOW` holds at b."""
    acc: dict[int, int] = {}
    get = acc.get
    for mask, c in f.items():
        odd = _BELOW[mask]
        for bit, x in v:
            if mask & bit:
                rest = mask ^ bit
                acc[rest] = get(rest, 0) - x * c if odd & bit else get(rest, 0) + x * c
    if p is None:
        return {m: c for m, c in acc.items() if c}
    return {m: r for m, c in acc.items() if (r := c % p)}


def pullback(
    form: AlternatingTensor, basis: Sequence[AlternatingTensor]
) -> AlternatingTensor:
    """Restrict a k-form to the subspace spanned by the given vectors.

    The result lives in a fresh SpaceContext of the subspace's dimension; its
    coefficient at (i1 < ... < ik) is the form evaluated on
    b_{i1}^...^b_{ik}, the form contracted by b_{i1}, then b_{i2}, ..., then
    b_{ik}.  The contractions run on the int values of `_int_terms`, and
    each prefix i1 < ... < ij is contracted once for every key that starts
    with it.  Over F_p each contraction is reduced mod p; over the rationals
    a coefficient is one Fraction, its numerator over the product of the
    form's denominator and those of b_{i1}, ..., b_{ik}.

    Raises `ValueError` when ``form`` is not a form, when a basis element
    is not a vector of degree 1 or lives in another space, and for fewer
    than four basis vectors (`SpaceContext`).
    """
    if form.variance != "form":
        raise ValueError("pullback expects a form")
    if any(b.variance != "vector" or b.degree != 1 for b in basis):
        raise ValueError("basis must consist of degree-1 vectors")
    sub_ctx = SpaceContext(len(basis) - 1, form.ctx.field)
    if any(b.ctx != form.ctx for b in basis):
        raise ValueError("basis vectors live in a different space")
    vectors = []
    for b in basis:
        b_terms, b_den = _int_terms(b)
        vectors.append(([(1 << i, c) for (i,), c in b_terms], b_den))
    return _pullback(form, sub_ctx, vectors)


def pullback_rows(
    form: AlternatingTensor, rows: Sequence[Sequence[int]]
) -> AlternatingTensor:
    """`pullback` along the vectors whose coordinates are the int ``rows``,
    with no tensor built for them: over F_p any ints, reduced with each
    contraction, and over the rationals the vectors themselves (over
    denominator 1).

    Raises `ValueError` when ``form`` is not a form, when a row has another
    length than the form's space or an entry that is not an int, and for
    fewer than four rows (`SpaceContext`).
    """
    if form.variance != "form":
        raise ValueError("pullback expects a form")
    dim = form.ctx.dim
    if any(len(row) != dim or not all(type(c) is int for c in row) for row in rows):
        raise ValueError(f"every row needs {dim} int coordinates")
    sub_ctx = SpaceContext(len(rows) - 1, form.ctx.field)
    vectors = [([(1 << i, c) for i, c in enumerate(row) if c], 1) for row in rows]
    return _pullback(form, sub_ctx, vectors)


def _pullback(
    form: AlternatingTensor, sub_ctx: SpaceContext, vectors: list[tuple[list, int]]
) -> AlternatingTensor:
    """The pullback of ``form`` to ``sub_ctx`` along basis vectors given as
    their int terms (bitmask, value) over a denominator each."""
    p = sub_ctx.field.p
    k = form.degree
    terms: list[tuple[IndexSet, Scalar]] = []

    def restrict(partial: dict[int, int], first: int, prefix: IndexSet, den: int) -> None:
        if len(prefix) == k:
            value = partial.get(0)
            if value:
                terms.append((prefix, value if p is not None else Fraction(value, den)))
            return
        for i in range(first, len(vectors) - k + len(prefix) + 1):
            v, v_den = vectors[i]
            contracted = _contract_ints(partial, v, p)
            if contracted:
                restrict(contracted, i + 1, (*prefix, i), den * v_den)

    f_terms, f_den = _int_terms(form)
    restrict({_MASKS[key]: c for key, c in f_terms}, 0, (), f_den)
    return _trusted(sub_ctx, k, "form", tuple(terms))


def reduce_mod_p(tensor: AlternatingTensor, p: int) -> AlternatingTensor:
    """The same tensor with its coefficients reduced into F_p.

    A tensor over F_p is returned as it is; one over another prime field
    raises `ConventionError`.
    """
    field = FieldSpec.prime(p)
    source = tensor.ctx.field
    if source.kind == "prime":
        if source.p != p:
            raise ConventionError("tensor already lives over a different prime field")
        return tensor
    ctx = SpaceContext(n=tensor.ctx.n, field=field)
    mapping = {key: field.coerce(value) for key, value in tensor.terms}
    return AlternatingTensor.make(ctx, tensor.degree, tensor.variance, mapping)


# -- form file format ---------------------------------------------------------


def form_to_document(t: AlternatingTensor) -> dict:
    """Serialize a form to the JSON-able document consumed by the CLI."""
    field_doc = (
        {"kind": "rational"}
        if t.ctx.field.kind == "rational"
        else {"kind": "prime", "p": t.ctx.field.p}
    )
    return {
        "n": t.ctx.n,
        "field": field_doc,
        "terms": [
            {"indices": list(key), "coeff": str(value)} for key, value in t.terms
        ],
    }


def form_from_document(doc: Mapping) -> AlternatingTensor:
    """Parse the JSON form document; indices must be strictly increasing.  Any
    malformed document raises `ValueError` (or its `ConventionError`)."""
    try:
        n = int(doc["n"])
        field_doc = doc["field"]
        kind = field_doc["kind"]
        p = int(field_doc["p"]) if kind == "prime" else 0
        coeffs = [
            (tuple(int(i) for i in term["indices"]), str(term["coeff"]))
            for term in doc.get("terms", [])
        ]
    except KeyError as exc:
        raise ValueError(f"malformed form document: missing {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed form document: {exc}") from exc
    if kind == "rational":
        field = FieldSpec.rationals()
    elif kind == "prime":
        field = FieldSpec.prime(p)
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    ctx = SpaceContext(n, field)
    for indices, _ in coeffs:
        if len(indices) != 3:
            raise ValueError(f"term {indices} does not have degree 3")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError(f"indices {indices} not strictly increasing")
    try:
        return AlternatingTensor.make(ctx, 3, "form", coeffs)
    except ZeroDivisionError as exc:
        raise ConventionError(f"a form coefficient is undefined: {exc}") from exc
