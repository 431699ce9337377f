"""Rank analysis of alternating forms: contraction ranks, the skew matrix of
linear forms of a 3-form, genericity checks, the quadratic form attached to a
4-form, and the lattice of linear spaces of bivectors cut out by a 3-form and
one or two covector directions.

The skew matrix M(P) = omega(P, ., .) is `SkewLinearMatrix`, a frozen pair
table (for each i < j the terms (k, coeff) of the (i, j) entry) that only
`build_M` derives from omega, once per form object.  Its one evaluation to
list rows is `SkewLinearMatrix.rows_at`, the rows of M(P): ints in [0, p)
over F_p, field elements over the rationals; the rank and kernel routines
take these rows as they are, and `SkewLinearMatrix.evaluate` wraps them in
a `Matrix` for what needs one (a determinant, a matrix-vector product).  Over
F_p the skew elimination `packed_skew_mod_p` reads M(P) off
`SkewLinearMatrix.packed_rows_at`: each row one int, slot b holding the
(a, b) entry, all rows from one sum over a table cached on the matrix (one
int per coordinate holding the whole coefficient matrix), wide enough that
nothing is reduced until an entry is read.  There the line nodes of
`degeneracy` take their principal sub-Pfaffians.  The one rank routine is
`point_ranks`, the rank at each point of a stream, leaving out one index of
the point's support since M(P)·P = 0 (over the rationals `matrix_rank` of
the rows of M(P)); it reads whether M(x)·x = 0 holds once per stream, and
`point_contraction_rank` is its one-point case.  Over F_p with
5 <= p <= 127 it ranks a block of up to 512 points at once on byte lanes,
one byte per point (`exact_scalar.ByteLanes`, on the lanes of
`point_lanes`): `lane_columns` cuts the block into coordinate columns,
`SkewLinearMatrix.lanes_at` evaluates M on them and
`exact_scalar.lane_skew_ranks` eliminates every lane with one pivot pair per
step.  A lane whose pivot vanishes is ranked again in a smaller block; a
point with last coordinate 0, a point that is not canonical residues, a
block of fewer than 16 points and every point over another field take the
packed path one point at a time.  Every rank query at a point goes through
that routine, except the question "rank at most 2?", which
`first_rank_at_most_two` answers for a whole stream of points from the 4x4
principal Pfaffians without building the matrix, over F_p each Pfaffian one
product of packed sums on the coerced point; callers that need the kernel
take the star, `degeneracy.directions_through`.
Random points come from `random_points`: nonzero points as lists, drawn
over F_p a block at a time, for p < 256 one `randbelow_bytes` call per
block (`_point_blocks`, the all-zero points cut out of the bytes), above it
one `randbelow_many` call.

Everything reduces to exact ranks and kernels of lists of vectors of field
elements (`exact_scalar.matrix_rank`, `exact_scalar.rank_kernel`), or of
int rows where the numerators are at hand (`row_reduce`,
`exact_scalar.rank_kernel_ints`): over F_p the residues, over the rationals
numerators over one denominator, with no Fraction per entry.  No `Matrix` is
built to rank or kernel vectors already held.  A k-form f induces linear
maps "contract by a j-vector"; their matrices are gathers of f's
numerators (`AlternatingTensor._dense_ints`), their negatives and zero, on
an index plan cached per (dim, degree, j) whose positions and signs are
the products that `contract` sums (`exterior_core.contraction_gathers`).
`contraction_matrix` gives the columns of such a map as field elements,
one per lexicographic j-index set, and `j_rank` eliminates the gathered int
rows or columns, whichever are fewer.  A `LinearSubspace` holds its basis as a tuple of vectors:
`LinearSubspace.from_kernel` takes the rows of the conditions and keeps the
kernel vectors of `rank_kernel`, and the public constructor coerces and
checks outside input (the ambient, each vector's length, independence).
Containment runs no elimination: a basis with the kernel pattern (vector j
ending in a 1 at its own free coordinate) gives the conditions of
membership, checked on ints and kept on the subspace.  The quadratic form
of a 4-form eta is carried by the symmetric zero-diagonal matrix rho with
rho[(ab),(cd)] = eta(e_a^e_b^e_c^e_d) in the lexicographic bivector basis,
the matrix of the contraction of eta by bivectors, so its int rows are that
gather; its value on a bivector L equals eta evaluated on the reduced
square of L, and the factor-two bookkeeping (L^L = 2 L^[2]) is
cross-asserted at construction, on bivectors and reduced squares the space
context draws once, except in characteristic 2, where the polar matrix
alone is used.  Genericity
of a 3-form is decided exactly for the two linear-algebra conditions
(injectivity of x -> omega^x; full contraction rank n+1) and by seeded random
search, plus exhaustive finite-field scan when the point count permits, for
the condition that every point contraction has rank above 2; that search,
exhaustive or sampled, is one scan over its stream of points, which are
canonical residues already, so no point is coerced.  Over F_p with
5 <= p <= 127 the scan takes the points as blocks of bytes, the drawn bytes
of `_point_blocks` themselves or the enumerated points packed into bytes,
and screens each block on byte lanes on the first 4x4 Pfaffian (and on the
next ones while at least 16 points are left): a point at which a screened
Pfaffian is nonzero has rank above 2 and is passed over unchecked, and the
points kept go, in order, to the packed scan of `first_rank_at_most_two`,
which tests every Pfaffian.  Over other prime fields that packed scan takes
every point.

Every bivector kernel of a 3-form (the spaces of `span_lattice`, the spans of
`congruence` and of the residual handle) is one `contraction_kernel`: the
int rows of the map L -> contract(omega, L) (`bivector_contraction` as
field elements), reduced modulo the covectors' fraction-free echelon rows
(`covector_echelon` as field elements) and handed to `rank_kernel_ints`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, fields
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, islice
from math import comb, lcm
from operator import itemgetter, mul, neg
from typing import Iterable, Iterator, Optional, Sequence, Union

import random as _random

from .exact_scalar import (
    ByteLanes,
    ConventionError,
    FieldSpec,
    Matrix,
    Scalar,
    as_ints,
    byte_lanes,
    lane_skew_ranks,
    lane_sum,
    matrix_rank,
    packed_skew_mod_p,
    randbelow_bytes,
    randbelow_many,
    rank_kernel,
    rank_kernel_ints,
    row_reduce,
    skew_slot_width,
)
from .exterior_core import (
    AlternatingTensor,
    SpaceContext,
    contraction_gathers,
    derive_seed,
    pair,
    projective_point_count,
    projective_points,
    pullback_rows,
    reduced_square,
    require_three_form,
    wedge,
)

__all__ = [
    "LinearSubspace",
    "QuadricAnalysis",
    "GenericityReport",
    "SkewLinearMatrix",
    "SpanLattice",
    "build_M",
    "point_contraction_rank",
    "point_ranks",
    "point_coords",
    "point_lanes",
    "lane_columns",
    "first_rank_at_most_two",
    "random_points",
    "bivector_contraction",
    "contraction_kernel",
    "contraction_matrix",
    "covector_echelon",
    "j_rank",
    "genericity",
    "polar_quadric",
    "quadric_of",
    "span_lattice",
]

_AMBIENT_DEGREE = {"vectors": 1, "bivectors": 2}
_new_subspace = object.__new__

EXHAUSTIVE_POINT_BUDGET = 10**6
DEFAULT_GC3_SAMPLES = 10_000
# Random points over F_p are drawn in blocks of at most this many points, one
# draw per block (`randbelow_bytes` for p < 256); the gc3 scan screens each
# drawn block on byte lanes as it is, and cuts enumerated points into blocks
# of the same size.
_POINT_BLOCK = 256


def _ambient_length(ambient: str, ctx: SpaceContext) -> int:
    """The dimension of the ambient space of ``ctx`` named by ``ambient``; an
    unknown ambient raises `ValueError`."""
    if ambient not in _AMBIENT_DEGREE:
        raise ValueError(f"unknown ambient {ambient!r}")
    return comb(ctx.dim, _AMBIENT_DEGREE[ambient])


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subspace of V (ambient "vectors") or of the bivector space
    Λ²V (ambient "bivectors"), spanned by the independent vectors of
    `basis`, each a tuple of ambient coordinates.

    The public constructor coerces every entry into the field
    (`FieldSpec.coerce`: a reduced residue over F_p, a Fraction over the
    rationals, `ConventionError` for a float or for a denominator that
    vanishes mod p) and checks the ambient, the length of every vector and,
    by one `matrix_rank`, that the vectors are independent, since outside
    input guarantees none of them; each of these failures raises
    `ValueError`.  `from_kernel` builds its result without that elimination
    (`_kernel_space`).

    Membership is read off the kernel pattern (`_pattern`): with f_j the
    free coordinate of basis vector b_j, v lies in the span exactly when
    v[c] = sum_j b_j[c]·v[f_j] at every other coordinate c.
    `contains_subspace` checks these conditions on ints
    (`_membership_rows`, one denominator per condition), kept on the
    subspace after first use.
    """

    ambient: str
    ctx: SpaceContext
    basis: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        coerce = self.ctx.field.coerce
        try:
            basis = tuple(tuple(map(coerce, vector)) for vector in self.basis)
        except ZeroDivisionError as exc:
            raise ConventionError(f"a basis entry is undefined: {exc}") from exc
        object.__setattr__(self, "basis", basis)
        length = _ambient_length(self.ambient, self.ctx)
        for vector in self.basis:
            if len(vector) != length:
                raise ValueError(
                    f"basis vector of length {len(vector)} does not match the "
                    f"ambient dimension {length}"
                )
        if matrix_rank(self.ctx.field, self.basis) != len(self.basis):
            raise ValueError("basis vectors are dependent")

    @cached_property
    def _pattern(self) -> tuple[tuple[tuple[Scalar, ...], ...], list[int]]:
        """A basis of the span with the kernel pattern, and the free
        coordinate of each of its vectors: `basis` itself where it has the
        pattern (always after `from_kernel`, which stores it), otherwise the
        kernel of the annihilator of `basis`, computed once."""
        free = _free_coordinates(self.basis)
        if free is not None:
            return self.basis, free
        field, length = self.ctx.field, self.ambient_linear_dim
        annihilator = rank_kernel(field, self.basis, length)[1]
        basis = rank_kernel(field, annihilator, length)[1]
        return basis, _free_coordinates(basis)  # type: ignore[return-value]

    @cached_property
    def _membership_rows(self) -> list[tuple[int, int, list[tuple[int, int]]]]:
        """The conditions of membership on ints: one (c, den, terms) for
        each coordinate c that is no free coordinate of `_pattern`, terms
        the pairs (f_j, num) with b_j[c] = num / den over the denominator
        the b_j[c] share (`as_ints`; over F_p the residues over 1).  A vector
        v lies in the span exactly when den·v[c] = sum num·v[f_j] for every
        condition, on v scaled to ints as well."""
        basis, free = self._pattern
        taken = set(free)
        field = self.ctx.field
        rows = []
        for c in range(self.ambient_linear_dim):
            if c in taken:
                continue
            column = [(f, vector[c]) for f, vector in zip(free, basis) if vector[c]]
            nums, den = as_ints(field, [value for _, value in column])
            rows.append((c, den, [(f, num) for (f, _), num in zip(column, nums)]))
        return rows

    @cached_property
    def _int_basis(self) -> list[list[int]]:
        """Each basis vector as ints over its own denominator (`as_ints`)."""
        return [as_ints(self.ctx.field, vector)[0] for vector in self.basis]

    @property
    def ambient_linear_dim(self) -> int:
        return _ambient_length(self.ambient, self.ctx)

    @property
    def linear_dim(self) -> int:
        return len(self.basis)

    @property
    def projective_dim(self) -> int:
        return len(self.basis) - 1

    @property
    def codim(self) -> int:
        """Codimension as a linear subspace of its ambient space."""
        return self.ambient_linear_dim - len(self.basis)

    @staticmethod
    def from_kernel(
        conditions: Sequence[Sequence[Scalar]], ambient: str, ctx: SpaceContext
    ) -> "LinearSubspace":
        """The vectors that the rows of ``conditions`` (one linear condition
        on the ambient coordinates each, as field elements) send to zero,
        spanned by the kernel vectors of `rank_kernel`.  They are independent
        by construction, so the result skips the public constructor's
        `matrix_rank`; it checks the shape and the pattern that makes them
        independent instead (`_kernel_space`).  An unknown ambient,
        or a row whose length is not the ambient dimension, raises
        `ValueError`."""
        length = _ambient_length(ambient, ctx)
        for row in conditions:
            if len(row) != length:
                raise ValueError(
                    f"condition row of length {len(row)} does not match the "
                    f"ambient dimension {length}"
                )
        return _kernel_space(ambient, ctx, rank_kernel(ctx.field, conditions, length)[1])

    @staticmethod
    def annihilator(
        ctx: SpaceContext, covectors: Sequence[AlternatingTensor]
    ) -> "LinearSubspace":
        """The vectors of ``ctx`` that pair to zero with every covector; its
        dimension is ``ctx.dim`` minus the rank of the covectors."""
        return LinearSubspace.from_kernel([c.coords() for c in covectors], "vectors", ctx)

    def basis_tensors(self) -> list[AlternatingTensor]:
        degree = _AMBIENT_DEGREE[self.ambient]
        return [self.ctx.tensor_from_coords(degree, "vector", v) for v in self.basis]

    def pullback(self, form: AlternatingTensor) -> AlternatingTensor:
        """``form`` pulled back to this space of vectors along its basis
        vectors each scaled to ints (`_int_basis`, `pullback_rows`).  That is
        the restriction of ``form`` up to a diagonal change of basis, so it
        has the same contraction ranks, and no tensor is built for the
        basis."""
        if self.ambient != "vectors":
            raise ValueError("pullback needs a space of vectors")
        return pullback_rows(form, self._int_basis)

    def contains_subspace(self, other: "LinearSubspace") -> bool:
        """Whether every basis vector of ``other`` satisfies this space's
        `_membership_rows`, checked on ints with no elimination."""
        if (self.ambient, self.ctx) != (other.ambient, other.ctx):
            raise ValueError("subspaces of different ambient spaces")
        p = self.ctx.field.p
        rows = self._membership_rows
        for v in other._int_basis:
            for c, den, terms in rows:
                total = den * v[c]
                for f, num in terms:
                    total -= num * v[f]
                if total if p is None else total % p:
                    return False
        return True


def _free_coordinates(basis: Sequence[Sequence[Scalar]]) -> Optional[list[int]]:
    """The free coordinate of each vector of a basis with the kernel pattern,
    or None without it: the last nonzero entry of each vector is a 1 at a
    coordinate where every other vector is 0.  Such vectors are independent;
    `rank_kernel` makes them so, vector j ending in the 1 at its own free
    coordinate.  Reads O(len(basis)·length) entries."""
    free = []
    for j, vector in enumerate(basis):
        last = next((i for i in reversed(range(len(vector))) if vector[i]), None)
        if (
            last is None
            or vector[last] != 1
            or any(other[last] for k, other in enumerate(basis) if k != j)
        ):
            return None
        free.append(last)
    return free


def _kernel_space(
    ambient: str, ctx: SpaceContext, basis: tuple[tuple[Scalar, ...], ...]
) -> LinearSubspace:
    """The subspace spanned by kernel vectors of `rank_kernel` or
    `rank_kernel_ints`, built without the public constructor's elimination:
    the pattern that makes them independent (`_free_coordinates`) is checked
    instead, raising `ValueError` without it, and kept as the subspace's
    `_pattern`."""
    free = _free_coordinates(basis)
    if free is None:
        raise ValueError("kernel vectors lack the echelon pattern")
    space = _new_subspace(LinearSubspace)
    space.__dict__.update(ambient=ambient, ctx=ctx, basis=basis, _pattern=(basis, free))
    return space


# -- the contraction map of a form by j-vectors ----------------------------------


def _contraction_gathers(
    f: AlternatingTensor, j: int
) -> tuple[tuple[itemgetter, ...], tuple[itemgetter, ...]]:
    """`contraction_gathers` for the form ``f``; a tensor that is not a
    form, or j outside 1 <= j < f.degree, raises `ValueError`."""
    if f.variance != "form":
        raise ValueError("contraction_matrix expects a form")
    return contraction_gathers(f.ctx.dim, f.degree, j)


def _gathered(
    f: AlternatingTensor, gathers: Sequence[itemgetter]
) -> tuple[list[list[int]], int]:
    """Fresh int lists from the gathers of `contraction_gathers` read on f's
    numerators (`_dense_ints`), and the denominator they share: over F_p a
    negated entry is the residue (-x) % p, so zero stays 0."""
    values, den = f._dense_ints
    p = f.ctx.field.p
    negated = map(neg, values) if p is None else [(-x) % p for x in values]
    signed = [*values, *negated, 0]
    return [list(get(signed)) for get in gathers], den


def _field_vectors(
    field: FieldSpec, rows: Sequence[Sequence[int]], den: int
) -> list[tuple[Scalar, ...]]:
    """Int rows over a shared denominator as field elements: the residues
    themselves over F_p, one canonical Fraction per entry over the
    rationals."""
    if field.p is not None:
        return [tuple(row) for row in rows]
    if den == 1:
        return [tuple(map(Fraction, row)) for row in rows]
    return [tuple(Fraction(x, den) for x in row) for row in rows]


def contraction_matrix(f: AlternatingTensor, j: int) -> list[tuple[Scalar, ...]]:
    """The columns of the matrix of the map (j-vectors) -> (forms of degree
    f.degree - j) given by contraction against f: the image of each basis
    j-vector, in the lexicographic order of the j-index sets, gathered from
    f's numerators (`contraction_gathers`)."""
    columns, den = _gathered(f, _contraction_gathers(f, j)[0])
    return _field_vectors(f.ctx.field, columns, den)


def j_rank(f: AlternatingTensor, j: int) -> int:
    """Rank of the contraction map on j-vectors, computed exactly: forward
    elimination of the gathered int rows or columns of its matrix, whichever
    are fewer."""
    columns, rows = _contraction_gathers(f, j)
    ints, _ = _gathered(f, rows if len(rows) < len(columns) else columns)
    return len(row_reduce(f.ctx.field, ints, len(ints[0]), back_substitute=False))


# -- the skew matrix of linear forms and its pointwise rank ---------------------

PointLike = Union[AlternatingTensor, Sequence]
LinearTerms = tuple[tuple[int, Scalar], ...]
PackedTerms = tuple[tuple[int, int], ...]  # (coordinate k, packed int T_k)


def point_coords(ctx: SpaceContext, point: PointLike) -> tuple[Scalar, ...]:
    """Coordinates of a vector of ``ctx``, or of a sequence coerced into its field.

    Over F_p a sequence of canonical residues (every value of type ``int``
    in ``[0, p)``) is taken as it is; anything else, bools included, goes
    through `FieldSpec.coerce`.  A point that is no sequence, or a value
    that the field cannot coerce (``None``, an arbitrary object), raises
    `ConventionError`.
    """
    if isinstance(point, AlternatingTensor):
        if point.ctx != ctx or point.degree != 1 or point.variance != "vector":
            raise ConventionError("point must be a vector of the same space")
        return point.coords()
    try:
        coords = tuple(point)
        p = ctx.field.p
        if p is None or not all(type(v) is int and 0 <= v < p for v in coords):
            coords = tuple(ctx.field.coerce(value) for value in coords)
    except TypeError as exc:
        raise ConventionError(f"a point is a sequence of field elements: {exc}") from exc
    if len(coords) != ctx.dim:
        raise ConventionError(f"expected {ctx.dim} coordinates, got {len(coords)}")
    return coords


@dataclass(frozen=True)
class SkewLinearMatrix:
    """Square skew matrix whose entries are linear functionals on V.

    ``pairs`` lists pairs i < j, each at most once, with the terms (k, coeff)
    of the (i, j) entry sum_k coeff * x_k; entries of pairs not listed are
    zero, the (j, i) entry is the negative of the (i, j) one and the diagonal
    vanishes.
    """

    ctx: SpaceContext
    pairs: tuple[tuple[tuple[int, int], LinearTerms], ...]

    def __post_init__(self) -> None:
        dim = self.ctx.dim
        seen = set()
        for (i, j), terms in self.pairs:
            if not 0 <= i < j < dim:
                raise ConventionError(f"entry ({i}, {j}) is not above the diagonal")
            if (i, j) in seen:
                raise ConventionError(f"entry ({i}, {j}) is listed twice")
            seen.add((i, j))
            if any(not 0 <= k < dim for k, _ in terms):
                raise ConventionError(f"entry ({i}, {j}) has a coordinate out of range")

    @property
    def size(self) -> int:
        return self.ctx.dim

    @cached_property
    def quartets(self) -> tuple[tuple[tuple[LinearTerms, LinearTerms, int], ...], ...]:
        """The 4x4 principal Pfaffians that are not identically zero.

        For each a < b < c < d in lexicographic order, the Pfaffian is
        m_ab m_cd - m_ac m_bd + m_ad m_bc; a product survives when both of
        its entries are listed in ``pairs``, and it is stored as (terms of
        the first entry, terms of the second, sign).  A quadruple with no
        surviving product is left out.
        """
        entries = dict(self.pairs)
        quartets = []
        for a, b, c, d in combinations(range(self.size), 4):
            products = tuple(
                (entries[first], entries[second], sign)
                for first, second, sign in (
                    ((a, b), (c, d), 1),
                    ((a, c), (b, d), -1),
                    ((a, d), (b, c), 1),
                )
                if first in entries and second in entries
            )
            if products:
                quartets.append(products)
        return tuple(quartets)

    @cached_property
    def point_in_kernel(self) -> bool:
        """Whether M(x)·x = 0 holds identically in x, as it does for every
        `build_M` matrix (omega(x, x, .) = 0).

        With c_ij,k the coefficient of x_k in the (i, j) entry, row i of
        M(x)·x is sum c_ij,k x_j x_k, so each of its monomials must have
        coefficient zero: c_ij,j at x_j**2 and c_ij,k + c_ik,j at x_j x_k
        for j < k.  Each monomial is summed on its own, so in characteristic
        2 c_ij,j is tested itself and not as 2c.
        """
        p = self.ctx.field.p
        dim = self.size
        monomials: dict[int, Scalar] = {}  # row*dim**2 + j*dim + k, j <= k
        get = monomials.get
        for (i, j), terms in self.pairs:
            row_i, row_j = i * dim * dim, j * dim * dim
            for k, c in terms:
                key = row_i + (j * dim + k if j <= k else k * dim + j)
                monomials[key] = get(key, 0) + c
                key = row_j + (i * dim + k if i <= k else k * dim + i)
                monomials[key] = get(key, 0) - c
        return not any(v % p if p is not None else v for v in monomials.values())

    @cached_property
    def _reduced_pairs(self) -> tuple[tuple[tuple[int, int], PackedTerms], ...]:
        """Over F_p, ``pairs`` with each entry's terms merged per coordinate
        and reduced to residues in [1, p), the zero ones left out."""
        p: int = self.ctx.field.p  # type: ignore[assignment]
        reduced = []
        for key, terms in self.pairs:
            merged: dict[int, int] = {}
            for k, c in terms:
                merged[k] = merged.get(k, 0) + c
            reduced.append((key, tuple((k, c % p) for k, c in merged.items() if c % p)))
        return tuple(reduced)

    @cached_property
    def _packed(self) -> tuple[int, tuple[int, ...], int, PackedTerms]:
        """Over F_p, the matrix packed for `packed_rows_at`: a slot width w,
        the bit offset a*dim*w of each row a, the mask of one row, and the
        pairs (k, T_k) of each coordinate k that occurs and one int T_k that
        holds every row of the coefficient matrix of x_k, row a at its
        offset and its slot b (bits b*w up to (b+1)*w above that) holding
        the coefficient of x_k in the (a, b) entry as a residue in [0, p).

        The (i, j) entry's terms are merged per k and reduced; its (j, i)
        entry is stored as p minus the residue.  Every slot of
        sum_k P_k * T_k is then at most dim*(p - 1)**2, below 2**w for w
        `skew_slot_width` of that bound, so no carry crosses a slot or a row.
        """
        p: int = self.ctx.field.p  # type: ignore[assignment]
        dim = self.size
        width = skew_slot_width(p, dim, dim * (p - 1) ** 2)
        table = [0] * dim
        for (i, j), terms in self._reduced_pairs:
            for k, c in terms:
                upper = c << (i * dim + j) * width
                table[k] += upper + ((p - c) << (j * dim + i) * width)
        row_width = dim * width
        offsets = tuple(range(0, dim * row_width, row_width))
        pairs = tuple((k, t) for k, t in enumerate(table) if t)
        return width, offsets, (1 << row_width) - 1, pairs

    def packed_rows_at(self, coords: Sequence[int]) -> tuple[list[int], int]:
        """Over F_p, the rows of the matrix at an int point packed for
        `packed_skew_mod_p`, and their slot width: one sum sum_k P_k * T_k
        over `_packed`, cut into its ``dim`` rows by shift and mask.  A point
        that is not ``dim`` canonical residues (values of type ``int`` in
        [0, p)) goes through `point_coords`: the slot bound holds only for
        residues."""
        if not _canonical(coords, self.size, self.ctx.field.p):  # type: ignore[arg-type]
            coords = point_coords(self.ctx, coords)
        return self._packed_rows(coords)

    def _packed_rows(self, coords: Sequence[int]) -> tuple[list[int], int]:
        """`packed_rows_at` of a point of canonical residues, unchecked."""
        width, offsets, mask, table = self._packed
        total = 0
        for k, packed in table:
            total += coords[k] * packed
        return [total >> offset & mask for offset in offsets], width

    def lanes_at(
        self, lanes: ByteLanes, columns: Sequence[bytes], size: int
    ) -> dict[tuple[int, int], bytes]:
        """Over F_p, the entries (i, j), i < j < ``size``, at a block of points
        on byte lanes (see `ByteLanes`): ``columns[k]`` holds coordinate k of
        every point, one canonical residue per lane, and each entry
        sum_k c_k x_k of `_reduced_pairs` comes back as one lane vector.
        Each scaled column c·x_k is one `translate`, made once per block for
        each (k, c) that occurs; columns are summed as ints and reduced
        whenever one more residue could overflow a byte.  Entries that vanish
        identically are left out."""
        count = len(columns[0])
        scaled: dict[tuple[int, int], int] = {}
        return {
            key: lane_sum(lanes, columns, count, terms, scaled)
            for key, terms in self._reduced_pairs
            if key[1] < size and terms
        }

    @cached_property
    def _lane_quartets(self) -> tuple[tuple[tuple[PackedTerms, PackedTerms, int], ...], ...]:
        """Over F_p, `quartets` for the screen on byte lanes
        (`_lane_pfaffian_zeros`): each product's two entries merged and
        reduced as in `_reduced_pairs`, a product with an entry that
        vanishes mod p left out, and a quartet with no product left dropped,
        since its Pfaffian vanishes identically."""
        reduced = {
            terms: merged for (_, terms), (_, merged) in zip(self.pairs, self._reduced_pairs)
        }
        screened = []
        for quartet in self.quartets:
            products = tuple(
                (reduced[first], reduced[second], sign)
                for first, second, sign in quartet
                if reduced[first] and reduced[second]
            )
            if products:
                screened.append(products)
        return tuple(screened)

    @cached_property
    def _packed_quartets(self) -> tuple[int, list[tuple[PackedTerms, int]]]:
        """Over F_p, the quartets packed for `first_rank_at_most_two`'s packed
        scan, which also checks the points that the byte-lane screen of
        `genericity` keeps: a slot width w and a list that holds the first
        quartet of `quartets` packed by `_pack_quartet`; the scan appends the
        others, in order, as points reach them.  Each slot of the scan's
        product is a sum of at most three products of two slots of at most
        dim*(p - 1)**2, so w is the bit length of 3*(dim*(p - 1)**2)**2."""
        p: int = self.ctx.field.p  # type: ignore[assignment]
        dim = self.size
        width = (3 * (dim * (p - 1) ** 2) ** 2).bit_length()
        return width, [_pack_quartet(q, p, width) for q in self.quartets[:1]]

    def evaluate(self, point: PointLike) -> Matrix:
        """Scalar skew matrix obtained by evaluating every entry at a point:
        the point is coerced (`point_coords`) and `rows_at` gives the rows."""
        rows = self.rows_at(point_coords(self.ctx, point))
        flat = tuple(value for row in rows for value in row)
        return Matrix(self.ctx.field, self.size, self.size, flat)

    def rows_at(self, coords: Sequence[Scalar]) -> list[list[Scalar]]:
        """The rows of the matrix at a point whose coordinates are already
        field elements (see `point_coords`).

        Over F_p the rows are ints in [0, p): each entry is an int sum
        reduced once, and the entry below the diagonal is p minus the one
        above.  Over the rationals each entry is summed with field
        operations.
        """
        fld = self.ctx.field
        dim = self.size
        if fld.kind != "prime":
            rows = [[fld.zero()] * dim for _ in range(dim)]
            for (i, j), terms in self.pairs:
                acc = fld.zero()
                for k, coeff in terms:
                    acc = fld.add(acc, fld.mul(coeff, coords[k]))
                rows[i][j] = acc
                rows[j][i] = fld.neg(acc)
            return rows
        p: int = fld.p  # type: ignore[assignment]
        grid = [[0] * dim for _ in range(dim)]
        for (i, j), terms in self.pairs:
            acc = 0
            for k, c in terms:
                acc += c * coords[k]
            acc %= p
            if acc:
                grid[i][j] = acc
                grid[j][i] = p - acc
        return grid


def build_M(omega: AlternatingTensor) -> SkewLinearMatrix:
    """The skew matrix of linear forms (i, j) -> <omega, e_i ^ e_j ^ P>.

    Each term w * x_a^x_b^x_c of omega (a < b < c) adds the terms (a, w),
    (b, -w) and (c, w) to the entries (b, c), (a, c) and (a, b).  The
    matrix is built once per tensor object and kept on it, as its
    `_numerator_terms` are, so the caches of the matrix itself (`_packed`,
    `point_in_kernel`, ...) serve every later call on the same form.
    """
    require_three_form(omega)
    known = vars(omega).get("_skew_matrix")
    if known is not None:
        return known
    fld = omega.ctx.field
    pairs: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    for key, coeff in omega.terms:
        for pos, k in enumerate(key):
            rest = key[:pos] + key[pos + 1 :]
            value = coeff if pos % 2 == 0 else fld.neg(coeff)
            pairs.setdefault(rest, []).append((k, value))
    M = SkewLinearMatrix(
        omega.ctx, tuple((key, tuple(terms)) for key, terms in pairs.items())
    )
    vars(omega)["_skew_matrix"] = M
    return M


def point_contraction_rank(M: SkewLinearMatrix, coords) -> int:
    """Rank of the skew matrix evaluated at one point, the rank of the 2-form
    obtained by contracting the 3-form there: `point_ranks` of that one
    point."""
    return next(point_ranks(M, (coords,)))


def point_ranks(M: SkewLinearMatrix, points: Iterable[PointLike]) -> Iterator[int]:
    """The rank of the skew matrix at each of ``points``, in order: the
    package's one rank routine at a point.

    When M(P)·P = 0 holds identically (`SkewLinearMatrix.point_in_kernel`,
    read once for the stream), row and column k of M(P) are combinations of
    the others for any k with P_k != 0, so the elimination leaves out the
    last such k: in the usual case the last index itself.  The zero point
    has rank 0.  Over the rationals the rank is `matrix_rank` of the rows of
    M at the coerced point (`rows_at`).

    Over F_p with ``_LANE_MIN_PRIME`` = 5 <= p and 2·(p − 1) <= 255, so
    p <= 127 (`exact_scalar.byte_lanes`), and M of at most 255 rows, the
    points are taken a block of at most ``LANE_BLOCK`` = 512 at a time,
    so a caller that stops early has pulled at most one block past its
    last rank, and the block is ranked at once on byte lanes
    (`_block_ranks`).  Every other point takes the packed path one at a
    time, pulled as it is ranked: `packed_skew_mod_p` on
    `M.packed_rows_at(coords)`, the point coerced by `point_coords` unless
    it is a list or tuple of canonical residues already.  Both paths give
    the exact rank.
    """
    ctx = M.ctx
    p = ctx.field.p
    if p is None:
        for point in points:
            yield matrix_rank(ctx.field, M.rows_at(point_coords(ctx, point)))
        return
    in_kernel = M.point_in_kernel
    lanes = point_lanes(ctx.field, M.size)
    if lanes is None:
        for point in points:
            yield _packed_rank(M, in_kernel, point)
        return
    stream = iter(points)
    while block := list(islice(stream, LANE_BLOCK)):
        yield from _block_ranks(M, lanes, in_kernel, block)


# Byte lanes rank blocks of at most LANE_BLOCK points, which bounds the
# memory a block holds whatever the stream's length.  Timed on 1,024 random
# points of `n7-ozeki` and a random form with n = 8 or 9 (Python 3.11, 2-vCPU
# VM): the lanes took as long as the packed path at p = 2 and 3, where many
# lanes fall out, 2-2.6 times less at p = 5 and 6-13 times less at p = 101;
# a block of fewer than 16 points was faster on the packed path at p = 101.
# Over 2,000 points of each of the 15 forms of the benchmark's analyze
# workload, blocks of 512 points took 0.041-0.048 s against 0.038-0.040 s
# for blocks of 1,024, with a traced memory peak of 0.29 MB against 0.51 MB.
# The gc3 screen goes on to the next 4x4 Pfaffian while at least
# LANE_MIN_BLOCK points are kept: over 10,000 draws of each of the analyze
# workload's 15 forms at p = 101 its scan took 48-53 ms with a bound of 8 to
# 64 and 55-69 ms with 2 (best of 25 runs, two runs per bound).
LANE_BLOCK = 512
_LANE_MIN_PRIME = 5
LANE_MIN_BLOCK = 16


def point_lanes(field: FieldSpec, size: int) -> Optional[ByteLanes]:
    """The byte lanes on which the point streams (`point_ranks`,
    `residual.line_system_kernel_dims`) rank a block of points at once:
    `exact_scalar.byte_lanes` of F_p for ``_LANE_MIN_PRIME`` = 5 <= p <= 127
    when the ranks, at most ``size``, fit a byte; None for every other field
    and size, where every point is ranked on its own."""
    p = field.p
    if p is None or p < _LANE_MIN_PRIME or size > 255:
        return None
    return byte_lanes(p)


def lane_columns(block: Sequence[PointLike], dim: int, p: int) -> tuple[list[bytes], set[int]]:
    """A block of points on byte lanes, one lane per point: the ``dim``
    coordinate columns, column k holding coordinate k of every point as one
    byte, and the positions of the points that are not `_canonical`, at
    which a zero point stands in.

    When every point is ``dim`` values that `bytes` reads below p, the
    block goes to the lanes as it is: such a value is an int residue or an
    int-like value (a bool) that coerces to the same int, so no position is
    returned.  A caller takes the points at the returned positions one at a
    time, through `point_coords`."""
    try:
        flat = bytes(chain.from_iterable(block)) if set(map(len, block)) == {dim} else b""
    except (TypeError, ValueError):
        flat = b""
    if not flat or flat.translate(None, bytes(range(p))):
        single = {t for t, point in enumerate(block) if not _canonical(point, dim, p)}
        zero = (0,) * dim
        stand_ins = (zero if t in single else point for t, point in enumerate(block))
        flat = bytes(chain.from_iterable(stand_ins))
    else:
        single = set()
    return [flat[k::dim] for k in range(dim)], single


def _canonical(coords: Sequence, dim: int, p: int) -> bool:
    """Whether ``coords`` is a list or tuple of ``dim`` canonical residues
    mod p, values of type ``int`` in [0, p), which `point_coords` takes as
    they are."""
    return (
        isinstance(coords, (list, tuple))
        and len(coords) == dim
        and all(type(v) is int and 0 <= v < p for v in coords)
    )


def _packed_rank(M: SkewLinearMatrix, in_kernel: bool, point: PointLike) -> int:
    """`point_ranks` of one point over F_p on the packed path."""
    p: int = M.ctx.field.p  # type: ignore[assignment]
    if not _canonical(point, M.size, p):
        point = point_coords(M.ctx, point)
    rows, width = M._packed_rows(point)
    if not in_kernel:
        return packed_skew_mod_p(p, rows, width)[0]
    size = len(rows)
    last = size - 1
    while last >= 0 and not point[last]:
        last -= 1
    if last < 0:
        return 0
    indices = range(last) if last == size - 1 else [*range(last), *range(last + 1, size)]
    return packed_skew_mod_p(p, rows, width, indices)[0]


def _block_ranks(
    M: SkewLinearMatrix, lanes: ByteLanes, in_kernel: bool, block: list[PointLike]
) -> list[int]:
    """`point_ranks` of a block of points over F_p with 2·(p − 1) <= 255.

    The points are ranked on byte lanes: their coordinate columns are cut
    out of one `bytes` of every coordinate (`lane_columns`), M is evaluated
    on them (`SkewLinearMatrix.lanes_at`) and `lane_skew_ranks` eliminates
    every lane at once, leaving out the last index when M(P)·P = 0.  Each
    point that is not `_canonical` takes the packed path, and a zero point
    stands in for it on the lanes.  The points whose lanes fall out of the
    elimination are ranked again as a block of their own, smaller than this
    one, and the points with last coordinate 0 when M(P)·P = 0 take the
    packed path (`_packed_rank`), as does every point of a block of fewer
    than ``LANE_MIN_BLOCK`` points.
    """
    count = len(block)
    if count < LANE_MIN_BLOCK:
        return [_packed_rank(M, in_kernel, point) for point in block]
    dim = M.size
    columns, packed = lane_columns(block, dim, lanes.p)
    size = dim
    if in_kernel:
        size = dim - 1
        packed.update(_positions(columns[-1], 0))
    ranks, fallen = lane_skew_ranks(lanes, count, M.lanes_at(lanes, columns, size), range(size))
    result = list(ranks)
    redo = [t for t in _positions(fallen, 255) if t not in packed]
    if redo:
        for t, rank in zip(redo, _block_ranks(M, lanes, in_kernel, [block[t] for t in redo])):
            result[t] = rank
    for t in packed:
        result[t] = _packed_rank(M, in_kernel, block[t])
    return result


def _positions(data: bytes, value: int) -> Iterator[int]:
    """The positions of the bytes of ``data`` equal to ``value``, in order."""
    t = -1
    while True:
        t = data.find(value, t + 1)
        if t < 0:
            return
        yield t


def _lane_pfaffian_zeros(
    lanes: ByteLanes,
    columns: Sequence[bytes],
    count: int,
    quartet: tuple[tuple[PackedTerms, PackedTerms, int], ...],
    scaled: dict[tuple[int, int], int],
) -> list[int]:
    """The lanes, in order, at which the Pfaffian sum_s sign_s u_s v_s of
    one quartet of `SkewLinearMatrix._lane_quartets` vanishes mod p, on the
    coordinate columns ``columns`` of ``count`` lanes: each u_s and v_s is
    a `lane_sum`, each product the antilog (negated when sign_s is -1) of
    the sum of their logarithms, masked to the lanes where both are
    nonzero, and the products are summed as ints, reduced whenever one
    more could overflow a byte."""
    frombytes = int.from_bytes
    log, nonzero, reduce_p = lanes.log, lanes.nonzero, lanes.reduce
    per_reduction = 255 // (lanes.p - 1)
    acc = held = 0
    for first, second, sign in quartet:
        u = lane_sum(lanes, columns, count, first, scaled)
        v = lane_sum(lanes, columns, count, second, scaled)
        logs = frombytes(u.translate(log), "little") + frombytes(v.translate(log), "little")
        product = logs.to_bytes(count, "little").translate(lanes.exp if sign > 0 else lanes.neg_exp)
        if held == per_reduction:
            acc = frombytes(acc.to_bytes(count, "little").translate(reduce_p), "little")
            held = 1
        acc += (
            frombytes(product, "little")
            & frombytes(u.translate(nonzero), "little")
            & frombytes(v.translate(nonzero), "little")
        )
        held += 1
    return list(_positions(acc.to_bytes(count, "little").translate(reduce_p), 0))


def _pack_quartet(
    quartet: tuple[tuple[LinearTerms, LinearTerms, int], ...], p: int, width: int
) -> tuple[PackedTerms, int]:
    """One quartet's products (u_s, v_s, sign_s) packed over F_p: the pairs
    (k, T_k) of each coordinate k that occurs and one int, and a shift.
    The low half of T_k (bits below 3*width) holds the coefficient of x_k
    in sign_s * u_s mod p in slot s, its high half that in v_s in slot
    (last - s), last being the number of products minus one; the shift is
    last*width.  At a point of residues the product of the two halves of
    sum_k P_k * T_k holds sum_s sign_s u_s v_s, the Pfaffian up to
    multiples of p, in slot ``last``, at that shift."""
    last = len(quartet) - 1
    table: dict[int, int] = {}
    for s, (first, second, sign) in enumerate(quartet):
        for terms, factor, slot in ((first, sign, s), (second, 1, 3 + last - s)):
            merged: dict[int, int] = {}
            for k, c in terms:
                merged[k] = merged.get(k, 0) + c
            for k, c in merged.items():
                table[k] = table.get(k, 0) + (c * factor % p << slot * width)
    return tuple((k, t) for k, t in table.items() if t), last * width


def first_rank_at_most_two(
    M: SkewLinearMatrix, points: Iterable[PointLike]
) -> Optional[tuple[int, PointLike]]:
    """The first of ``points`` at which the skew matrix has rank at most 2, as
    its index and the point as given, or None when there is none.

    A skew matrix has rank at most 2 exactly when every 4x4 principal
    Pfaffian vanishes, so each point is tested on the Pfaffians of
    `M.quartets` and passed over at the first nonzero one; the quadruples
    left out of that table vanish identically.  Each point is coerced
    (`point_coords`).  Over F_p the coerced points go through the packed
    scan `_first_residue_point_of_rank_at_most_two`, one point at a time.
    `genericity` calls that scan directly on its points, already canonical
    residues, over F_p for p <= 3 and p >= 131; for 5 <= p <= 127 it screens
    them a block at a time on byte lanes first
    (`_first_lane_point_of_rank_at_most_two`) and hands the packed scan only
    the points at which the screened Pfaffians vanish.  Over the rationals
    each Pfaffian is summed term by term and compared with zero exactly.
    """
    ctx = M.ctx
    if ctx.field.p is not None:
        given: list[PointLike] = [None]

        def coerced() -> Iterator[tuple[Scalar, ...]]:
            for point in points:
                given[0] = point
                yield point_coords(ctx, point)

        found = _first_residue_point_of_rank_at_most_two(M, coerced())
        return None if found is None else (found[0], given[0])
    for index, point in enumerate(points):
        coords = point_coords(ctx, point)
        for quartet in M.quartets:
            acc = 0
            for first, second, sign in quartet:
                u = v = 0
                for k, c in first:
                    u += c * coords[k]
                for k, c in second:
                    v += c * coords[k]
                acc += sign * u * v
            if acc:
                break
        else:
            return index, point
    return None


def _first_residue_point_of_rank_at_most_two(
    M: SkewLinearMatrix, points: Iterable[Sequence[int]]
) -> Optional[tuple[int, Sequence[int]]]:
    """`first_rank_at_most_two` over F_p for points whose coordinates are
    already canonical residues, unchecked: each Pfaffian is one product of
    two packed sums (`_pack_quartet`), read off its slot and reduced mod p;
    a quartet is packed when the first point reaches it.  A coordinate
    outside [0, p) breaks the slot bound, so other points must go through
    `first_rank_at_most_two`."""
    p: int = M.ctx.field.p  # type: ignore[assignment]
    quartets = M.quartets
    width, packed = M._packed_quartets
    mask = (1 << width) - 1
    half = 3 * width
    low_mask = (1 << half) - 1
    for index, coords in enumerate(points):
        # the loop over the list also visits a quartet appended during it
        for entry in packed:
            table, shift = entry
            total = 0
            for k, t in table:
                total += coords[k] * t
            if ((total & low_mask) * (total >> half) >> shift & mask) % p:
                break
            if entry is packed[-1] and len(packed) < len(quartets):
                packed.append(_pack_quartet(quartets[len(packed)], p, width))
        else:
            return index, coords
    return None


def _first_lane_point_of_rank_at_most_two(
    M: SkewLinearMatrix, lanes: ByteLanes, blocks: Iterable[bytes]
) -> Optional[tuple[int, tuple[int, ...]]]:
    """`first_rank_at_most_two` over F_p with 2·(p − 1) <= 255 for a stream
    of points given as blocks of canonical residues, one byte per
    coordinate and ``dim`` bytes per point, unchecked: the index counts the
    points of every block, and the point comes back as a tuple.

    Each block is screened on byte lanes (see `ByteLanes`), one lane per
    point, on the columns ``flat[k::dim]``: `_lane_pfaffian_zeros` keeps the
    lanes at which the first quartet of `M._lane_quartets` vanishes, and
    while at least ``LANE_MIN_BLOCK`` lanes are kept the next quartet
    screens them, on columns cut down to the kept lanes.  A point whose lane
    falls out of the screen has a nonzero 4x4 Pfaffian mod p, so rank above
    2, and is passed over unchecked.  The kept points go, in order, to the
    packed scan `_first_residue_point_of_rank_at_most_two`, which tests
    every quartet, so the first point it finds is the stream's first.
    """
    dim = M.size
    quartets = M._lane_quartets
    start = 0
    for flat in blocks:
        count = len(flat) // dim
        kept: Sequence[int] = range(count)
        columns = [flat[k::dim] for k in range(dim)]
        scaled: dict[tuple[int, int], int] = {}
        for quartet in quartets:
            if len(kept) < LANE_MIN_BLOCK:
                break
            zeros = _lane_pfaffian_zeros(lanes, columns, len(kept), quartet, scaled)
            if len(zeros) < len(kept):
                kept = [kept[t] for t in zeros]
                columns = [bytes(map(column.__getitem__, zeros)) for column in columns]
                scaled = {}
        found = _first_residue_point_of_rank_at_most_two(
            M, [flat[t * dim : (t + 1) * dim] for t in kept]
        )
        if found is not None:
            return start + kept[found[0]], tuple(found[1])
        start += count
    return None


def _flat_blocks(points: Iterable[Sequence[int]], dim: int) -> Iterator[bytes]:
    """``points`` of canonical residues mod p < 256 as blocks of at most
    ``_POINT_BLOCK`` points, each block one `bytes` of their coordinates."""
    stream = iter(points)
    while block := bytes(chain.from_iterable(islice(stream, _POINT_BLOCK))):
        yield block


def _point_blocks(p: int, dim: int, rng: _random.Random, count: int) -> Iterator[bytes]:
    """The draws of `random_points` over F_p for p < 256 as blocks of
    bytes, ``dim`` bytes per point: each block one `randbelow_bytes` call of
    at most ``_POINT_BLOCK`` points, with the all-zero points cut out, drawn
    as the blocks are taken."""
    zero = bytes(dim)
    while count > 0:
        flat = randbelow_bytes(rng, p, min(count, _POINT_BLOCK) * dim)
        if zero in flat:
            # the run of zeros found may straddle two points: only whole
            # zero points are cut out
            points = (flat[t : t + dim] for t in range(0, len(flat), dim))
            flat = b"".join(point for point in points if point != zero)
        count -= len(flat) // dim
        yield flat


def random_points(
    field: FieldSpec, dim: int, rng: _random.Random, count: int
) -> Iterator[list[Scalar]]:
    """``count`` nonzero random points: uniform over F_p, entries in -9..9
    over Q.

    The points and the generator state once all are taken are those of
    ``count`` draws of one point each, where a draw takes ``dim`` values and
    is redrawn while they are all zero.  Over F_p each block of at most
    ``_POINT_BLOCK`` points is one draw cut into lists of ``dim`` values:
    for p < 256 the bytes of `_point_blocks` (one `randbelow_bytes` call),
    which `genericity` screens as they are, and above that one
    `randbelow_many` call.  The all-zero points are dropped and the next
    block makes up for them.  Blocks are drawn as the points are taken, so a caller that
    stops early leaves the generator at most one block past the last point
    it took.  A point needs at least one coordinate: ``dim`` below 1 raises
    `ConventionError`, since no draw could ever be nonzero.
    """
    if dim < 1:
        raise ConventionError(f"a random point needs at least one coordinate, not {dim}")
    if field.kind != "prime":
        while count > 0:
            coords = [field.coerce(rng.randint(-9, 9)) for _ in range(dim)]
            if any(coords):
                count -= 1
                yield coords
        return
    p: int = field.p  # type: ignore[assignment]
    if p < 256:
        for flat in _point_blocks(p, dim, rng, count):
            yield from map(list, zip(*[iter(flat)] * dim))
        return
    while count > 0:
        values = randbelow_many(rng, p, min(count, _POINT_BLOCK) * dim)
        nonzero = list(map(list, filter(any, zip(*[iter(values)] * dim))))
        count -= len(nonzero)
        yield from nonzero


# -- genericity -----------------------------------------------------------------


@dataclass(frozen=True)
class GenericityReport:
    """Exact verdicts for the two linear conditions and a search verdict for
    the pointwise rank condition (no nonzero point contraction of rank <= 2)."""

    n: int
    rank_omega: int
    gc1: bool
    gc3_witness: tuple | None
    gc3_samples: int
    gc3_exhaustive: bool
    notes: tuple[str, ...] = dataclass_field(default_factory=tuple)

    @property
    def gc2(self) -> bool:
        return self.rank_omega == self.n + 1

    @property
    def gc3_status(self) -> str:
        """``"falsified"`` when a witness was found, else ``"unfalsified"``."""
        return "unfalsified" if self.gc3_witness is None else "falsified"


def genericity(
    omega: AlternatingTensor,
    samples: int = DEFAULT_GC3_SAMPLES,
    seed: int = 0,
) -> GenericityReport:
    """Genericity report for a 3-form.

    gc1 (injectivity of x -> omega^x) and gc2 (contraction rank n+1) are
    exact.  gc3 is decided by seeded random search over at least `samples`
    points; over a prime field whose projective point count fits the budget,
    an exhaustive scan replaces sampling and the verdict is a certificate for
    that field.  Over F_p with 5 <= p <= 127 either stream is screened a
    block at a time on byte lanes (`_first_lane_point_of_rank_at_most_two`).
    """
    require_three_form(omega)
    ctx = omega.ctx
    fld = ctx.field
    dim = ctx.dim
    notes: list[str] = []

    rank_omega = j_rank(omega, 1)

    wedges = [wedge(omega, ctx.basis_covector(i)).coords() for i in range(dim)]
    gc1 = matrix_rank(fld, wedges) == dim

    M = build_M(omega)
    p = fld.p
    can_enumerate = p is not None and projective_point_count(p, dim) <= EXHAUSTIVE_POINT_BUDGET
    if can_enumerate:
        total = projective_point_count(p, dim)  # type: ignore[arg-type]
    else:
        total = max(samples, 0)
        rng = _random.Random(derive_seed("gc3", ctx.n, fld, seed))
    lanes = byte_lanes(p) if p is not None and p >= _LANE_MIN_PRIME else None
    if lanes is not None:
        if can_enumerate:
            blocks = _flat_blocks(projective_points(fld, dim), dim)
        else:
            blocks = _point_blocks(p, dim, rng, total)  # type: ignore[arg-type]
        found = _first_lane_point_of_rank_at_most_two(M, lanes, blocks)
    elif p is not None:
        if can_enumerate:
            points = projective_points(fld, dim)
        else:
            points = random_points(fld, dim, rng, total)
        found = _first_residue_point_of_rank_at_most_two(M, points)
    else:
        # nonzero points with entries in -10..10, as tuples of ints
        def draw() -> tuple[int, ...]:
            return tuple(rng.randint(-10, 10) for _ in range(dim))

        found = first_rank_at_most_two(M, islice(filter(any, iter(draw, None)), total))
    witness = None if found is None else tuple(found[1])
    examined = total if found is None else found[0] + 1
    scanned_exhaustively = can_enumerate and found is None
    if not can_enumerate:
        notes.append(f"randomized search over {examined} sampled points")
    elif scanned_exhaustively:
        notes.append(
            f"exhaustive scan of all {examined} points of P^{ctx.n}(F_{fld.p})"
        )
    else:
        notes.append("witness found during exhaustive scan")

    if witness is not None:
        if point_contraction_rank(M, witness) > 2:
            raise RuntimeError("internal error: witness fails its defining property")

    return GenericityReport(
        n=ctx.n,
        rank_omega=rank_omega,
        gc1=gc1,
        gc3_witness=witness,
        gc3_samples=examined,
        gc3_exhaustive=scanned_exhaustively,
        notes=tuple(notes),
    )


# -- the quadric of a 4-form ------------------------------------------------------


@dataclass(frozen=True)
class QuadricAnalysis:
    """The quadratic form L -> eta(L^[2]) of a 4-form eta, carried by the
    symmetric zero-diagonal polar matrix rho in the lexicographic bivector
    basis.  rho[(ab), (cd)] = eta(e_a^e_b^e_c^e_d) is the matrix of the
    contraction of eta by bivectors, so its int rows are one gather of
    eta's numerators (`contraction_gathers`, cached per dimension), made on
    first use of `rank` or `polar_pairing`; the exact rank is computed on
    first use from one forward elimination of a copy of those rows, and
    rho itself, as a `Matrix` of field elements, only when read."""

    eta: AlternatingTensor

    @cached_property
    def rho(self) -> Matrix:
        rows, den = self._int_rows
        size = len(rows)
        entries = _field_vectors(self.eta.ctx.field, rows, den)
        return Matrix(self.eta.ctx.field, size, size, tuple(v for row in entries for v in row))

    @cached_property
    def rank(self) -> int:
        rows = [row[:] for row in self._int_rows[0]]
        return len(row_reduce(self.eta.ctx.field, rows, len(rows), back_substitute=False))

    def value(self, L: AlternatingTensor) -> Scalar:
        """q(L) = eta evaluated on the reduced square of L."""
        return pair(self.eta, reduced_square(L))

    @cached_property
    def _int_rows(self) -> tuple[list[list[int]], int]:
        """The rows of rho as ints over the denominator they share: the
        columns of `contraction_matrix(eta, 2)` gathered from eta's
        numerators (`_dense_ints`)."""
        return _gathered(self.eta, _contraction_gathers(self.eta, 2)[0])

    def polar_pairing(self, a: AlternatingTensor, b: AlternatingTensor) -> Scalar:
        """The symmetric bilinear companion a^T rho b = q(a+b) - q(a) - q(b),
        as one int dot product on numerators: reduced mod p over F_p, one
        Fraction over the rationals.  The operands' numerators are their
        cached `_dense_ints`, read once when ``a is b``."""
        fld = self.eta.ctx.field
        rows, den = self._int_rows
        a_ints, a_den = a._dense_ints
        b_ints, b_den = (a_ints, a_den) if a is b else b._dense_ints
        total = sum(
            x * sum(map(mul, row, b_ints)) for x, row in zip(a_ints, rows) if x
        )
        return Fraction(total, den * a_den * b_den) if fld.p is None else total % fld.p


def polar_quadric(eta: AlternatingTensor) -> QuadricAnalysis:
    """The quadratic form of a 4-form, not checked; `quadric_of` is the
    checked builder.  Its polar rows are gathered from eta's numerators on
    first use (`QuadricAnalysis._int_rows`)."""
    if eta.variance != "form" or eta.degree != 4:
        raise ValueError("the quadric of a form needs a 4-form")
    return QuadricAnalysis(eta)


def quadric_of(eta: AlternatingTensor) -> QuadricAnalysis:
    """Polar matrix and rank of the quadratic form of a 4-form
    (`polar_quadric`); on every call cross-asserts q(L) = eta(L^[2]) =
    (1/2) L^T rho L on the context's three seeded bivectors and their
    reduced squares (`SpaceContext.quadric_check_pairs`), except in
    characteristic 2."""
    analysis = polar_quadric(eta)
    ctx = eta.ctx
    fld = ctx.field
    if fld.char != 2:
        half = fld.inv(fld.coerce(2))
        for L, square in ctx.quadric_check_pairs:
            if pair(eta, square) != fld.mul(half, analysis.polar_pairing(L, L)):
                raise RuntimeError(
                    "polar matrix disagrees with reduced-square evaluation"
                )
    return analysis


# -- the lattice of bivector subspaces -----------------------------------------------


@dataclass(frozen=True)
class SpanLattice:
    """The five `contraction_kernel` spaces of bivectors of (omega, x, y):

    full          bivectors L with contract(omega, L) = 0
    modulo_x      contract(omega, L) ^ x = 0
    modulo_xy     contract(omega, L) ^ x ^ y = 0
    split_at_x    x(L) = 0 and contract(omega, L) ^ x = 0
    pencil_at_xy  (x^y)(L) = 0 and contract(omega, L) ^ x ^ y = 0
    """

    full: LinearSubspace
    modulo_x: LinearSubspace
    modulo_xy: LinearSubspace
    split_at_x: LinearSubspace
    pencil_at_xy: LinearSubspace

    def as_dict(self) -> dict[str, LinearSubspace]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def codimensions(self) -> dict[str, int]:
        return {name: space.codim for name, space in self.as_dict().items()}


def bivector_contraction(omega: AlternatingTensor) -> list[list[Scalar]]:
    """The rows of the map L -> contract(omega, L), whose columns
    `contraction_matrix(omega, 2)` lists: entry (k, ij) is the coefficient of
    x_k in the (i, j) entry of `build_M`, gathered from omega's numerators
    (`contraction_gathers`)."""
    require_three_form(omega)
    rows, den = _gathered(omega, _contraction_gathers(omega, 2)[1])
    return [list(row) for row in _field_vectors(omega.ctx.field, rows, den)]


def _covector_rows(
    ctx: SpaceContext, covectors: Sequence[AlternatingTensor]
) -> tuple[list[list[int]], list[int]]:
    """The covectors' echelon rows on ints and their pivots, from one
    `row_reduce` of their numerators: over F_p the reduced rows (pivot 1),
    over the rationals fraction-free rows, row r a multiple of reduced row r
    by its pivot entry.  A covector that is not a 1-form of ``ctx`` raises
    `ConventionError`."""
    for g in covectors:
        if g.ctx != ctx:
            raise ConventionError("covector lives on a different space")
        if g.variance != "form" or g.degree != 1:
            raise ConventionError("covectors must be 1-forms")
    rows = [list(g._dense_ints[0]) for g in covectors]
    pivots = row_reduce(ctx.field, rows, ctx.dim)
    return rows[: len(pivots)], pivots


def covector_echelon(
    ctx: SpaceContext, covectors: Sequence[AlternatingTensor]
) -> tuple[list[list[Scalar]], list[int], list[int]]:
    """The covectors' reduced echelon rows r as field elements (pivot 1), their
    pivots and the other indices: g is in their span exactly when
    g[i] - sum_r g[pivot_r] * r[i] = 0 at every other i.  A covector that is
    not a 1-form of ``ctx`` raises `ConventionError`."""
    rows, pivots = _covector_rows(ctx, covectors)
    if ctx.field.kind == "rational":  # row r is a multiple of reduced row r
        rows = [[Fraction(v, row[pc]) for v in row] for row, pc in zip(rows, pivots)]
    others = [i for i in range(ctx.dim) if i not in pivots]
    return rows, pivots, others


def contraction_kernel(
    omega: AlternatingTensor,
    covectors: Sequence[AlternatingTensor] = (),
    inside: bool = False,
) -> LinearSubspace:
    """The bivectors L with contract(omega, L) in the span of the covectors
    (zero for none) and, with ``inside``, c(L) = 0 for c their wedge: the rows
    of `bivector_contraction` reduced modulo the covectors, and those of
    L -> c(L), coordinate m being <c ^ e^m, L> (<c, L> for two covectors).

    Every condition is an int row: the map's rows are gathered from omega's
    numerators, and row i, less sum_r (r[i] / r[pc]) times row pc over the
    covectors' echelon rows r on ints (`_covector_rows`), is taken times the
    lcm D of the pivots r[pc] it meets, as D·B[i] - sum_r (D / r[pc])·r[i]·B[pc]
    (over F_p every pivot is 1 and the row is reduced mod p); the kernel of
    `rank_kernel_ints` is that of the field rows."""
    require_three_form(omega)
    ctx = omega.ctx
    echelon, pivots = _covector_rows(ctx, covectors)
    if inside and len(covectors) not in (1, 2):
        raise ConventionError("the condition c(L) = 0 needs one or two covectors")
    B, _ = _gathered(omega, _contraction_gathers(omega, 2)[1])
    p = ctx.field.p
    conditions = []
    for i in range(ctx.dim):
        if i in pivots:
            continue
        terms = [(r[i], r[pc], B[pc]) for r, pc in zip(echelon, pivots) if r[i]]
        den = reduce(lcm, [d for _, d, _ in terms], 1)
        row = [den * a for a in B[i]]
        for x, d, b in terms:
            factor = den // d * x
            row = [a - factor * y for a, y in zip(row, b)]
        conditions.append([v % p for v in row] if p is not None else row)
    if inside:
        c = covectors[0] if len(covectors) == 1 else wedge(*covectors)
        if c.degree == 1:
            wedges = [wedge(c, ctx.basis_covector(m)) for m in range(ctx.dim)]
        else:
            wedges = [c]
        conditions += [list(w._dense_ints[0]) for w in wedges]
    length = comb(ctx.dim, 2)
    return _kernel_space("bivectors", ctx, rank_kernel_ints(ctx.field, conditions, length)[1])


def span_lattice(
    omega: AlternatingTensor, x: AlternatingTensor, y: AlternatingTensor
) -> SpanLattice:
    """The five bivector subspaces of a 3-form and two independent covectors."""
    modulo_xy = contraction_kernel(omega, [x, y])
    if wedge(x, y).is_zero():
        raise ConventionError("directions are dependent (x^y = 0)")
    return SpanLattice(
        full=contraction_kernel(omega),
        modulo_x=contraction_kernel(omega, [x]),
        modulo_xy=modulo_xy,
        split_at_x=contraction_kernel(omega, [x], inside=True),
        pencil_at_xy=contraction_kernel(omega, [x, y], inside=True),
    )
