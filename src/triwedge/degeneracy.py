"""Skew matrix of linear forms attached to a 3-form and its rank strata.

A 3-form ``omega`` on V determines the square matrix ``M`` of size
``dim V`` whose (i, j) entry is the linear functional
``P -> <omega, e_i ^ e_j ^ P>``.  Evaluating ``M`` at a point gives a
scalar skew-symmetric matrix whose rank is the rank of the 2-form
``contract(omega, P)``; the locus where that rank drops below its
generic value is the fundamental locus of the line congruence attached
to ``omega`` (points lying on infinitely many of its lines).

``M`` (`SkewLinearMatrix`), `build_M` and the rank routine `point_ranks`
(with `point_contraction_rank`, its one-point case) live in
`form_analysis`.  This module re-exports `SkewLinearMatrix`, `build_M` and
`point_ranks` and defines `rank_at`, which coerces a point and rejects the
zero point before taking its rank; a stream of points that `random_points`
drew, canonical and nonzero, or that the exhaustive enumeration lists, is
ranked by one `point_ranks` call, as `stratify`, `exhaustive_strata` and
`congruence.order` do.  It samples the rank histogram of M
over prime fields (`stratify`), measures the degree of the drop locus for
even ``n`` by restricting a principal sub-Pfaffian to random lines,
extracts the secant polynomial of a congruence line for odd ``n`` from the
quotient Pfaffian pencil, and enumerates the full rank stratification over
small prime fields (`exhaustive_strata`).  Points of the drop locus itself
are found exactly: over small fields by `exhaustive_strata`, and along a
line by the roots of its restricted polynomial, and its direction when the
restriction drops degree (`line_zeros` of the `line_subpfaffian_gcd` for
even ``n``, of the `SecantPencil` on a congruence line for odd ``n``).  The
roots come from `exact_scalar.poly_roots_mod_p`, by algebra rather than by
evaluation at every element, so their cost grows with log p, not p.

The sampling and line helpers that `congruence`, `residual` and `suites` share
are public here: `random_points` (nonzero random points, drawn over F_p in
blocks of one draw each, `randbelow_bytes` for p < 256 and `randbelow_many`
above; it lives in `form_analysis`, whose pointwise rank search screens the
same drawn bytes on byte lanes for 5 <= p <= 127 and takes its points
otherwise), `random_coords` (its one-point
case), `independent_pair` (two independent points spanning a line, one
two-point draw at a time), `line_gcd` and `line_zeros` (the gcd of
polynomials restricted to that line, and the points where one vanishes,
counting the direction only on a drop below the degree it restricts),
`line_cofactor` (the form c along the line when polynomials f_i are
±c(P)·P_i: their gcd, read off one of them by exact division),
`line_subpfaffian_gcd` (the rank-drop polynomial of M on the line,
`line_cofactor` of the principal sub-Pfaffians: for even ``n`` the
sub-Pfaffian vector Pf_i(M(P)) spans ker M(P), which holds P, so
Pf_i(M(P)) = ±g(P)·P_i for one form g of degree n/2 - 1),
`SecantPencil.zeros` (the points of a congruence line on the rank-drop locus),
`directions_through` (the star of congruence lines through P, the one
kernel of M(P) taken anywhere: a caller that needs a line through P takes its
star, and one that needs only the rank takes `point_ranks`),
`split_decomposable` (two vectors whose wedge is a decomposable bivector),
`normalize_projective` (a projective point scaled to first nonzero
coordinate 1) and `require_three_form` (from `exterior_core`).  `line_gcd`,
`line_cofactor` and `secant_pencil` restrict their polynomials to a
line through one node loop, `_restrict_to_line`, which evaluates at the
points t = 0, 1, ... of the line and interpolates; `line_subpfaffian_gcd`
and `secant_pencil` take each node's principal sub-Pfaffian from
`_principal_pfaffian` (over F_p off `packed_rows_at`, with no `Matrix`).

No floating point is used anywhere; scalars are rationals or prime
residues throughout.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from itertools import tee
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .exact_scalar import (
    ConventionError,
    FieldSpec,
    Matrix,
    Scalar,
    UniPoly,
    as_ints,
    interpolate,
    matrix_rank,
    packed_skew_mod_p,
    pfaffian,
    poly_gcd,
    poly_roots_mod_p,
    row_reduce,
)
from .exterior_core import (
    AlternatingTensor,
    contract,
    covector_contract,
    derive_seed,
    projective_point_count,
    projective_points,
    reduce_mod_p,
    reduced_square,
    require_three_form,
    wedge,
)
from .form_analysis import (
    EXHAUSTIVE_POINT_BUDGET,
    LinearSubspace,
    PointLike,
    SkewLinearMatrix,
    build_M,
    j_rank,
    point_contraction_rank,
    point_coords,
    point_ranks,
    random_points,
)

__all__ = [
    "NonGenericFormError",
    "SkewLinearMatrix",
    "StratumReport",
    "SecantPencil",
    "ExhaustiveStrata",
    "build_M",
    "rank_at",
    "stratify",
    "hypersurface_degree",
    "secant_pencil",
    "exhaustive_strata",
    "directions_through",
    "independent_pair",
    "line_cofactor",
    "line_gcd",
    "line_subpfaffian_gcd",
    "line_zeros",
    "normalize_projective",
    "point_ranks",
    "random_coords",
    "random_points",
    "require_three_form",
    "split_decomposable",
]

class NonGenericFormError(RuntimeError):
    """A sampling computation detected that the input form is degenerate."""


def rank_at(M: SkewLinearMatrix, point: PointLike) -> int:
    """Exact rank of the matrix evaluated at a nonzero point.

    Coerces the point into the field (`point_coords`: canonical residues
    over F_p are taken as they are) and takes the rank with
    `point_contraction_rank`.
    """
    coords = point_coords(M.ctx, point)
    if all(M.ctx.field.is_zero(value) for value in coords):
        raise ConventionError("rank is evaluated at nonzero points only")
    return point_contraction_rank(M, coords)


# -- sampled stratification -------------------------------------------------------


@dataclass(frozen=True)
class StratumReport:
    """Rank statistics of the skew matrix over a prime field.

    ``rank_histogram`` counts samples per rank, in increasing rank, and
    ``generic_rank`` is the largest rank observed.
    """

    n: int
    rank_histogram: Mapping[int, int]

    def __post_init__(self) -> None:
        if not self.rank_histogram:
            raise ConventionError("empty rank histogram")
        for rank in self.rank_histogram:
            if rank % 2 != 0:
                raise ConventionError("skew matrix ranks must be even")
        bound = self.n if self.n % 2 == 0 else self.n - 1
        if not 0 <= self.generic_rank <= bound:
            raise ConventionError("generic rank exceeds the parity bound")

    @property
    def generic_rank(self) -> int:
        return max(self.rank_histogram)


def normalize_projective(coords: Sequence[int], p: int) -> tuple[int, ...]:
    """The point mod p, scaled so that its first nonzero coordinate is 1."""
    if p < 2:
        raise ConventionError(f"modulus {p} is below 2")
    values = [value % p for value in coords]
    for value in values:
        if value:
            inverse = pow(value, -1, p)
            return tuple(v * inverse % p for v in values)
    raise ConventionError("cannot normalize the zero vector")


def _poly_roots_prime(poly: UniPoly, p: Optional[int]) -> list[int]:
    """The roots of a nonzero polynomial in F_p, in increasing order
    (`poly_roots_mod_p`, in time polynomial in log p); over the rationals,
    and for the zero polynomial, `ConventionError`."""
    if p is None:
        raise ConventionError("root finding needs a prime field")
    if poly.is_zero():
        raise ConventionError("the zero polynomial vanishes at every point")
    return poly_roots_mod_p(poly.coeffs, p)


def stratify(omega: AlternatingTensor, samples: int = 10_000, seed: int = 0) -> StratumReport:
    """The histogram of matrix ranks at ``samples`` random points over F_p.

    The points are the `random_points` draws of a generator seeded with
    ``derive_seed("stratify", n, p, samples, seed)``, ranked by one
    `point_ranks` stream; the generic rank is the largest rank seen.
    """
    require_three_form(omega)
    ctx = omega.ctx
    field = ctx.field
    if field.kind != "prime":
        raise ConventionError("stratification sampling requires a prime field")
    if samples < 1:
        raise ConventionError("at least one sample is required")
    rng = random.Random(derive_seed("stratify", ctx.n, field.p, samples, seed))
    M = build_M(omega)
    histogram = Counter(point_ranks(M, random_points(field, ctx.dim, rng, samples)))
    return StratumReport(
        n=ctx.n, rank_histogram=MappingProxyType(dict(sorted(histogram.items())))
    )


def random_coords(field: FieldSpec, dim: int, rng: random.Random) -> list[Scalar]:
    """A nonzero random point: uniform over F_p, entries in -9..9 over Q
    (`random_points` of one point)."""
    return next(random_points(field, dim, rng, 1))


def independent_pair(
    field: FieldSpec, dim: int, rng: random.Random
) -> tuple[list[Scalar], list[Scalar]]:
    """Two nonzero random points that span a line, redrawn until independent."""
    while True:
        first, second = random_points(field, dim, rng, 2)
        if matrix_rank(field, (first, second)) == 2:
            return first, second


def _line_point(field, first, second, t) -> list[Scalar]:
    return [field.add(a, field.mul(t, b)) for a, b in zip(first, second)]


def _restrict_to_line(
    field: FieldSpec,
    first: Sequence[Scalar],
    second: Sequence[Scalar],
    degree: int,
    values_at: Callable[[list[Scalar]], Sequence[Scalar]],
) -> list[UniPoly]:
    """Polynomials of degree at most ``degree`` restricted to first + t*second.

    ``values_at`` maps a point to every polynomial's value there; it is called
    at the points of the line at t = 0, ..., ``degree``, and each polynomial
    is interpolated through its values, in ``values_at``'s order.  Raises
    `ConventionError` when F_p has fewer than ``degree + 1`` elements.
    """
    nodes = _interpolation_nodes(field, degree + 1)
    rows = [values_at(_line_point(field, first, second, node)) for node in nodes]
    return [interpolate(field, list(zip(nodes, column))) for column in zip(*rows)]


def line_gcd(
    field: FieldSpec,
    first: Sequence[Scalar],
    second: Sequence[Scalar],
    degree: int,
    values_at: Callable[[list[Scalar]], Sequence[Scalar]],
) -> Optional[UniPoly]:
    """Monic gcd of polynomials of degree at most ``degree`` along first + t*second.

    ``values_at`` maps a point to every polynomial's value there.  Each
    polynomial is restricted to the line (`_restrict_to_line`), the zero ones
    are dropped and the rest folded with `poly_gcd` in order.  Returns None
    when every polynomial vanishes on the line, and raises `ConventionError`
    when F_p has fewer than ``degree + 1`` elements.
    """
    polys = _restrict_to_line(field, first, second, degree, values_at)
    nonzero = [poly for poly in polys if not poly.is_zero()]
    if not nonzero:
        return None
    return reduce(poly_gcd, nonzero).monic()


def line_zeros(
    field: FieldSpec,
    first: Sequence[Scalar],
    second: Sequence[Scalar],
    poly: UniPoly,
    degree: int,
) -> list[list[Scalar]]:
    """The points first + r*second over F_p at the roots r of ``poly``, in
    increasing r, then ``second`` when ``poly`` falls below ``degree``, the
    degree of what it restricts (whose value at ``second`` is the coefficient
    of t^degree); zero points dropped.  Over the rationals, and for the zero
    polynomial, which vanishes on the whole line, `ConventionError`.
    """
    points = [
        _line_point(field, first, second, root)
        for root in _poly_roots_prime(poly, field.p)
    ]
    if poly.degree < degree:
        points.append(list(second))
    return [point for point in points if not all(field.is_zero(v) for v in point)]


def _principal_pfaffian(
    M: SkewLinearMatrix, coords: Sequence[Scalar], indices: Sequence[int]
) -> Scalar:
    """Pfaffian of the principal submatrix of M at ``coords`` on ``indices``:
    over F_p from `packed_skew_mod_p` on `SkewLinearMatrix.packed_rows_at`,
    over the rationals `pfaffian` of the block of `rows_at`."""
    p = M.ctx.field.p
    if p is not None:
        rows, width = M.packed_rows_at(coords)
        return packed_skew_mod_p(p, rows, width, indices)[1]
    rows = M.rows_at(coords)
    size = len(indices)
    flat = tuple(rows[i][j] for i in indices for j in indices)
    return pfaffian(Matrix(M.ctx.field, size, size, flat))


def line_cofactor(
    field: FieldSpec,
    first: Sequence[Scalar],
    second: Sequence[Scalar],
    degree: int,
    value_at: Callable[[list[Scalar], list[int]], Scalar],
) -> Optional[UniPoly]:
    """Monic c along first + t*second of polynomials f_i = ±c(P)·P_i.

    ``value_at(coords, keep)`` is f_i at a point, where ``keep`` lists the
    indices other than i (a minor or sub-Pfaffian off index i), a
    polynomial of degree at most ``degree``.  First and second are
    independent, so the restrictions of the P_i share no root and the gcd
    of the restricted f_i is c along the line.  It is read off one of them,
    at the first index i with ``second[i] != 0``: f_i restricted to the
    line (`_restrict_to_line`) and divided exactly by
    ``first[i] + t*second[i]``.

    Returns None when f_i, and with it every f_j, vanishes on the line.  A
    zero direction raises `ConventionError`, a division that leaves a
    remainder `RuntimeError`.
    """
    i = next((k for k, value in enumerate(second) if not field.is_zero(value)), None)
    if i is None:
        raise ConventionError("a line needs a nonzero direction")
    keep = [k for k in range(len(second)) if k != i]
    (restricted,) = _restrict_to_line(
        field, first, second, degree, lambda coords: [value_at(coords, keep)]
    )
    if restricted.is_zero():
        return None
    quotient, remainder = restricted.divmod(UniPoly.from_coeffs(field, [first[i], second[i]]))
    if not remainder.is_zero():
        raise RuntimeError(
            "internal error: a restricted polynomial is not divisible by its coordinate"
        )
    return quotient.monic()


def line_subpfaffian_gcd(
    M: SkewLinearMatrix, first: Sequence[Scalar], second: Sequence[Scalar]
) -> Optional[UniPoly]:
    """Monic gcd of the principal sub-Pfaffians along first + t*second.

    For odd ``dim`` the vector of principal sub-Pfaffians of M(P) spans
    ker M(P), and M(P)·P = 0, so Pf_i(M(P)) = ±g(P)·P_i as polynomials for
    one form g, and the gcd is g along the line: `line_cofactor`, each
    node's value from `_principal_pfaffian`.

    Returns None when the sub-Pfaffians vanish identically on the line,
    which signals a degenerate line choice.  Both points are coerced once
    (`point_coords`).
    """
    first, second = point_coords(M.ctx, first), point_coords(M.ctx, second)
    return line_cofactor(
        M.ctx.field, first, second, (M.size - 1) // 2, partial(_principal_pfaffian, M)
    )


def _interpolation_nodes(field: FieldSpec, count: int) -> list[Scalar]:
    if field.kind == "prime":
        p: int = field.p  # type: ignore[assignment]
        if p < count:
            raise ConventionError(
                f"field with {p} elements cannot host {count} interpolation nodes"
            )
    return [field.coerce(value) for value in range(count)]


def directions_through(M: SkewLinearMatrix, point: PointLike) -> LinearSubspace:
    """Directions f (mod the point) with M(P)·f = 0, that is
    contract(omega, P ^ f) = 0 for the form omega of M.

    The result is the kernel of M(P) with the row e_k appended, k the first
    nonzero coordinate of P: the directions f in the kernel with f_k = 0.
    M(P)·P = 0, so this is a complement of the point inside the kernel of
    M(P), and its linear dimension is that kernel dimension minus one: the
    star of lines of the congruence through the point.
    """
    ctx = M.ctx
    field = ctx.field
    coords = point_coords(ctx, point)
    if all(field.is_zero(c) for c in coords):
        raise ConventionError("directions through the zero point are undefined")
    pivot = next(i for i, c in enumerate(coords) if not field.is_zero(c))
    rows = M.rows_at(coords)
    rows.append([field.one() if i == pivot else field.zero() for i in range(ctx.dim)])
    return LinearSubspace.from_kernel(rows, "vectors", ctx)


# -- even n: degree of the rank-drop hypersurface ---------------------------------


def hypersurface_degree(omega: AlternatingTensor, *, seed: int = 0) -> int:
    """Degree of the rank-drop locus for even ``n``, by line restriction.

    Restricts the matrix to three independent random lines, interpolates
    the principal sub-Pfaffians as univariate polynomials, and returns
    the degree of their monic gcd, which all three lines must agree on.
    Requires the contraction map of the form to have full rank.
    """
    require_three_form(omega)
    ctx = omega.ctx
    n = ctx.n
    if n % 2 != 0:
        raise ConventionError("the rank-drop locus is a hypersurface only for even n")
    if j_rank(omega, 1) != ctx.dim:
        raise ConventionError("requires a form whose contraction map has full rank")
    field = ctx.field
    M = build_M(omega)
    rng = random.Random(derive_seed("hypersurface-degree", n, seed))
    degrees: list[int] = []
    attempts = 0
    while len(degrees) < 3:
        attempts += 1
        if attempts > 24:
            raise NonGenericFormError(
                "could not find three usable lines; the form looks degenerate"
            )
        first, second = independent_pair(field, ctx.dim, rng)
        gcd = line_subpfaffian_gcd(M, first, second)
        if gcd is None:
            continue
        degrees.append(gcd.degree)
    if len(set(degrees)) != 1:
        raise NonGenericFormError(
            f"rank-drop degree disagrees across lines: {degrees}"
        )
    return degrees[0]


# -- odd n: secant polynomial of a congruence line --------------------------------


@dataclass(frozen=True)
class SecantPencil:
    """Pfaffian of the quotient pencil along a congruence line.

    The line is spanned by ``base`` and ``direction``; the point at
    parameter ``t`` is ``base + t*direction``.  ``poly`` vanishes at the
    parameters where the line meets the rank-drop locus, and has degree at
    most ``total_degree = (n-1)/2``; the root at infinity (the point
    ``direction`` itself) has multiplicity
    ``infinity_multiplicity = total_degree - poly.degree``.
    """

    poly: UniPoly
    base: AlternatingTensor
    direction: AlternatingTensor

    def __post_init__(self) -> None:
        if self.poly.is_zero():
            raise ConventionError("secant polynomial must be nonzero")

    @property
    def total_degree(self) -> int:
        return (self.base.ctx.n - 1) // 2

    @property
    def infinity_multiplicity(self) -> int:
        return self.total_degree - self.poly.degree

    def point_at(self, t) -> AlternatingTensor:
        scalar = self.base.ctx.field.coerce(t)
        return self.base.add(self.direction.scale(scalar))

    def roots(self) -> list[int]:
        """The parameters t in F_p, in increasing order, where ``poly`` vanishes."""
        return _poly_roots_prime(self.poly, self.base.ctx.field.p)

    def zeros(self) -> list[AlternatingTensor]:
        """The points of the line where ``poly`` vanishes (`line_zeros`), then
        ``direction`` when the root at infinity counts."""
        ctx = self.base.ctx
        first, second = self.base.coords(), self.direction.coords()
        points = line_zeros(ctx.field, first, second, self.poly, self.total_degree)
        return [ctx.vector_from_coords(point) for point in points]


def split_decomposable(line: AlternatingTensor) -> tuple[AlternatingTensor, AlternatingTensor]:
    """Vectors e, f with e ^ f equal to the given decomposable bivector."""
    if line.variance != "vector" or line.degree != 2 or line.is_zero():
        raise ConventionError("expected a nonzero bivector")
    ctx = line.ctx
    field = ctx.field
    (i, j), coefficient = line.terms[0]
    first = covector_contract(ctx.basis_covector(i), line)
    second = covector_contract(ctx.basis_covector(j), line)
    product = wedge(first, second)
    factor = field.div(product.coefficient((i, j)), coefficient)
    if field.is_zero(factor):
        raise ConventionError("failed to split the bivector into two factors")
    second = second.scale(field.inv(factor))
    if wedge(first, second) != line:
        raise ConventionError("bivector does not factor; it is not decomposable")
    return first, second


def secant_pencil(omega: AlternatingTensor, line: AlternatingTensor) -> SecantPencil:
    """Quotient Pfaffian pencil along a line of the congruence, odd ``n``.

    The two evaluated matrices at the spanning points of the line both
    annihilate the line's plane, so the pencil descends to the quotient
    space; its Pfaffian is a polynomial of total degree (n-1)/2 whose
    roots are the intersections of the line with the rank-drop locus.
    ``M`` is linear in the point, so the pencil member at ``t`` is
    M(base + t*direction), and the Pfaffian is restricted to the line
    (`_restrict_to_line`) on that matrix's rows and columns at the indices
    completing the line's plane (`_principal_pfaffian`).
    """
    require_three_form(omega)
    ctx = omega.ctx
    n = ctx.n
    if n % 2 == 0:
        raise ConventionError("the secant pencil is defined for odd n")
    if line.ctx != ctx or line.degree != 2 or line.variance != "vector":
        raise ConventionError("expected a bivector on the same space")
    if line.is_zero() or not reduced_square(line).is_zero():
        raise ConventionError("expected a nonzero decomposable bivector")
    if not contract(omega, line).is_zero():
        raise ConventionError("the line does not belong to the congruence")

    field = ctx.field
    base, direction = split_decomposable(line)
    M = build_M(omega)
    base_coords = base.coords()
    direction_coords = direction.coords()
    for matrix in (M.evaluate(base), M.evaluate(direction)):
        for vector in (base_coords, direction_coords):
            if any(not field.is_zero(v) for v in matrix.matvec(vector)):
                raise RuntimeError("pencil members fail to annihilate the line")

    complement = _complement_indices(field, base_coords, direction_coords)
    (poly,) = _restrict_to_line(
        field,
        base_coords,
        direction_coords,
        (n - 1) // 2,
        lambda coords: [_principal_pfaffian(M, coords, complement)],
    )
    if poly.is_zero():
        raise NonGenericFormError("the quotient Pfaffian vanishes identically")
    return SecantPencil(poly=poly, base=base, direction=direction)


def _complement_indices(
    field: FieldSpec, first: Sequence[Scalar], second: Sequence[Scalar]
) -> list[int]:
    """Indices of standard basis vectors completing span{first, second}."""
    rows = [as_ints(field, v)[0] for v in (first, second)]
    pivots = row_reduce(field, rows, len(first), back_substitute=False)
    if len(pivots) != 2:
        raise ConventionError("expected two independent spanning vectors")
    return [k for k in range(len(first)) if k not in pivots]


# -- exhaustive stratification over small prime fields -----------------------------


@dataclass(frozen=True)
class ExhaustiveStrata:
    """Full rank stratification of projective space over F_p."""

    n: int
    p: int
    points: Mapping[int, tuple[tuple[int, ...], ...]]

    def __post_init__(self) -> None:
        expected = projective_point_count(self.p, self.n + 1)
        if sum(self.counts.values()) != expected:
            raise ConventionError("stratification does not cover projective space")
        for rank in self.points:
            if rank % 2 != 0:
                raise ConventionError("skew matrix ranks must be even")

    @property
    def counts(self) -> dict[int, int]:
        """The number of points of each rank, in increasing rank."""
        return {rank: len(members) for rank, members in self.points.items()}

    @property
    def generic_rank(self) -> int:
        return max(self.points)

    def stratum(self, max_rank: int) -> tuple[tuple[int, ...], ...]:
        """All points of rank at most ``max_rank``, in enumeration order."""
        collected = []
        for rank in sorted(self.points):
            if rank <= max_rank:
                collected.extend(self.points[rank])
        return tuple(collected)


def exhaustive_strata(omega: AlternatingTensor, p: int) -> ExhaustiveStrata:
    """Rank of the matrix at every point of P^n(F_p), in one `point_ranks`
    stream over the enumeration."""
    require_three_form(omega)
    n = omega.ctx.n
    reduced = reduce_mod_p(omega, p)
    total = projective_point_count(p, n + 1)
    if total > EXHAUSTIVE_POINT_BUDGET:
        raise ConventionError(
            f"{total} projective points exceed the enumeration budget"
        )
    M = build_M(reduced)
    points: dict[int, list[tuple[int, ...]]] = {}
    enumerated, ranked = tee(projective_points(reduced.ctx.field, n + 1))
    for coords, rank in zip(enumerated, point_ranks(M, ranked)):
        points.setdefault(rank, []).append(coords)
    return ExhaustiveStrata(
        n=n,
        p=p,
        points=MappingProxyType(
            {rank: tuple(members) for rank, members in sorted(points.items())}
        ),
    )
