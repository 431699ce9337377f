"""The residual line family of a 3-form along a pencil of hyperplanes.

Fix a 3-form ``omega`` and two independent covectors ``x, y``.  The
hyperplanes ``{a*x + b*y = 0}`` form a pencil whose base locus is the
codimension-two subspace ``Pi = {x = y = 0}``; restricting ``omega`` to a
pencil member yields a smaller line family, and the residual family ``Y`` is
the union of those restricted families over the whole pencil.  A nonzero
decomposable bivector ``L`` belongs to ``Y`` exactly when ``(x^y)(L) = 0``
and ``contract(omega, L) ^ x ^ y = 0``, i.e. when the contraction lands in
the plane of covectors spanned by ``x`` and ``y``.

Everything is exact linear algebra plus seeded sampling over prime fields:

* ``general_directions`` — seeded directions inside the contraction image
  whose plane ``x^y`` is no point contraction ``contract(omega, v)``;
* ``ResidualHandle`` — the form and the two directions, checked once; the
  linear span of the family (the pencil kernel, one `contraction_kernel`)
  and the base locus ``Pi`` (the annihilator of x and y) are derived;
* ``line_system`` — the matrix of ``f -> (omega(P^f) mod <x,y>, (x^y)(P^f))``
  whose kernel beyond ``P`` consists of the family directions through ``P``,
  read off the rows of the skew matrix M(P) of the form (``omega(P^e_j)`` is
  row j of M(P)), with M and `covector_echelon` of x, y kept once per handle;
* ``line_system_kernel_dims`` — the kernel dimension of the line system at
  each point of a stream.  Every entry of the line system is a fixed linear
  form in P, kept once per handle as its values at the basis points, so over
  F_p with 5 <= p <= 127 a block of up to 512 points is evaluated on byte
  lanes (`exact_scalar.lane_sum`) and ranked at once
  (`exact_scalar.lane_ranks`), where `form_analysis.point_ranks` ranks its
  blocks; every other point takes ``line_system`` one at a time;
* ``member_Y`` / ``pencil_parameter`` — membership and the pencil member a
  family line lives on;
* ``sample_line_on_Y`` — restrict to a random pencil member, sample a line of
  the restricted family there, and lift it back; a lifted line inside ``Pi``
  lies on every member, so it fails like a member and the next is drawn.  A
  member {z = 0} is cut by one split of the form along z
  (`exterior_core.hyperplane_restriction`), and its basis, that of
  `rank_kernel`, is built straight from z;
* ``sing_Y_dimension`` — the singular locus (lines inside ``Pi`` killed by
  the full form), certified at a sampled point of its exact linear span; for
  odd ``n`` the point may come from a plane of ``Pi`` solved by algebra: the
  conditions that the form kill the one line through a point are forms of
  degree (n - 3)/2 on the plane, met by a resultant, so the cost of a plane
  grows with log p and not with its p² + p + 1 points;
* ``G_membership`` / ``G_degree_odd`` — the locus of points lying on
  infinitely many family lines, detected by the kernel dimension of the line
  system and measured, for odd ``n``, by the gcd of its maximal minors along
  restricted lines: they are ±c(P)·P_i for one form c, so the gcd is read
  off one minor by `degeneracy.line_cofactor`;
* ``Y_secancy_even`` — for even ``n``, the rank-drop count along a sampled
  family line inside its pencil member.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, reduce
from itertools import chain, combinations, islice, product
from operator import mul, or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .congruence import draw_line_on_X, sample_line_on_X, tangent_intersection_dim
from .degeneracy import (
    NonGenericFormError,
    build_M,
    directions_through,
    independent_pair,
    line_cofactor,
    line_gcd,
    line_zeros,
    normalize_projective,
    random_points,
    require_three_form,
    secant_pencil,
    split_decomposable,
)
from .exact_scalar import (
    ByteLanes,
    ConventionError,
    FieldSpec,
    Matrix,
    Scalar,
    UniPoly,
    interpolate,
    lane_ranks,
    lane_sum,
    matrix_rank,
    packed_skew_mod_p,
    poly_resultant_mod_p,
    poly_roots_mod_p,
    randbelow,
    randbelow_many,
    rank_kernel,
    row_reduce,
)
from .exterior_core import (
    AlternatingTensor,
    SpaceContext,
    contract,
    covector_contract,
    derive_seed,
    hyperplane_restriction,
    pair,
    projective_points,
    pullback,
    random_tensor,
    reduced_square,
    wedge,
)
from .form_analysis import (
    LANE_BLOCK,
    LANE_MIN_BLOCK,
    LinearSubspace,
    SkewLinearMatrix,
    bivector_contraction,
    contraction_kernel,
    covector_echelon,
    lane_columns,
    point_coords,
    point_lanes,
)

__all__ = [
    "LineSystem",
    "ResidualHandle",
    "G_degree_odd",
    "G_membership",
    "Y_secancy_even",
    "general_directions",
    "line_system",
    "line_system_kernel_dims",
    "member_Y",
    "pencil_parameter",
    "sample_line_on_Y",
    "sing_Y_dimension",
]

_DIRECTION_BUDGET = 64
_SAMPLE_BUDGET = 64
_INNER_LINE_BUDGET = 16
_LINE_SEARCH_ROUNDS = 12
_PLANE_SCAN_ROUNDS = 8
_PLANE_PAIR_BUDGET = 3
_PLANE_SCAN_POINT_BUDGET = 10_000
_AGREEING_LINES = 3
_DEGREE_LINE_BUDGET = 24


def _pencil_conditions(omega: AlternatingTensor) -> Callable[..., tuple[bool, bool]]:
    """The test of covectors x, y: whether <x, y> lies in the image of the
    bivector contraction of omega, and whether x^y = contract(omega, v), a
    combination of the rows of `bivector_contraction`: then x(v) = y(v) = 0, so
    (x^y)(L) = <contract(omega, L), v> vanishes wherever contract(omega, L) is
    in <x, y>.  The rows and their rank are made once per omega."""
    field = omega.ctx.field
    rows = bivector_contraction(omega)
    rank = matrix_rank(field, rows)

    def conditions(x: AlternatingTensor, y: AlternatingTensor) -> tuple[bool, bool]:
        augmented = [row + [a, b] for row, a, b in zip(rows, x.coords(), y.coords())]
        in_image, on_plane = (
            matrix_rank(field, table) == rank
            for table in (augmented, rows + [wedge(x, y).coords()])
        )
        return in_image, on_plane

    return conditions


def general_directions(
    omega: AlternatingTensor, seed: int = 0
) -> tuple[AlternatingTensor, AlternatingTensor]:
    """Seeded random independent covectors inside the contraction image whose
    plane x^y is no point contraction of omega (`_pencil_conditions`): then
    the pencil kernel of the span lattice has codimension exactly ``n``."""
    require_three_form(omega)
    ctx = omega.ctx
    conditions = _pencil_conditions(omega)
    for attempt in range(_DIRECTION_BUDGET):
        x = random_tensor(
            ctx, 1, "form", derive_seed("residual-x", ctx.n, ctx.field, seed, attempt)
        )
        y = random_tensor(
            ctx, 1, "form", derive_seed("residual-y", ctx.n, ctx.field, seed, attempt)
        )
        if not wedge(x, y).is_zero() and conditions(x, y) == (True, False):
            return x, y
    raise NonGenericFormError(
        "no independent covector pair found inside the contraction image"
    )


@dataclass(frozen=True)
class ResidualHandle:
    """A 3-form with a pencil of hyperplane directions and the family data.

    Only ``omega``, ``x`` and ``y`` are inputs.  ``span``, the linear span of
    the residual family, is derived as the L with ``(x^y)(L) = 0`` and
    ``contract(omega, L)`` in ``<x, y>`` (`contraction_kernel`, which checks
    the directions), and ``pi``, the base locus ``{x = y = 0}``, as the
    annihilator of ``x`` and ``y``.
    """

    omega: AlternatingTensor
    x: AlternatingTensor
    y: AlternatingTensor
    span: LinearSubspace = dataclass_field(init=False)
    pi: LinearSubspace = dataclass_field(init=False)

    def __post_init__(self) -> None:
        span = contraction_kernel(self.omega, [self.x, self.y], inside=True)
        if wedge(self.x, self.y).is_zero():
            raise ConventionError("pencil directions are dependent (x^y = 0)")
        if span.codim != self.ctx.n and _pencil_conditions(self.omega)(self.x, self.y)[0]:
            raise ConventionError(
                "pencil kernel codimension must equal n for directions "
                "inside the contraction image"
            )
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "pi", LinearSubspace.annihilator(self.ctx, [self.x, self.y]))

    @property
    def ctx(self) -> SpaceContext:
        return self.omega.ctx

    @cached_property
    def _line_system_data(self) -> tuple:
        """What `line_system` reads besides the point, made once per handle:
        M, `covector_echelon` of x and y, and the coordinates of x and y."""
        echelon = covector_echelon(self.ctx, [self.x, self.y])
        return (build_M(self.omega), *echelon, self.x.coords(), self.y.coords())

    @cached_property
    def _line_system_forms(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """Over F_p, each entry (r, c) of the line system as the linear form
        sum_k a_k·P_k in the point P, for `line_system_kernel_dims`: every
        entry is linear in P, so a_k is the entry at the basis point e_k.
        The terms (k, a_k) hold residues in [1, p); an entry that vanishes
        identically is left out."""
        dim = self.ctx.dim
        at_basis = [
            _line_system_rows(self, [int(i == k) for i in range(dim)]) for k in range(dim)
        ]
        forms = {}
        for r, c in product(range(dim - 1), range(dim)):
            terms = tuple((k, rows[r][c]) for k, rows in enumerate(at_basis) if rows[r][c])
            if terms:
                forms[(r, c)] = terms
        return forms

    @staticmethod
    def general(omega: AlternatingTensor, seed: int = 0) -> "ResidualHandle":
        x, y = general_directions(omega, seed)
        return ResidualHandle(omega, x, y)


def member_Y(handle: ResidualHandle, line: AlternatingTensor) -> bool:
    """True iff the nonzero bivector is decomposable, kills x^y, and its
    contraction lies in the covector plane spanned by x and y."""
    ctx = handle.ctx
    if line.ctx != ctx or line.variance != "vector" or line.degree != 2:
        raise ConventionError("expected a bivector on the handle's space")
    if line.is_zero():
        raise ConventionError("membership of the zero bivector is undefined")
    xy = wedge(handle.x, handle.y)
    return (
        reduced_square(line).is_zero()
        and ctx.field.is_zero(pair(xy, line))
        and wedge(contract(handle.omega, line), xy).is_zero()
    )


@dataclass(frozen=True)
class LineSystem:
    """Evaluated matrix of ``f -> (omega(P^f) mod <x,y>, (x^y)(P^f))``, held
    as its ``dim - 1`` rows.

    Columns are indexed by the ambient basis directions; column j holds row
    j of M(P) with the two coordinates pinned by the pivots of ``x`` and
    ``y`` eliminated, then ``(x^y)(P^e_j)``.  The kernel always contains the
    point itself, which construction checks; each further kernel dimension
    is a pencil-worth of family lines through the point.
    """

    point: AlternatingTensor
    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        ctx = self.point.ctx
        if self.point.variance != "vector" or self.point.degree != 1:
            raise ConventionError("line system is anchored at a vector point")
        dim = ctx.dim
        if len(self.rows) != dim - 1 or any(len(row) != dim for row in self.rows):
            raise ConventionError("line system must have shape (dim-1) x dim")
        p = ctx.field.p
        coords = self.point.coords()
        values = (sum(map(mul, row, coords)) for row in self.rows)
        if any(v % p if p is not None else v for v in values):
            raise ConventionError("line system must annihilate its own point")

    @cached_property
    def matrix(self) -> Matrix:
        """The rows as a `Matrix`, for the determinants of its minors."""
        ctx = self.point.ctx
        entries = tuple(chain.from_iterable(self.rows))
        return Matrix(ctx.field, ctx.dim - 1, ctx.dim, entries)

    def kernel_dim(self) -> int:
        return self.point.ctx.dim - matrix_rank(self.point.ctx.field, self.rows)


def line_system(handle: ResidualHandle, point) -> LineSystem:
    """The line system of the family at a nonzero point, read off the rows
    of M(P).

    Column j of the covector block is ``contract(omega, P^e_j)``, which is
    row j of M(P), reduced modulo x and y and kept at the indices that are
    not their pivots; its last entry is ``(x^y)(P^e_j) = x(P)*y_j -
    x_j*y(P)``.  Over F_p every entry is an int reduced mod p, over the
    rationals a Fraction.
    """
    ctx = handle.ctx
    coords = point_coords(ctx, point)
    if all(ctx.field.is_zero(c) for c in coords):
        raise ConventionError("the line system at the zero point is undefined")
    return LineSystem(point=ctx.vector_from_coords(coords), rows=_line_system_rows(handle, coords))


def _line_system_rows(
    handle: ResidualHandle, coords: Sequence[Scalar]
) -> tuple[tuple[Scalar, ...], ...]:
    """The rows of the line system at a point of field elements, unchecked."""
    M, (row_a, row_b), (piv_a, piv_b), keep, xs, ys = handle._line_system_data
    p = handle.ctx.field.p
    x_at = sum(map(mul, xs, coords))
    y_at = sum(map(mul, ys, coords))
    columns: list[list[Scalar]] = []
    for j, g in enumerate(M.rows_at(coords)):
        a, b = g[piv_a], g[piv_b]
        column = [g[i] - a * row_a[i] - b * row_b[i] for i in keep]
        column.append(x_at * ys[j] - xs[j] * y_at)
        columns.append([v % p for v in column] if p is not None else column)
    return tuple(zip(*columns))


def line_system_kernel_dims(handle: ResidualHandle, points: Iterable) -> Iterator[int]:
    """``line_system(handle, P).kernel_dim()`` at each of ``points``, in
    order.

    Over F_p with 5 <= p <= 127 (`form_analysis.point_lanes`) the points are
    taken a block of at most ``LANE_BLOCK`` = 512 at a time, as
    `form_analysis.point_ranks` takes them, and the block is ranked at once
    on byte lanes (`_lane_kernel_dims`).  Every other point, over every
    other field, takes `line_system` one at a time, pulled as it is ranked.
    Both paths give the exact dimension, and a point that `line_system`
    rejects (the zero point, a point the field cannot hold) raises the same
    `ConventionError` on both.
    """
    dim = handle.ctx.dim
    lanes = point_lanes(handle.ctx.field, dim)
    if lanes is None:
        for point in points:
            yield line_system(handle, point).kernel_dim()
        return
    stream = iter(points)
    while block := list(islice(stream, LANE_BLOCK)):
        yield from _lane_kernel_dims(handle, lanes, block)


def _lane_kernel_dims(handle: ResidualHandle, lanes: ByteLanes, block: list) -> list[int]:
    """`line_system_kernel_dims` of a block of points over F_p with
    2·(p − 1) <= 255.

    Each entry of the line system is a fixed linear form in the point
    (`ResidualHandle._line_system_forms`), so the block's coordinate columns
    (`form_analysis.lane_columns`) give every entry at every point as one
    lane vector each (`exact_scalar.lane_sum`), and `exact_scalar.lane_ranks`
    ranks every lane at once; the kernel dimension is dim minus the rank.
    The points whose lanes fall out of the elimination are ranked again as
    a block of their own, smaller than this one.  The points that are not
    canonical residues and the zero points take `line_system` one at a time,
    in order, as does every point of a block of fewer than
    ``LANE_MIN_BLOCK`` = 16 points.
    """
    count = len(block)
    if count < LANE_MIN_BLOCK:
        return [line_system(handle, point).kernel_dim() for point in block]
    dim = handle.ctx.dim
    columns, single = lane_columns(block, dim, lanes.p)
    support = reduce(or_, (int.from_bytes(column, "little") for column in columns))
    single.update(t for t, v in enumerate(support.to_bytes(count, "little")) if not v)
    scaled: dict[tuple[int, int], int] = {}
    entries = {
        key: lane_sum(lanes, columns, count, terms, scaled)
        for key, terms in handle._line_system_forms.items()
    }
    ranks, fallen = lane_ranks(lanes, count, entries)
    result = [dim - rank for rank in ranks]
    redo = [t for t in range(count) if fallen[t] and t not in single]
    for t, k in zip(redo, _lane_kernel_dims(handle, lanes, [block[t] for t in redo])):
        result[t] = k
    for t in sorted(single):
        result[t] = line_system(handle, block[t]).kernel_dim()
    return result


def G_membership(handle: ResidualHandle, point) -> tuple[bool, int]:
    """Whether infinitely many family lines pass through the point.

    Returns ``(on_G, line_star_dim)`` where ``line_star_dim`` is the linear
    dimension of the space of family directions through the point (the kernel
    of the line system minus the point itself).  A general point sees no line
    for odd ``n`` and exactly one line for even ``n``, so membership starts
    at kernel dimension two (odd) respectively three (even).
    """
    kernel_dim = line_system(handle, point).kernel_dim()
    threshold = 2 if handle.ctx.n % 2 else 3
    return kernel_dim >= threshold, kernel_dim - 1


def pencil_parameter(
    handle: ResidualHandle, line: AlternatingTensor
) -> tuple[Scalar, Scalar]:
    """The pencil member ``{a*x + b*y = 0}`` containing the line.

    Solves ``a * iota_x(L) + b * iota_y(L) = 0``; a unique projective
    solution is returned as ``(a, b)``.  Lines inside the base locus lie on
    every member and are rejected, as are bivectors on no member at all.
    """
    ctx = handle.ctx
    if line.ctx != ctx or line.variance != "vector" or line.degree != 2:
        raise ConventionError("expected a bivector on the handle's space")
    if line.is_zero():
        raise ConventionError("the zero bivector lies on no pencil member")
    cx = covector_contract(handle.x, line).coords()
    cy = covector_contract(handle.y, line).coords()
    _, kernel = rank_kernel(ctx.field, list(zip(cx, cy)), 2)
    if not kernel:
        raise ConventionError("the line lies on no pencil member")
    if len(kernel) > 1:
        raise ConventionError(
            "every pencil member contains the line (it lies in the base locus)"
        )
    a, b = kernel[0]
    return a, b


def _pencil_member_data(
    handle: ResidualHandle, a: Scalar, b: Scalar
) -> tuple[list[list[Scalar]], AlternatingTensor]:
    """The basis of the hyperplane {z = 0}, z = a*x + b*y, as the coordinate
    lists of its vectors, and the restricted form on it.

    The basis is the one `rank_kernel` gives the annihilator of z: e_i −
    (z_i/z_q)·e_q for i != q in increasing order, q the first index at which
    z is nonzero, built straight from z.  The form is
    `exterior_core.hyperplane_restriction`, the pullback along that basis
    read off one split of omega along z."""
    field = handle.ctx.field
    z = handle.x.scale(a).add(handle.y.scale(b))
    (q,), z_q = z.terms[0]
    factor = field.neg(field.inv(z_q))
    zero, one = field.zero(), field.one()
    coords = z.coords()
    columns = []
    for i, z_i in enumerate(coords):
        if i != q:
            column = [zero] * len(coords)
            column[i] = one
            if z_i:
                column[q] = field.mul(z_i, factor)
            columns.append(column)
    return columns, hyperplane_restriction(handle.omega, z)


def _basis_wedges(ctx_sub: SpaceContext, basis: list[AlternatingTensor]) -> dict:
    """The wedge of each pair of basis vectors, keyed by the pair of ``ctx_sub``."""
    return {key: wedge(basis[key[0]], basis[key[1]]) for key in ctx_sub.index_sets(2)}


def _lift_line(
    ctx: SpaceContext, columns: list[Sequence[Scalar]], line: AlternatingTensor
) -> AlternatingTensor:
    """Push a bivector of a subspace's context into the ambient without
    wedges: its coefficient at (i, j) is the (i, j) entry of B·C·B^T, with
    B the subspace basis as columns and C the skew coefficient matrix of
    ``line``, each entry one sum of products (reduced mod p over F_p)."""
    p = ctx.field.p
    rows = list(zip(*columns))  # the rows of B
    scaled = [[0] * len(columns) for _ in rows]  # B·C
    for (a, b), c in line.terms:
        for row, out in zip(rows, scaled):
            out[b] += row[a] * c
            out[a] -= row[b] * c
    coords = [sum(map(mul, scaled[i], rows[j])) for i, j in ctx.index_sets(2)]
    if p is not None:
        coords = [v % p for v in coords]
    return ctx.tensor_from_coords(2, "vector", coords)


def _sample_on_members(
    handle: ResidualHandle, rng: random.Random
) -> tuple[AlternatingTensor, AlternatingTensor, AlternatingTensor]:
    """(lifted line, line downstairs, restricted form) from the first of at
    most ``_SAMPLE_BUDGET`` random pencil members that yields a family line."""
    field = handle.ctx.field
    for _ in range(_SAMPLE_BUDGET):
        a = randbelow(rng, field.p)  # type: ignore[arg-type]
        b = randbelow(rng, field.p)  # type: ignore[arg-type]
        if field.is_zero(a) and field.is_zero(b):
            continue
        columns, omega_sub = _pencil_member_data(handle, a, b)
        # no full-rank gate downstairs: a failed member moves on to the next
        line_sub = draw_line_on_X(omega_sub, rng, _INNER_LINE_BUDGET)
        if line_sub is None:
            continue
        lifted = _lift_line(handle.ctx, columns, line_sub)
        # a line inside the base locus lies on every member: it fails like a member
        in_pi = all(covector_contract(d, lifted).is_zero() for d in (handle.x, handle.y))
        if not in_pi and member_Y(handle, lifted):
            return lifted, line_sub, omega_sub
    raise NonGenericFormError(
        "residual line sampling budget exhausted (non-generic form or small field)"
    )


def sample_line_on_Y(handle: ResidualHandle, seed: int = 0) -> AlternatingTensor:
    """A seed-deterministic line of the residual family.

    Draws a random pencil member, samples a line of the restricted family
    inside it (kernel directions for odd sub-dimension, rank-drop roots for
    even), and lifts the result back to the ambient space.
    """
    ctx = handle.ctx
    if ctx.field.kind != "prime":
        raise ConventionError("residual line sampling needs a prime field")
    rng = random.Random(
        derive_seed("residual-sample-line", ctx.n, ctx.field.p, seed)
    )
    return _sample_on_members(handle, rng)[0]


def Y_secancy_even(handle: ResidualHandle, seed: int = 0) -> tuple[int, bool]:
    """Rank-drop count along a sampled family line, inside its pencil member.

    For even ``n`` the restricted family downstairs has odd projective
    dimension, so the quotient Pfaffian pencil applies; the returned count is
    its total degree ``(n-2)/2``.  The second component reports whether the
    lifted line meets the base locus — inside a common hyperplane of
    dimension ``n`` that intersection is forced to be nonempty.
    """
    ctx = handle.ctx
    if ctx.n % 2:
        raise ConventionError("the secancy count along the pencil needs even n")
    if ctx.field.kind != "prime":
        raise ConventionError("residual line sampling needs a prime field")
    rng = random.Random(
        derive_seed("residual-secancy", ctx.n, ctx.field.p, seed)
    )
    lifted, line_sub, omega_sub = _sample_on_members(handle, rng)
    pencil = secant_pencil(omega_sub, line_sub)
    first, second = split_decomposable(lifted)
    joined = [first.coords(), second.coords(), *handle.pi.basis]
    meets_pi = 2 + handle.pi.linear_dim - matrix_rank(ctx.field, joined) >= 1
    return pencil.total_degree, meets_pi


# -- the singular locus: lines inside the base locus killed by the full form ------


def _base_locus_context(
    handle: ResidualHandle,
) -> tuple[SpaceContext, list[AlternatingTensor], dict]:
    basis = handle.pi.basis_tensors()
    ctx_pi = SpaceContext(len(basis) - 1, handle.ctx.field)
    return ctx_pi, basis, _basis_wedges(ctx_pi, basis)


def _singular_span(
    handle: ResidualHandle, ctx_pi: SpaceContext, lifted: dict
) -> LinearSubspace:
    """Bivectors of the base locus whose lift the full form kills (exact)."""
    columns = [
        contract(handle.omega, lifted[key]).coords()
        for key in ctx_pi.index_sets(2)
    ]
    return LinearSubspace.from_kernel(list(zip(*columns)), "bivectors", ctx_pi)


def _random_combination(
    acc: AlternatingTensor, basis: list[AlternatingTensor], rng: random.Random
) -> AlternatingTensor:
    """``acc`` plus c * b for each b of the basis in turn, each c uniform in F_p."""
    p: int = acc.ctx.field.p  # type: ignore[assignment]
    for b in basis:
        acc = acc.add(b.scale(randbelow(rng, p)))
    return acc


def _decomposable_in_basis(
    span: LinearSubspace, rng: random.Random | None
) -> AlternatingTensor | None:
    """Direct hits: basis vectors and, over F_p (``rng`` given), a few random
    combinations."""
    basis = span.basis_tensors()
    for b in basis:
        if not b.is_zero() and reduced_square(b).is_zero():
            return b
    if rng is None or len(basis) < 2:
        return None
    for _ in range(8):
        acc = _random_combination(span.ctx.zero_tensor(2, "vector"), basis, rng)
        if not acc.is_zero() and reduced_square(acc).is_zero():
            return acc
    return None


def _decomposable_by_line_search(
    span: LinearSubspace, rng: random.Random
) -> AlternatingTensor | None:
    """Roots of the decomposability quadrics along random lines of the span."""
    ctx = span.ctx
    field = ctx.field
    basis = span.basis_tensors()
    keys = list(ctx.index_sets(4))

    def quadrics(coords: list[Scalar]) -> list[Scalar]:
        square = reduced_square(ctx.tensor_from_coords(2, "vector", coords))
        values = square.coeff_map()
        return [values.get(key, field.zero()) for key in keys]

    for _ in range(_LINE_SEARCH_ROUNDS):
        base, direction = [
            _random_combination(ctx.zero_tensor(2, "vector"), basis, rng)
            for _ in range(2)
        ]
        if base.is_zero() or direction.is_zero():
            continue
        first, second = base.coords(), direction.coords()
        gcd = line_gcd(field, first, second, 2, quadrics)
        if gcd is None:
            continue
        # a gcd of degree 2 puts ``second`` off every restricted quadric
        for coords in line_zeros(field, first, second, gcd, 2):
            candidate = ctx.tensor_from_coords(2, "vector", coords)
            if reduced_square(candidate).is_zero():
                return candidate
    return None


# A ternary form over F_p: the coefficient of u^a v^b w^c at key (a, b, c),
# zero coefficients left out.
_Form = dict[tuple[int, int, int], int]


def _adjugate_forms(rows_at_anchors: list[list[list[int]]], p: int) -> dict:
    """The signed sub-Pfaffians of order m - 2 of M'(P) on a plane, as
    ternary forms of degree (m - 2)/2 in P = u·A0 + v·A1 + w·A2.

    M' is linear in P, so its (i, j) entry is the linear form whose
    coefficients are the (i, j) entries of M' at the three anchors.  The
    form at pair i < j is (-1)^(i+j+1) times the Pfaffian of M'(P) with rows
    and columns i and j left out; where M'(P) has corank two, these forms
    are the coordinates of a nonzero multiple of the wedge of its kernel.
    Each Pfaffian of a principal block is expanded along its first row, once
    per block.
    """
    size = len(rows_at_anchors[0])
    memo: dict[tuple[int, ...], _Form] = {(): {(0, 0, 0): 1}}

    def pfaffian_form(block: tuple[int, ...]) -> _Form:
        if block in memo:
            return memo[block]
        first = block[0]
        total: _Form = {}
        for pos in range(1, len(block)):
            linear = [rows[first][block[pos]] for rows in rows_at_anchors]
            sign = 1 if pos % 2 else -1
            minor = pfaffian_form(block[1:pos] + block[pos + 1 :])
            for (a, b, c), x in minor.items():
                for key, y in zip(((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)), linear):
                    total[key] = total.get(key, 0) + sign * x * y
        memo[block] = form = {key: v % p for key, v in total.items() if v % p}
        return form

    forms = {}
    for i, j in combinations(range(size), 2):
        block = tuple(k for k in range(size) if k != i and k != j)
        sign = 1 if (i + j) % 2 else -1
        forms[i, j] = {key: sign * v % p for key, v in pfaffian_form(block).items()}
    return forms


def _combined(forms: dict, weights: dict, p: int) -> _Form:
    """The sum over the pairs of each weight times the pair's form."""
    total: _Form = {}
    for pair, weight in weights.items():
        if weight:
            for key, v in forms[pair].items():
                total[key] = total.get(key, 0) + weight * v
    return {key: v % p for key, v in total.items() if v % p}


def _along(form: _Form, base: list[int], axis: int, degree: int, p: int) -> list[int]:
    """The form at the points base + t·e_axis, base[axis] = 0, as the
    coefficients in t of a polynomial of formal degree ``degree``."""
    out = [0] * (degree + 1)
    others = [k for k in range(3) if k != axis]
    for key, v in form.items():
        for k in others:
            v *= pow(base[k], key[k], p)
        out[key[axis]] += v
    return [v % p for v in out]


def _common_zeros(
    forms: tuple[_Form, _Form], degree: int, field: FieldSpec
) -> Optional[list[tuple[int, ...]]]:
    """Every common zero in P^2(F_p) of two ternary forms F, G of degree d,
    normalized (`normalize_projective`), or None when they may share a
    component.

    The centre is the coordinate point e_k of the first axis k (of w, v, u)
    whose pure power has a nonzero coefficient in F or G, so it is no common
    zero; with none, None.  Res_t(F, G) in the coordinate t of that axis, at
    formal degree d, is a binary form R of degree d² in the other two
    coordinates (a, b), zero exactly when F and G share a component, and its
    roots (a : b) are the lines through the centre that hold common zeros.
    R(a, 1) is interpolated from `poly_resultant_mod_p` at the nodes
    a = 0, ..., d², so F_p must hold d² + 1 elements; a degree below d² adds
    the root (1 : 0).  On each such line the common zeros are the common
    roots in t (`poly_roots_mod_p`).
    """
    p: int = field.p  # type: ignore[assignment]
    pure = [tuple(degree if k == axis else 0 for k in range(3)) for axis in range(3)]
    axis = next((k for k in (2, 1, 0) if any(pure[k] in form for form in forms)), None)
    if axis is None:
        return None
    first, second = (k for k in range(3) if k != axis)

    def base(a: int, b: int) -> list[int]:
        point = [0, 0, 0]
        point[first], point[second] = a, b
        return point

    nodes = range(degree * degree + 1)
    values = [
        poly_resultant_mod_p(*(_along(form, base(a, 1), axis, degree, p) for form in forms), p)
        for a in nodes
    ]
    resultant = interpolate(field, list(zip(nodes, values)))
    if resultant.is_zero():
        return None
    lines = [base(a, 1) for a in poly_roots_mod_p(resultant.coeffs, p)]
    if resultant.degree < degree * degree:
        lines.append(base(1, 0))
    zeros = []
    for line in lines:
        restricted = [_along(form, line, axis, degree, p) for form in forms]
        # the centre is no common zero, so F or G is nonzero along the line
        roots = [set(poly_roots_mod_p(poly, p)) for poly in restricted if any(poly)]
        for t in sorted(set.intersection(*roots)):
            line[axis] = t
            zeros.append(normalize_projective(line, p))
    return zeros


def _enumeration_key(point: tuple[int, ...]) -> tuple[int, ...]:
    """The place of a normalized point in `projective_points` order."""
    pivot = next(k for k, v in enumerate(point) if v)
    return (pivot, *reversed(point[pivot + 1 :]))


def _condition_weights(
    handle: ResidualHandle, ctx_pi: SpaceContext, basis: list[AlternatingTensor]
) -> list[tuple[dict, dict]]:
    """``_PLANE_PAIR_BUDGET`` pairs of weights on the pairs i < j of the base
    locus, each weight vector alpha·L for a seeded alpha (`derive_seed`, not
    the caller's generator), where column (i, j) of L is the contraction of
    the form with b_i ^ b_j.  Weighting the adjugate forms so gives alpha
    applied to the contraction of the form with the lifted kernel bivector:
    a combination of the conditions that the lift be killed."""
    ctx = handle.ctx
    p: int = ctx.field.p  # type: ignore[assignment]
    pairs = list(ctx_pi.index_sets(2))
    columns = [contract(handle.omega, wedge(basis[i], basis[j])).coords() for i, j in pairs]
    weights = []
    for attempt in range(_PLANE_PAIR_BUDGET):
        rng = random.Random(derive_seed("residual-plane-solve", ctx.n, ctx.field, attempt))
        alphas = [randbelow_many(rng, p, ctx.dim) for _ in range(2)]
        weights.append(
            tuple(
                {pair: sum(map(mul, alpha, column)) % p for pair, column in zip(pairs, columns)}
                for alpha in alphas
            )
        )
    return weights


def _plane_candidates(
    matrix: SkewLinearMatrix, anchors: list[list[int]], weights: list, field: FieldSpec
) -> Iterable[tuple[int, ...]]:
    """Points of the plane, as anchor coefficients in `projective_points`
    order, among which are all of the plane's hits.

    They are the common zeros of the adjugate forms weighted by the first
    pair of weights whose forms share no component (`_common_zeros`).  When
    F_p has too few elements for the resultant's nodes, or every pair shares
    a component, the plane is scanned point by point if it has at most
    ``_PLANE_SCAN_POINT_BUDGET`` points, and passed over otherwise.
    """
    p: int = field.p  # type: ignore[assignment]
    degree = (matrix.size - 2) // 2
    if p > degree * degree:
        forms = _adjugate_forms([matrix.rows_at(anchor) for anchor in anchors], p)
        for pair in weights:
            zeros = _common_zeros(tuple(_combined(forms, w, p) for w in pair), degree, field)
            if zeros is not None:
                return sorted(zeros, key=_enumeration_key)
    if p * p + p + 1 <= _PLANE_SCAN_POINT_BUDGET:
        return projective_points(field, 3)
    return ()


def _decomposable_by_plane_scan(
    handle: ResidualHandle,
    ctx_pi: SpaceContext,
    basis: list[AlternatingTensor],
    rng: random.Random,
) -> AlternatingTensor | None:
    """Odd ``n``: solve a plane of base-locus points for the one restricted
    line through each (its star), keeping a line whose lift the form kills.

    The restriction to the base locus has odd projective dimension, so a
    general point carries exactly one line of the restricted family; the
    locus of points whose line survives the two extra conditions has
    codimension two, so a random plane meets it in finitely many points.
    They are found by algebra (`_plane_candidates`), and the first, in
    `projective_points` order, that passes the two rank tests below gives
    the line: the one a scan of every point of the plane would stop at.

    Each candidate P is tested by two ranks, with B the basis of the base
    locus as columns and m its length.  First rank M'(P) = m - 2 on packed
    rows, M' the skew matrix of the restricted form: then P carries one line
    P^f.  Then rank N(P) <= m - 2, where N(P) = M(B·P)·B and M is the skew
    matrix of the form.  M'(P) = B^T·N(P), so ker N(P) lies in ker M'(P) =
    <P, f> and holds P; it holds f, which means that the form kills the lift
    B·P ^ B·f, exactly when the rank of N(P) is m - 2.  N is linear in P and
    is combined from its values at the three anchors of the plane.  Only the
    first hit builds its star, the line and the lift.
    """
    field = ctx_pi.field
    p: int = field.p  # type: ignore[assignment]
    matrix = build_M(pullback(handle.omega, basis))
    ambient = build_M(handle.omega)
    columns = [b.coords() for b in basis]
    dim = ctx_pi.dim
    weights = _condition_weights(handle, ctx_pi, basis)
    for _ in range(_PLANE_SCAN_ROUNDS):
        anchors = list(random_points(field, dim, rng, 3))
        if matrix_rank(field, anchors) != 3:
            continue
        plane = list(zip(*anchors))  # the rows of the matrix with the anchors as columns
        restricted = []  # N at each anchor a: row r of M(B·a) times each b_j
        for anchor in anchors:
            upstairs = [sum(map(mul, anchor, entries)) % p for entries in zip(*columns)]
            restricted.append(
                [
                    [sum(map(mul, row, column)) % p for column in columns]
                    for row in ambient.rows_at(upstairs)
                ]
            )
        for coeffs in _plane_candidates(matrix, anchors, weights, field):
            point = [sum(map(mul, row, coeffs)) % p for row in plane]
            rows, width = matrix.packed_rows_at(point)
            if packed_skew_mod_p(p, rows, width)[0] != dim - 2:
                continue
            n_rows = [
                [sum(map(mul, coeffs, entries)) % p for entries in zip(*blocks)]
                for blocks in zip(*restricted)
            ]
            if len(row_reduce(field, n_rows, dim, back_substitute=False)) > dim - 2:
                continue
            (direction,) = directions_through(matrix, point).basis
            line_sub = wedge(
                ctx_pi.vector_from_coords(point), ctx_pi.vector_from_coords(direction)
            )
            candidate = _lift_line(handle.ctx, columns, line_sub)
            if not contract(handle.omega, candidate).is_zero():
                raise RuntimeError("internal error: a plane hit fails its line test")
            return line_sub
    return None


def sing_Y_dimension(handle: ResidualHandle, seed: int = 0) -> int:
    """Certified dimension of the singular locus of the residual family.

    The singular locus consists of the lines inside the base locus that the
    full form kills.  Its linear span is computed exactly; a decomposable
    point of that span is then sampled (direct basis hits, root search along
    random lines of the span, or — for odd ``n`` — a plane solve through the
    one-line-per-point structure of the base-locus restriction), and the
    tangent dimension there is certified to equal the expected ``n - 5``.
    A sampling field with no reachable point is reported as an error rather
    than asserted around.
    """
    ctx = handle.ctx
    if ctx.n < 5:
        raise ConventionError("the singular locus needs n >= 5")
    ctx_pi, basis, lifted = _base_locus_context(handle)
    span = _singular_span(handle, ctx_pi, lifted)
    if span.linear_dim == 0:
        raise NonGenericFormError(
            "the singular locus has an empty linear span over this field"
        )
    rng = random.Random(derive_seed("residual-singular", ctx.n, ctx.field, seed))
    point = _decomposable_in_basis(span, rng if ctx.field.kind == "prime" else None)
    if point is None and ctx.field.kind == "prime":
        point = _decomposable_by_line_search(span, rng)
        if point is None and ctx.n % 2:
            point = _decomposable_by_plane_scan(handle, ctx_pi, basis, rng)
    if point is None:
        raise NonGenericFormError(
            "no singular point found over the sampling field"
        )
    tangent = tangent_intersection_dim(span, point)
    if tangent != ctx.n - 5:
        raise NonGenericFormError(
            f"singular point certifies tangent dimension {tangent}, "
            f"expected {ctx.n - 5}"
        )
    return tangent


# -- degree of the infinitely-many-lines locus, odd n ------------------------------


def _degree_containment_checks(handle: ResidualHandle, rng: random.Random) -> None:
    """The base locus, and sampled degeneracy points of lines of the ambient
    congruence, must lie on the locus whose degree was just measured."""
    ctx = handle.ctx
    pi_point = ctx.zero_tensor(1, "vector")
    while pi_point.is_zero():
        pi_point = _random_combination(pi_point, handle.pi.basis_tensors(), rng)
    if not G_membership(handle, pi_point)[0]:
        raise NonGenericFormError("a base-locus point fell off the measured locus")
    for attempt in range(6):
        try:
            line = sample_line_on_X(handle.omega, seed=attempt)
            pencil = secant_pencil(handle.omega, line)
        except (ConventionError, NonGenericFormError):
            continue
        roots = pencil.roots()
        if not roots:
            continue
        for root in roots[:2]:
            if not G_membership(handle, pencil.point_at(root))[0]:
                raise NonGenericFormError(
                    "a degeneracy point of a congruence line fell off the "
                    "measured locus"
                )
        return


def _line_minor_quotient(
    handle: ResidualHandle, first: list[Scalar], second: list[Scalar]
) -> Optional[UniPoly]:
    """The monic c along first + t*second for which the maximal minors of the
    line system are ±c(P)·P_i (`line_cofactor`, one `det` per node)."""
    ctx = handle.ctx
    rows = list(range(ctx.dim - 1))

    def maximal_minor(coords: list[Scalar], keep: list[int]) -> Scalar:
        return line_system(handle, coords).matrix.submatrix(rows, keep).det()

    return line_cofactor(ctx.field, first, second, ctx.n, maximal_minor)


def G_degree_odd(handle: ResidualHandle, seed: int = 0) -> int:
    """Degree of the locus of points on infinitely many family lines, odd n.

    Restricts the line system A(P) to random lines of points.  A(P) has
    shape ``(dim - 1) x dim`` and kills P, so its maximal minors are
    ±c(P)·P_i for one form c of degree ``n - 1``, read off one minor along
    each line (`_line_minor_quotient`).  c cuts the locus with multiplicity
    two (the kernel jumps by two there, so every maximal minor vanishes
    doubly).  Clean restrictions therefore show an even degree; the halved
    value must agree across three lines.  The result is spot-checked for
    containment: a random base-locus point, and the rank-drop points of a
    sampled congruence line when the field shows some, must test as members.
    """
    ctx = handle.ctx
    field = ctx.field
    if ctx.n % 2 == 0:
        raise ConventionError("the minor-gcd degree applies to odd n")
    if field.kind != "prime":
        raise ConventionError("degree sampling needs a prime field")
    rng = random.Random(derive_seed("residual-degree", ctx.n, field.p, seed))
    agreed: list[int] = []
    for _ in range(_DEGREE_LINE_BUDGET):
        if len(agreed) >= _AGREEING_LINES:
            break
        base, direction = independent_pair(field, ctx.dim, rng)
        gcd = _line_minor_quotient(handle, base, direction)
        if gcd is None or gcd.degree % 2:
            continue
        agreed.append(gcd.degree)
    if len(agreed) < _AGREEING_LINES or len(set(agreed)) != 1:
        raise NonGenericFormError(
            f"restricted line degrees disagree or ran out: {agreed}"
        )
    _degree_containment_checks(handle, rng)
    return agreed[0] // 2
