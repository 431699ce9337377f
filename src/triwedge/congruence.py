"""The line congruence of a 3-form: the family of lines the form vanishes on.

A projective line corresponds to a nonzero decomposable bivector ``L``; the
form contains the line exactly when ``contract(omega, L) = 0``.  Everything
here is exact linear algebra in the bivector space:

* ``kernel_span`` — the linear span of the family, the kernel of
  ``L -> contract(omega, L)`` (`form_analysis.contraction_kernel`);
* ``lines_through`` — the star of family lines through a point, read off the
  kernel of the evaluated skew matrix of the point (`degeneracy`'s
  ``directions_through`` on a matrix built once);
* ``order`` — the sampled count of family lines through a random point, with
  an all-samples-must-agree policy;
* ``sample_line_on_X`` — a seed-deterministic line of the family along the
  star (``directions_through``) of a random point (odd ``n``) or of a rank-drop
  point on a restricted line (even ``n``); ``draw_line_on_X`` runs the same
  attempts on a caller's generator and budget;
* ``tangent_certificate`` — exact tangent dimension at a family line, by
  intersecting the tangent space of the decomposable locus with the span;
* ``quadrics_through_span`` — all quadratic equations (4-forms evaluated on
  reduced squares) vanishing on the span, compared with the wedge family
  ``{omega ^ x}``;
* ``recover_forms`` — all 3-forms vanishing on a given bivector subspace;
* ``classify_linear_section`` — exhaustive small-field classification of the
  decomposable points of the hyperplane-relaxed span (`contraction_kernel`
  of ``[x]``) into the families of ``omega`` and of its split-off restriction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from .degeneracy import (
    NonGenericFormError,
    SkewLinearMatrix,
    build_M,
    directions_through,
    independent_pair,
    line_subpfaffian_gcd,
    line_zeros,
    point_ranks,
    random_coords,
    random_points,
    require_three_form,
    split_decomposable,
)
from .exact_scalar import ConventionError, Scalar, matrix_rank, rank_kernel
from .exterior_core import (
    AlternatingTensor,
    SpaceContext,
    contract,
    covector_contract,
    derive_seed,
    pair,
    projective_point_count,
    projective_points,
    reduce_mod_p,
    reduced_square,
    split_along_covector,
    wedge,
)
from .form_analysis import (
    LinearSubspace,
    contraction_kernel,
    j_rank,
)

__all__ = [
    "MIN_ORDER_PRIME",
    "SECTION_POINT_BUDGET",
    "LocalCertificate",
    "QuadricSystem",
    "SectionPartition",
    "classify_linear_section",
    "draw_line_on_X",
    "kernel_span",
    "lines_through",
    "member_X",
    "order",
    "quadrics_through_span",
    "recover_forms",
    "sample_line_on_X",
    "tangent_certificate",
    "tangent_intersection_dim",
]

MIN_ORDER_PRIME = 101
SECTION_POINT_BUDGET = 10**6
_SAMPLE_RETRY_BUDGET = 64
_WITNESS_CAP = 128


def kernel_span(omega: AlternatingTensor) -> LinearSubspace:
    """Linear span of the line family: the exact kernel of L -> contract(omega, L)."""
    return contraction_kernel(omega)


def _require_bivector(ctx: SpaceContext, line: AlternatingTensor) -> None:
    if line.ctx != ctx:
        raise ConventionError("bivector lives on a different space")
    if line.variance != "vector" or line.degree != 2:
        raise ConventionError("expected a bivector")


def member_X(omega: AlternatingTensor, line: AlternatingTensor) -> bool:
    """True iff the nonzero bivector is decomposable and killed by the form."""
    require_three_form(omega)
    _require_bivector(omega.ctx, line)
    if line.is_zero():
        raise ConventionError("membership of the zero bivector is undefined")
    return reduced_square(line).is_zero() and contract(omega, line).is_zero()


def lines_through(omega: AlternatingTensor, point) -> LinearSubspace:
    """Directions f (mod the point) with contract(omega, P ^ f) = 0.

    The result is a complement of the point inside the kernel of its
    evaluated skew matrix, so its linear dimension is that kernel dimension
    minus one; projective dimension d means a d-dimensional family of lines
    of the congruence through the point.  A loop over points of one form
    builds M once and calls `directions_through` itself.
    """
    require_three_form(omega)
    return directions_through(build_M(omega), point)


def order(omega: AlternatingTensor, samples: int = 200, seed: int = 0) -> int:
    """Count of family lines through a general point, sampled over a prime field.

    Each draw contributes the projective star dimension plus one at a random
    point.  The returned count is the statistic of a general point — the
    minimal draw value, since the point rank only drops on a proper closed
    subset — and it is returned only once `samples` draws agree on it.  Draws
    with a strictly larger statistic land on that special subset; they are
    expected at a rate of about 1/p and are tolerated up to a fixed fraction
    of the requested samples, beyond which the form is reported non-generic
    instead of guessing a value.  Every draw counts towards the agreeing or
    the disagreeing draws, so at most ``samples`` plus that tolerance points
    are drawn (`random_points`), and each is ranked as it comes
    (`point_ranks`).
    """
    require_three_form(omega)
    field = omega.ctx.field
    if field.kind != "prime" or field.p < MIN_ORDER_PRIME:  # type: ignore[operator]
        raise ConventionError(
            f"order sampling needs a prime field with p >= {MIN_ORDER_PRIME}"
        )
    if samples < 1:
        raise ConventionError("order sampling needs at least one sample")
    rng = random.Random(
        derive_seed("congruence-order", omega.ctx.n, field.p, samples, seed)
    )
    matrix = build_M(omega)
    dim = omega.ctx.dim
    slack = max(16, samples // 4)
    best = dim
    agree = 0
    disagree = 0
    for rank in point_ranks(matrix, random_points(field, dim, rng, samples + slack)):
        value = dim - rank - 1
        if value < best:
            disagree += agree
            best = value
            agree = 1
        elif value == best:
            agree += 1
        else:
            disagree += 1
        if agree >= samples:
            return best
        if disagree > slack:
            break
    raise NonGenericFormError(
        "line-count statistic disagreed beyond the special-locus tolerance"
    )


def sample_line_on_X(omega: AlternatingTensor, seed: int = 0) -> AlternatingTensor:
    """A seed-deterministic decomposable bivector of the line family.

    Odd ``n``: draw points until one has a star of one direction (the generic
    corank two), and wedge it with that direction.  Even ``n``: restrict the
    skew matrix to a random line, locate a rank-drop point among the roots of
    the sub-Pfaffian gcd (the restriction's direction covers the root at
    infinity), and wedge the first with a nonempty star with a direction of it.
    """
    require_three_form(omega)
    ctx = omega.ctx
    field = ctx.field
    if field.kind != "prime":
        raise ConventionError("line sampling needs a prime field")
    if j_rank(omega, 1) != ctx.n + 1:
        raise ConventionError(
            "line sampling requires a form whose contraction map has full rank"
        )
    rng = random.Random(derive_seed("congruence-sample-line", ctx.n, field.p, seed))
    line = draw_line_on_X(omega, rng, _SAMPLE_RETRY_BUDGET)
    if line is None:
        raise NonGenericFormError(
            "line sampling budget exhausted (non-generic form or small field)"
        )
    return line


def draw_line_on_X(
    omega: AlternatingTensor, rng: random.Random, budget: int
) -> AlternatingTensor | None:
    """A line of the family from at most ``budget`` attempts on ``rng``, or None.

    Each attempt is the odd or even ``n`` search of `sample_line_on_X`, and
    its line counts only when `member_X` confirms it.  Unlike
    `sample_line_on_X` there is no full-rank gate: restrictions to
    hyperplanes can have structurally non-maximal contraction rank (a 3-form
    on a 4-dimensional space never reaches it), so a failure is left to the
    caller.
    """
    matrix = build_M(omega)
    attempt = _odd_line_attempt if omega.ctx.n % 2 else _even_line_attempt
    for _ in range(budget):
        line = attempt(omega, matrix, rng)
        if line is not None and member_X(omega, line):
            return line
    return None


def _odd_line_attempt(
    omega: AlternatingTensor, matrix: SkewLinearMatrix, rng: random.Random
) -> AlternatingTensor | None:
    ctx = omega.ctx
    coords = random_coords(ctx.field, ctx.dim, rng)
    star = directions_through(matrix, coords)
    if star.linear_dim != 1:
        return None
    return wedge(ctx.vector_from_coords(coords), ctx.vector_from_coords(star.basis[0]))


def _even_line_attempt(
    omega: AlternatingTensor, matrix: SkewLinearMatrix, rng: random.Random
) -> AlternatingTensor | None:
    ctx = omega.ctx
    field = ctx.field
    first, second = independent_pair(field, ctx.dim, rng)
    gcd = line_subpfaffian_gcd(matrix, first, second)
    if gcd is None:
        return None
    # g has degree n/2 - 1, so ``second`` is listed exactly when g vanishes there
    for coords in line_zeros(field, first, second, gcd, ctx.n // 2 - 1):
        # M(P) has odd size and so odd corank: a nonempty star means rank <= n - 2
        star = directions_through(matrix, coords)
        if star.linear_dim:
            return wedge(
                ctx.vector_from_coords(coords), ctx.vector_from_coords(star.basis[0])
            )
    return None


@dataclass(frozen=True)
class LocalCertificate:
    """Exact local data of the line family at one of its lines."""

    point: AlternatingTensor
    tangent_dim: int

    def __post_init__(self) -> None:
        _require_bivector(self.point.ctx, self.point)
        if self.point.is_zero():
            raise ConventionError("certificate point must be a nonzero bivector")

    @property
    def smooth_of_expected_dim(self) -> bool:
        return self.tangent_dim == self.point.ctx.n - 1


def tangent_intersection_dim(
    span: LinearSubspace, line: AlternatingTensor
) -> int:
    """Projective dimension of T_L(decomposable locus) meet a bivector subspace.

    The tangent space of the decomposable locus at ``L = e ^ f`` is spanned by
    ``e ^ V`` and ``V ^ f``; its intersection with the given subspace is
    computed exactly by joining the two spans.
    """
    ctx = line.ctx
    field = ctx.field
    _require_bivector(ctx, line)
    if span.ambient != "bivectors" or span.ctx != ctx:
        raise ConventionError("span must be a bivector subspace on the line's space")
    if line.is_zero() or not reduced_square(line).is_zero():
        raise ConventionError("tangent space requires a nonzero decomposable bivector")
    first, second = split_decomposable(line)
    columns: list[tuple[Scalar, ...]] = []
    for i in range(ctx.dim):
        basis_vec = ctx.basis_vector(i)
        for generator in (wedge(first, basis_vec), wedge(basis_vec, second)):
            if not generator.is_zero():
                columns.append(generator.coords())
    tangent_rank = matrix_rank(field, columns)
    joined_rank = matrix_rank(field, columns + list(span.basis))
    return tangent_rank + span.linear_dim - joined_rank - 1


def tangent_certificate(
    omega: AlternatingTensor, line: AlternatingTensor
) -> LocalCertificate:
    """Projective tangent dimension of the family at one of its lines.

    Intersects the tangent space of the decomposable locus with the span of
    the family; the certificate is smooth exactly when the projective
    intersection dimension equals ``n - 1``.
    """
    if not member_X(omega, line):
        raise ConventionError("tangent certificate requires a line of the family")
    return LocalCertificate(
        point=line, tangent_dim=tangent_intersection_dim(kernel_span(omega), line)
    )


@dataclass(frozen=True)
class QuadricSystem:
    """All quadratic equations through the span of the line family."""

    basis: tuple[AlternatingTensor, ...]
    matches_wedge_family: bool

    def __post_init__(self) -> None:
        for eta in self.basis:
            if eta.variance != "form" or eta.degree != 4:
                raise ConventionError("quadric system basis must consist of 4-forms")

    @property
    def dimension(self) -> int:
        return len(self.basis)


def quadrics_through_span(omega: AlternatingTensor) -> QuadricSystem:
    """Solve for 4-forms whose quadric L -> eta(reduced_square(L)) kills the span.

    Vanishing on the subspace is encoded on a basis {b_i} by the diagonal
    evaluations eta(reduced_square(b_i)) together with the mixed evaluations
    eta(b_i ^ b_j); the mixed 4-vector equals the polarization
    reduced_square(b_i + b_j) - reduced_square(b_i) - reduced_square(b_j) as
    an integer-coefficient identity, so the same rows are correct in every
    characteristic, including two.  Also reports whether the solution space
    equals the wedge family {omega ^ x : x a covector}.
    """
    require_three_form(omega)
    ctx = omega.ctx
    field = ctx.field
    span = kernel_span(omega)
    tensors = span.basis_tensors()
    rows: list[tuple[Scalar, ...]] = [reduced_square(b).coords() for b in tensors]
    for i in range(len(tensors)):
        for j in range(i + 1, len(tensors)):
            rows.append(wedge(tensors[i], tensors[j]).coords())
    _, kernel = rank_kernel(field, rows, len(list(ctx.index_sets(4))))
    basis = tuple(ctx.tensor_from_coords(4, "form", vector) for vector in kernel)
    family = [wedge(omega, ctx.basis_covector(k)).coords() for k in range(ctx.dim)]
    matches = (
        len(kernel) == matrix_rank(field, family)
        and matrix_rank(field, list(kernel) + family) == len(kernel)
    )
    return QuadricSystem(basis=basis, matches_wedge_family=matches)


def recover_forms(
    span: LinearSubspace,
) -> tuple[int, tuple[AlternatingTensor, ...]]:
    """All 3-forms vanishing on a bivector subspace: dimension and a basis.

    Solves the exact linear system contract(form, b_i) = 0 over the given
    basis; the zero subspace therefore recovers the whole space of 3-forms.
    """
    if span.ambient != "bivectors":
        raise ConventionError("form recovery expects a subspace of bivectors")
    ctx = span.ctx
    field = ctx.field
    triples = list(ctx.index_sets(3))
    basis_forms = [
        AlternatingTensor.make(ctx, 3, "form", {key: 1}) for key in triples
    ]
    bivectors = span.basis_tensors()
    # the column of a form stacks its contractions with every basis bivector
    columns = [
        [v for b in bivectors for v in contract(f, b).coords()] for f in basis_forms
    ]
    _, kernel = rank_kernel(field, list(zip(*columns)), len(basis_forms))
    solutions = tuple(ctx.tensor_from_coords(3, "form", vector) for vector in kernel)
    return len(kernel), solutions


@dataclass(frozen=True)
class SectionPartition:
    """Exhaustive classification of the decomposable small-field points of a
    bivector subspace against two line families."""

    n: int
    p: int
    space_linear_dim: int
    total_points: int
    only_full: int
    only_split: int
    overlap: int
    neither: int
    neither_witnesses: tuple[tuple[int, ...], ...]
    overlap_off_hyperplane: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.grassmannian_points > self.total_points:
            raise ConventionError("more decomposables than enumerated points")

    @property
    def grassmannian_points(self) -> int:
        """The decomposable points: the four buckets together."""
        return self.only_full + self.only_split + self.overlap + self.neither

    @property
    def exhaustive(self) -> bool:
        return self.neither == 0

    @property
    def overlap_on_hyperplane(self) -> bool:
        return not self.overlap_off_hyperplane


def classify_linear_section(
    omega: AlternatingTensor,
    x: AlternatingTensor,
    p: int,
    space: LinearSubspace | None = None,
) -> SectionPartition:
    """Enumerate the F_p-points of the x-relaxed span and classify each
    decomposable one against the family of omega and the family of the
    split-off restriction omega_x (lines inside the hyperplane x = 0).

    The report also checks that every overlap point lies on the hyperplane
    cut out by the split residue beta_x.
    """
    require_three_form(omega)
    if x.variance != "form" or x.degree != 1:
        raise ConventionError("classification needs a covector direction")
    if x.ctx != omega.ctx:
        raise ConventionError("covector lives on a different space")
    omega_p = reduce_mod_p(omega, p)
    x_p = reduce_mod_p(x, p)
    if x_p.is_zero():
        raise ConventionError(f"cannot classify along a covector that is zero mod {p}")
    ctx = omega_p.ctx
    field = ctx.field
    if space is None:
        space = contraction_kernel(omega_p, [x_p])
    elif space.ambient != "bivectors" or space.ctx != ctx:
        raise ConventionError(
            "custom space must be a bivector subspace over the same prime field"
        )
    total = projective_point_count(p, space.linear_dim)
    if total > SECTION_POINT_BUDGET:
        raise ConventionError(
            f"{total} projective points exceed the enumeration budget"
        )
    split_form, beta, _ = split_along_covector(omega_p, x_p)
    counts = {"only_full": 0, "only_split": 0, "overlap": 0, "neither": 0}
    neither_witnesses: list[tuple[int, ...]] = []
    violations: list[tuple[int, ...]] = []
    coordinate_rows = list(zip(*space.basis))
    for coeffs in projective_points(field, space.linear_dim):
        coords = [sum(map(mul, coeffs, row)) % p for row in coordinate_rows]
        line = ctx.tensor_from_coords(2, "vector", coords)
        if not reduced_square(line).is_zero():
            continue
        in_full = contract(omega_p, line).is_zero()
        in_split = (
            covector_contract(x_p, line).is_zero()
            and contract(split_form, line).is_zero()
        )
        if in_full and in_split:
            counts["overlap"] += 1
            if not field.is_zero(pair(beta, line)):
                if len(violations) < _WITNESS_CAP:
                    violations.append(tuple(int(v) for v in coords))
        elif in_full:
            counts["only_full"] += 1
        elif in_split:
            counts["only_split"] += 1
        else:
            counts["neither"] += 1
            if len(neither_witnesses) < _WITNESS_CAP:
                neither_witnesses.append(tuple(int(v) for v in coords))
    return SectionPartition(
        n=ctx.n,
        p=p,
        space_linear_dim=space.linear_dim,
        total_points=total,
        neither_witnesses=tuple(neither_witnesses),
        overlap_off_hyperplane=tuple(violations),
        **counts,
    )
