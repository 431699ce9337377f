"""Tests for the line-family module: membership, stars, sampling, tangents,
quadrics through the span, form recovery, and small-field classification."""

from __future__ import annotations

import random

import pytest

from triwedge import catalog
from triwedge.congruence import (
    LocalCertificate,
    classify_linear_section,
    draw_line_on_X,
    kernel_span,
    lines_through,
    member_X,
    order,
    quadrics_through_span,
    recover_forms,
    sample_line_on_X,
    tangent_certificate,
)
from triwedge.degeneracy import (
    build_M,
    directions_through,
    rank_at,
    split_decomposable,
)
from triwedge.exact_scalar import ConventionError, FieldSpec, matrix_rank
from triwedge.exterior_core import (
    AlternatingTensor,
    SpaceContext,
    contract,
    pair,
    random_tensor,
    reduced_square,
    wedge,
)
from triwedge.form_analysis import LinearSubspace, j_rank, span_lattice

from oracles import matvec_reference, row_lists, same_subspace

Q = FieldSpec.rationals()
F101 = FieldSpec.prime(101)


def random_point(ctx, rng):
    field = ctx.field
    while True:
        coords = [field.coerce(rng.randrange(field.p)) for _ in range(ctx.dim)]
        if any(not field.is_zero(c) for c in coords):
            return coords


def plane_intersection_dim(line, zero_indices):
    """Dimension of the intersection of a line's 2-plane with a coordinate
    subspace given by vanishing coordinates."""
    first, second = split_decomposable(line)
    field = line.ctx.field
    rows = [
        [first.coords()[i] for i in zero_indices],
        [second.coords()[i] for i in zero_indices],
    ]
    return 2 - matrix_rank(field, rows)


# -- span and handle ---------------------------------------------------------------


def test_kernel_span_codimension_equals_both_contraction_ranks():
    for name in catalog.list_names():
        omega, _ = catalog.get(name)
        span = kernel_span(omega)
        assert span.codim == j_rank(omega, 2)
        assert span.codim == j_rank(omega, 1)
        for b in span.basis_tensors():
            assert contract(omega, b).is_zero()


def test_kernel_span_matches_the_lattice_full_member():
    omega, _ = catalog.get("n6-g2")
    ctx = omega.ctx
    lattice = span_lattice(omega, ctx.basis_covector(0), ctx.basis_covector(1))
    assert same_subspace(lattice.full, kernel_span(omega))


def test_kernel_span_rank_law_on_degenerate_forms():
    ctx = SpaceContext(n=6, field=Q)
    omega = AlternatingTensor.make(ctx, 3, "form", {(0, 1, 2): 1})
    span = kernel_span(omega)
    assert span.codim == j_rank(omega, 2) == j_rank(omega, 1) == 3


# -- membership --------------------------------------------------------------------


def test_member_examples_for_the_two_plane_form():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx
    e = ctx.basis_vector
    assert member_X(omega, wedge(e(0), e(3)))
    assert not member_X(omega, wedge(e(0), e(1)))
    non_line = wedge(e(0), e(1)).add(wedge(e(2), e(3)))
    assert not member_X(omega, non_line)


def test_member_is_scaling_invariant():
    omega, _ = catalog.get("n7-ozeki", field=F101)
    line = sample_line_on_X(omega, seed=3)
    scaled_form = omega.scale(F101.coerce(17))
    scaled_line = line.scale(F101.coerce(29))
    assert member_X(scaled_form, scaled_line)


def test_member_rejects_the_zero_bivector():
    omega, _ = catalog.get("n5")
    with pytest.raises(ConventionError):
        member_X(omega, omega.ctx.zero_tensor(2, "vector"))


# -- stars of lines through a point ------------------------------------------------


def test_star_at_a_generic_point_odd_n():
    omega, _ = catalog.get("n5", field=F101)
    rng = random.Random(7)
    for _ in range(5):
        star = lines_through(omega, random_point(omega.ctx, rng))
        assert star.linear_dim == 1
        assert star.projective_dim == 0


def test_star_at_a_generic_point_even_n():
    omega, _ = catalog.get("n6-g2", field=F101)
    matrix = build_M(omega)
    rng = random.Random(8)
    generic_draws = 0
    for _ in range(8):
        coords = random_point(omega.ctx, rng)
        star = lines_through(omega, coords)
        if rank_at(matrix, coords) == 6:
            generic_draws += 1
            assert star.linear_dim == 0
            assert star.projective_dim == -1
        else:
            assert star.linear_dim == 2
    assert generic_draws >= 3


def test_star_at_a_deep_point_is_a_full_plane_of_lines():
    omega, _ = catalog.get("n5")
    for index in (0, 3):
        point = omega.ctx.basis_vector(index)
        star = lines_through(omega, point)
        assert star.linear_dim == 3
        assert star.projective_dim == 2
        for direction in star.basis_tensors():
            assert member_X(omega, wedge(point, direction))


def test_star_dimension_matches_the_point_matrix_kernel():
    rng = random.Random(11)
    for n in range(3, 8):
        ctx = SpaceContext(n=n, field=F101)
        for seed in range(4):
            omega = random_tensor(ctx, 3, "form", seed=200 + seed)
            if omega.is_zero():
                continue
            coords = random_point(ctx, rng)
            star = lines_through(omega, coords)
            kernel_dim = ctx.dim - rank_at(build_M(omega), coords)
            assert star.linear_dim == kernel_dim - 1


@pytest.mark.parametrize("field", [F101, Q])
def test_directions_through_one_matrix_equal_lines_through(field):
    rng = random.Random(17)
    for n in range(3, 9):
        ctx = SpaceContext(n=n, field=field)
        for seed in range(3):
            omega = random_tensor(ctx, 3, "form", seed=300 + seed)
            matrix = build_M(omega)
            # a basis vector, and coordinates that need coercion over F_p
            points = [ctx.basis_vector(seed)] + [
                [rng.randint(-3, 120) for _ in range(ctx.dim)] for _ in range(3)
            ]
            for point in points:
                star = directions_through(matrix, point)
                assert star == lines_through(omega, point)
                anchor = (
                    point
                    if isinstance(point, AlternatingTensor)
                    else ctx.vector_from_coords([field.coerce(v) for v in point])
                )
                for direction in star.basis_tensors():
                    assert contract(omega, wedge(anchor, direction)).is_zero()


@pytest.mark.parametrize("field", [F101, Q])
def test_directions_through_is_the_kernel_off_the_pivot_coordinate(field):
    # every direction v has M(P)·v = 0 and v_k = 0 at the first nonzero
    # coordinate k of P; the star has one dimension less than ker M(P)
    rng = random.Random(23)
    for n in range(4, 9):
        ctx = SpaceContext(n=n, field=field)
        omega = random_tensor(ctx, 3, "form", seed=400 + n)
        matrix = build_M(omega)
        points = [[0] * (n - 3) + [1, 0, 0, 5]] + [
            [rng.randint(-3, 120) for _ in range(ctx.dim)] for _ in range(3)
        ]
        for point in points:
            coords = [field.coerce(v) for v in point]
            pivot = next(i for i, c in enumerate(coords) if c)
            evaluated = matrix.evaluate(coords)
            star = directions_through(matrix, coords)
            rank = matrix_rank(field, row_lists(evaluated))
            assert star.linear_dim == ctx.dim - rank - 1
            for v in star.basis:
                assert v[pivot] == 0
                assert not any(matvec_reference(evaluated, v))


def test_star_rejects_the_zero_point():
    omega, _ = catalog.get("n5")
    with pytest.raises(ConventionError):
        lines_through(omega, [0] * 6)


# -- order -------------------------------------------------------------------------


def test_order_is_one_for_odd_and_zero_for_even_catalog_forms():
    expected = {
        "n3": 1,
        "n4": 0,
        "n5": 1,
        "n5-tangent": 1,
        "n6-g2": 0,
        "n7-ozeki": 1,
        "n7-djokovic": 1,
        "n8-family": 0,
    }
    for name, value in expected.items():
        omega, _ = catalog.get(name, field=F101)
        assert order(omega, samples=60, seed=0) == value


def test_order_matches_catalog_claims():
    for name in catalog.list_names():
        omega, entry = catalog.get(name, field=F101)
        claim = entry.expected.get("order")
        if claim is not None:
            assert order(omega, samples=60, seed=1) == claim.value


def test_order_is_deterministic_in_the_seed():
    omega, _ = catalog.get("n6-g2", field=F101)
    assert order(omega, samples=40, seed=5) == order(omega, samples=40, seed=5)


def test_order_requires_a_large_prime_field():
    omega, _ = catalog.get("n5")
    with pytest.raises(ConventionError):
        order(omega)
    small, _ = catalog.get("n5", field=FieldSpec.prime(7))
    with pytest.raises(ConventionError):
        order(small)


# -- line sampling -----------------------------------------------------------------


def test_sampled_lines_are_members_for_all_shapes():
    for name in ("n4", "n5", "n6-g2", "n7-ozeki", "n8-family"):
        omega, _ = catalog.get(name, field=F101)
        for seed in range(3):
            line = sample_line_on_X(omega, seed=seed)
            assert member_X(omega, line)
            assert reduced_square(line).is_zero()


def test_sampling_is_deterministic_in_the_seed():
    omega, _ = catalog.get("n7-ozeki", field=F101)
    assert sample_line_on_X(omega, seed=5).coords() == sample_line_on_X(
        omega, seed=5
    ).coords()


def test_sampled_line_meets_both_planes_of_the_two_plane_form():
    omega, _ = catalog.get("n5", field=F101)
    for seed in range(4):
        line = sample_line_on_X(omega, seed=seed)
        assert plane_intersection_dim(line, (0, 1, 2)) == 1
        assert plane_intersection_dim(line, (3, 4, 5)) == 1


def test_sampled_line_lies_on_the_rank_drop_quadric_for_even_n():
    omega, _ = catalog.get("n6-g2", field=F101)
    matrix = build_M(omega)
    field = omega.ctx.field
    for seed in range(3):
        line = sample_line_on_X(omega, seed=seed)
        first, second = split_decomposable(line)
        ranks = {rank_at(matrix, list(second.coords()))}
        for t in range(5):
            coords = [
                field.add(a, field.mul(field.coerce(t), b))
                for a, b in zip(first.coords(), second.coords())
            ]
            ranks.add(rank_at(matrix, coords))
        assert ranks == {4}


def test_sampling_rejects_rank_deficient_forms():
    ctx = SpaceContext(n=5, field=F101)
    omega = AlternatingTensor.make(ctx, 3, "form", {(0, 1, 2): 1})
    with pytest.raises(ConventionError):
        sample_line_on_X(omega)


def test_sampling_rejects_the_rationals():
    omega, _ = catalog.get("n5")
    with pytest.raises(ConventionError):
        sample_line_on_X(omega)


# -- tangent certificates ----------------------------------------------------------


def test_tangent_dimension_is_n_minus_one_at_sampled_lines():
    for name, n in (("n5", 5), ("n6-g2", 6), ("n7-ozeki", 7), ("n4", 4)):
        omega, _ = catalog.get(name, field=F101)
        for seed in range(2):
            cert = tangent_certificate(omega, sample_line_on_X(omega, seed=seed))
            assert cert.tangent_dim == n - 1
            assert cert.smooth_of_expected_dim


def test_tangent_dimension_over_the_rationals():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx
    cert = tangent_certificate(omega, wedge(ctx.basis_vector(0), ctx.basis_vector(3)))
    assert cert.tangent_dim == 4
    assert cert.smooth_of_expected_dim


def test_tangent_dimension_of_the_special_orbit_family():
    omega, _ = catalog.get("n5-tangent", field=F101)
    claim = catalog.get("n5-tangent")[1].expected["congruence_dim"]
    for seed in range(3):
        cert = tangent_certificate(omega, sample_line_on_X(omega, seed=seed))
        assert cert.tangent_dim == claim.value


def test_tangent_certificate_rejects_non_members():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx
    with pytest.raises(ConventionError):
        tangent_certificate(omega, wedge(ctx.basis_vector(0), ctx.basis_vector(1)))


def test_draw_line_on_X_over_the_rationals_is_a_convention_error():
    # the even-n attempt finds its points by a root scan, which needs F_p
    omega, _ = catalog.get("n6-g2")
    with pytest.raises(ConventionError, match="needs a prime field"):
        draw_line_on_X(omega, random.Random(0), 4)


def test_certificate_smoothness_follows_the_tangent_dimension():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx
    line = wedge(ctx.basis_vector(0), ctx.basis_vector(3))
    assert LocalCertificate(point=line, tangent_dim=4).smooth_of_expected_dim
    assert not LocalCertificate(point=line, tangent_dim=5).smooth_of_expected_dim
    with pytest.raises(ConventionError):
        LocalCertificate(point=ctx.zero_tensor(2, "vector"), tangent_dim=4)


# -- quadrics through the span -----------------------------------------------------


def test_quadric_system_dimension_and_family_match():
    for name, n in (("n5", 5), ("n6-g2", 6), ("n7-ozeki", 7), ("n7-djokovic", 7)):
        omega, _ = catalog.get(name)
        system = quadrics_through_span(omega)
        assert system.dimension == n + 1
        assert system.matches_wedge_family
        assert len(system.basis) == n + 1


def test_quadric_basis_vanishes_on_random_span_points():
    omega, _ = catalog.get("n5")
    system = quadrics_through_span(omega)
    span = kernel_span(omega)
    rng = random.Random(3)
    field = omega.ctx.field
    tensors = span.basis_tensors()
    for _ in range(10):
        point = omega.ctx.zero_tensor(2, "vector")
        for b in tensors:
            point = point.add(b.scale(field.coerce(rng.randint(-5, 5))))
        square = reduced_square(point)
        for eta in system.basis:
            assert field.is_zero(pair(eta, square))


def test_quadric_system_over_a_prime_field():
    omega, _ = catalog.get("n6-g2", field=F101)
    system = quadrics_through_span(omega)
    assert system.dimension == 7
    assert system.matches_wedge_family


def test_mixed_wedge_equals_the_polarized_square_in_characteristic_two():
    ctx = SpaceContext(n=6, field=FieldSpec.prime(2))
    for seed in range(6):
        a = random_tensor(ctx, 2, "vector", seed=seed)
        b = random_tensor(ctx, 2, "vector", seed=60 + seed)
        polarized = (
            reduced_square(a.add(b))
            .add(reduced_square(a).neg())
            .add(reduced_square(b).neg())
        )
        assert polarized.coords() == wedge(a, b).coords()


# -- form recovery -----------------------------------------------------------------


def contains_form(solutions, target):
    vectors = [s.coords() for s in solutions] + [target.coords()]
    return matrix_rank(target.ctx.field, vectors) == len(solutions)


def test_recovery_dimension_one_for_large_n():
    for name in ("n6-g2", "n7-ozeki", "n7-djokovic"):
        omega, _ = catalog.get(name)
        dimension, solutions = recover_forms(kernel_span(omega))
        assert dimension == 1
        assert contains_form(solutions, omega)


def test_recovery_dimension_two_for_the_two_plane_form():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx
    dimension, solutions = recover_forms(kernel_span(omega))
    assert dimension == 2
    assert contains_form(solutions, omega)
    for key in ((0, 1, 2), (3, 4, 5)):
        component = AlternatingTensor.make(ctx, 3, "form", {key: 1})
        assert contains_form(solutions, component)


def test_recovered_forms_kill_the_span():
    omega, _ = catalog.get("n7-ozeki")
    span = kernel_span(omega)
    _, solutions = recover_forms(span)
    for solution in solutions:
        for b in span.basis_tensors():
            assert contract(solution, b).is_zero()


def test_recovery_of_the_zero_subspace_is_everything():
    ctx = SpaceContext(n=5, field=Q)
    empty = LinearSubspace("bivectors", ctx, ())
    dimension, solutions = recover_forms(empty)
    assert dimension == 20
    assert len(solutions) == 20


def test_recovery_rejects_vector_subspaces():
    ctx = SpaceContext(n=5, field=Q)
    ambient = LinearSubspace("vectors", ctx, ())
    with pytest.raises(ConventionError):
        recover_forms(ambient)


# -- small-field classification ----------------------------------------------------


def test_classification_partitions_the_section_over_f2():
    omega, _ = catalog.get("n5")
    report = classify_linear_section(omega, omega.ctx.basis_covector(0), 2)
    assert report.space_linear_dim == 10
    assert report.total_points == 1023
    assert report.grassmannian_points == 71
    assert (report.only_full, report.only_split, report.overlap) == (28, 22, 21)
    assert report.neither == 0
    assert report.exhaustive
    assert report.overlap_on_hyperplane
    assert report.neither_witnesses == ()
    assert report.overlap_off_hyperplane == ()


def test_classification_of_the_span_itself_lands_in_one_family():
    omega, _ = catalog.get("n5")
    reduced, _ = catalog.get("n5", field=FieldSpec.prime(2))
    report = classify_linear_section(
        omega, omega.ctx.basis_covector(0), 2, space=kernel_span(reduced)
    )
    assert report.grassmannian_points == 49
    assert report.only_split == 0
    assert report.neither == 0
    assert report.only_full + report.overlap == 49


def test_classification_respects_the_enumeration_budget():
    omega, _ = catalog.get("n5")
    with pytest.raises(ConventionError):
        classify_linear_section(omega, omega.ctx.basis_covector(0), 101)


def test_classification_rejects_bad_directions():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx
    with pytest.raises(ConventionError):
        classify_linear_section(omega, ctx.zero_tensor(1, "form"), 2)
    with pytest.raises(ConventionError):
        classify_linear_section(omega, ctx.basis_vector(0), 2)
