"""Tests for rank analysis, genericity, the quadric of a 4-form, and the
bivector subspace lattice.

Expected ranks and codimensions follow the closed-form laws for the three
structured shapes of 4-form (totally decomposable; 2-form times two
covectors; 3-form times one covector) and the codimension laws for the
subspace lattice of a full-rank 3-form; each was confirmed by independent
hand computation on the concrete instances below before freezing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwedge import catalog, congruence, degeneracy, form_analysis
from triwedge.exact_scalar import (
    ConventionError,
    FieldSpec,
    byte_lanes,
    lane_skew_ranks,
    matrix_rank,
    randbelow,
    randbelow_many,
    rank_kernel,
)
from triwedge.exterior_core import (
    AlternatingTensor,
    SpaceContext,
    contract,
    derive_seed,
    pair,
    projective_point_count,
    projective_points,
    pullback,
    random_tensor,
    reduced_square,
    wedge,
)
from triwedge.form_analysis import (
    EXHAUSTIVE_POINT_BUDGET,
    LinearSubspace,
    QuadricAnalysis,
    SkewLinearMatrix,
    build_M,
    bivector_contraction,
    contraction_kernel,
    contraction_matrix,
    covector_echelon,
    first_rank_at_most_two,
    genericity,
    j_rank,
    point_contraction_rank,
    point_coords,
    point_ranks,
    polar_quadric,
    quadric_of,
    random_points,
    span_lattice,
)
from triwedge.congruence import kernel_span
from triwedge.degeneracy import NonGenericFormError
from triwedge.suites import RunConfig, run_suite

from oracles import (
    contains_subspace_reference,
    contraction_matrix_reference,
    entry_form,
    evaluate_reference,
    evaluated_rank,
    first_rank_at_most_two_reference,
    packed_rows_reference,
    point_contraction_rank_reference,
    point_in_kernel_reference,
    point_ranks_reference,
    polar_matrix_reference,
    quadric_contains_subspace,
    relaxed_span_reference,
    row_lists,
    same_subspace,
    singular_locus,
    span_lattice_reference,
)

QQ = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F31 = FieldSpec.prime(31)
F101 = FieldSpec.prime(101)


def two_planes(ctx: SpaceContext) -> AlternatingTensor:
    return AlternatingTensor.make(ctx, 3, "form", {(0, 1, 2): 1, (3, 4, 5): 1})


# --- LinearSubspace.pullback -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from([QQ, F3, F101]),
    n=st.integers(4, 7),
    seed=st.integers(0, 10**6),
    count=st.integers(1, 2),
)
def test_pullback_on_the_int_basis_keeps_the_restricted_ranks(field, n, seed, count):
    # the rank laws' restricted rank, against the pullback on the basis
    # tensors of the annihilator as the subspace holds them
    ctx = SpaceContext(n, field)
    covectors = [random_tensor(ctx, 1, "form", seed + k) for k in range(count)]
    space = LinearSubspace.annihilator(ctx, covectors)
    if space.linear_dim < 4:
        return
    for degree in (2, 3):
        form = random_tensor(ctx, degree, "form", seed)
        restricted = space.pullback(form)
        reference = pullback(form, space.basis_tensors())
        for j in range(1, degree):
            assert j_rank(restricted, j) == j_rank(reference, j)


# --- j_rank -------------------------------------------------------------------


def test_j_rank_of_totally_decomposable_form():
    ctx = SpaceContext(5, QQ)
    omega = AlternatingTensor.make(ctx, 3, "form", {(0, 1, 2): 1})
    assert j_rank(omega, 1) == 3


def test_j_rank_of_two_covector_shape():
    # (x2^x3 + x4^x5) ^ x0 ^ x1: contraction rank on bivectors is 2*4 + 2
    ctx = SpaceContext(5, QQ)
    beta = AlternatingTensor.make(ctx, 2, "form", {(2, 3): 1, (4, 5): 1})
    eta = wedge(beta, wedge(ctx.basis_covector(0), ctx.basis_covector(1)))
    assert j_rank(eta, 2) == 10


def test_j_rank_of_one_covector_shape():
    # omega with full 5-dimensional restriction away from x0: rank doubles
    ctx = SpaceContext(5, QQ)
    omega = AlternatingTensor.make(ctx, 3, "form", {(1, 2, 3): 1, (3, 4, 5): 1})
    assert j_rank(omega, 1) == 5
    eta = wedge(omega, ctx.basis_covector(0))
    assert j_rank(eta, 2) == 10


def test_j_rank_rejects_bad_degree():
    ctx = SpaceContext(5, QQ)
    omega = two_planes(ctx)
    with pytest.raises(ValueError):
        j_rank(omega, 0)
    with pytest.raises(ValueError):
        j_rank(omega, 3)


def test_point_contraction_rank_matches_generic_path():
    ctx = SpaceContext(6, F101)
    omega = random_tensor(ctx, 3, "form", 31)
    for seed in range(10):
        v = random_tensor(ctx, 1, "vector", seed)
        if v.is_zero():
            continue
        coords = v.coords()
        two_form = contract(omega, v)
        expected = j_rank_of_two_form(two_form)
        assert point_contraction_rank(build_M(omega), coords) == expected


@st.composite
def forms_and_points(draw):
    """A 3-form with n = 3..8 over Q or F_p, p in {2, 3, 5, 101}, and three
    nonzero points.  A quarter of the forms are random; the rest make low
    point ranks common: sums of 1-4 random monomials, sums of one or two
    decomposable forms u^v^w (point rank at most 2 or 4), and the two-planes
    form (rank 2 on its two planes)."""
    n = draw(st.integers(3, 8))
    field = draw(
        st.sampled_from([QQ, FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), F101])
    )
    ctx = SpaceContext(n, field)
    coeff = st.integers(-5, 5) if field.kind == "rational" else st.integers(0, field.p - 1)
    shape = draw(st.sampled_from(["random", "monomials", "decomposable", "two-planes"]))
    if shape == "random":
        omega = random_tensor(ctx, 3, "form", draw(st.integers(0, 10**6)))
    elif shape == "monomials":
        index = st.lists(st.integers(0, n), min_size=3, max_size=3, unique=True)
        terms = draw(st.lists(st.tuples(index, coeff), min_size=1, max_size=4))
        omega = AlternatingTensor.make(ctx, 3, "form", terms)
    elif shape == "decomposable" or n < 5:
        covector = st.lists(coeff, min_size=n + 1, max_size=n + 1)
        omega = ctx.zero_tensor(3, "form")
        for _ in range(draw(st.integers(1, 2))):
            u, v, w = (
                ctx.tensor_from_coords(1, "form", [field.coerce(c) for c in draw(covector)])
                for _ in range(3)
            )
            omega = omega.add(wedge(wedge(u, v), w))
    else:
        omega = two_planes(ctx)
    point = st.lists(coeff, min_size=n + 1, max_size=n + 1).filter(any)
    return omega, [field.coerce(v) for v in draw(point)], draw(point), draw(point), draw(coeff)


@settings(max_examples=200, deadline=None)
@given(case=forms_and_points())
def test_point_rank_matches_the_evaluated_matrix(case):
    omega, x, b, c, scalar = case
    field = omega.ctx.field
    M = build_M(omega)
    rank = evaluated_rank(M, x)
    assert point_contraction_rank(M, x) == rank
    assert first_rank_at_most_two(M, [x]) == ((0, x) if rank <= 2 else None)
    # the plane solve's identity M(s*x + t*b + u*c) = s*M(x) + t*M(b) + u*M(c)
    s, t, u = (field.coerce(v) for v in (scalar, scalar + 1, 2))
    b, c = ([field.coerce(v) for v in q] for q in (b, c))
    combined = [
        field.add(field.add(field.mul(s, xi), field.mul(t, bi)), field.mul(u, ci))
        for xi, bi, ci in zip(x, b, c)
    ]
    expected = [
        field.add(field.add(field.mul(s, ex), field.mul(t, eb)), field.mul(u, ec))
        for ex, eb, ec in zip(*(M.evaluate(q).entries for q in (x, b, c)))
    ]
    assert list(M.evaluate(combined).entries) == expected


@settings(max_examples=200, deadline=None)
@given(case=forms_and_points())
def test_evaluate_matches_the_field_operation_reference(case):
    omega, x, b, _, _ = case
    M = build_M(omega)
    assert M.evaluate(x) == evaluate_reference(M, x)
    # b is passed as drawn; both routes coerce it into the field
    assert M.evaluate(b) == evaluate_reference(M, b)
    assert M.rows_at(x) == row_lists(M.evaluate(x))


# --- point coordinates ----------------------------------------------------------


def test_point_coords_pass_canonical_residues_through():
    ctx = SpaceContext(3, F101)
    point = [0, 1, 57, 100]
    coords = point_coords(ctx, point)
    assert coords == (0, 1, 57, 100)
    assert all(type(v) is int for v in coords)
    # the values themselves, not copies made by coercion
    assert all(a is b for a, b in zip(coords, point))


@pytest.mark.parametrize(
    "value, expected",
    [(-1, 100), (101, 0), (205, 3), (True, 1), (Fraction(1, 2), 51), ("-2/5", 40)],
)
def test_point_coords_coerce_everything_else_as_before(value, expected):
    ctx = SpaceContext(3, F101)
    coords = point_coords(ctx, [1, value, 0, 2])
    assert coords == (1, expected, 0, 2)
    assert all(type(v) is int for v in coords)
    assert coords == tuple(F101.coerce(v) for v in [1, value, 0, 2])


def test_point_coords_reject_floats_and_wrong_lengths():
    for field in (F101, QQ):
        ctx = SpaceContext(3, field)
        with pytest.raises(ConventionError, match="float"):
            point_coords(ctx, [1, 0.5, 0, 2])
        with pytest.raises(ConventionError, match="expected 4 coordinates"):
            point_coords(ctx, [1, 2, 3])
    with pytest.raises(ConventionError, match="expected 4 coordinates"):
        point_coords(SpaceContext(3, F101), [1, 2, 3, 4, 5])


def test_point_coords_over_the_rationals_are_fractions():
    coords = point_coords(SpaceContext(3, QQ), [1, "1/3", Fraction(2, 4), True])
    assert coords == (1, Fraction(1, 3), Fraction(1, 2), 1)
    assert all(type(v) is Fraction for v in coords)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 8),
    i=st.integers(-2, 10),
    j=st.integers(-2, 10),
    k=st.integers(-2, 10),
)
def test_skew_matrix_rejects_entries_off_the_upper_triangle(n, i, j, k):
    ctx = SpaceContext(n, F101)
    pairs = (((i, j), ((k, 1),)),)
    if 0 <= i < j <= n and 0 <= k <= n:
        assert entry_form(SkewLinearMatrix(ctx, pairs), j, i).coefficient((k,)) == 100
    else:
        with pytest.raises(ConventionError):
            SkewLinearMatrix(ctx, pairs)


def test_skew_matrix_rejects_a_pair_listed_twice():
    # Two term lists for (0, 1): an evaluation that kept one and a Pfaffian
    # table that kept the other would disagree at [1, 0, 0, 0], rank 4
    # against "rank at most 2".
    ctx = SpaceContext(3, F101)
    twice = (((0, 1), ((0, 1),)), ((0, 1), ((1, 1),)), ((2, 3), ((0, 1),)))
    with pytest.raises(ConventionError, match="listed twice"):
        SkewLinearMatrix(ctx, twice)
    for terms in (((0, 1),), ((1, 1),)):
        M = SkewLinearMatrix(ctx, (((0, 1), terms), ((2, 3), ((0, 1),))))
        rank = point_contraction_rank(M, [1, 0, 0, 0])
        assert rank == evaluated_rank(M, [1, 0, 0, 0])
        assert (first_rank_at_most_two(M, [[1, 0, 0, 0]]) is not None) == (rank <= 2)


# Small primes, word-size primes and the Mersenne primes 2^31 - 1 and 2^61 - 1,
# whose packed slots are the widest.
PACKED_PRIMES = (2, 3, 101, 32003, 2**31 - 1, 2**61 - 1)


@st.composite
def pair_tables_and_points(draw):
    """A hand-built pair table over F_p with 4 to 12 rows and a point of
    residues.  Coefficients are unreduced, negative or p - 1, and a
    coordinate may repeat within an entry, sometimes with cancelling
    coefficients.  Half the tables list a random set of entries; in the
    other half the coefficients of x_0 form a sum of 0 to 3 products u^v and
    the point is a multiple of e_0, so its rank is at most 6."""
    p = draw(st.sampled_from(PACKED_PRIMES))
    dim = draw(st.integers(4, 12))
    upper = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    coeff = st.integers(-3 * p, 3 * p) | st.sampled_from([-1, 0, p - 1, p, 2 * p - 1])
    coordinate = st.integers(0, dim - 1) | st.integers(0, 1)
    residue = st.integers(0, p - 1) | st.sampled_from([0, p - 1])
    vector = st.lists(residue, min_size=dim, max_size=dim)
    pairs = []
    if draw(st.booleans()):
        for pair in draw(st.lists(st.sampled_from(upper), unique=True, max_size=len(upper))):
            terms = draw(st.lists(st.tuples(coordinate, coeff), min_size=1, max_size=4))
            if draw(st.booleans()):
                k, c = terms[0]
                terms.append((k, -c))
            pairs.append((pair, tuple(terms)))
        point = draw(vector)
    else:
        products = [(draw(vector), draw(vector)) for _ in range(draw(st.integers(0, 3)))]
        for i, j in upper:
            c = sum(u[i] * v[j] - u[j] * v[i] for u, v in products)
            part = draw(coeff)
            others = draw(st.lists(st.tuples(st.integers(1, dim - 1), coeff), max_size=2))
            pairs.append(((i, j), ((0, part), *others, (0, c - part))))
        point = [draw(st.integers(1, p - 1))] + [0] * (dim - 1)
    return SkewLinearMatrix(SpaceContext(dim - 1, FieldSpec.prime(p)), tuple(pairs)), point


@settings(max_examples=300, deadline=None)
@given(case=pair_tables_and_points())
def test_packed_point_rank_matches_row_reduction_on_hand_built_tables(case):
    M, point = case
    assert point_contraction_rank(M, point) == evaluated_rank(M, point)


# F_2, F_3, F_101 and the Mersenne prime 2^61 - 1, whose packed slots are the
# widest.
KERNEL_FIELDS = tuple(FieldSpec.prime(p) for p in (2, 3, 101, 2**61 - 1))


@st.composite
def kernel_forms(draw):
    """A 3-form on a space of dimension 4 to 10 over a field of
    `KERNEL_FIELDS`: random, a sum of 1 to 6 monomials, or, from dimension 6
    on, the two-planes form, whose points of either plane have rank 2."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    ctx = SpaceContext(draw(st.integers(3, 9)), field)
    shape = draw(st.sampled_from(["random", "monomials", "two-planes"]))
    if shape == "two-planes" and ctx.dim >= 6:
        return two_planes(ctx)
    if shape == "monomials":
        index = st.lists(st.integers(0, ctx.n), min_size=3, max_size=3, unique=True)
        coeff = st.integers(1, field.p - 1) | st.just(field.p - 1)
        terms = draw(st.lists(st.tuples(index, coeff), min_size=1, max_size=6))
        return AlternatingTensor.make(ctx, 3, "form", terms)
    return random_tensor(ctx, 3, "form", draw(st.integers(0, 10**6)))


def residues(p: int, dim: int):
    return st.lists(
        st.integers(0, p - 1) | st.sampled_from([0, 1, p - 1]), min_size=dim, max_size=dim
    )


@settings(max_examples=150, deadline=None)
@given(omega=kernel_forms(), data=st.data())
def test_packed_rows_match_the_per_row_reference(omega, data):
    M = build_M(omega)
    p = omega.ctx.field.p
    coords = data.draw(
        residues(p, M.size)
        | st.lists(st.integers(-2 * p, 2 * p), min_size=M.size, max_size=M.size)
    )
    assert M.packed_rows_at(coords) == packed_rows_reference(M, coords)


@settings(max_examples=200, deadline=None)
@given(omega=kernel_forms(), data=st.data())
def test_dropped_index_rank_matches_the_evaluated_matrix(omega, data):
    # the last nonzero coordinate's row and column are left out; trailing
    # zeros move that index, and all zeros give the zero point
    M = build_M(omega)
    assert M.point_in_kernel
    point = data.draw(residues(omega.ctx.field.p, M.size))
    zeros = data.draw(st.integers(0, M.size))
    point = point[: M.size - zeros] + [0] * zeros
    assert point_contraction_rank(M, point) == evaluated_rank(M, point)


def test_point_in_kernel_holds_for_every_build_M_matrix():
    for field in (*KERNEL_FIELDS, QQ):
        for n in (3, 5, 6):
            ctx = SpaceContext(n, field)
            forms = [random_tensor(ctx, 3, "form", n)] + ([two_planes(ctx)] if n >= 5 else [])
            for omega in forms:
                M = build_M(omega)
                assert M.point_in_kernel and point_in_kernel_reference(M)
    assert point_contraction_rank(build_M(two_planes(SpaceContext(5, F3))), [0] * 6) == 0


@settings(max_examples=200, deadline=None)
@given(case=pair_tables_and_points())
def test_hand_built_tables_pack_like_the_reference_and_know_their_kernel(case):
    M, point = case
    assert M.packed_rows_at(point) == packed_rows_reference(M, point)
    assert M.point_in_kernel == point_in_kernel_reference(M)


def test_tables_whose_point_leaves_the_kernel_keep_the_full_elimination():
    # entry (0, 1) = x_0 with (2, 3) = x_0, a table of the random-pairs kind
    # above: row 1 of M(x)·x is -x_0**2
    M = SkewLinearMatrix(SpaceContext(3, F101), (((0, 1), ((0, 1),)), ((2, 3), ((0, 1),))))
    assert not M.point_in_kernel and not point_in_kernel_reference(M)
    assert point_contraction_rank(M, [1, 0, 0, 0]) == 4
    # over F_2 entry (0, 1) = x_1: row 0 of M(x)·x is x_1**2, whose
    # coefficient a test of c_01,1 + c_01,1 = 2c would miss.  Leaving out
    # index 1 at e_1 would give rank 0 instead of 2.
    M = SkewLinearMatrix(SpaceContext(3, F2), (((0, 1), ((1, 1),)),))
    assert not M.point_in_kernel and not point_in_kernel_reference(M)
    assert point_contraction_rank(M, [0, 1, 0, 0]) == 2
    assert evaluated_rank(M, [0, 1, 0, 0]) == 2


def every_hit(scan, M, stream) -> list:
    """The indices of all points of ``stream`` that ``scan`` reports, by
    scanning again after each hit."""
    hits, start = [], 0
    while (found := scan(M, stream[start:])) is not None:
        start += found[0] + 1
        hits.append((start - 1, found[1]))
    return hits


@settings(max_examples=100, deadline=None)
@given(omega=kernel_forms(), data=st.data())
def test_packed_gc3_stream_matches_the_term_loop(omega, data):
    # planted points lie on the first three coordinates: for the two-planes
    # form they have rank 2, and later quartets are packed as points reach them
    ctx = omega.ctx
    p = ctx.field.p
    M = build_M(omega)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    stream = [list(x) for x in form_analysis.random_points(ctx.field, ctx.dim, rng, 30)]
    for _ in range(data.draw(st.integers(0, 3))):
        planted = [randbelow(rng, p) for _ in range(3)] + [0] * (ctx.dim - 3)
        if any(planted):
            stream.insert(data.draw(st.integers(0, len(stream))), planted)
    expected = every_hit(first_rank_at_most_two_reference, M, stream)
    assert every_hit(first_rank_at_most_two, M, stream) == expected
    assert every_hit(first_rank_at_most_two, build_M(omega), stream) == expected


@pytest.mark.parametrize("p, dims", [(2, range(4, 11)), (3, range(4, 8))])
def test_packed_gc3_scan_matches_the_term_loop_on_exhaustive_streams(p, dims):
    field = FieldSpec.prime(p)
    for dim in dims:
        ctx = SpaceContext(dim - 1, field)
        forms = [random_tensor(ctx, 3, "form", dim), catalog.get("n4", field=field)[0]]
        if dim >= 6:
            forms.append(two_planes(ctx))
        for omega in forms:
            if omega.ctx != ctx:
                continue
            M = build_M(omega)
            stream = list(projective_points(field, dim))
            expected = every_hit(first_rank_at_most_two_reference, M, stream)
            assert every_hit(first_rank_at_most_two, M, stream) == expected


def test_point_rank_reduces_ints_outside_the_residues():
    """Ints below 0 or at least p would break the slot bound of the packed
    rows, so they are reduced first, as `rank_at` reduces them."""
    rng = random.Random(5)
    for n in (4, 6, 8):
        M = build_M(random_tensor(SpaceContext(n, F101), 3, "form", 1))
        for _ in range(200):
            x = [rng.randrange(-300, 300) for _ in range(n + 1)]
            expected = evaluated_rank(M, x)
            assert point_contraction_rank(M, x) == expected


@settings(max_examples=150, deadline=None)
@given(omega=kernel_forms(), data=st.data())
def test_point_rank_stream_matches_the_per_point_reference(omega, data):
    # residues and ints outside [0, p), some with trailing zeros (a zero last
    # coordinate moves the left-out index), and the zero point
    M = build_M(omega)
    p, dim = omega.ctx.field.p, M.size
    point = residues(p, dim) | st.lists(st.integers(-2 * p, 2 * p), min_size=dim, max_size=dim)
    stream = []
    for coords, zeros in data.draw(st.lists(st.tuples(point, st.integers(0, dim)), max_size=12)):
        stream.append(coords[: dim - zeros] + [0] * zeros)
    stream.insert(data.draw(st.integers(0, len(stream))), [0] * dim)
    expected = [point_contraction_rank_reference(M, coords) for coords in stream]
    assert list(point_ranks(M, stream)) == expected
    assert [point_contraction_rank(M, coords) for coords in stream] == expected


@settings(max_examples=100, deadline=None)
@given(case=pair_tables_and_points())
def test_point_rank_stream_keeps_the_full_elimination_off_the_kernel(case):
    # hand-built tables, some of which fail `point_in_kernel`
    M, point = case
    stream = [point, point[::-1], [0] * M.size, point[1:] + [0]]
    expected = [point_contraction_rank_reference(M, coords) for coords in stream]
    assert list(point_ranks(M, stream)) == expected


@pytest.mark.parametrize("n", [3, 5, 6])
def test_point_rank_stream_over_the_rationals(n):
    ctx = SpaceContext(n, QQ)
    rng = random.Random(n)
    forms = [random_tensor(ctx, 3, "form", n)] + ([two_planes(ctx)] if n >= 5 else [])
    for omega in forms:
        M = build_M(omega)
        stream = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n + 1)]
            for _ in range(20)
        ]
        stream += [[1] + [0] * n, [0] * n + [1], [0] * (n + 1), [0, 1, 2] + [0] * (n - 2)]
        expected = [point_contraction_rank_reference(M, coords) for coords in stream]
        assert list(point_ranks(M, stream)) == expected


# Byte lanes serve 5 <= p <= 127; 2 and 3 stay on the packed path, and 131
# is the least prime where a sum of two residues overflows a byte.
LANE_PRIMES = (2, 3, 5, 7, 11, 101, 127, 131)
# Catalog forms with entries of M that vanish identically.
LANE_CATALOG = ("n3", "n5", "n7-ozeki", "genN-mod3")
LANE_BLOCK = form_analysis.LANE_BLOCK


@st.composite
def lane_streams(draw):
    """A skew matrix over F_p, p in `LANE_PRIMES`, and a stream of 1, B - 1,
    B or B + 1 points of residues, B the lane block.  The matrix comes from
    a random form, a decomposable form u^v^w (point rank at most 2), a form
    of `LANE_CATALOG`, or a random pair table, which mostly fails
    `point_in_kernel`.  Up to 20 points are replaced by the zero point or
    have their last coordinate set to 0."""
    p = draw(st.sampled_from(LANE_PRIMES))
    field = FieldSpec.prime(p)
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    kind = draw(st.sampled_from(["random", "decomposable", "catalog", "table"]))
    if kind == "catalog":
        M = build_M(catalog.get(draw(st.sampled_from(LANE_CATALOG)), field=field)[0])
    else:
        ctx = SpaceContext(draw(st.integers(3, 9)), field)
        if kind == "random":
            M = build_M(random_tensor(ctx, 3, "form", seed))
        elif kind == "decomposable":
            u, v, w = (random_tensor(ctx, 1, "form", seed + k) for k in range(3))
            M = build_M(wedge(wedge(u, v), w))
        else:
            upper = list(combinations(range(ctx.dim), 2))
            pairs = tuple(
                (pair, tuple((rng.randrange(ctx.dim), rng.randrange(p)) for _ in range(2)))
                for pair in rng.sample(upper, rng.randint(1, len(upper)))
            )
            M = SkewLinearMatrix(ctx, pairs)
    dim = M.size
    count = draw(st.sampled_from([1, LANE_BLOCK - 1, LANE_BLOCK, LANE_BLOCK + 1]))
    points = [[rng.randrange(p) for _ in range(dim)] for _ in range(count)]
    for _ in range(draw(st.integers(0, 20))):
        t = rng.randrange(count)
        points[t] = [0] * dim if rng.random() < 0.2 else points[t][:-1] + [0]
    return M, points


@settings(max_examples=60, deadline=None)
@given(case=lane_streams())
def test_lane_ranks_match_the_point_by_point_reference(case):
    M, points = case
    assert list(point_ranks(M, points)) == list(point_ranks_reference(M, points))


def test_point_ranks_takes_byte_lanes_exactly_from_5_to_127(monkeypatch):
    blocks = []

    def counted(lanes, count, entries, indices):
        blocks.append(lanes.p)
        return lane_skew_ranks(lanes, count, entries, indices)

    monkeypatch.setattr(form_analysis, "lane_skew_ranks", counted)
    for p in LANE_PRIMES:
        field = FieldSpec.prime(p)
        M = build_M(random_tensor(SpaceContext(6, field), 3, "form", p))
        points = list(random_points(field, M.size, random.Random(p), 64))
        assert list(point_ranks(M, points)) == list(point_ranks_reference(M, points))
    assert sorted(set(blocks)) == [5, 7, 11, 101, 127]


@pytest.mark.parametrize("p", [5, 131])
def test_point_ranks_pulls_at_most_one_block(p):
    field = FieldSpec.prime(p)
    M = build_M(random_tensor(SpaceContext(6, field), 3, "form", 0))
    pulled = 0

    def stream():
        nonlocal pulled
        for point in random_points(field, M.size, random.Random(0), 3 * LANE_BLOCK):
            pulled += 1
            yield point

    ranks = point_ranks(M, stream())
    next(ranks)
    assert pulled == (LANE_BLOCK if p <= 127 else 1)
    for _ in range(LANE_BLOCK):
        next(ranks)
    assert pulled == (2 * LANE_BLOCK if p <= 127 else LANE_BLOCK + 1)


# The gc3 scan screens blocks of this many points on byte lanes.
POINT_BLOCK = form_analysis._POINT_BLOCK
GC3_CATALOG = ("n3", "n4", "n5-tangent", "n7-ozeki")


def as_tuple(found):
    """A scan's (index, point) with the point as a tuple, or None."""
    return None if found is None else (found[0], tuple(found[1]))


def gc3_scan(M, stream):
    """`genericity`'s scan of a stream of residue points: on byte lanes for
    5 <= p <= 127, the packed scan otherwise; the point comes back as a
    tuple."""
    p = M.ctx.field.p
    lanes = byte_lanes(p) if p >= form_analysis._LANE_MIN_PRIME else None
    if lanes is None:
        return as_tuple(form_analysis._first_residue_point_of_rank_at_most_two(M, stream))
    blocks = form_analysis._flat_blocks(stream, M.size)
    return form_analysis._first_lane_point_of_rank_at_most_two(M, lanes, blocks)


def first_quartet_vanishing_form(ctx: SpaceContext, seed: int) -> AlternatingTensor:
    """e014 + e235 + e024 + e135 and random terms on the triples that meet
    {0, 1, 2, 3} at most once: the Pfaffian of the first quartet (0, 1, 2, 3)
    is x4·x5 − x4·x5, identically zero though both its products are listed."""
    rng = random.Random(seed)
    terms = {(0, 1, 4): 1, (2, 3, 5): 1, (0, 2, 4): 1, (1, 3, 5): 1}
    for triple in combinations(range(ctx.dim), 3):
        if len(set(triple) & {0, 1, 2, 3}) <= 1 and rng.random() < 0.5:
            terms[triple] = randbelow(rng, ctx.field.p)
    return AlternatingTensor.make(ctx, 3, "form", terms)


def low_rank_point(M):
    """A point of small support at which M has rank at most 2 (a basis
    vector or the sum of two), or None."""
    dim = M.size
    units = [[int(i == j) for i in range(dim)] for j in range(dim)]
    pairs = [[a + b for a, b in zip(units[j], units[k])] for j, k in combinations(range(dim), 2)]
    found = first_rank_at_most_two_reference(M, units + pairs)
    return None if found is None else found[1]


@st.composite
def gc3_streams(draw):
    """A skew matrix over F_p, p in `LANE_PRIMES`, and a stream of 2B
    residue points, B the block of the gc3 scan.  The matrix comes from a
    random form, a decomposable form (e012, or u^v^w of random covectors:
    every point has rank at most 2), a form of `GC3_CATALOG` (`n3` has no
    quartet), the two-planes form or a form whose first quartet vanishes
    identically.  At some of the positions 0, B - 1, B and 2B - 1 a point
    of rank at most 2 is planted: one of small support when there is one,
    a point of the first plane for the two-planes form, else the zero
    point."""
    p = draw(st.sampled_from(LANE_PRIMES))
    field = FieldSpec.prime(p)
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    kinds = ["random", "e012", "decomposable", "catalog", "two-planes", "vanishing"]
    kind = draw(st.sampled_from(kinds))
    least = 5 if kind in ("two-planes", "vanishing") else 3
    ctx = SpaceContext(draw(st.integers(least, 9)), field)
    if kind == "catalog":
        omega = catalog.get(draw(st.sampled_from(GC3_CATALOG)), field=field)[0]
    elif kind == "random":
        omega = random_tensor(ctx, 3, "form", seed)
    elif kind == "e012":
        omega = AlternatingTensor.make(ctx, 3, "form", {(0, 1, 2): 1})
    elif kind == "decomposable":
        u, v, w = (random_tensor(ctx, 1, "form", seed + k) for k in range(3))
        omega = wedge(wedge(u, v), w)
    elif kind == "two-planes":
        omega = two_planes(ctx)
    else:
        omega = first_quartet_vanishing_form(ctx, seed)
    M = build_M(omega)
    dim = M.size
    stream = [[randbelow(rng, p) for _ in range(dim)] for _ in range(2 * POINT_BLOCK)]
    if kind == "two-planes":
        planted = [1, randbelow(rng, p), randbelow(rng, p)] + [0] * (dim - 3)
    else:
        planted = low_rank_point(M) or [0] * dim
    positions = [0, POINT_BLOCK - 1, POINT_BLOCK, 2 * POINT_BLOCK - 1]
    for t in draw(st.lists(st.sampled_from(positions), max_size=4, unique=True)):
        stream[t] = list(planted)
    return M, stream


@settings(max_examples=80, deadline=None)
@given(case=gc3_streams())
def test_gc3_scan_finds_the_first_low_rank_point_of_the_reference(case):
    # from the start, and from points that move the block boundaries
    M, stream = case
    for start in (0, 1, POINT_BLOCK - 1, POINT_BLOCK, POINT_BLOCK + 1):
        rest = stream[start:]
        assert gc3_scan(M, rest) == as_tuple(first_rank_at_most_two_reference(M, rest))


def nonzero_draws(p: int, dim: int, rng: random.Random, count: int) -> list:
    """``count`` one-point draws of ``dim`` values, the all-zero ones left
    out, and the number of draws left out before the last one kept."""
    points, zeros = [], 0
    while len(points) < count:
        point = randbelow_many(rng, p, dim)
        if any(point):
            points.append(point)
        else:
            zeros += 1
    return points, zeros


@pytest.mark.parametrize("p", [5, 7])
def test_gc3_scan_skips_the_all_zero_draws(p):
    # M's one quartet has the Pfaffian x0·x1 − x2·x3, so about one point in
    # p is a hit; the seeds are those where a zero point is drawn before the
    # first hit, and the scan must count only the nonzero draws
    field = FieldSpec.prime(p)
    ctx = SpaceContext(3, field)
    pairs = (((0, 1), ((0, 1),)), ((2, 3), ((1, 1),)), ((0, 2), ((2, 1),)), ((1, 3), ((3, 1),)))
    M = SkewLinearMatrix(ctx, pairs)
    lanes = byte_lanes(p)
    seeds = []
    for seed in range(20_000):
        rng = random.Random(seed)
        first = first_rank_at_most_two_reference(M, nonzero_draws(p, ctx.dim, rng, 20)[0])
        if first is not None and nonzero_draws(p, ctx.dim, random.Random(seed), first[0] + 1)[1]:
            seeds.append(seed)
    assert len(seeds) >= 5
    for seed in seeds[:5]:
        for total in (1, POINT_BLOCK, 3 * POINT_BLOCK):
            blocks = form_analysis._point_blocks(p, ctx.dim, random.Random(seed), total)
            found = form_analysis._first_lane_point_of_rank_at_most_two(M, lanes, blocks)
            points = nonzero_draws(p, ctx.dim, random.Random(seed), total)[0]
            assert found == as_tuple(first_rank_at_most_two_reference(M, points))


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_genericity_takes_byte_lanes_exactly_from_5_to_127(p, monkeypatch):
    scans = []
    lane_scan = form_analysis._first_lane_point_of_rank_at_most_two

    def counted(M, lanes, blocks):
        scans.append(lanes.p)
        return lane_scan(M, lanes, blocks)

    monkeypatch.setattr(form_analysis, "_first_lane_point_of_rank_at_most_two", counted)
    field = FieldSpec.prime(p)
    forms = [random_tensor(SpaceContext(6, field), 3, "form", p), catalog.get("n4", field=field)[0]]
    for omega in forms:
        ctx = omega.ctx
        report = genericity(omega, samples=700, seed=p)
        if projective_point_count(p, ctx.dim) <= EXHAUSTIVE_POINT_BUDGET:
            stream = list(projective_points(field, ctx.dim))
        else:
            rng = random.Random(derive_seed("gc3", ctx.n, field, p))
            stream = list(random_points(field, ctx.dim, rng, 700))
        expected = first_rank_at_most_two_reference(build_M(omega), stream)
        if expected is None:
            assert (report.gc3_witness, report.gc3_samples) == (None, len(stream))
        else:
            assert report.gc3_witness == tuple(expected[1])
            assert report.gc3_samples == expected[0] + 1
    assert scans == ([p, p] if 5 <= p <= 127 else [])


def _sampled_and_exhaustive(name: str) -> list:
    """`stratify` and `order` of a catalog form over F_5 and F_101 (or the
    error the order sampling raises), and `exhaustive_strata` over F_5 and
    F_7 where P^n has at most 20,000 points."""
    out = []
    for p in (5, 101):
        omega = catalog.get(name, field=FieldSpec.prime(p))[0]
        out.append(dict(degeneracy.stratify(omega, samples=2000, seed=3).rank_histogram))
        if p >= congruence.MIN_ORDER_PRIME:
            try:
                out.append(congruence.order(omega, samples=500, seed=3))
            except NonGenericFormError as exc:
                out.append(str(exc))
    omega = catalog.get(name)[0]
    for p in (5, 7):
        if projective_point_count(p, omega.ctx.dim) <= 20_000:
            out.append(dict(degeneracy.exhaustive_strata(omega, p).points))
    return out


@pytest.mark.parametrize("name", catalog.list_names())
def test_strata_and_order_match_their_values_through_the_reference(name, monkeypatch):
    computed = _sampled_and_exhaustive(name)
    monkeypatch.setattr(degeneracy, "point_ranks", point_ranks_reference)
    monkeypatch.setattr(congruence, "point_ranks", point_ranks_reference)
    assert _sampled_and_exhaustive(name) == computed


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("dim", [10, 12])
@pytest.mark.parametrize("coefficient", ["p - 1", "1"])
def test_packed_point_rank_at_the_largest_slots(p, dim, coefficient):
    """Every coordinate p - 1 and every entry the sum of all coordinates with
    one coefficient: p - 1 makes every slot above the diagonal, and 1 every
    slot below it, start at its bound dim * (p - 1)**2."""
    c = p - 1 if coefficient == "p - 1" else 1
    terms = tuple((k, c) for k in range(dim))
    pairs = tuple(((i, j), terms) for i in range(dim) for j in range(i + 1, dim))
    M = SkewLinearMatrix(SpaceContext(dim - 1, FieldSpec.prime(p)), pairs)
    point = [p - 1] * dim
    rank = evaluated_rank(M, point)
    assert point_contraction_rank(M, point) == rank
    # every entry above the diagonal is dim * c * (p - 1), nonzero mod p
    # unless p divides dim: then the matrix vanishes
    assert rank == (0 if dim % p == 0 else dim)


def j_rank_of_two_form(g: AlternatingTensor) -> int:
    """Independent rank of a 2-form via its skew coefficient matrix."""
    ctx = g.ctx
    fld = ctx.field
    dim = ctx.dim
    cmap = g.coeff_map()
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < j:
                row.append(cmap.get((i, j), fld.zero()))
            elif i > j:
                row.append(fld.neg(cmap.get((j, i), fld.zero())))
            else:
                row.append(fld.zero())
        rows.append(row)
    return rank_kernel(fld, rows, dim)[0]


# --- genericity -----------------------------------------------------------------


def test_genericity_of_two_planes_form():
    ctx = SpaceContext(5, QQ)
    report = genericity(two_planes(ctx), samples=300, seed=1)
    assert report.rank_omega == 6
    assert report.gc1 is True
    assert report.gc2 is True


def test_genericity_exhaustive_scan_finds_rank_two_witness():
    # over F_3 the 364 points of P^5 are fully enumerable; the first basis
    # point already contracts to a rank-2 form on the two-planes shape
    ctx = SpaceContext(5, FieldSpec.prime(3))
    report = genericity(two_planes(ctx))
    assert report.gc3_status == "falsified"
    assert report.gc3_witness == (1, 0, 0, 0, 0, 0)
    assert point_contraction_rank(build_M(two_planes(ctx)), report.gc3_witness) <= 2


def test_genericity_decomposable_direction_fails_gc1_passes_gc2():
    ctx = SpaceContext(6, QQ)
    beta = AlternatingTensor.make(ctx, 2, "form", {(1, 2): 1, (3, 4): 1, (5, 6): 1})
    omega = wedge(ctx.basis_covector(0), beta)
    report = genericity(omega, samples=200, seed=2)
    assert report.gc1 is False
    assert report.gc2 is True
    assert report.rank_omega == 7


def test_genericity_small_projective_space_always_falsified():
    # every 3-form in projective 3-space contracts to rank <= 2 at each point
    ctx = SpaceContext(3, F101)
    omega = AlternatingTensor.make(ctx, 3, "form", {(0, 1, 2): 1})
    report = genericity(omega, samples=50, seed=5)
    assert report.rank_omega == 3
    assert report.gc3_status == "falsified"


def test_genericity_random_search_unfalsified_for_generic_big_field_form():
    ctx = SpaceContext(6, F101)
    omega = random_tensor(ctx, 3, "form", 7)
    report = genericity(omega, samples=1500, seed=0)
    assert report.gc3_status == "unfalsified"
    assert report.gc3_exhaustive is False
    assert report.gc3_samples >= 1500


def full_rank_gc3_scan(omega, samples, seed):
    """The gc3 loop of `genericity` with the full point rank as its test:
    the witness, the points examined, whether the scan was exhaustive, and
    the notes."""
    ctx, fld, dim = omega.ctx, omega.ctx.field, omega.ctx.dim
    M = build_M(omega)
    examined = 0
    if fld.kind == "prime" and projective_point_count(fld.p, dim) <= EXHAUSTIVE_POINT_BUDGET:
        for coords in projective_points(fld, dim):
            examined += 1
            if point_contraction_rank(M, coords) <= 2:
                return coords, examined, False, ("witness found during exhaustive scan",)
        note = f"exhaustive scan of all {examined} points of P^{ctx.n}(F_{fld.p})"
        return None, examined, True, (note,)
    rng = random.Random(derive_seed("gc3", ctx.n, fld, seed))
    witness = None
    while examined < samples:
        if fld.kind == "prime":
            coords = tuple(randbelow(rng, fld.p) for _ in range(dim))
        else:
            coords = tuple(rng.randint(-10, 10) for _ in range(dim))
        if all(c == 0 for c in coords):
            continue
        examined += 1
        if point_contraction_rank(M, coords) <= 2:
            witness = coords
            break
    return witness, examined, False, (f"randomized search over {examined} sampled points",)


@pytest.mark.parametrize("name", catalog.list_names())
@pytest.mark.parametrize(
    "field",
    [QQ, F101, FieldSpec.prime(2), FieldSpec.prime(3)],
    ids=["q", "p101", "p2", "p3"],
)
def test_genericity_matches_the_full_rank_scan(field, name):
    # Q and F_101 sample (P^n over F_101 has too many points for n >= 3);
    # F_2 and F_3 take the exhaustive branch, which ends in a witness or a
    # full scan
    omega, _ = catalog.get(name, field=field)
    report = genericity(omega, samples=500, seed=1)
    assert (
        report.gc3_witness,
        report.gc3_samples,
        report.gc3_exhaustive,
        report.notes,
    ) == full_rank_gc3_scan(omega, samples=500, seed=1)
    if field == QQ and report.gc3_witness is not None:
        # the rational witness is the drawn point, not its coercion
        assert type(report.gc3_witness) is tuple
        assert all(type(v) is int for v in report.gc3_witness)


def test_gc3_samples_draw_no_block_sized_by_the_sample_count():
    # P^3(F_101) exceeds the exhaustive budget, so gc3 samples; every point
    # of a 3-form on a 4-space has rank at most 2, so the first one is a
    # witness, and a draw sized by the sample count would never return
    omega, _ = catalog.get("n3", field=F101)
    assert projective_point_count(101, 4) > EXHAUSTIVE_POINT_BUDGET
    report = genericity(omega, samples=10**9, seed=0)
    assert report.gc3_status == "falsified"
    assert report.gc3_samples == 1


def test_first_rank_at_most_two_returns_the_first_low_rank_point_as_given():
    # n4 drops to rank 2 on a hyperplane, about one point in 101 over F_101
    omega, _ = catalog.get("n4", field=F101)
    M = build_M(omega)
    rng = random.Random(3)
    generic, low = [], []
    while len(generic) < 5 or not low:
        coords = [randbelow(rng, 101) for _ in range(M.size)]
        if any(coords):
            (low if point_contraction_rank(M, coords) <= 2 else generic).append(coords)
    low = low[0]
    assert first_rank_at_most_two(M, generic) is None
    assert first_rank_at_most_two(M, iter(generic[:3] + [low] + generic[3:])) == (3, low)
    assert first_rank_at_most_two(M, []) is None


# --- quadric of a 4-form ------------------------------------------------------------


def test_quadric_of_totally_decomposable_four_form():
    ctx = SpaceContext(3, QQ)
    eta = AlternatingTensor.make(ctx, 4, "form", {(0, 1, 2, 3): 1})
    qa = quadric_of(eta)
    assert qa.rank == 6
    assert singular_locus(qa).projective_dim == -1


def test_quadric_of_one_covector_shape_rank_and_singular_locus():
    ctx = SpaceContext(6, QQ)
    omega = AlternatingTensor.make(ctx, 3, "form", {(1, 2, 3): 1, (4, 5, 6): 1})
    assert j_rank(omega, 1) == 6
    qa = quadric_of(wedge(omega, ctx.basis_covector(0)))
    assert qa.rank == 12
    assert singular_locus(qa).projective_dim == 8


def test_quadric_of_zero_form():
    ctx = SpaceContext(5, QQ)
    qa = quadric_of(ctx.zero_tensor(4, "form"))
    assert qa.rank == 0
    assert singular_locus(qa).projective_dim == 15 - 1


def test_quadric_rank_matches_structured_formulas():
    ctx = SpaceContext(5, QQ)
    beta = AlternatingTensor.make(ctx, 2, "form", {(2, 3): 1, (4, 5): 1})
    eta = wedge(beta, wedge(ctx.basis_covector(0), ctx.basis_covector(1)))
    assert quadric_of(eta).rank == 2 * 4 + 2


def test_quadric_rank_agrees_with_contraction_rank():
    ctx = SpaceContext(6, F101)
    for seed in range(4):
        eta = random_tensor(ctx, 4, "form", seed)
        assert quadric_of(eta).rank == j_rank(eta, 2)


def test_quadric_value_agrees_with_polar_matrix():
    for fld in (QQ, F101):
        ctx = SpaceContext(5, fld)
        eta = random_tensor(ctx, 4, "form", 11)
        qa = quadric_of(eta)
        half = fld.inv(fld.coerce(2))
        for seed in range(5):
            L = random_tensor(ctx, 2, "vector", seed)
            assert qa.value(L) == fld.mul(half, qa.polar_pairing(L, L))


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "QQ"])
def test_quadric_self_check_runs_on_every_call(fld, monkeypatch):
    ctx = SpaceContext(5, fld)
    quadric_of(random_tensor(ctx, 4, "form", 1))
    assert "quadric_check_pairs" in vars(ctx)
    true_pairing = QuadricAnalysis.polar_pairing
    monkeypatch.setattr(
        QuadricAnalysis,
        "polar_pairing",
        lambda self, a, b: fld.add(true_pairing(self, a, b), fld.one()),
    )
    for seed in (2, 3):
        with pytest.raises(RuntimeError, match="polar matrix"):
            quadric_of(random_tensor(ctx, 4, "form", seed))
    with pytest.raises(RuntimeError, match="polar matrix"):
        quadric_of(random_tensor(SpaceContext(5, fld), 4, "form", 2))


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "QQ"])
def test_polar_quadric_builds_the_checked_polar_matrix(fld):
    for n in (4, 6, 8):
        ctx = SpaceContext(n, fld)
        for seed in range(3):
            eta = random_tensor(ctx, 4, "form", derive_seed("polar-quadric", seed))
            built = polar_quadric(eta)
            assert built.eta is eta
            assert built.rho == quadric_of(eta).rho
    with pytest.raises(ValueError, match="4-form"):
        polar_quadric(random_tensor(SpaceContext(5, fld), 3, "form", 0))


@settings(max_examples=80, deadline=None)
@given(
    fld=st.sampled_from([F2, F3, F101, FieldSpec.prime(2**61 - 1), QQ]),
    dim=st.integers(4, 10),
    share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 10**6),
)
def test_polar_gather_matches_the_position_loop(fld, dim, share, seed):
    ctx = SpaceContext(dim - 1, fld)
    rng = random.Random(seed)
    keys = [key for key in ctx.index_sets(4) if rng.random() < share]
    eta = AlternatingTensor.make(
        ctx, 4, "form", {key: rng.randint(-50, 50) for key in keys}
    )
    assert polar_quadric(eta).rho == polar_matrix_reference(eta)


def test_first_rank_at_most_two_coerces_points_outside_the_residues():
    # over F_101, -1 is 100: the contraction of the two-planes form at e_0
    # has rank 2, which the packed scan misses on a negative coordinate
    omega = two_planes(SpaceContext(5, F101))
    M = build_M(omega)
    point = [-1, 0, 0, 0, 0, 0]
    assert point_contraction_rank(M, point) == 2
    assert first_rank_at_most_two_reference(M, [[100, 0, 0, 0, 0, 0]]) is not None
    assert first_rank_at_most_two(M, [point]) == (0, point)
    generic = [1, 2, 3, 4, 5, 6]
    assert first_rank_at_most_two(M, iter([generic, point])) == (1, point)
    assert first_rank_at_most_two(M, [generic, [205, 0, 0, -100, 0, 0]]) is None


def test_build_M_is_built_once_per_form_object():
    ctx = SpaceContext(6, F101)
    omega = random_tensor(ctx, 3, "form", 0)
    M = build_M(omega)
    assert build_M(omega) is M
    again = random_tensor(ctx, 3, "form", 0)
    assert again == omega and build_M(again) is not M and build_M(again) == M
    with pytest.raises(ConventionError):
        build_M(random_tensor(ctx, 2, "form", 0))


def test_conventions_claim_catches_a_wrong_polar_pairing(monkeypatch):
    # the conventions suite builds rho with polar_quadric, unchecked, so its
    # own claim must be what catches a wrong rho
    cfg = RunConfig(samples=20)
    status = {c.id: c.status for c in run_suite("conventions", cfg).claims}
    assert status["quadric-polar-identity"] == "pass"
    true_pairing = QuadricAnalysis.polar_pairing
    monkeypatch.setattr(
        QuadricAnalysis,
        "polar_pairing",
        lambda self, a, b: F101.add(true_pairing(self, a, b), F101.one()),
    )
    claims = {c.id: c for c in run_suite("conventions", cfg).claims}
    assert claims["quadric-polar-identity"].status == "fail"
    assert claims["quadric-polar-identity"].computed == 20
    assert [c.status for c in claims.values()].count("pass") == 4


def test_quadric_check_pairs_are_the_seeded_bivectors_of_each_context():
    for fld in (FieldSpec.prime(3), F101, QQ):
        ctx = SpaceContext(6, fld)
        pairs = ctx.quadric_check_pairs
        assert len(pairs) == 3
        for s, (L, square) in enumerate(pairs):
            expected = random_tensor(ctx, 2, "vector", derive_seed("quadric-check", s))
            assert L == expected
            assert square == reduced_square(expected)
        assert ctx.quadric_check_pairs is pairs
        twin = SpaceContext(6, fld)
        assert twin == ctx
        assert "quadric_check_pairs" not in vars(twin)
        assert twin.quadric_check_pairs is not pairs
        assert twin.quadric_check_pairs == pairs


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize(
    "fld", [FieldSpec.prime(2), F101, QQ], ids=["F2", "F101", "QQ"]
)
def test_polar_pairing_is_eta_on_the_wedge(fld, n):
    # a^T rho b = q(a+b) - q(a) - q(b) = eta(a^b), computed without rho
    ctx = SpaceContext(n, fld)
    for seed in range(3):
        eta = random_tensor(ctx, 4, "form", derive_seed("polar-oracle", seed))
        quadric = quadric_of(eta)
        for k in range(3):
            a = random_tensor(ctx, 2, "vector", derive_seed("polar-a", seed, k))
            b = random_tensor(ctx, 2, "vector", derive_seed("polar-b", seed, k))
            assert quadric.polar_pairing(a, b) == pair(eta, wedge(a, b))
            assert quadric.polar_pairing(a, a) == pair(eta, wedge(a, a))


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "QQ"])
def test_quadric_rank_leaves_the_polar_pairing_intact(fld):
    # the rank eliminates in place, so it must work on a copy of the int
    # rows that quadric_of has already cached for the pairing
    ctx = SpaceContext(6, fld)
    eta = random_tensor(ctx, 4, "form", derive_seed("polar-oracle", 0)).scale(Fraction(5, 6))
    quadric = quadric_of(eta)
    assert quadric.rank == rank_kernel(fld, row_lists(quadric.rho), quadric.rho.cols)[0] > 0
    for k in range(3):
        a = random_tensor(ctx, 2, "vector", derive_seed("polar-a", 0, k))
        b = random_tensor(ctx, 2, "vector", derive_seed("polar-b", 0, k))
        assert quadric.polar_pairing(a, b) == pair(eta, wedge(a, b))


@pytest.mark.parametrize("fld", [F101, QQ], ids=["F101", "QQ"])
def test_polar_pairing_on_fractional_tensors_keeps_the_field_type(fld):
    # denominators in eta, a and b, so the int dot product runs over a
    # common denominator other than 1 over the rationals
    ctx = SpaceContext(5, fld)
    eta = random_tensor(ctx, 4, "form", 3).scale(Fraction(5, 6))
    quadric = quadric_of(eta)
    for k in range(3):
        a = random_tensor(ctx, 2, "vector", derive_seed("polar-a", k)).scale(Fraction(1, 4))
        b = random_tensor(ctx, 2, "vector", derive_seed("polar-b", k)).scale(Fraction(3, 7))
        got = quadric.polar_pairing(a, b)
        assert got == pair(eta, wedge(a, b))
        assert type(got) is (Fraction if fld is QQ else int)
    assert quadric.polar_pairing(ctx.zero_tensor(2, "vector"), b) == 0


def test_quadric_unchanged_by_multiples_of_the_direction():
    ctx = SpaceContext(5, QQ)
    omega = two_planes(ctx)
    x = ctx.basis_covector(0)
    gamma = random_tensor(ctx, 2, "form", 3)
    shifted = omega.add(wedge(gamma, x))
    assert quadric_of(wedge(omega, x)).rho == quadric_of(wedge(shifted, x)).rho


# --- span lattice -----------------------------------------------------------------------


def test_span_lattice_codimensions_for_full_rank_form():
    ctx = SpaceContext(5, QQ)
    lattice = span_lattice(
        two_planes(ctx), ctx.basis_covector(0), ctx.basis_covector(3)
    )
    assert lattice.codimensions() == {
        "full": 6,
        "modulo_x": 5,
        "modulo_xy": 4,
        "split_at_x": 8,
        "pencil_at_xy": 5,
    }


def test_span_lattice_split_codim_tracks_restricted_rank():
    # codim(split_at_x) = n + rank of the restriction away from x
    ctx = SpaceContext(5, QQ)
    omega = two_planes(ctx)
    x = AlternatingTensor.make(ctx, 1, "form", {(0,): 1, (4,): 1})
    y = AlternatingTensor.make(ctx, 1, "form", {(1,): 1, (3,): 1})
    lattice = span_lattice(omega, x, y)
    assert lattice.codimensions()["split_at_x"] == 5 + 5
    assert lattice.codimensions()["full"] == 6


def test_span_lattice_direction_outside_image_collapses():
    ctx = SpaceContext(5, QQ)
    omega = AlternatingTensor.make(ctx, 3, "form", {(1, 2, 3): 1, (3, 4, 5): 1})
    lattice = span_lattice(omega, ctx.basis_covector(0), ctx.basis_covector(1))
    assert same_subspace(lattice.full, lattice.modulo_x)
    assert lattice.full.codim == j_rank(omega, 1) == 5


def test_span_lattice_containments_random():
    ctx = SpaceContext(6, F101)
    for seed in range(3):
        omega = random_tensor(ctx, 3, "form", seed)
        x = random_tensor(ctx, 1, "form", seed + 50)
        y = random_tensor(ctx, 1, "form", seed + 100)
        if wedge(x, y).is_zero():
            continue
        lattice = span_lattice(omega, x, y)
        assert lattice.modulo_x.contains_subspace(lattice.full)
        assert lattice.modulo_xy.contains_subspace(lattice.modulo_x)
        assert lattice.modulo_x.contains_subspace(lattice.split_at_x)
        assert lattice.modulo_xy.contains_subspace(lattice.pencil_at_xy)


def test_span_lattice_members_lie_on_the_direction_quadric():
    ctx = SpaceContext(5, QQ)
    omega = two_planes(ctx)
    x = ctx.basis_covector(0)
    y = ctx.basis_covector(3)
    lattice = span_lattice(omega, x, y)
    assert quadric_contains_subspace(quadric_of(wedge(omega, x)), lattice.modulo_x)
    for a, b in ((1, 0), (0, 1), (1, 1), (2, -3), (5, 7)):
        direction = x.scale(a).add(y.scale(b))
        quadric = quadric_of(wedge(omega, direction))
        assert quadric_contains_subspace(quadric, lattice.pencil_at_xy)


def test_span_lattice_rejects_dependent_directions():
    ctx = SpaceContext(5, QQ)
    x = ctx.basis_covector(0)
    with pytest.raises(ValueError):
        span_lattice(two_planes(ctx), x, x.scale(2))


@st.composite
def forms_with_directions(draw):
    """A random 3-form (or the two-plane form, whose contraction image is
    spanned by x_0..x_5) with two covectors, each random, a basis covector
    (outside the image of the two-plane form from index 6 on) or a point
    of the image."""
    field = draw(st.sampled_from([F2, F3, F101, QQ]))
    n = draw(st.integers(3, 8))
    ctx = SpaceContext(n, field)
    if n >= 5 and draw(st.booleans()):
        omega = two_planes(ctx)
    else:
        omega = random_tensor(ctx, 3, "form", draw(st.integers(0, 10**6)))

    def direction():
        kind = draw(st.sampled_from(["random", "basis", "image"]))
        if kind == "basis":
            return ctx.basis_covector(draw(st.integers(0, n)))
        seed = draw(st.integers(0, 10**6))
        if kind == "random":
            return random_tensor(ctx, 1, "form", seed)
        return contract(omega, random_tensor(ctx, 2, "vector", seed))

    return omega, direction(), direction()


@settings(max_examples=80, deadline=None)
@given(case=forms_with_directions())
def test_contraction_kernels_equal_the_stacked_wedge_systems(case):
    # equal bases, not only equal subspaces: the bases are what reports print
    omega, x, y = case
    assert bivector_contraction(omega) == [list(row) for row in zip(*contraction_matrix(omega, 2))]
    reference = span_lattice_reference(omega, x, y)
    assert kernel_span(omega).basis == reference.full.basis
    if not x.is_zero():
        assert contraction_kernel(omega, [x]).basis == relaxed_span_reference(omega, x).basis
    if wedge(x, y).is_zero():
        return
    lattice = span_lattice(omega, x, y)
    for name, space in lattice.as_dict().items():
        assert space.basis == reference.as_dict()[name].basis, name


@st.composite
def covectors_and_a_probe(draw):
    """Up to four covectors, some of them zero or combinations of the ones
    before (so the list may be dependent), and a covector g that is either
    a combination of them or random."""
    field = draw(st.sampled_from([F2, F3, F101, QQ]))
    ctx = SpaceContext(draw(st.integers(3, 6)), field)

    def combination(vectors):
        acc = ctx.zero_tensor(1, "form")
        for v in vectors:
            acc = acc.add(v.scale(field.coerce(draw(st.integers(-3, 3)))))
        return acc

    covectors = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "random":
            covectors.append(random_tensor(ctx, 1, "form", draw(st.integers(0, 10**6))))
        else:
            covectors.append(combination(covectors if kind == "combination" else []))
    if draw(st.booleans()):
        probe = combination(covectors)
        assert_inside = True
    else:
        probe = random_tensor(ctx, 1, "form", draw(st.integers(0, 10**6)))
        assert_inside = False
    return ctx, covectors, probe, assert_inside


@settings(max_examples=200, deadline=None)
@given(case=covectors_and_a_probe())
def test_covector_echelon_decides_span_membership_like_the_annihilator(case):
    ctx, covectors, g, assert_inside = case
    fld = ctx.field
    rows, pivots, others = covector_echelon(ctx, covectors)
    annihilator = LinearSubspace.annihilator(ctx, covectors)
    assert len(pivots) == len(rows) == ctx.dim - annihilator.linear_dim
    assert sorted(pivots + others) == list(range(ctx.dim))
    assert all(row[pc] == 1 for row, pc in zip(rows, pivots))
    coords = g.coords()
    residue = []
    for i in others:
        value = coords[i]
        for row, pc in zip(rows, pivots):
            value = fld.sub(value, fld.mul(coords[pc], row[i]))
        residue.append(value)
    inside = all(fld.is_zero(pair(g, v)) for v in annihilator.basis_tensors())
    assert all(fld.is_zero(v) for v in residue) == inside
    if assert_inside:
        assert inside


def test_kernel_builders_reject_covectors_of_another_space_or_kind():
    omega, _ = catalog.get("n5", field=F101)
    x = random_tensor(omega.ctx, 1, "form", 1)
    bad = (
        (random_tensor(SpaceContext(5, F31), 1, "form", 0), "different space"),
        (random_tensor(SpaceContext(6, F101), 1, "form", 0), "different space"),
        (omega.ctx.basis_vector(0), "1-forms"),
    )
    for covector, message in bad:
        with pytest.raises(ConventionError, match=message):
            contraction_kernel(omega, [covector])
        with pytest.raises(ConventionError, match=message):
            contraction_kernel(omega, [x, covector], inside=True)
        with pytest.raises(ConventionError, match=message):
            span_lattice(omega, x, covector)
        with pytest.raises(ConventionError, match=message):
            span_lattice(omega, covector, x)
    with pytest.raises(ConventionError, match="one or two covectors"):
        contraction_kernel(omega, inside=True)


# --- LinearSubspace plumbing ---------------------------------------------------------------


def test_linear_subspace_rejects_dependent_columns():
    ctx = SpaceContext(3, QQ)
    basis = [[1, 0, 1, 0], [2, 0, 2, 0]]
    with pytest.raises(ValueError, match="dependent"):
        LinearSubspace("vectors", ctx, basis)


def test_linear_subspace_rejects_a_basis_vector_of_the_wrong_length():
    # outside input: each vector must have the length of the ambient space,
    # checked before the rank, whatever else is wrong with the basis
    ctx = SpaceContext(3, QQ)
    for basis in ([[1, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0, 0]], [[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]]):
        with pytest.raises(ValueError, match="ambient dimension 4"):
            LinearSubspace("vectors", ctx, basis)
    with pytest.raises(ValueError, match="ambient dimension 6"):
        LinearSubspace("bivectors", ctx, [[1, 0, 0, 0]])


def test_linear_subspace_rejects_an_unknown_ambient():
    ctx = SpaceContext(3, QQ)
    for basis in ((), [[1, 0, 0, 0]]):
        with pytest.raises(ValueError, match="unknown ambient"):
            LinearSubspace("lines", ctx, basis)


@st.composite
def covector_lists(draw):
    """(ctx, covectors) over F_101 or Q: n = 3..6 and 0..dim+1 covectors with
    entries in -2..2, so dependent and zero covectors come up often."""
    field = draw(st.sampled_from([F101, QQ]))
    ctx = SpaceContext(draw(st.integers(3, 6)), field)
    entries = st.lists(st.integers(-2, 2), min_size=ctx.dim, max_size=ctx.dim)
    rows = draw(st.lists(entries, max_size=ctx.dim + 1))
    covectors = [
        ctx.tensor_from_coords(1, "form", [field.coerce(v) for v in row])
        for row in rows
    ]
    return ctx, covectors


@settings(max_examples=150, deadline=None)
@given(case=covector_lists())
def test_annihilator_is_killed_by_every_covector(case):
    ctx, covectors = case
    space = LinearSubspace.annihilator(ctx, covectors)
    for vector in space.basis_tensors():
        for covector in covectors:
            assert ctx.field.is_zero(pair(covector, vector))
    rank = rank_kernel(ctx.field, [c.coords() for c in covectors], ctx.dim)[0]
    assert space.linear_dim == ctx.dim - rank
    assert space.ambient == "vectors"


@st.composite
def condition_matrices(draw):
    """(ctx, ambient, conditions) over F_2, F_101 or Q: n = 3..5 and 0..dim+1
    rows over the ambient coordinates with entries in -2..2, so dependent,
    zero and full-rank systems come up often."""
    field = draw(st.sampled_from([F2, F101, QQ]))
    ctx = SpaceContext(draw(st.integers(3, 5)), field)
    ambient = draw(st.sampled_from(["vectors", "bivectors"]))
    cols = ctx.dim if ambient == "vectors" else ctx.dim * (ctx.dim - 1) // 2
    entries = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)
    rows = draw(st.lists(entries, max_size=cols + 1))
    return ctx, ambient, [[field.coerce(v) for v in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(case=condition_matrices())
def test_from_kernel_keeps_the_rank_kernel_basis(case):
    # the trusted path must hand back rank_kernel's columns unchanged, and
    # they must pass the public constructor's rank check
    ctx, ambient, conditions = case
    space = LinearSubspace.from_kernel(conditions, ambient, ctx)
    rank, kernel = rank_kernel(ctx.field, conditions, space.ambient_linear_dim)
    assert space.basis == kernel
    assert LinearSubspace(ambient, ctx, space.basis) == space
    assert space.linear_dim == space.ambient_linear_dim - rank


def test_from_kernel_runs_no_second_elimination(monkeypatch):
    ctx = SpaceContext(4, QQ)
    conditions = [[1, 2, 0, 0, 3], [0, 0, 1, 1, 1]]
    want = LinearSubspace.from_kernel(conditions, "vectors", ctx)

    def forbidden(field, vectors):
        raise AssertionError("from_kernel ranked its kernel again")

    monkeypatch.setattr(form_analysis, "matrix_rank", forbidden)
    assert LinearSubspace.from_kernel(conditions, "vectors", ctx) == want


@pytest.mark.parametrize("field", [F2, F101, QQ])
def test_from_kernel_of_an_injective_system_has_no_columns(field):
    ctx = SpaceContext(3, field)
    identity = [[field.coerce(int(i == j)) for j in range(4)] for i in range(4)]
    space = LinearSubspace.from_kernel(identity, "vectors", ctx)
    assert space.basis == ()
    assert space.linear_dim == 0 and space.codim == 4
    assert space.basis_tensors() == []
    assert LinearSubspace("vectors", ctx, space.basis).contains_subspace(space)


@pytest.mark.parametrize(
    "columns",
    [
        [[1, 0, 1, 0], [1, 0, 1, 0]],  # two columns end in one row
        [[1, 0, 2, 0]],  # the last nonzero entry is not 1
        [[0, 0, 0, 0]],  # a zero column
        [[1, 0, 0, 0], [1, 1, 0, 0]],  # the first column's 1 is shared
    ],
)
def test_from_kernel_rejects_columns_without_the_echelon_pattern(monkeypatch, columns):
    # a faulty kernel builder must not slip dependent columns past the
    # trusted path
    ctx = SpaceContext(3, QQ)
    kernel = tuple(tuple(Fraction(v) for v in c) for c in columns)
    monkeypatch.setattr(form_analysis, "rank_kernel", lambda field, rows, cols: (0, kernel))
    with pytest.raises(ValueError, match="echelon pattern"):
        LinearSubspace.from_kernel([], "vectors", ctx)


def test_from_kernel_checks_the_ambient_and_the_row_count():
    ctx = SpaceContext(3, QQ)
    with pytest.raises(ValueError, match="unknown ambient"):
        LinearSubspace.from_kernel([], "lines", ctx)
    with pytest.raises(ValueError, match="ambient dimension"):
        LinearSubspace.from_kernel([[0] * 5], "vectors", ctx)


def test_linear_subspace_membership():
    ctx = SpaceContext(3, QQ)
    space = LinearSubspace("vectors", ctx, [[1, 0, 0, 0], [0, 1, 0, 0]])
    inside = [[3, -2, 0, 0]]
    outside = [[0, 0, 1, 0]]
    assert space.contains_subspace(LinearSubspace("vectors", ctx, inside))
    assert not space.contains_subspace(LinearSubspace("vectors", ctx, outside))
    assert space.projective_dim == 1
    assert space.codim == 2


def test_contraction_matrix_shape():
    ctx = SpaceContext(5, QQ)
    columns = contraction_matrix(two_planes(ctx), 2)
    # one column per basis bivector, each a 1-form on the 6 coordinates
    assert len(columns) == 15 and all(len(column) == 6 for column in columns)


# --- rational numerators: containment, j-ranks and polar rows -------------------------


def test_linear_subspace_coerces_its_entries():
    F5 = FieldSpec.prime(5)
    ctx = SpaceContext(4, F5)
    # 5 is 0 mod 5: the vector is e_1, not a pivot that is a multiple of p
    assert LinearSubspace("vectors", ctx, [(5, 1, 0, 0, 0)]).basis == ((0, 1, 0, 0, 0),)
    assert LinearSubspace("vectors", ctx, [(-1, 0, 0, 0, 0)]).basis == ((4, 0, 0, 0, 0),)
    assert LinearSubspace("vectors", ctx, [("1/2", 0, 0, 0, 1)]).basis == ((3, 0, 0, 0, 1),)
    space = LinearSubspace("vectors", ctx, [(5, 1, 0, 0, 0), (0, 0, 0, 0, -4)])
    assert space.contains_subspace(LinearSubspace("vectors", ctx, [(0, 2, 0, 0, 3)]))
    assert not space.contains_subspace(LinearSubspace("vectors", ctx, [(1, 0, 0, 0, 0)]))
    q = SpaceContext(4, QQ)
    half = LinearSubspace("vectors", q, [("1/2", 0, 0, 0, 1)])
    assert half.basis == ((Fraction(1, 2), 0, 0, 0, 1),)
    assert all(type(v) is Fraction for v in half.basis[0])
    assert half.contains_subspace(LinearSubspace("vectors", q, [(1, 0, 0, 0, 2)]))
    for ctx_ in (ctx, q):
        with pytest.raises(ConventionError, match="float"):
            LinearSubspace("vectors", ctx_, [(0.5, 0, 0, 0, 1)])
    with pytest.raises(ConventionError, match="vanishes mod 5"):
        LinearSubspace("vectors", ctx, [("1/5", 0, 0, 0, 1)])


def _rational_or_residue(rng: random.Random, field: FieldSpec):
    """A random coefficient: over Q an odd numerator over an even
    denominator, never an integer; over F_p a residue, zero included."""
    if field.p is None:
        return Fraction(2 * rng.randint(-10, 10) + 1, 2 * rng.randint(1, 6))
    return rng.randrange(field.p)


@st.composite
def fractional_forms(draw, degree):
    """A form of the given degree over Q (non-integral coefficients), F_2,
    F_3 or F_101, n = 3..7, on a share of the index sets from none (the
    zero form) to all of them."""
    field = draw(st.sampled_from([QQ, F2, F3, F101]))
    ctx = SpaceContext(draw(st.integers(3, 7)), field)
    share = draw(st.sampled_from([0.0, 0.15, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    coeffs = {
        key: _rational_or_residue(rng, field)
        for key in ctx.index_sets(degree)
        if rng.random() < share
    }
    return AlternatingTensor.make(ctx, degree, "form", coeffs)


@settings(max_examples=60, deadline=None)
@given(f=st.sampled_from([3, 4]).flatmap(fractional_forms))
def test_j_rank_matches_the_contract_built_matrix(f):
    for j in (1, 2):
        reference = contraction_matrix_reference(f, j)
        assert contraction_matrix(f, j) == reference
        assert [tuple(map(type, c)) for c in contraction_matrix(f, j)] == [
            tuple(map(type, c)) for c in reference
        ]
        assert j_rank(f, j) == matrix_rank(f.ctx.field, reference)


@settings(max_examples=60, deadline=None)
@given(eta=fractional_forms(4))
def test_gathered_polar_rows_match_the_position_loop(eta):
    quadric = polar_quadric(eta)
    reference = polar_matrix_reference(eta)
    assert quadric.rho == reference
    assert all(type(a) is type(b) for a, b in zip(quadric.rho.entries, reference.entries))
    rows, den = quadric._int_rows
    fld = eta.ctx.field
    assert [fld.coerce(Fraction(x, den)) for row in rows for x in row] == list(reference.entries)
    assert quadric.rank == matrix_rank(fld, row_lists(reference))


@st.composite
def subspace_families(draw):
    """Subspaces of one ambient space over Q (non-integral entries), F_2, F_3
    or F_101: kernels of random conditions (`from_kernel`), the zero space,
    and public-constructor spaces spanned by combinations of a kernel's
    vectors (inside it), by its vectors and one more (around it), and by its
    vectors reversed and scaled (equal to it)."""
    field = draw(st.sampled_from([QQ, F2, F3, F101]))
    ctx = SpaceContext(draw(st.integers(3, 5)), field)
    ambient = draw(st.sampled_from(["vectors", "bivectors"]))
    length = ctx.dim if ambient == "vectors" else comb(ctx.dim, 2)
    rng = random.Random(draw(st.integers(0, 10**6)))

    def entry():
        return field.coerce(_rational_or_residue(rng, field) if rng.random() < 0.6 else 0)

    def public(vectors):
        kept = []
        for vector in vectors:
            if matrix_rank(field, kept + [vector]) == len(kept) + 1:
                kept.append(vector)
        return LinearSubspace(ambient, ctx, kept)

    spaces = [LinearSubspace(ambient, ctx, ())]
    for _ in range(draw(st.integers(1, 3))):
        rows = [[entry() for _ in range(length)] for _ in range(rng.randint(0, length))]
        kernel = LinearSubspace.from_kernel(rows, ambient, ctx)
        basis = [list(v) for v in kernel.basis]
        combos = []
        for _ in range(rng.randint(1, 3)):
            weights = [entry() for _ in basis]
            combos.append(
                [sum(field.mul(w, v[i]) for w, v in zip(weights, basis)) for i in range(length)]
            )
        scale = field.coerce({None: "-2/7", 2: 1, 3: 2, 101: 3}[field.p])
        spaces += [
            kernel,
            public([[field.coerce(x) for x in v] for v in combos]),
            public(basis + [[entry() for _ in range(length)]]),
            public([[field.mul(scale, x) for x in v] for v in reversed(basis)]),
        ]
    return spaces


@settings(max_examples=80, deadline=None)
@given(spaces=subspace_families())
def test_containment_matches_the_rank_reference(spaces):
    for a in spaces:
        for b in spaces:
            assert a.contains_subspace(b) == contains_subspace_reference(a, b)
        assert a.contains_subspace(a)


def test_containment_of_kernel_spaces_runs_no_elimination(monkeypatch):
    ctx = SpaceContext(6, QQ)
    omega = random_tensor(ctx, 3, "form", 3).scale(Fraction(1, 6))
    x, y = (random_tensor(ctx, 1, "form", s).scale(Fraction(5, 7)) for s in (4, 5))
    lattice = span_lattice(omega, x, y)

    def forbidden(*args, **kwargs):
        raise AssertionError("containment eliminated")

    for name in ("matrix_rank", "rank_kernel", "row_reduce"):
        monkeypatch.setattr(form_analysis, name, forbidden)
    assert lattice.modulo_x.contains_subspace(lattice.full)
    assert lattice.modulo_xy.contains_subspace(lattice.modulo_x)
    assert not lattice.full.contains_subspace(lattice.modulo_x)


def test_a_public_basis_takes_its_pattern_once(monkeypatch):
    ctx = SpaceContext(3, QQ)
    space = LinearSubspace("vectors", ctx, [[1, 1, 0, 0], [0, 1, 1, 0]])
    calls = []
    real = form_analysis.rank_kernel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(form_analysis, "rank_kernel", counted)
    inside = LinearSubspace("vectors", ctx, [[1, 2, 1, 0]])
    outside = LinearSubspace("vectors", ctx, [[1, 0, 0, 0]])
    assert space.contains_subspace(inside) and not space.contains_subspace(outside)
    assert len(calls) == 2  # the annihilator and its kernel, once


@pytest.mark.parametrize("n", [5, 6, 7])
def test_scaling_a_form_by_a_sixth_keeps_its_ranks_and_spans(n):
    # `random_tensor` over Q draws integers, so the rational workload never
    # meets a denominator; a sixth of each form must give the same answers
    ctx = SpaceContext(n, QQ)
    sixth = Fraction(1, 6)
    for seed in range(2):
        omega = random_tensor(ctx, 3, "form", derive_seed("sixth", n, seed))
        x = random_tensor(ctx, 1, "form", derive_seed("sixth-x", n, seed))
        y = random_tensor(ctx, 1, "form", derive_seed("sixth-y", n, seed))
        scaled = omega.scale(sixth)
        assert scaled._dense_ints[1] % 6 == 0
        lattice = span_lattice(omega, x, y)
        for other in (span_lattice(scaled, x, y), span_lattice(scaled, x.scale(sixth), y)):
            assert other.codimensions() == lattice.codimensions()
            assert {k: s.basis for k, s in other.as_dict().items()} == {
                k: s.basis for k, s in lattice.as_dict().items()
            }
        assert j_rank(scaled, 1) == j_rank(omega, 1)
        assert j_rank(scaled, 2) == j_rank(omega, 2)
        eta = wedge(omega, x)
        assert quadric_of(eta.scale(sixth)).rank == quadric_of(eta).rank
        assert j_rank(eta.scale(sixth), 2) == j_rank(eta, 2)
