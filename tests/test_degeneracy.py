"""Tests for the skew linear matrix and its rank stratification."""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwedge import catalog, congruence, degeneracy
from triwedge.congruence import draw_line_on_X, sample_line_on_X
from triwedge.degeneracy import (
    SkewLinearMatrix,
    StratumReport,
    _poly_roots_prime,
    build_M,
    directions_through,
    exhaustive_strata,
    hypersurface_degree,
    independent_pair,
    line_gcd,
    line_subpfaffian_gcd,
    line_zeros,
    normalize_projective,
    random_coords,
    random_points,
    rank_at,
    secant_pencil,
    split_decomposable,
    stratify,
)
from triwedge.exact_scalar import (
    ConventionError,
    FieldSpec,
    UniPoly,
    interpolate,
    packed_skew_mod_p,
    pfaffian,
    poly_gcd,
    randbelow,
    rank_kernel,
)
from triwedge.exterior_core import (
    AlternatingTensor,
    SpaceContext,
    contract,
    derive_seed,
    projective_point_count,
    random_tensor,
    reduce_mod_p,
    wedge,
)
from triwedge.form_analysis import j_rank, point_contraction_rank

from oracles import (
    all_subpfaffian_gcd,
    entry_form,
    evaluated_rank,
    row_lists,
    pfaffian_expansion,
    roots_scan_reference,
    secant_pencil_reference,
)

Q = FieldSpec.rationals()
F101 = FieldSpec.prime(101)
F1009 = FieldSpec.prime(1009)


def normalized(coords, field):
    for value in coords:
        if not field.is_zero(value):
            inv = field.inv(value)
            return tuple(field.mul(inv, v) for v in coords)
    raise AssertionError("zero vector")


def kernel_line(omega, M, coords):
    """The congruence line through a point whose matrix kernel is a plane."""
    field = omega.ctx.field
    _, kernel = rank_kernel(field, row_lists(M.evaluate(coords)), len(coords))
    for candidate in kernel:
        if rank_kernel(field, [coords, candidate], len(coords))[0] == 2:
            point = omega.ctx.vector_from_coords(coords)
            return wedge(point, omega.ctx.vector_from_coords(candidate))
    raise AssertionError("kernel contains no direction besides the point")


# -- construction ------------------------------------------------------------------


def test_entries_match_the_full_contraction():
    for n in range(3, 8):
        for field in (Q, F101):
            ctx = SpaceContext(n=n, field=field)
            omega = random_tensor(ctx, 3, "form", seed=n)
            point = random_tensor(ctx, 1, "vector", seed=50 + n)
            evaluated = build_M(omega).evaluate(point)
            two_form = contract(omega, point)
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    assert evaluated.entry(i, j) == two_form.coefficient((i, j))


def test_matrix_annihilates_its_own_point():
    for n in range(3, 9):
        ctx = SpaceContext(n=n, field=F101)
        omega = random_tensor(ctx, 3, "form", seed=2 * n)
        M = build_M(omega)
        for seed in range(5):
            point = random_tensor(ctx, 1, "vector", seed=300 + seed)
            product = M.evaluate(point).matvec(point.coords())
            assert all(F101.is_zero(value) for value in product)


def test_entry_grid_is_skew_with_linear_entries():
    omega, _ = catalog.get("n5")
    M = build_M(omega)
    assert M.size == 6
    for i in range(6):
        assert entry_form(M, i, i).is_zero()
        for j in range(6):
            assert entry_form(M, i, j).degree == 1
            assert entry_form(M, i, j) == entry_form(M, j, i).neg()


def test_two_plane_form_has_a_single_block_at_the_first_plane_point():
    omega, _ = catalog.get("n5")
    M = build_M(omega)
    at_e0 = M.evaluate(omega.ctx.basis_vector(0))
    nonzero = {
        (i, j): at_e0.entry(i, j)
        for i in range(6)
        for j in range(6)
        if not Q.is_zero(at_e0.entry(i, j))
    }
    assert nonzero == {(1, 2): Q.one(), (2, 1): Q.neg(Q.one())}
    assert rank_at(M, omega.ctx.basis_vector(0)) == 2
    assert rank_at(M, [0, 0, 0, 1, 0, 0]) == 2
    assert rank_at(M, [1, 2, 3, 4, 5, 6]) == 4


def test_generic_rank_follows_the_parity_law():
    rng = random.Random(9)
    for name, expected in (("n6-g2", 6), ("n7-ozeki", 6), ("n7-djokovic", 6), ("n8-family", 8)):
        omega, entry = catalog.get(name, field=F101)
        M = build_M(omega)
        observed = 0
        for _ in range(8):
            coords = [rng.randrange(101) for _ in range(entry.n + 1)]
            if all(value == 0 for value in coords):
                continue
            observed = max(observed, rank_at(M, coords))
        assert observed == expected


def one_point_reference(field, dim, rng):
    """One nonzero point drawn on its own: ``dim`` values from
    `randbelow` over F_p or from -9..9 over Q, redrawn while all zero."""
    while True:
        if field.kind == "prime":
            coords = [randbelow(rng, field.p) for _ in range(dim)]
        else:
            coords = [field.coerce(rng.randint(-9, 9)) for _ in range(dim)]
        if not all(field.is_zero(v) for v in coords):
            return coords


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(
        [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), F101, FieldSpec.prime(1009), Q]
    ),
    dim=st.integers(1, 10),
    count=st.integers(0, 50),
    seed=st.integers(0, 2**32),
)
def test_random_points_repeat_random_coords_and_the_generator_state(field, dim, count, seed):
    # over F_2 short points are often zero, so blocks are refilled; F_1009
    # has 10 bits, past the byte draws of `randbelow_many`
    blocks, singles, reference = (random.Random(seed) for _ in range(3))
    points = list(random_points(field, dim, blocks, count))
    assert all(type(coords) is list for coords in points)
    assert points == [random_coords(field, dim, singles) for _ in range(count)]
    assert points == [one_point_reference(field, dim, reference) for _ in range(count)]
    assert blocks.getstate() == singles.getstate() == reference.getstate()


@pytest.mark.parametrize(
    "field, dim",
    [(FieldSpec.prime(2), 1), (F101, 7), (FieldSpec.prime(5), 2), (FieldSpec.prime(1009), 3)],
)
def test_random_points_over_many_blocks_repeat_the_one_point_draws(field, dim):
    # F_5 in two coordinates draws the zero point once in 25, so many blocks
    # lose points; F_1009 draws past the byte draws
    blocks, reference = random.Random(5), random.Random(5)
    points = list(random_points(field, dim, blocks, 2000))
    assert all(type(coords) is list for coords in points)
    assert points == [one_point_reference(field, dim, reference) for _ in range(2000)]
    assert blocks.getstate() == reference.getstate()


@pytest.mark.parametrize("field", [FieldSpec.prime(2), F101, Q])
def test_random_points_need_a_coordinate(field):
    # no draw of zero coordinates is ever nonzero, so the draws would go on
    # for ever
    with pytest.raises(ConventionError, match="at least one coordinate"):
        next(random_points(field, 0, random.Random(0), 1))


def test_rank_at_rejects_the_zero_point():
    omega, _ = catalog.get("n5")
    M = build_M(omega)
    with pytest.raises(ConventionError):
        rank_at(M, [0, 0, 0, 0, 0, 0])


def test_build_requires_a_three_form():
    ctx = SpaceContext(n=5, field=Q)
    bivector = random_tensor(ctx, 2, "form", seed=1)
    with pytest.raises(ConventionError):
        build_M(bivector)


def test_skew_grid_validation_rejects_nonzero_diagonal():
    omega, _ = catalog.get("n4")
    M = build_M(omega)
    ctx = omega.ctx
    corrupted = M.pairs + (((0, 0), ((0, ctx.field.one()),)),)
    with pytest.raises(ConventionError):
        SkewLinearMatrix(ctx=ctx, pairs=corrupted)


# -- even n: degree of the rank-drop hypersurface ----------------------------------


def test_drop_locus_degrees_for_the_even_catalog_forms():
    omega4, _ = catalog.get("n4")
    assert hypersurface_degree(omega4) == 1

    omega6, _ = catalog.get("n6-g2", field=F1009)
    assert hypersurface_degree(omega6) == 2

    omega8, _ = catalog.get("n8-family", field=F1009)
    assert hypersurface_degree(omega8) == 3


def test_drop_locus_degree_is_seed_stable():
    omega6, _ = catalog.get("n6-g2", field=F1009)
    assert hypersurface_degree(omega6, seed=0) == hypersurface_degree(omega6, seed=5)


def test_drop_locus_degree_rejects_odd_or_degenerate_input():
    omega5, _ = catalog.get("n5")
    with pytest.raises(ConventionError):
        hypersurface_degree(omega5)

    ctx = SpaceContext(n=4, field=Q)
    degenerate = AlternatingTensor.make(ctx, 3, "form", {(0, 1, 2): Q.one()})
    assert j_rank(degenerate, 1) < 5
    with pytest.raises(ConventionError):
        hypersurface_degree(degenerate)


# -- odd n: secant polynomial ------------------------------------------------------


def test_two_plane_line_meets_both_planes():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx
    line = wedge(ctx.basis_vector(0), ctx.basis_vector(3))
    pencil = secant_pencil(omega, line)
    assert pencil.total_degree == 2
    assert pencil.poly.degree == 1
    assert pencil.infinity_multiplicity == 1

    root = next(
        t for t in range(3) if Q.is_zero(pencil.poly.eval(Q.coerce(t)))
    )
    finite_point = normalized(pencil.point_at(root).coords(), Q)
    infinite_point = normalized(pencil.direction.coords(), Q)
    e0 = normalized(ctx.basis_vector(0).coords(), Q)
    e3 = normalized(ctx.basis_vector(3).coords(), Q)
    assert {finite_point, infinite_point} == {e0, e3}

    M = build_M(omega)
    assert rank_at(M, pencil.point_at(root)) == 2
    assert rank_at(M, pencil.direction) == 2


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([5, 7]), seed=st.integers(0, 2**32 - 1))
def test_odd_line_attempts_equal_the_kernel_line_oracle(n, seed):
    # one attempt of `draw_line_on_X` draws one point; replaying that draw on a
    # copy of the generator gives the point, whose oracle line the attempt's
    # line must equal up to a nonzero scalar
    omega = random_tensor(SpaceContext(n=n, field=F101), 3, "form", seed=seed)
    M = build_M(omega)
    line = draw_line_on_X(omega, random.Random(seed), 1)
    coords = random_coords(F101, n + 1, random.Random(seed))
    if rank_at(M, coords) != n - 1:
        assert line is None
        return
    oracle = kernel_line(omega, M, coords)
    assert line is not None
    assert normalized(line.coords(), F101) == normalized(oracle.coords(), F101)


def test_the_odd_line_attempt_rejects_a_point_with_a_star_of_three_directions(
    monkeypatch,
):
    # a point P of the plane <e0, e1, e2> of e012 + e345 has M(P) of rank 2:
    # it lies on a plane of lines, not on the one line of a general point
    omega, _ = catalog.get("n5", field=F101)
    M = build_M(omega)
    on_plane = [3, 5, 7, 0, 0, 0]
    assert rank_at(M, on_plane) == 2
    assert directions_through(M, on_plane).linear_dim == 3
    monkeypatch.setattr(congruence, "random_coords", lambda field, dim, rng: on_plane)
    assert congruence._odd_line_attempt(omega, M, random.Random(0)) is None
    general = [3, 5, 7, 1, 2, 4]
    assert rank_at(M, general) == 4
    monkeypatch.setattr(congruence, "random_coords", lambda field, dim, rng: general)
    line = congruence._odd_line_attempt(omega, M, random.Random(0))
    oracle = kernel_line(omega, M, general)
    assert normalized(line.coords(), F101) == normalized(oracle.coords(), F101)


def test_sampled_congruence_lines_are_trisecant_for_n7():
    omega, _ = catalog.get("n7-ozeki", field=F1009)
    M = build_M(omega)
    rng = random.Random(17)
    checked = 0
    while checked < 4:
        coords = [rng.randrange(1009) for _ in range(8)]
        if all(value == 0 for value in coords) or rank_at(M, coords) != 6:
            continue
        line = kernel_line(omega, M, coords)
        pencil = secant_pencil(omega, line)
        assert pencil.total_degree == 3
        assert pencil.poly.degree + pencil.infinity_multiplicity == 3
        for t in range(1009):
            if F1009.is_zero(pencil.poly.eval(t)):
                assert rank_at(M, pencil.point_at(t)) == 4
        checked += 1


def test_sampled_pencils_are_quartic_for_n9():
    ctx = SpaceContext(n=9, field=F1009)
    omega = random_tensor(ctx, 3, "form", seed=12)
    assert j_rank(omega, 1) == 10
    M = build_M(omega)
    rng = random.Random(23)
    checked = 0
    while checked < 3:
        coords = [rng.randrange(1009) for _ in range(10)]
        if all(value == 0 for value in coords) or rank_at(M, coords) != 8:
            continue
        pencil = secant_pencil(omega, kernel_line(omega, M, coords))
        assert pencil.total_degree == 4
        assert pencil.poly.degree + pencil.infinity_multiplicity == 4
        checked += 1


@pytest.mark.parametrize(
    "name, field",
    [("n5", F1009), ("n7-ozeki", F1009), ("random-n9", F1009), ("n5", Q)],
    ids=["n5-F1009", "n7-ozeki-F1009", "random-n9-F1009", "n5-Q"],
)
def test_secant_pencil_matches_the_add_and_scale_reference(name, field):
    # the pencil polynomial itself, not only its degree and roots, against
    # members built entry by entry from M(base) and M(direction)
    if name == "random-n9":
        omega = random_tensor(SpaceContext(n=9, field=field), 3, "form", seed=12)
    else:
        omega, _ = catalog.get(name, field=field)
    M = build_M(omega)
    rng = random.Random(31)
    generic = omega.ctx.n - 1
    checked = 0
    while checked < 3:
        coords = [field.coerce(rng.randint(-9, 9)) for _ in range(M.size)]
        if all(field.is_zero(v) for v in coords) or rank_at(M, coords) != generic:
            continue
        line = kernel_line(omega, M, coords)
        assert secant_pencil(omega, line).poly == secant_pencil_reference(omega, line)
        checked += 1


def test_pencil_point_parameterization():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx
    line = wedge(ctx.basis_vector(0), ctx.basis_vector(3))
    pencil = secant_pencil(omega, line)
    expected = pencil.base.add(pencil.direction.scale(Q.coerce(7)))
    assert pencil.point_at(7) == expected


def test_secant_pencil_rejects_bad_lines():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx

    not_decomposable = wedge(ctx.basis_vector(0), ctx.basis_vector(1)).add(
        wedge(ctx.basis_vector(2), ctx.basis_vector(3))
    )
    with pytest.raises(ConventionError):
        secant_pencil(omega, not_decomposable)

    off_congruence = wedge(ctx.basis_vector(0), ctx.basis_vector(1))
    assert not contract(omega, off_congruence).is_zero()
    with pytest.raises(ConventionError):
        secant_pencil(omega, off_congruence)

    omega6, _ = catalog.get("n6-g2")
    ctx6 = omega6.ctx
    line6 = wedge(ctx6.basis_vector(1), ctx6.basis_vector(2))
    with pytest.raises(ConventionError):
        secant_pencil(omega6, line6)


def test_pencil_zeros_are_the_scanned_roots_then_infinity():
    # the pencil's root finder against a scan of every parameter of F_1009;
    # the n5 lines all count the root at infinity, and n7-ozeki at seed 9
    # meets the drop locus in three affine points
    shapes = Counter()
    for name in ("n5", "n7-ozeki"):
        omega, _ = catalog.get(name, field=F1009)
        for seed in range(12):
            pencil = secant_pencil(omega, sample_line_on_X(omega, seed=seed))
            scanned = [t for t in range(1009) if F1009.is_zero(pencil.poly.eval(t))]
            expected = [pencil.point_at(t) for t in scanned]
            if pencil.infinity_multiplicity > 0:
                expected.append(pencil.direction)
            assert pencil.roots() == scanned
            assert pencil.zeros() == expected
            shapes[len(scanned), pencil.infinity_multiplicity > 0] += 1
    assert shapes[1, True] == 12 and shapes[3, False] >= 1


def test_secant_pencil_root_finding_over_the_rationals_is_a_convention_error():
    omega, _ = catalog.get("n5")
    ctx = omega.ctx
    pencil = secant_pencil(omega, wedge(ctx.basis_vector(0), ctx.basis_vector(3)))
    with pytest.raises(ConventionError, match="needs a prime field"):
        pencil.roots()
    with pytest.raises(ConventionError, match="needs a prime field"):
        pencil.zeros()


def _non_residue(p: int) -> int:
    return next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)


@st.composite
def factored_polynomials(draw):
    """A nonzero polynomial of degree at most 8 over a small or mid-size
    prime field, a product of linear factors with multiplicities, irreducible
    quadratics and random factors, times a nonzero constant."""
    p = draw(st.sampled_from([2, 3, 5, 31, 101, 1009]))
    field = FieldSpec.prime(p)
    irreducible = [1, 1, 1] if p == 2 else [-_non_residue(p), 0, 1]
    poly = UniPoly.from_coeffs(field, [draw(st.integers(1, p - 1))])
    target = draw(st.integers(0, 8))
    while poly.degree < target:
        kind = draw(st.sampled_from(["root", "irreducible", "random"]))
        if kind == "root":
            factor = [-draw(st.integers(0, p - 1)), 1]
            times = draw(st.integers(1, 3))
        elif kind == "irreducible":
            factor, times = irreducible, draw(st.integers(1, 2))
        else:
            factor = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=4))
            times = 1
        step = UniPoly.from_coeffs(field, factor)
        if step.is_zero() or poly.degree + times * step.degree > 8:
            break
        for _ in range(times):
            poly = poly.mul(step)
    return poly


@settings(max_examples=500, deadline=None)
@given(poly=factored_polynomials())
def test_roots_by_algebra_match_the_scan(poly):
    p = poly.field.p
    assert _poly_roots_prime(poly, p) == roots_scan_reference(poly, p)


def test_root_finding_of_the_zero_polynomial_is_a_convention_error():
    with pytest.raises(ConventionError, match="zero polynomial"):
        _poly_roots_prime(UniPoly.zero(F101), 101)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_root_finding_over_a_large_prime_field(p):
    # a scan of the field would take hours; the roots come out in order
    field = FieldSpec.prime(p)
    poly = UniPoly.one(field)
    for root in (p - 1, 5, 12345, 5):
        poly = poly.mul(UniPoly.from_coeffs(field, [-root, 1]))
    poly = poly.mul(UniPoly.from_coeffs(field, [-_non_residue(1009), 0, 1]))
    assert _poly_roots_prime(poly, p) == [5, 12345, p - 1]


def test_line_sampling_over_a_large_prime_field_takes_bounded_time():
    # n6-g2 draws its lines through the roots of quadrics along lines
    field = FieldSpec.prime(2**31 - 1)
    omega, _ = catalog.get("n6-g2", field=field)
    start = time.perf_counter()
    line = sample_line_on_X(omega, seed=0)
    assert congruence.member_X(omega, line)
    assert time.perf_counter() - start < 10


def test_secant_pencil_roots_over_a_large_prime_field_take_bounded_time():
    field = FieldSpec.prime(2**61 - 1)
    omega, _ = catalog.get("n7-ozeki", field=field)
    start = time.perf_counter()
    pencil = secant_pencil(omega, sample_line_on_X(omega, seed=0))
    roots = pencil.roots()
    assert roots == sorted(roots) and pencil.poly.degree == 3
    assert all(field.is_zero(pencil.poly.eval(t)) for t in roots)
    assert time.perf_counter() - start < 10


def test_split_decomposable_rejects_anything_but_a_nonzero_bivector():
    ctx = SpaceContext(4, Q)
    e = ctx.basis_vector
    for bad in (
        ctx.zero_tensor(2, "vector"),
        e(0),
        wedge(wedge(e(0), e(1)), e(2)),
        wedge(ctx.basis_covector(0), ctx.basis_covector(1)),
    ):
        with pytest.raises(ConventionError, match="nonzero bivector"):
            split_decomposable(bad)
    first, second = split_decomposable(wedge(e(1), e(3)))
    assert wedge(first, second) == wedge(e(1), e(3))


# -- restriction to a line: gcd and zeros ------------------------------------------


@st.composite
def polynomials_on_lines(draw):
    """(field, first, second, poly, degree) over a small or a desk-scale
    prime, ``degree`` at least the degree of ``poly``."""
    p = draw(st.sampled_from((2, 3, 5, 101)))
    dim = draw(st.integers(1, 4))
    point = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    coeffs = draw(st.lists(st.integers(0, p - 1), max_size=5))
    field = FieldSpec.prime(p)
    poly = UniPoly.from_coeffs(field, coeffs)
    degree = draw(st.integers(max(poly.degree, 0), 5))
    return field, draw(point), draw(point), poly, degree


@settings(max_examples=300, deadline=None)
@given(case=polynomials_on_lines())
def test_line_zeros_match_a_scan_of_the_line(case):
    field, first, second, poly, degree = case
    p = field.p
    if poly.is_zero():
        # it vanishes at every point of the line, which no list of zeros says
        with pytest.raises(ConventionError, match="zero polynomial"):
            line_zeros(field, first, second, poly, degree)
        return
    scanned = [
        [(a + t * b) % p for a, b in zip(first, second)]
        for t in range(p)
        if poly.eval(t) % p == 0
    ]
    if poly.degree < degree:
        scanned.append(list(second))
    assert line_zeros(field, first, second, poly, degree) == [pt for pt in scanned if any(pt)]


def test_line_zeros_over_the_rationals_is_a_convention_error():
    poly = UniPoly.from_coeffs(Q, [1, 1])
    with pytest.raises(ConventionError, match="needs a prime field"):
        line_zeros(Q, [1, 0], [0, 1], poly, 1)


def _inline_gcd_fold(field, nodes, rows):
    """The interpolate / drop zeros / fold `poly_gcd` loop that `line_gcd`
    runs on its node values, kept as its oracle."""
    samples = [[] for _ in range(len(rows[0]) if rows else 0)]
    for node, row in zip(nodes, rows):
        for i, value in enumerate(row):
            samples[i].append((node, value))
    polys = [interpolate(field, pts) for pts in samples]
    nonzero = [poly for poly in polys if not poly.is_zero()]
    if not nonzero:
        return None
    gcd = nonzero[0]
    for poly in nonzero[1:]:
        gcd = poly_gcd(gcd, poly)
    return gcd.monic()


def _inline_line_gcd(field, first, second, degree, values_at):
    """The node loop that `line_gcd` replaced, kept as its oracle."""
    nodes = [field.coerce(v) for v in range(degree + 1)]
    rows = []
    for node in nodes:
        coords = [field.add(a, field.mul(node, b)) for a, b in zip(first, second)]
        rows.append(values_at(coords))
    return _inline_gcd_fold(field, nodes, rows)


def _gcd_of_rows(field, rows):
    """`line_gcd` on the line [1, 0] + t*[0, 1], at whose node t the values
    are row t of ``rows``."""
    return line_gcd(field, [1, 0], [0, 1], len(rows) - 1, lambda coords: rows[int(coords[1])])


@st.composite
def sampled_polynomials(draw):
    """(field, nodes, rows, common): 0-5 polynomials sharing a planted factor
    ``common`` (some of them zero), sampled at enough nodes to interpolate."""
    field = draw(st.sampled_from((Q, F101)))
    if field.kind == "prime":
        coeff = st.integers(0, field.p - 1)
    else:
        coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    planted = draw(st.lists(coeff, min_size=1, max_size=3))
    common = UniPoly.from_coeffs(field, planted)
    polys = [
        UniPoly.from_coeffs(field, draw(st.lists(coeff, max_size=4))).mul(common)
        for _ in range(draw(st.integers(0, 5)))
    ]
    nodes = [field.coerce(t) for t in range(7)]
    rows = [[poly.eval(t) for poly in polys] for t in nodes]
    return field, nodes, rows, common


@settings(max_examples=300, deadline=None)
@given(case=sampled_polynomials())
def test_line_gcd_of_sampled_rows_matches_the_inline_fold(case):
    field, nodes, rows, common = case
    gcd = _gcd_of_rows(field, rows)
    assert gcd == _inline_gcd_fold(field, nodes, rows)
    if gcd is None:
        return
    assert gcd.leading() == field.one()
    if not common.is_zero():
        assert gcd.divmod(common.monic())[1].is_zero()


def test_line_gcd_of_zero_polynomials_is_none():
    assert _gcd_of_rows(F101, [[0, 0], [0, 0], [0, 0]]) is None
    assert _gcd_of_rows(F101, [[], [], []]) is None


def test_line_gcd_of_one_nonzero_polynomial_is_its_monic():
    # 2t^2 - 2 and the zero polynomial, sampled at t = 0, 1, 2
    rows = [[Fraction(-2), 0], [Fraction(0), 0], [Fraction(6), 0]]
    expected = UniPoly.from_coeffs(Q, [-1, 0, 1])
    assert _gcd_of_rows(Q, rows) == expected


def test_line_gcd_calls_interpolate_per_column_then_poly_gcd(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name, fn in (("interpolate", interpolate), ("poly_gcd", poly_gcd)):
        monkeypatch.setattr(degeneracy, name, counted(name, fn))
    # t - 1, zero, t^2 - 1 and 2t - 2 at t = 0, 1, 2
    rows = [[100, 0, 100, 99], [0, 0, 0, 0], [1, 0, 3, 2]]
    gcd = _gcd_of_rows(F101, rows)
    assert gcd == UniPoly.from_coeffs(F101, [100, 1])
    assert calls == ["interpolate"] * 4 + ["poly_gcd"] * 2


@pytest.mark.parametrize("field", [Q, F1009])
@pytest.mark.parametrize("name", ["n4", "n6-g2", "n8-family"])
def test_line_gcd_matches_the_inline_node_loop(field, name):
    omega, _ = catalog.get(name, field=field)
    M = build_M(omega)
    dim = M.size
    principal = [[k for k in range(dim) if k != i] for i in range(dim)]

    def subpfaffians(coords):
        evaluated = M.evaluate(coords)
        return [pfaffian(evaluated.submatrix(keep, keep)) for keep in principal]

    rng = random.Random(5)
    for _ in range(3):
        first, second = independent_pair(field, dim, rng)
        gcd = line_gcd(field, first, second, (dim - 1) // 2, subpfaffians)
        assert gcd == _inline_line_gcd(field, first, second, (dim - 1) // 2, subpfaffians)
        assert gcd is not None


@st.composite
def even_forms_and_lines(draw):
    """(M, first, second): the skew matrix of an even-n 3-form and two
    independent points.  The form is random (n = 4, 6, 8), an even catalog
    form, or a sum of one or two decomposable forms u^v^w, whose generic
    point rank stays below n so that every sub-Pfaffian vanishes.  Over F_p,
    ``second`` is half the time moved onto the rank-drop locus: a root of the
    oracle gcd on a first line."""
    field = draw(st.sampled_from((Q, FieldSpec.prime(7), F101, F1009)))
    shape = draw(st.sampled_from(["random", "catalog", "low-rank"]))
    if shape == "catalog":
        omega, _ = catalog.get(draw(st.sampled_from(["n4", "n6-g2", "n8-family"])), field=field)
    else:
        ctx = SpaceContext(draw(st.sampled_from([4, 6, 8])), field)
        if shape == "random":
            omega = random_tensor(ctx, 3, "form", draw(st.integers(0, 10**6)))
        else:
            covector = st.lists(st.integers(-3, 3), min_size=ctx.dim, max_size=ctx.dim)
            omega = ctx.zero_tensor(3, "form")
            for _ in range(draw(st.integers(1, 2))):
                u, v, w = (
                    ctx.tensor_from_coords(1, "form", [field.coerce(c) for c in draw(covector)])
                    for _ in range(3)
                )
                omega = omega.add(wedge(wedge(u, v), w))
    M = build_M(omega)
    rng = random.Random(draw(st.integers(0, 10**6)))
    first, second = independent_pair(field, M.size, rng)
    if field.kind == "prime" and draw(st.booleans()):
        gcd = all_subpfaffian_gcd(M, first, second)
        if gcd is not None and gcd.degree >= 1:
            on_locus = line_zeros(field, first, second, gcd, M.size // 2 - 1)
            if on_locus:
                second = draw(st.sampled_from(on_locus))
                first = independent_pair(field, M.size, rng)[0]
                while rank_kernel(field, [first, second], M.size)[0] < 2:
                    first = independent_pair(field, M.size, rng)[0]
    return M, first, second


@settings(max_examples=200, deadline=None)
@given(case=even_forms_and_lines())
def test_line_subpfaffian_gcd_matches_the_all_subpfaffian_gcd(case):
    M, first, second = case
    assert line_subpfaffian_gcd(M, first, second) == all_subpfaffian_gcd(M, first, second)


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from((FieldSpec.prime(3), F101, FieldSpec.prime(2**61 - 1))),
    name=st.sampled_from(["n4", "n5", "n6-g2", "n7-ozeki", "n8-family", "random"]),
    n=st.integers(4, 9),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_packed_principal_subpfaffian_matches_pfaffian(field, name, n, seed, data):
    # The line nodes take a principal sub-Pfaffian off the packed rows; any
    # int coordinates, reduced or not, must give the Pfaffian of the block.
    if name == "random":
        omega = random_tensor(SpaceContext(n, field), 3, "form", seed)
    else:
        omega, _ = catalog.get(name, field=field)
    M = build_M(omega)
    p = field.p
    coords = data.draw(
        st.lists(st.integers(-p, 2 * p), min_size=M.size, max_size=M.size)
    )
    size = 2 * data.draw(st.integers(0, M.size // 2))
    idx = data.draw(st.permutations(range(M.size)))[:size]
    rows, width = M.packed_rows_at(coords)
    block = M.evaluate(coords).submatrix(idx, idx)
    assert packed_skew_mod_p(p, rows, width, idx)[1] == pfaffian(block)
    assert pfaffian(block) == pfaffian_expansion(block)


def test_line_subpfaffian_gcd_is_none_for_a_form_of_low_generic_rank():
    for field in (Q, F101):
        ctx = SpaceContext(6, field)
        omega = AlternatingTensor.make(ctx, 3, "form", {(0, 1, 2): 1, (3, 4, 5): 1})
        M = build_M(omega)
        first, second = independent_pair(field, M.size, random.Random(1))
        assert all_subpfaffian_gcd(M, first, second) is None
        assert line_subpfaffian_gcd(M, first, second) is None


def test_line_subpfaffian_gcd_counts_a_direction_on_the_locus_at_infinity():
    field = F1009
    omega, _ = catalog.get("n6-g2", field=field)
    M = build_M(omega)
    rng = random.Random(14)
    first, second = independent_pair(field, M.size, rng)
    gcd = line_subpfaffian_gcd(M, first, second)
    root = line_zeros(field, first, second, gcd, 2)[0]
    other = independent_pair(field, M.size, rng)[0]
    on_locus = line_subpfaffian_gcd(M, other, root)
    assert on_locus == all_subpfaffian_gcd(M, other, root)
    # the root at infinity leaves the finite part one degree short
    assert on_locus.degree == gcd.degree - 1


def test_line_subpfaffian_gcd_rejects_a_matrix_that_does_not_kill_its_point():
    # entries x1 at (1, 2) and (3, 4): the sub-Pfaffian without index 0 is
    # x1^2, which x0 does not divide
    ctx = SpaceContext(4, F101)
    M = SkewLinearMatrix(ctx, (((1, 2), ((1, 1),)), ((3, 4), ((1, 1),))))
    with pytest.raises(RuntimeError, match="not divisible"):
        line_subpfaffian_gcd(M, [0, 1, 0, 0, 0], [1, 0, 0, 0, 0])
    with pytest.raises(ConventionError, match="nonzero direction"):
        line_subpfaffian_gcd(M, [0, 1, 0, 0, 0], [0, 0, 0, 0, 0])
    with pytest.raises(ConventionError, match="expected 5 coordinates"):
        line_subpfaffian_gcd(M, [0, 1, 0, 0], [1, 0, 0, 0, 0])


def test_line_gcd_rejects_a_field_too_small_for_its_nodes():
    F2 = FieldSpec.prime(2)
    with pytest.raises(ConventionError):
        line_gcd(F2, [1, 0], [0, 1], 2, lambda coords: [coords[0]])


# -- exhaustive stratification ------------------------------------------------------


def test_two_plane_form_drops_exactly_on_the_two_planes_mod_3():
    omega, _ = catalog.get("n5")
    strata = exhaustive_strata(omega, 3)
    assert dict(strata.counts) == {2: 26, 4: 338}
    assert strata.generic_rank == 4

    low = set(strata.stratum(2))
    assert len(low) == 26
    plane_a = {pt for pt in low if pt[0] == pt[1] == pt[2] == 0}
    plane_b = {pt for pt in low if pt[3] == pt[4] == pt[5] == 0}
    assert len(plane_a) == 13
    assert len(plane_b) == 13
    assert not plane_a & plane_b
    assert plane_a | plane_b == low


def test_exhaustive_strata_match_a_brute_force_scan():
    omega, _ = catalog.get("n5")
    f3 = FieldSpec.prime(3)
    reduced = AlternatingTensor.make(
        SpaceContext(5, f3), 3, "form", {key: f3.coerce(c) for key, c in omega.terms}
    )
    M = build_M(reduced)
    counts: dict[int, int] = {}
    for coords in itertools.product(range(3), repeat=6):
        if next((c for c in coords if c), 0) != 1:
            continue  # one representative per projective point
        rank = evaluated_rank(M, coords)
        assert rank_at(M, coords) == rank
        counts[rank] = counts.get(rank, 0) + 1
    assert dict(exhaustive_strata(omega, 3).counts) == counts


@pytest.mark.parametrize("source", ["catalog", "random"])
@pytest.mark.parametrize(
    "n, p, catalog_name", [(4, 3, "n4"), (5, 3, "n5"), (6, 2, "n6-g2"), (4, 5, "n4")]
)
def test_exhaustive_strata_agree_with_row_reduction_at_every_point(n, p, catalog_name, source):
    """Every point of P^n(F_p) sits in the stratum of its rank as row
    reduction of the evaluated matrix finds it, for a catalog form and a
    random one."""
    if source == "random":
        omega = random_tensor(SpaceContext(n, Q), 3, "form", seed=n)
    else:
        omega, _ = catalog.get(catalog_name)
    strata = exhaustive_strata(omega, p)
    M = build_M(reduce_mod_p(omega, p))
    assert sum(strata.counts.values()) == projective_point_count(p, n + 1)
    for rank, points in strata.points.items():
        assert strata.counts[rank] == len(points)
        for point in points:
            assert evaluated_rank(M, point) == rank


def test_hyperplane_form_drops_exactly_on_the_hyperplane_mod_3():
    omega, _ = catalog.get("n4")
    strata = exhaustive_strata(omega, 3)
    assert dict(strata.counts) == {2: 40, 4: 81}
    low = strata.stratum(2)
    assert len(low) == 40
    assert all(pt[0] == 0 for pt in low)


def test_decomposable_form_has_a_single_zero_point_mod_5():
    omega, _ = catalog.get("n3")
    strata = exhaustive_strata(omega, 5)
    assert dict(strata.counts) == {0: 1, 2: 155}
    assert strata.points[0] == ((1, 0, 0, 0),)


def test_exhaustive_budget_and_field_guards():
    ctx = SpaceContext(n=9, field=F101)
    omega = random_tensor(ctx, 3, "form", seed=1)
    with pytest.raises(ConventionError):
        exhaustive_strata(omega, 101)

    omega101, _ = catalog.get("n5", field=F101)
    with pytest.raises(ConventionError):
        exhaustive_strata(omega101, 3)


@pytest.mark.parametrize("p", [1, 0, 4, -3])
def test_exhaustive_strata_reject_bad_moduli(p):
    # the modulus is checked before the point count divides by p - 1
    omega, _ = catalog.get("n5")
    with pytest.raises(ConventionError, match="not prime"):
        exhaustive_strata(omega, p)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_projective_helpers_reject_moduli_below_two(p):
    with pytest.raises(ConventionError, match="below 2"):
        projective_point_count(p, 3)
    with pytest.raises(ConventionError, match="below 2"):
        normalize_projective([1, 2], p)


# -- sampled stratification ---------------------------------------------------------


def test_stratify_finds_the_single_drop_point_for_n3():
    # P^3(F_5) has 156 points and one of them, (1, 0, 0, 0), has rank 0
    # (`exhaustive_strata`), so 2000 draws land on it about 13 times.
    omega, _ = catalog.get("n3", field=FieldSpec.prime(5))
    report = stratify(omega, samples=2000, seed=1)
    assert report.generic_rank == 2
    assert set(report.rank_histogram) == {0, 2}
    assert sum(report.rank_histogram.values()) == 2000


def test_line_subpfaffian_roots_hit_the_quadric_for_n6():
    omega, _ = catalog.get("n6-g2", field=F101)
    M = build_M(omega)
    rng = random.Random(2)
    hits = 0
    for _ in range(8):
        first, second = independent_pair(F101, M.size, rng)
        gcd = line_subpfaffian_gcd(M, first, second)
        assert gcd is not None and gcd.degree == 2
        # a gcd of full degree 2 leaves `second` off the quadric, so
        # `line_zeros` lists only the finite roots
        for point in line_zeros(F101, first, second, gcd, 2):
            assert point_contraction_rank(M, point) == 4
            hits += 1
    assert hits


def test_secant_pencil_zeros_lie_on_the_codimension_three_locus_for_n9():
    ctx = SpaceContext(n=9, field=F101)
    omega = random_tensor(ctx, 3, "form", seed=12)
    M = build_M(omega)
    for seed in range(5):
        zeros = secant_pencil(omega, sample_line_on_X(omega, seed=seed)).zeros()
        assert zeros
        for point in zeros:
            assert point_contraction_rank(M, point.coords()) == 6


@pytest.mark.parametrize(
    "form, p",
    [
        ("n3", 3),
        ("n5", 101),
        ("n6-g2", 1009),
        ("n7-ozeki", 101),
        ("n8-family", 3),
        ("random:n4", 3),
        ("random:n6", 101),
        ("random:n9", 1009),
    ],
)
@pytest.mark.parametrize("samples, seed", [(1, 0), (300, 5)])
def test_stratify_counts_the_ranks_of_its_seeded_draws(form, p, samples, seed):
    """The histogram counts the ranks at the `random_points` draws of the
    generator that `derive_seed("stratify", n, p, samples, seed)` seeds, the
    draws the analyze reports depend on; each rank is taken here by
    `rank_kernel` on the evaluated matrix."""
    field = FieldSpec.prime(p)
    if form.startswith("random:n"):
        omega = random_tensor(SpaceContext(int(form[len("random:n") :]), field), 3, "form", p)
    else:
        omega, _ = catalog.get(form, field=field)
    ctx = omega.ctx
    rng = random.Random(derive_seed("stratify", ctx.n, ctx.field.p, samples, seed))
    M = build_M(omega)
    expected = Counter(
        evaluated_rank(M, coords)
        for coords in random_points(ctx.field, ctx.dim, rng, samples)
    )
    report = stratify(omega, samples=samples, seed=seed)
    assert dict(report.rank_histogram) == expected
    assert list(report.rank_histogram) == sorted(expected)
    assert report.generic_rank == max(expected)


def test_stratify_is_deterministic_per_seed():
    omega, _ = catalog.get("n5", field=F101)
    first = stratify(omega, samples=500, seed=4)
    second = stratify(omega, samples=500, seed=4)
    assert dict(first.rank_histogram) == dict(second.rank_histogram)


def test_stratify_requires_a_prime_field():
    omega, _ = catalog.get("n5")
    with pytest.raises(ConventionError):
        stratify(omega, samples=10, seed=0)


def test_report_validation_rejects_odd_ranks_and_bad_bounds():
    with pytest.raises(ConventionError):
        StratumReport(n=5, rank_histogram={3: 1})
    with pytest.raises(ConventionError):
        StratumReport(n=5, rank_histogram={6: 1})
