"""Tests for exact field arithmetic, rank/kernel, Pfaffians, and polynomials.

Expected values fall into three classes: convention anchors asserted
directly, hand-derived matrices frozen after independent computation, and
cross-checks of two algorithmically independent implementations (the
elimination Pfaffian vs. recursive expansion vs. elimination determinant vs.
a test-local cofactor determinant; `row_reduce` vs. the field-generic
elimination `rref_reference`; int interpolation vs. `UniPoly` interpolation).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwedge.exact_scalar import (
    ConventionError,
    FieldSpec,
    Matrix,
    UniPoly,
    _integer_rows,
    _packed_skew_rows,
    _sqrt_mod_p,
    as_ints,
    byte_lanes,
    interpolate,
    lane_ranks,
    lane_skew_ranks,
    matrix_rank,
    packed_skew_mod_p,
    pfaffian,
    poly_gcd,
    poly_resultant_mod_p,
    randbelow,
    randbelow_bytes,
    randbelow_many,
    rank_kernel,
    row_reduce,
)

from oracles import (
    det_reference,
    interpolate_reference,
    matmul,
    matrix_from_rows,
    matvec_reference,
    pfaffian_expansion,
    rank_kernel_reference,
    resultant_reference,
    row_lists,
    rref_reference,
    transpose,
)

QQ = FieldSpec.rationals()
F101 = FieldSpec.prime(101)
BIG_PRIME = 1_000_003


def _cofactor_det(field: FieldSpec, rows: list[list]) -> object:
    """Test-local determinant by first-row cofactor expansion (third oracle)."""
    size = len(rows)
    if size == 0:
        return field.one()
    if size == 1:
        return rows[0][0]
    acc = field.zero()
    for j in range(size):
        a = rows[0][j]
        if field.is_zero(a):
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = field.mul(a, _cofactor_det(field, minor))
        acc = field.add(acc, term) if j % 2 == 0 else field.sub(acc, term)
    return acc


def _random_skew(field: FieldSpec, size: int, rng: random.Random) -> Matrix:
    rows = [[field.zero()] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = field.coerce(rng.randrange(101) if field.kind == "prime" else rng.randint(-9, 9))
            rows[i][j] = v
            rows[j][i] = field.neg(v)
    return matrix_from_rows(field, rows)


# --- FieldSpec ---------------------------------------------------------------


def test_field_spec_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)


@pytest.mark.parametrize("p", [1, 0, 4, -3])
def test_field_spec_rejects_bad_moduli_with_a_convention_error(p):
    with pytest.raises(ConventionError, match=f"modulus {p} is not prime"):
        FieldSpec.prime(p)


def test_field_spec_rejects_unknown_kinds_with_a_convention_error():
    with pytest.raises(ConventionError, match="unknown field kind 'complex'"):
        FieldSpec("complex")


def test_field_spec_rejects_strong_pseudoprime_to_the_first_twelve_bases():
    # psi_12 passes Miller-Rabin for every prime base up to 37.
    psi_12 = 318_665_857_834_031_151_167_461
    assert psi_12 == 399_165_290_221 * 798_330_580_441
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec.prime(psi_12)


def test_field_spec_rejects_moduli_at_the_deterministic_limit():
    psi_13 = 3_317_044_064_679_887_385_961_981
    assert psi_13 == 1_287_836_182_261 * 2_575_672_364_521
    # 2**89 - 1 is a Mersenne prime: above the limit even primes are refused.
    for modulus in (psi_13, psi_13 + 2, 2**89 - 1):
        with pytest.raises(ConventionError, match=str(psi_13)):
            FieldSpec.prime(modulus)
    largest_prime_below = 3_317_044_064_679_887_385_961_813
    assert FieldSpec.prime(largest_prime_below).char == largest_prime_below


def test_field_spec_accepts_small_and_large_primes():
    assert FieldSpec.prime(2).char == 2
    assert FieldSpec.prime(BIG_PRIME).char == BIG_PRIME
    assert QQ.char == 0


def test_coerce_fraction_string_into_prime_field():
    f7 = FieldSpec.prime(7)
    assert f7.coerce("3/2") == 3 * 4 % 7  # inverse of 2 mod 7 is 4
    assert f7.coerce(Fraction(-1, 3)) == (-1 * 5) % 7  # inverse of 3 mod 7 is 5
    with pytest.raises(ZeroDivisionError):
        f7.coerce(Fraction(1, 7))


@pytest.mark.parametrize("zero", [0, 101, -101, 202])
def test_prime_field_inverse_of_any_multiple_of_p_raises(zero):
    with pytest.raises(ZeroDivisionError):
        F101.inv(zero)
    with pytest.raises(ZeroDivisionError):
        F101.div(5, zero)


def test_prime_field_inverse_of_unreduced_values():
    assert F101.inv(106) == F101.inv(5) == 81
    assert F101.inv(-1) == 100
    assert F101.div(3, 5) == 3 * 81 % 101


def test_coerce_rational_keeps_exact_value():
    assert QQ.coerce("22/7") == Fraction(22, 7)
    assert QQ.coerce(5) == Fraction(5)


@pytest.mark.parametrize("field", [QQ, FieldSpec.prime(7)])
def test_coerce_rejects_floats(field):
    # 2.5 used to round to 2 mod 7, and 0.1 to its binary expansion over Q
    for value in (2.5, 0.1, 3.0, -0.0):
        with pytest.raises(ConventionError, match="float"):
            field.coerce(value)
    assert field.coerce(3) == field.coerce("3") == field.coerce(Fraction(3))


# --- rank_kernel -------------------------------------------------------------


def _images(field: FieldSpec, rows, vector) -> list:
    """Each row times the vector, one field operation at a time."""
    return [reduce(field.add, map(field.mul, row, vector), field.zero()) for row in rows]


def test_rank_kernel_zero_matrix():
    rank, kernel = rank_kernel(QQ, [[0] * 3] * 3, 3)
    assert rank == 0
    assert len(kernel) == 3


def test_rank_kernel_identity():
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    rank, kernel = rank_kernel(QQ, identity, 4)
    assert rank == 4
    assert kernel == ()


def test_rank_kernel_pairing_matrix_of_decomposable_four_form():
    # Gram matrix of the quadratic form attached to x0^x1^x2^x3 on the
    # 6-dimensional space of bivectors in basis order 01,02,03,12,13,23:
    # entry[(ab),(cd)] = value of the 4-form on e_a^e_b^e_c^e_d, derived by
    # hand from the determinant pairing.
    rho = [
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ]
    rank, kernel = rank_kernel(QQ, rho, 6)
    assert rank == matrix_rank(QQ, rho) == 6
    assert kernel == ()


def test_rank_kernel_columns_are_annihilated():
    rng = random.Random(20260816)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(3)]
        rank, kernel = rank_kernel(QQ, rows, 5)
        assert rank + len(kernel) == 5
        for vector in kernel:
            assert all(v == 0 for v in _images(QQ, rows, vector))


def test_rank_kernel_agrees_between_rationals_and_large_prime_field():
    big = FieldSpec.prime(BIG_PRIME)
    rng = random.Random(99)
    for _ in range(10):
        rows = [[rng.randint(-999, 999) for _ in range(6)] for _ in range(4)]
        rank_q, _ = rank_kernel(QQ, rows, 6)
        rank_p, _ = rank_kernel(big, [[big.coerce(v) for v in row] for row in rows], 6)
        assert rank_q == rank_p


ELIMINATION_FIELDS = (QQ, FieldSpec.prime(2), FieldSpec.prime(3), F101)


@st.composite
def elimination_inputs(draw, fields=ELIMINATION_FIELDS, denominators=6):
    """(field, rows, cols): 0-10 rows of 0-12 entries, either drawn entry by
    entry or a product B·C of inner dimension 0-4 so that the rank drops,
    now and then with some rows set to zero.  Rational entries have
    numerators -9..9 and denominators 1 up to ``denominators``; prime-field
    entries lie in [0, p)."""
    field = draw(st.sampled_from(fields))
    nrows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 12))
    if field.kind == "prime":
        scalar = st.integers(0, field.p - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-9, 9), st.integers(1, denominators))

    def block(height, width):
        flat = tuple(draw(scalar) for _ in range(height * width))
        return Matrix(field, height, width, flat)

    if draw(st.booleans()):
        m = block(nrows, cols)
    else:
        inner = draw(st.integers(0, 4))
        m = matmul(block(nrows, inner), block(inner, cols))
    rows = row_lists(m)
    if nrows and draw(st.booleans()):
        for r in draw(st.sets(st.integers(0, nrows - 1))):
            rows[r] = [field.zero()] * cols
    return field, rows, cols


def _int_rows(field: FieldSpec, rows: list[list]) -> list[list[int]]:
    return [as_ints(field, row)[0] for row in rows]


def _reduced(rows: list[list[int]], pivots: list[int]) -> list[list[Fraction]]:
    """Each of the first ``len(pivots)`` rows divided by its pivot entry."""
    return [[Fraction(x, row[pc]) for x in row] for row, pc in zip(rows, pivots)]


@settings(max_examples=400, deadline=None)
@given(case=elimination_inputs())
def test_rref_matches_the_field_generic_reference(case):
    field, rows, cols = case
    expected_rows = [row[:] for row in rows]
    expected = rref_reference(field, expected_rows, cols)
    a = _int_rows(field, rows)
    originals = list(a)
    assert row_reduce(field, a, cols) == expected
    rank = len(expected)
    assert all(not any(row) for row in a[rank:])
    if field.kind == "prime":
        assert a == expected_rows
        # the caller's own row lists hold the result
        assert sorted(map(id, a)) == sorted(map(id, originals))
    else:
        # each row is a multiple of the reduced row, its pivot the multiplier
        assert _reduced(a, expected) == expected_rows[:rank]


@settings(max_examples=300, deadline=None)
@given(case=elimination_inputs())
def test_forward_elimination_finds_the_pivots_of_full_reduction(case):
    field, rows, cols = case
    full = _int_rows(field, rows)
    forward = _int_rows(field, rows)
    pivots = row_reduce(field, full, cols)
    assert row_reduce(field, forward, cols, back_substitute=False) == pivots
    # row echelon form: each pivot column is zero below its pivot row
    for r, pc in enumerate(pivots):
        assert forward[r][pc] and not any(row[pc] for row in forward[r + 1 :])
    assert all(not any(row) for row in forward[len(pivots) :])


@settings(max_examples=200, deadline=None)
@given(case=elimination_inputs(fields=(QQ,)))
def test_rank_kernel_over_the_rationals_is_exact(case):
    _, rows, cols = case
    rank, kernel = rank_kernel(QQ, rows, cols)
    assert rank + len(kernel) == cols
    for vector in kernel:
        assert all(v == 0 for v in _images(QQ, rows, vector))


MERSENNE_61 = FieldSpec.prime(2**61 - 1)


@settings(max_examples=300, deadline=None)
@given(case=elimination_inputs(), data=st.data())
def test_matrix_rank_matches_rank_kernel_and_the_reference(case, data):
    """The vectors as rows or as columns have one rank, that of `rank_kernel`
    and of the independent elimination `rank_kernel_reference`; every kernel
    vector is annihilated; and over the rationals the rank is the rank mod
    2^61 - 1.  The draws include no vectors and vectors of length zero."""
    field, vectors, length = case
    transposed = [[row[j] for row in vectors] for j in range(length)]
    rank, kernel = rank_kernel(field, vectors, length)
    assert matrix_rank(field, vectors) == matrix_rank(field, transposed) == rank
    assert rank == rank_kernel_reference(field, vectors, length)[0]
    assert rank + len(kernel) == length
    for vector in kernel:
        assert all(field.is_zero(v) for v in _images(field, vectors, vector))
    # A second rational draw, with denominators 1-2 so that the modular
    # check below provably applies: each vector scaled to integers, a minor
    # of size r is at most the product of the r largest row norms
    # (Hadamard), so a bound below p leaves every nonzero r x r minor
    # nonzero mod p and the ranks agree.
    _, vectors, _ = data.draw(elimination_inputs(fields=(QQ,), denominators=2))
    rank = matrix_rank(QQ, vectors)
    ints = []
    for row in vectors:
        scale = reduce(lcm, (v.denominator for v in row), 1)
        ints.append([int(v * scale) for v in row])
    norms = sorted((sum(x * x for x in row) for row in ints), reverse=True)
    p = MERSENNE_61.p
    assert prod(norms[:rank]) < p * p
    coerced = [[MERSENNE_61.coerce(v) for v in row] for row in vectors]
    assert matrix_rank(MERSENNE_61, coerced) == rank


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=lambda f: f.kind + str(f.p or ""))
def test_rank_routines_reject_vectors_of_different_lengths(field):
    zero, one = field.zero(), field.one()
    ragged = [[one], [zero, one], [zero, zero, one]]
    with pytest.raises(ValueError, match="different lengths"):
        matrix_rank(field, ragged)
    with pytest.raises(ValueError, match="different lengths"):
        matrix_rank(field, [[one, zero], [one]])
    with pytest.raises(ValueError, match="length 3"):
        rank_kernel(field, ragged, 3)
    with pytest.raises(ValueError, match="length 2"):
        rank_kernel(field, [[one, zero, zero]], 2)


@pytest.mark.parametrize("field", ELIMINATION_FIELDS, ids=lambda f: f.kind + str(f.p or ""))
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 3)])
def test_rank_routines_on_empty_and_zero_shapes(field, shape):
    nrows, cols = shape
    rows = [[field.zero()] * cols for _ in range(nrows)]
    rank, kernel = rank_kernel(field, rows, cols)
    assert matrix_rank(field, rows) == rank == 0
    assert len(kernel) == cols and all(len(vector) == cols for vector in kernel)


@settings(max_examples=200, deadline=None)
@given(case=elimination_inputs())
def test_rank_kernel_matches_the_kernel_from_reduced_rows(case):
    field, rows, cols = case
    got, expected = rank_kernel(field, rows, cols), rank_kernel_reference(field, rows, cols)
    assert got == expected
    assert repr(got[1]) == repr(expected[1])


@settings(max_examples=150, deadline=None)
@given(case=elimination_inputs(fields=ELIMINATION_FIELDS[1:]))
def test_rank_kernel_columns_are_annihilated_mod_p(case):
    # over the rationals: test_rank_kernel_over_the_rationals_is_exact
    field, rows, cols = case
    rank, kernel = rank_kernel(field, rows, cols)
    assert rank + len(kernel) == cols
    for vector in kernel:
        assert all(v == 0 for v in _images(field, rows, vector))


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 101)),
    case=elimination_inputs(fields=(QQ,)),
)
def test_rank_over_the_rationals_bounds_the_rank_mod_p(p, case):
    # an integer matrix: clear every denominator of the drawn rational one
    _, rows, cols = case
    ints = [[int(v * 720) for v in row] for row in rows]
    rank_q = matrix_rank(QQ, ints)
    rank_p = matrix_rank(FieldSpec.prime(p), [[v % p for v in row] for row in ints])
    assert rank_q >= rank_p
    assert rank_q == len(rref_reference(QQ, [[Fraction(v) for v in row] for row in ints], cols))


@settings(max_examples=150, deadline=None)
@given(case=elimination_inputs(fields=(QQ,)))
def test_integer_rows_are_those_of_scaling_the_whole_matrix(case):
    # scaling a row by the lcm of its own denominators, or of the whole
    # matrix's, leaves one primitive integer multiple once its content is
    # divided out, so the elimination sees the same ints either way
    _, rows, cols = case
    den = reduce(lcm, (v.denominator for row in rows for v in row), 1)
    expected = []
    for row in rows:
        ints = [int(v * den) for v in row]
        content = reduce(gcd, ints, 0)
        expected.append([x // content for x in ints] if content > 1 else ints)
    assert _integer_rows(QQ, rows) == expected
    assert all(type(x) is int for row in _integer_rows(QQ, rows) for x in row)


def test_rref_over_the_rationals_clears_denominators_and_signs():
    # the first pivot is negative; the rows mix ints and Fractions
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = _int_rows(QQ, [[-half, third, 1], [1, -2 * third, 2], [0, 0, Fraction(5, 7)]])
    assert a == [[-3, 2, 6], [3, -2, 6], [0, 0, 5]]
    pivots = row_reduce(QQ, a, 3)
    assert pivots == [0, 2]
    assert all(type(v) is int for row in a for v in row)
    assert _reduced(a, pivots) == [[1, Fraction(-2, 3), 0], [0, 0, 1]]
    assert a[2] == [0, 0, 0]


# --- pfaffian ----------------------------------------------------------------


def test_pfaffian_sign_convention_anchor():
    m = matrix_from_rows(QQ, [[0, 1], [-1, 0]])
    assert pfaffian(m) == 1


def test_pfaffian_of_direct_sum_is_product():
    m = matrix_from_rows(
        QQ,
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ],
    )
    assert pfaffian(m) == 1


def test_pfaffian_rejects_odd_size_and_non_skew():
    with pytest.raises(ConventionError):
        pfaffian(matrix_from_rows(QQ, [[0] * 3] * 3))
    with pytest.raises(ConventionError):
        pfaffian(matrix_from_rows(QQ, [[1, 0], [0, 1]]))


def test_pfaffian_squared_equals_determinant_random_over_prime_field():
    rng = random.Random(7)
    for size in (2, 4, 6):
        m = _random_skew(F101, size, rng)
        pf = pfaffian(m)
        assert F101.mul(pf, pf) == m.det()


def test_pfaffian_squared_equals_determinant_all_even_sizes_to_ten():
    rng = random.Random(11)
    for size in (2, 4, 6, 8, 10):
        for field in (QQ, F101):
            m = _random_skew(field, size, rng)
            pf = pfaffian(m)
            assert field.mul(pf, pf) == m.det()


PFAFFIAN_FIELDS = (
    FieldSpec.prime(2),
    FieldSpec.prime(3),
    F101,
    FieldSpec.prime(2**31 - 1),
    FieldSpec.prime(2**61 - 1),
    QQ,
)


@st.composite
def skew_matrices(draw):
    """An even-size (0-12) skew matrix over F_2, F_3, F_101, F_(2^31 - 1),
    F_(2^61 - 1) or Q: every entry above the diagonal drawn (zero with some
    weight, so sparse matrices occur), or a sum of 0-4 terms u^v so that
    singular matrices are common."""
    field = draw(st.sampled_from(PFAFFIAN_FIELDS))
    size = 2 * draw(st.integers(0, 6))
    if field.kind == "prime":
        scalar = st.integers(0, field.p - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    entry = st.one_of(st.just(0), scalar)
    rows = [[field.zero()] * size for _ in range(size)]
    if draw(st.booleans()):
        for i in range(size):
            for j in range(i + 1, size):
                value = field.coerce(draw(entry))
                rows[i][j], rows[j][i] = value, field.neg(value)
    else:
        vector = st.lists(scalar, min_size=size, max_size=size)
        for _ in range(draw(st.integers(0, 4))):
            u = [field.coerce(x) for x in draw(vector)]
            v = [field.coerce(x) for x in draw(vector)]
            for i in range(size):
                for j in range(size):
                    term = field.sub(field.mul(u[i], v[j]), field.mul(u[j], v[i]))
                    rows[i][j] = field.add(rows[i][j], term)
    return Matrix(field, size, size, tuple(v for row in rows for v in row))


@settings(max_examples=400, deadline=None)
@given(m=skew_matrices())
def test_pfaffian_matches_the_recursive_expansion_and_squares_to_det(m):
    pf = pfaffian(m)
    expected = pfaffian_expansion(m)
    assert pf == expected
    assert type(pf) is type(expected)
    assert m.field.mul(pf, pf) == m.det()


def test_pfaffian_keeps_its_checks_in_order():
    # a non-square, odd-size, non-skew matrix fails the square check first
    with pytest.raises(ConventionError, match="square"):
        pfaffian(matrix_from_rows(QQ, [[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ConventionError, match="even size"):
        pfaffian(matrix_from_rows(QQ, [[1, 2, 3]] * 3))
    with pytest.raises(ConventionError, match="skew-symmetric"):
        pfaffian(matrix_from_rows(F101, [[0, 1], [1, 0]]))


def test_pfaffian_reduces_entries_below_the_diagonal():
    # The skew check accepts a[j][i] = 106 beside a[i][j] = 96 over F_101,
    # so the Pfaffian must reduce such an entry before it is eliminated;
    # multiples of p far above the slot bound would otherwise carry.
    rng = random.Random(5)
    reduced = _random_skew(F101, 10, rng)
    rows = row_lists(reduced)
    for i in range(10):
        for j in range(i):
            rows[i][j] += 101 * rng.randrange(1, 2**200)
    unreduced = Matrix(F101, 10, 10, tuple(v for row in rows for v in row))
    assert unreduced.is_skew_symmetric()
    assert unreduced != reduced
    assert pfaffian(unreduced) == pfaffian(reduced) != 0


def test_pfaffian_of_a_matrix_with_a_zero_row_is_zero():
    rows = [[0, 0, 0, 0], [0, 0, 1, 2], [0, -1, 0, 3], [0, -2, -3, 0]]
    assert pfaffian(matrix_from_rows(F101, rows)) == 0
    assert pfaffian(matrix_from_rows(QQ, rows)) == 0


def test_elimination_determinant_matches_cofactor_oracle():
    rng = random.Random(13)
    for size in range(1, 6):
        for field in (QQ, F101):
            rows = [
                [field.coerce(rng.randint(-9, 9)) for _ in range(size)]
                for _ in range(size)
            ]
            m = matrix_from_rows(field, rows)
            assert m.det() == _cofactor_det(field, row_lists(m))


@st.composite
def determinant_inputs(draw):
    """A square matrix of size 0-7 over F_2, F_3, F_101, F_1000003 or the
    rationals; about half are made singular by a zero row or by a row that is
    a combination of two others."""
    field = draw(st.sampled_from((FieldSpec.prime(2), FieldSpec.prime(3), F101,
                                  FieldSpec.prime(BIG_PRIME), QQ)))
    size = draw(st.integers(0, 7))
    if field.kind == "prime":
        scalar = st.integers(0, field.p - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    rows = [[draw(scalar) for _ in range(size)] for _ in range(size)]
    if size and draw(st.booleans()):
        target = draw(st.integers(0, size - 1))
        if size < 3 or draw(st.booleans()):
            rows[target] = [field.zero()] * size
        else:
            i, j = [k for k in range(size) if k != target][:2]
            a, b = draw(scalar), draw(scalar)
            rows[target] = [
                field.add(field.mul(a, x), field.mul(b, y))
                for x, y in zip(rows[i], rows[j])
            ]
    return Matrix(field, size, size, tuple(v for row in rows for v in row))


@settings(max_examples=400, deadline=None)
@given(m=determinant_inputs())
def test_determinant_matches_the_field_operation_loop_and_cofactors(m):
    det = m.det()
    assert det == det_reference(m)
    assert det == _cofactor_det(m.field, row_lists(m))
    assert type(det) is type(det_reference(m))
    if m.field.kind == "prime":
        assert 0 <= det < m.field.p


def test_determinant_of_the_empty_and_one_by_one_matrices():
    for field in (QQ, F101, FieldSpec.prime(2)):
        assert Matrix(field, 0, 0, ()).det() == field.one()
        assert Matrix(field, 1, 1, (field.zero(),)).det() == field.zero()
    assert Matrix(F101, 1, 1, (57,)).det() == 57
    assert Matrix(QQ, 1, 1, (Fraction(-3, 4),)).det() == Fraction(-3, 4)


# --- matrix-vector products ----------------------------------------------


@st.composite
def matrices_and_vectors(draw):
    """(matrix, vector) over F_2, F_3, F_101 or Q: 0-7 rows and 0-7 columns,
    with zero rows and zero vectors drawn often, and Q entries and coordinates
    with denominators up to 6, as Fractions or plain ints."""
    field = draw(st.sampled_from((FieldSpec.prime(2), FieldSpec.prime(3), F101, QQ)))
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if field.kind == "prime":
        scalar = st.integers(0, field.p - 1)
    else:
        scalar = st.one_of(
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
            st.integers(-9, 9),
        )
    zero = st.just(field.zero())
    rows = [
        [draw(zero if zero_row else scalar) for _ in range(ncols)]
        for zero_row in draw(st.lists(st.booleans(), min_size=nrows, max_size=nrows))
    ]
    m = Matrix(field, nrows, ncols, tuple(v for row in rows for v in row))
    vector = draw(st.one_of(st.just((0,) * ncols), st.tuples(*[scalar] * ncols)))
    return m, vector


@settings(max_examples=400, deadline=None)
@given(case=matrices_and_vectors())
def test_matvec_matches_the_field_operation_loop(case):
    m, vector = case
    image = m.matvec(vector)
    assert image == matvec_reference(m, vector)
    assert len(image) == m.rows
    if m.field.kind == "prime":
        assert all(type(v) is int and 0 <= v < m.field.p for v in image)
    else:
        assert all(type(v) is Fraction for v in image)
    with pytest.raises(ValueError, match="length"):
        m.matvec(tuple(vector) + (0,))


def test_matvec_over_the_rationals_on_common_denominators():
    m = matrix_from_rows(QQ, [["1/2", "-2/3", 0], [0, 0, 0], ["5/4", 1, "1/6"]])
    assert m.matvec((Fraction(2, 5), 3, Fraction(-3, 7))) == (
        Fraction(1, 5) - 2,
        Fraction(0),
        Fraction(1, 2) + 3 - Fraction(1, 14),
    )
    assert m.matvec((0, 0, 0)) == (Fraction(0),) * 3
    assert Matrix(QQ, 0, 3, ()).matvec((1, 2, 3)) == ()
    assert Matrix(QQ, 2, 0, ()).matvec(()) == (Fraction(0), Fraction(0))


# --- polynomials -------------------------------------------------------------


def test_poly_gcd_linear_factor():
    f = UniPoly.from_coeffs(QQ, [-1, 0, 1])  # t^2 - 1
    g = UniPoly.from_coeffs(QQ, [-1, 1])  # t - 1
    assert poly_gcd(f, g) == g.monic()


def test_poly_gcd_with_zero_returns_monic():
    f = UniPoly.from_coeffs(QQ, [2, 0, 4])  # 4t^2 + 2
    expected = UniPoly.from_coeffs(QQ, [Fraction(1, 2), 0, 1])
    assert poly_gcd(f, UniPoly.zero(QQ)) == expected
    assert poly_gcd(UniPoly.zero(QQ), UniPoly.zero(QQ)).is_zero()


def test_poly_gcd_rejects_mixed_fields():
    with pytest.raises(ValueError):
        poly_gcd(UniPoly.one(QQ), UniPoly.one(F101))


def test_poly_divmod_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        f = UniPoly.from_coeffs(F101, [rng.randrange(101) for _ in range(6)])
        g = UniPoly.from_coeffs(F101, [rng.randrange(101) for _ in range(3)])
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q.mul(g).add(r) == f
        assert r.degree < g.degree


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.integers(0, 100), min_size=0, max_size=5),
    b=st.lists(st.integers(0, 100), min_size=0, max_size=5),
    c=st.lists(st.integers(0, 100), min_size=1, max_size=3),
)
def test_poly_gcd_divides_both_and_is_symmetric(a, b, c):
    common = UniPoly.from_coeffs(F101, c)
    f = UniPoly.from_coeffs(F101, a).mul(common)
    g = UniPoly.from_coeffs(F101, b).mul(common)
    d = poly_gcd(f, g)
    assert d == poly_gcd(g, f)
    if not f.is_zero():
        assert f.divmod(d)[1].is_zero()
    if not g.is_zero():
        assert g.divmod(d)[1].is_zero()
    if not common.is_zero():
        assert d.divmod(common.monic())[1].is_zero()


def test_interpolation_recovers_polynomial():
    rng = random.Random(17)
    for _ in range(10):
        poly = UniPoly.from_coeffs(F101, [rng.randrange(101) for _ in range(6)])
        nodes = list(range(7))
        points = [(t, poly.eval(t)) for t in nodes]
        assert interpolate(F101, points) == poly


def test_interpolation_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        interpolate(QQ, [(1, 1), (1, 2)])


def test_poly_eval_horner_matches_direct_sum():
    poly = UniPoly.from_coeffs(QQ, [1, -2, 0, 3])  # 3t^3 - 2t + 1
    t = Fraction(5, 7)
    assert poly.eval(t) == 3 * t**3 - 2 * t + 1


# --- matrix plumbing ----------------------------------------------------------


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(QQ, 2, 2, (Fraction(0),) * 3)


def test_matrix_multiplication_and_transpose():
    a = matrix_from_rows(QQ, [[1, 2], [3, 4]])
    b = matrix_from_rows(QQ, [[0, 1], [1, 0]])
    assert matmul(a, b) == matrix_from_rows(QQ, [[2, 1], [4, 3]])
    assert transpose(a) == matrix_from_rows(QQ, [[1, 3], [2, 4]])


def test_submatrix_and_skew_check():
    m = matrix_from_rows(QQ, [[0, 2, 5], [-2, 0, -1], [-5, 1, 0]])
    assert m.is_skew_symmetric()
    sub = m.submatrix([0, 2], [0, 2])
    assert sub == matrix_from_rows(QQ, [[0, 5], [-5, 0]])


def _skew_reference(m: Matrix) -> bool:
    """The skew check entry by entry through the field's own arithmetic."""
    f = m.field
    if m.rows != m.cols:
        return False
    for i in range(m.rows):
        if not f.is_zero(m.entry(i, i)):
            return False
        for j in range(i + 1, m.cols):
            if m.entry(i, j) != f.neg(m.entry(j, i)):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from([QQ, F101, FieldSpec.prime(2)]),
    size=st.integers(0, 5),
    extra_col=st.booleans(),
    data=st.data(),
)
def test_skew_check_matches_the_entrywise_reference(field, size, extra_col, data):
    # Start from a skew matrix, then perturb: shift entries by multiples of p
    # (or by integers over Q), and set diagonal entries, so that reduced,
    # unreduced, non-skew and non-square inputs all occur.
    rows = row_lists(_random_skew(field, size, random.Random(data.draw(st.integers(0, 99)))))
    modulus = field.p or 1
    for _ in range(data.draw(st.integers(0, 3))):
        if not size:
            break
        i = data.draw(st.integers(0, size - 1))
        j = data.draw(st.integers(0, size - 1))
        rows[i][j] += modulus * data.draw(st.integers(-2, 2))
    cols = size + extra_col
    flat = tuple(v for row in rows for v in row + [0] * extra_col)
    m = Matrix(field, size, cols, flat)
    assert m.is_skew_symmetric() == _skew_reference(m)


def test_skew_check_verdicts_on_unreduced_entries():
    # below the diagonal an unreduced entry passes when its negation mod p
    # is the entry above; above the diagonal it must be reduced
    assert Matrix(F101, 2, 2, (0, 5, 197, 0)).is_skew_symmetric()
    assert not Matrix(F101, 2, 2, (0, 106, 96, 0)).is_skew_symmetric()
    assert not Matrix(F101, 2, 2, (101, 5, 96, 0)).is_skew_symmetric()
    assert not matrix_from_rows(QQ, [[0, 1], [1, 0]]).is_skew_symmetric()
    assert Matrix(QQ, 0, 0, ()).is_skew_symmetric()
    assert not Matrix(QQ, 1, 2, (Fraction(0), Fraction(0))).is_skew_symmetric()


@pytest.mark.parametrize("entry, det, rank", [(101, None, None), (102, 100, 2), (-100, 100, 2)])
def test_unreduced_prime_field_entries(entry, det, rank):
    """`Matrix` and the rank routines over F_p take entries as given.  One
    that is congruent to a nonzero residue gives the true det and rank; a
    nonzero multiple of p cannot be inverted as a pivot and raises
    `ConventionError`, not a bare `ValueError` from `pow`."""
    rows = [(entry, 1), (1, 0)]
    m = Matrix(F101, 2, 2, (entry, 1, 1, 0))
    if det is None:
        for call in (m.det, lambda: matrix_rank(F101, rows), lambda: rank_kernel(F101, rows, 2)):
            with pytest.raises(ConventionError, match="multiple of 101"):
                call()
    else:
        assert m.det() == det
        assert matrix_rank(F101, rows) == rank_kernel(F101, rows, 2)[0] == rank


# --- skew rank kernel -------------------------------------------------------------


@st.composite
def alternating_mod_p(draw):
    """A random alternating matrix over F_p: either every entry above the
    diagonal drawn, or a sum of 0-4 terms u^v so that low ranks occur."""
    p = draw(st.sampled_from([2, 3, 101, 1009]))
    size = draw(st.integers(0, 12))
    rows = [[0] * size for _ in range(size)]
    if draw(st.booleans()):
        for i in range(size):
            for j in range(i + 1, size):
                value = draw(st.integers(0, p - 1))
                rows[i][j], rows[j][i] = value, -value % p
    else:
        vector = st.lists(st.integers(0, p - 1), min_size=size, max_size=size)
        for _ in range(draw(st.integers(0, 4))):
            u, v = draw(vector), draw(vector)
            for i in range(size):
                for j in range(size):
                    rows[i][j] = (rows[i][j] + u[i] * v[j] - u[j] * v[i]) % p
    return p, rows


@settings(max_examples=300, deadline=None)
@given(case=alternating_mod_p())
def test_skew_rank_matches_row_reduction(case):
    p, rows = case
    rank = len(row_reduce(FieldSpec.prime(p), [row[:] for row in rows], len(rows)))
    assert _skew_rank(p, rows) == rank


def _skew_rank(p: int, rows: list[list[int]]) -> int:
    return packed_skew_mod_p(p, *_packed_skew_rows(p, rows))[0]


def test_skew_rank_anchors():
    assert _skew_rank(7, []) == 0
    assert _skew_rank(7, [[0, 0], [0, 0]]) == 0
    assert _skew_rank(7, [[0, 3], [4, 0]]) == 2
    # e0^e1 + e2^e3 has rank 4
    rows = [[0, 1, 0, 0], [6, 0, 0, 0], [0, 0, 0, 1], [0, 0, 6, 0]]
    assert _skew_rank(7, rows) == 4


LANE_PRIMES = (2, 3, 5, 7, 11, 31, 83, 89, 101, 127)


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_byte_lane_tables_are_field_arithmetic(p):
    lanes = byte_lanes(p)
    residues = range(p)
    nonzero = range(1, p)
    for x in nonzero:
        for y in nonzero:
            assert lanes.exp[lanes.log[x] + lanes.log[y]] == x * y % p
            assert lanes.neg_exp[lanes.log[x] + lanes.log[y]] == -x * y % p
            assert lanes.exp[lanes.neg_log[x] + lanes.log[y]] == -x * y % p
            assert lanes.exp[lanes.reduce_log[lanes.log[x] + lanes.inv_log[y]]] == (
                x * pow(y, -1, p) % p
            )
    assert all(lanes.scale[c][x] == c * x % p for c in residues for x in residues)
    assert all(lanes.reduce[s] == s % p for s in range(256))
    assert [lanes.nonzero[x] for x in range(256)] == [0] + [255] * 255


def test_byte_lanes_stop_where_two_residues_overflow_a_byte():
    # 2 * (127 - 1) = 252 fits a byte, 2 * (131 - 1) = 260 does not
    assert byte_lanes(127) is not None
    assert byte_lanes(131) is None
    assert byte_lanes(2**61 - 1) is None


@settings(max_examples=200, deadline=None)
@given(case=st.data())
def test_lane_skew_ranks_match_row_reduction(case):
    """Each lane of a block of alternating matrices, sparse or low-rank so
    that pivots vanish in some lanes: a lane that does not fall out has the
    rank of its matrix, and one lane at least never falls out."""
    p = case.draw(st.sampled_from(LANE_PRIMES))
    size = case.draw(st.integers(0, 9))
    count = case.draw(st.integers(1, 40))
    rng = random.Random(case.draw(st.integers(0, 10**6)))
    density = case.draw(st.sampled_from([0.2, 0.6, 1.0]))
    matrices = []
    for _ in range(count):
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < density:
                    rows[i][j] = rng.randrange(p)
                    rows[j][i] = -rows[i][j] % p
        matrices.append(rows)
    entries = {
        (i, j): bytes(rows[i][j] for rows in matrices)
        for i in range(size)
        for j in range(i + 1, size)
    }
    ranks, fallen = lane_skew_ranks(byte_lanes(p), count, entries, range(size))
    assert len(ranks) == len(fallen) == count
    assert set(fallen) <= {0, 255} and 0 in fallen
    for rows, rank, out in zip(matrices, ranks, fallen):
        if not out:
            assert rank == _skew_rank(p, rows)


# `lane_ranks` pivots the lanes on one entry at a time, so a lane can fall out
# only where a residue can vanish: these primes are the low end of the lane
# range (many zero entries), two in its middle and its upper bound.
GENERAL_LANE_PRIMES = (5, 7, 101, 127)


@settings(max_examples=200, deadline=None)
@given(case=st.data())
def test_lane_ranks_match_matrix_rank(case):
    """Each lane of a block of matrices of one shape, sparse, or of a drawn
    rank below the full one (a product of two random factors), so that
    pivots vanish in some lanes: a lane that does not fall out has the rank
    that `matrix_rank` gives its matrix, and one lane at least never falls
    out."""
    p = case.draw(st.sampled_from(GENERAL_LANE_PRIMES))
    rows = case.draw(st.integers(0, 9))
    cols = case.draw(st.integers(0, 9))
    count = case.draw(st.integers(1, 40))
    rng = random.Random(case.draw(st.integers(0, 10**6)))
    density = case.draw(st.sampled_from([0.2, 0.6, 1.0]))
    inner = case.draw(st.one_of(st.none(), st.integers(0, 4)))
    matrices = []
    for _ in range(count):
        if inner is None:
            matrix = [
                [rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
        else:
            left = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
            matrix = [
                [sum(a * b for a, b in zip(row, column)) % p for column in zip(*right)]
                if inner
                else [0] * cols
                for row in left
            ]
        matrices.append(matrix)
    entries = {
        (r, c): bytes(matrix[r][c] for matrix in matrices)
        for r in range(rows)
        for c in range(cols)
        if rng.random() < 0.9 or any(matrix[r][c] for matrix in matrices)
    }
    ranks, fallen = lane_ranks(byte_lanes(p), count, entries)
    assert len(ranks) == len(fallen) == count
    assert set(fallen) <= {0, 255} and 0 in fallen
    field = FieldSpec.prime(p)
    for matrix, rank, out in zip(matrices, ranks, fallen):
        if not out:
            assert rank == matrix_rank(field, matrix)


@pytest.mark.parametrize("p", GENERAL_LANE_PRIMES)
def test_lane_ranks_drop_a_lane_whose_pivot_vanishes(p):
    """Three lanes hold the identity and one the swap matrix: the pivot
    (0, 0), nonzero in three lanes, vanishes in the fourth while its (0, 1)
    entry does not, so that lane falls out and the others have rank 2.  A
    lane of zeros has rank 0, and a block of no entries ranks 0 everywhere."""
    identity, swap, zero = [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 0], [0, 0]]
    matrices = [identity, identity, swap, identity, zero]
    entries = {
        (r, c): bytes(matrix[r][c] for matrix in matrices) for r in range(2) for c in range(2)
    }
    ranks, fallen = lane_ranks(byte_lanes(p), 5, entries)
    assert list(fallen) == [0, 0, 255, 0, 0]
    assert [ranks[t] for t in (0, 1, 3, 4)] == [2, 2, 2, 0]
    assert lane_ranks(byte_lanes(p), 3, {}) == (bytes(3), bytes(3))


# --- seeded draws --------------------------------------------------------------------


@pytest.mark.parametrize("bound", [1, 2, 3, 101, 1009, 2**31 - 1])
def test_randbelow_repeats_randrange_and_its_generator_state(bound):
    """Every seeded stream in the package draws through `randbelow`, so it
    must give randrange's values and leave the generator where randrange
    would."""
    reference = random.Random(bound)
    fast = random.Random(bound)
    expected = [reference.randrange(bound) for _ in range(20_000)]
    assert [randbelow(fast, bound) for _ in range(20_000)] == expected
    assert fast.getstate() == reference.getstate()


# Bounds of at most 8 bits are cut from the top bytes of whole words, and
# wider ones are drawn a word at a time: 129 rejects nearly half its bytes,
# so its refills repeat, and 255, 256 and 257 sit on either side of 8 bits.
RANDBELOW_MANY_BOUNDS = [
    1, 2, 3, 5, 7, 101, 128, 129, 255, 256, 257, 1009, 32003,
    2**31 - 1, 2**32 - 5, 2**32, 2**32 + 15, 2**61 - 1,
]


@pytest.mark.parametrize("bound", RANDBELOW_MANY_BOUNDS)
def test_randbelow_many_repeats_randbelow_and_its_generator_state(bound):
    reference = random.Random(bound)
    fast = random.Random(bound)
    for count in (0, 1, 2, 7, 10, 64, 1000):
        expected = [randbelow(reference, bound) for _ in range(count)]
        assert randbelow_many(fast, bound, count) == expected
        assert fast.getstate() == reference.getstate()


def test_randbelow_bytes_repeats_randbelow_and_its_generator_state():
    # every bound that a byte holds, each over counts that need no refill,
    # a few refills and many
    for bound in range(1, 256):
        reference = random.Random(bound)
        fast = random.Random(bound)
        for count in (0, 1, 5, 300):
            expected = bytes(randbelow(reference, bound) for _ in range(count))
            assert randbelow_bytes(fast, bound, count) == expected
            assert fast.getstate() == reference.getstate()


@pytest.mark.parametrize("bound", [0, -1, 256, 1009])
def test_randbelow_bytes_rejects_a_bound_outside_a_byte(bound):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="empty range" if bound < 1 else "more than 8 bits"):
        randbelow_bytes(rng, bound, 3)
    assert rng.getstate() == state


@pytest.mark.parametrize("bound", [0, -1, -256])
def test_randbelow_rejects_an_empty_range(bound):
    # a bound below 1 accepts no value, so the redraws would never end
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="empty range"):
        randbelow(rng, bound)
    with pytest.raises(ValueError):
        random.Random(0).randrange(bound)
    assert rng.getstate() == state


@pytest.mark.parametrize("bound", [0, -1, -256])
@pytest.mark.parametrize("count", [0, 3])
def test_randbelow_many_rejects_an_empty_range(bound, count):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="empty range"):
        randbelow_many(rng, bound, count)
    assert rng.getstate() == state


@st.composite
def interpolation_points(draw):
    """(field, points): 0-8 distinct nodes over F_2, F_3, F_101, F_1009,
    F_(2^31 - 1), F_(2^61 - 1) or Q, values that are zero with some weight
    and otherwise any int or Fraction the field can coerce.  Prime-field
    nodes are drawn from the whole field; over Q nodes and values are ints
    or Fractions with denominators 1-9."""
    field = draw(st.sampled_from((FieldSpec.prime(2), FieldSpec.prime(3), F101,
                                  FieldSpec.prime(1009), FieldSpec.prime(2**31 - 1),
                                  FieldSpec.prime(2**61 - 1), QQ)))
    if field.kind == "prime":
        node = st.integers(0, field.p - 1)
        fraction = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 1))
    else:
        node = st.one_of(st.integers(-50, 50),
                         st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)))
        fraction = st.builds(Fraction, st.integers(-2000, 2000), st.integers(1, 9))
    xs = draw(st.lists(node, max_size=min(8, field.p or 8), unique_by=field.coerce))
    value = st.one_of(st.just(0), st.integers(-2000, 2000), fraction)
    return field, [(x, draw(value)) for x in xs]


@settings(max_examples=400, deadline=None)
@given(case=interpolation_points())
def test_interpolate_matches_the_unipoly_reference(case):
    field, points = case
    poly = interpolate(field, points)
    assert poly == interpolate_reference(field, points)
    for x, y in points:
        assert poly.eval(x) == field.coerce(y)


@st.composite
def formal_polynomial_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5, 31, 101]))
    coeffs = st.lists(st.integers(-2 * p, 2 * p), min_size=1, max_size=6)
    return p, draw(coeffs), draw(coeffs)


@settings(max_examples=400, deadline=None)
@given(case=formal_polynomial_pairs())
def test_resultant_is_the_sylvester_determinant(case):
    # the lengths are formal degrees: zero leading coefficients included
    p, f, g = case
    assert poly_resultant_mod_p(f, g, p) == resultant_reference(f, g, p)


def test_resultant_anchors():
    # Res(x - 2, x - 5) = 2 - 5; a shared root gives 0; two zero leading
    # coefficients give 0; Res of a constant c at formal degree 0 is c^m
    assert poly_resultant_mod_p([-2, 1], [-5, 1], 101) == -3 % 101
    assert poly_resultant_mod_p([6, -5, 1], [-2, 1], 101) == 0
    assert poly_resultant_mod_p([1, 1, 0], [3, 1, 0], 101) == 0
    assert poly_resultant_mod_p([1, 2, 3], [7], 101) == 49
    with pytest.raises(ConventionError):
        poly_resultant_mod_p([], [1], 101)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 1009, 2**31 - 1])
def test_square_roots_mod_p(p):
    # 17, 41, 97 and 1009 are 1 mod 8, where Tonelli-Shanks runs its loop
    rng = random.Random(p)
    values = range(p) if p < 2000 else [rng.randrange(p) for _ in range(200)]
    for a in values:
        root = _sqrt_mod_p(a, p)
        if a and pow(a, (p - 1) // 2, p) != 1:
            assert root is None
        else:
            assert root is not None and root * root % p == a
