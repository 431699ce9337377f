"""Tests for the exterior algebra layer.

Sign-sensitive expected values were derived by hand from the determinant
pairing before being frozen here; structural identities (adjunction, graded
commutativity, reassembly of the covector splitting) are checked on seeded
random tensors across several degrees and dimensions.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triwedge import exterior_core
from triwedge.exact_scalar import FieldSpec, as_ints, matrix_rank
from triwedge.form_analysis import LinearSubspace
from triwedge.exterior_core import (
    AlternatingTensor,
    SpaceContext,
    contract,
    covector_contract,
    form_from_document,
    form_to_document,
    pair,
    projective_point_count,
    projective_points,
    pullback,
    pullback_rows,
    random_tensor,
    reduce_mod_p,
    reduced_square,
    split_along_covector,
    wedge,
)

from oracles import (
    contract_terms_reference,
    pair_reference,
    projective_points_reference,
    pullback_reference,
    random_tensor_reference,
    reduced_square_reference,
    wedge_reference,
)

QQ = FieldSpec.rationals()
F101 = FieldSpec.prime(101)


def ctx_q(n: int) -> SpaceContext:
    return SpaceContext(n, QQ)


def ctx_p(n: int) -> SpaceContext:
    return SpaceContext(n, F101)


def two_planes_form(ctx: SpaceContext) -> AlternatingTensor:
    """x0^x1^x2 + x3^x4^x5: the split form supported on two disjoint planes."""
    return AlternatingTensor.make(ctx, 3, "form", {(0, 1, 2): 1, (3, 4, 5): 1})


def blade(ctx: SpaceContext, variance: str, *indices: int) -> AlternatingTensor:
    return AlternatingTensor.make(ctx, len(indices), variance, {tuple(indices): 1})


# --- construction and canonicalization ----------------------------------------


def test_make_sorts_indices_with_sign():
    ctx = ctx_q(3)
    t = AlternatingTensor.make(ctx, 2, "vector", {(1, 0): 1})
    assert t.coeff_map() == {(0, 1): Fraction(-1)}


def test_make_drops_repeated_indices_and_zeros():
    ctx = ctx_q(3)
    t = AlternatingTensor.make(ctx, 2, "vector", [((0, 0), 5), ((0, 1), 0)])
    assert t.is_zero()


def test_make_accumulates_duplicates():
    ctx = ctx_q(3)
    t = AlternatingTensor.make(ctx, 2, "vector", [((0, 1), 2), ((1, 0), 2)])
    assert t.is_zero()


def test_coefficient_handles_unsorted_query():
    ctx = ctx_q(3)
    t = blade(ctx, "vector", 0, 1)
    assert t.coefficient((1, 0)) == -1
    assert t.coefficient((0, 2)) == 0


def test_context_rejects_small_dimension():
    with pytest.raises(ValueError):
        SpaceContext(2, QQ)


# --- pairing -------------------------------------------------------------------


def test_pair_matching_index_sets():
    ctx = ctx_q(3)
    assert pair(blade(ctx, "form", 0, 1), blade(ctx, "vector", 0, 1)) == 1


def test_pair_antisymmetry():
    ctx = ctx_q(3)
    swapped = AlternatingTensor.make(ctx, 2, "vector", {(1, 0): 1})
    assert pair(blade(ctx, "form", 0, 1), swapped) == -1


def test_pair_mismatched_sets_vanish():
    ctx = ctx_q(3)
    assert pair(blade(ctx, "form", 0, 1, 2), blade(ctx, "vector", 0, 1, 3)) == 0


def test_pair_rejects_degree_mismatch():
    ctx = ctx_q(3)
    with pytest.raises(ValueError):
        pair(blade(ctx, "form", 0, 1), blade(ctx, "vector", 0))


# --- wedge ----------------------------------------------------------------------


def test_wedge_of_basis_covectors():
    ctx = ctx_q(3)
    w = wedge(blade(ctx, "form", 0), blade(ctx, "form", 1))
    assert w.coeff_map() == {(0, 1): Fraction(1)}


def test_wedge_with_repeated_index_vanishes():
    ctx = ctx_q(3)
    assert wedge(blade(ctx, "form", 0, 1), blade(ctx, "form", 0, 2)).is_zero()


def test_wedge_two_planes_form_with_x0():
    ctx = ctx_q(5)
    w = wedge(two_planes_form(ctx), blade(ctx, "form", 0))
    assert w.coeff_map() == {(0, 3, 4, 5): Fraction(-1)}


def test_wedge_square_of_odd_degree_vanishes():
    ctx = ctx_p(6)
    a = random_tensor(ctx, 3, "form", seed=5)
    assert wedge(a, a).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    ka=st.integers(1, 3),
    kb=st.integers(1, 3),
    seed_a=st.integers(0, 10**6),
    seed_b=st.integers(0, 10**6),
)
def test_wedge_graded_commutativity(ka, kb, seed_a, seed_b):
    ctx = ctx_p(6)
    a = random_tensor(ctx, ka, "form", seed_a)
    b = random_tensor(ctx, kb, "form", seed_b)
    ab = wedge(a, b)
    ba = wedge(b, a)
    expected = ba if (ka * kb) % 2 == 0 else ba.neg()
    assert ab == expected


def test_wedge_associativity_random():
    ctx = ctx_p(7)
    a = random_tensor(ctx, 1, "form", 11)
    b = random_tensor(ctx, 2, "form", 12)
    c = random_tensor(ctx, 1, "form", 13)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# --- contraction ------------------------------------------------------------------


def test_contract_single_vector():
    ctx = ctx_q(3)
    got = contract(blade(ctx, "form", 0, 1, 2), blade(ctx, "vector", 0))
    assert got == blade(ctx, "form", 1, 2)


def test_contract_two_planes_form_by_plane_spanning_pair():
    ctx = ctx_q(5)
    omega = two_planes_form(ctx)
    got = contract(omega, blade(ctx, "vector", 0, 1))
    assert got == blade(ctx, "form", 2)


def test_contract_two_planes_form_by_cross_pair_vanishes():
    ctx = ctx_q(5)
    omega = two_planes_form(ctx)
    assert contract(omega, blade(ctx, "vector", 0, 3)).is_zero()


def test_contract_rejects_excess_degree():
    ctx = ctx_q(3)
    with pytest.raises(ValueError):
        contract(blade(ctx, "form", 0), blade(ctx, "vector", 0, 1))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 8),
    k=st.integers(2, 4),
    j=st.integers(1, 2),
    seed=st.integers(0, 10**6),
)
def test_contract_adjunction_identity(n, k, j, seed):
    if j >= k or k > n + 1:
        return
    ctx = ctx_p(n)
    f = random_tensor(ctx, k, "form", seed)
    v = random_tensor(ctx, j, "vector", seed + 1)
    g = contract(f, v)
    # <contract(f,v), w> == <f, v^w> for every basis (k-j)-vector w
    for key in itertools.combinations(range(n + 1), k - j):
        w = AlternatingTensor.make(ctx, k - j, "vector", {key: 1})
        assert pair(g, w) == pair(f, wedge(v, w))


# --- reduced square ----------------------------------------------------------------


def test_reduced_square_of_decomposable_vanishes():
    ctx = ctx_q(3)
    assert reduced_square(blade(ctx, "vector", 0, 1)).is_zero()


def test_reduced_square_of_symplectic_pair():
    ctx = ctx_q(3)
    L = AlternatingTensor.make(ctx, 2, "vector", {(0, 1): 1, (2, 3): 1})
    assert reduced_square(L).coeff_map() == {(0, 1, 2, 3): Fraction(1)}


def test_reduced_square_halves_wedge_square():
    ctx = ctx_p(7)
    for seed in range(5):
        L = random_tensor(ctx, 2, "vector", seed)
        doubled = reduced_square(L).scale(2)
        assert doubled == wedge(L, L)


def test_reduced_square_detects_decomposability_in_char_two():
    f2 = SpaceContext(5, FieldSpec.prime(2))
    L = AlternatingTensor.make(f2, 2, "vector", {(0, 1): 1, (2, 3): 1})
    # over F_2 the wedge square vanishes, but the reduced square does not
    assert wedge(L, L).is_zero()
    assert not reduced_square(L).is_zero()


# --- splitting ------------------------------------------------------------------------


def test_split_when_direction_absent_from_form():
    ctx = ctx_q(3)
    omega = blade(ctx, "form", 1, 2, 3)
    omega_x, beta, e = split_along_covector(omega, blade(ctx, "form", 0))
    assert omega_x == omega
    assert beta.is_zero()
    assert e == blade(ctx, "vector", 0)


def test_split_when_form_contains_direction():
    ctx = ctx_q(3)
    omega = blade(ctx, "form", 0, 1, 2)
    x = blade(ctx, "form", 0)
    omega_x, beta, e = split_along_covector(omega, x)
    assert omega_x.is_zero()
    assert omega_x.add(wedge(beta, x)) == omega
    assert contract(beta, e).is_zero()


def test_split_reassembles_on_mixed_direction():
    ctx = ctx_q(5)
    omega = two_planes_form(ctx)
    x = AlternatingTensor.make(ctx, 1, "form", {(0,): 1, (3,): 1})
    omega_x, beta, e = split_along_covector(omega, x)
    assert omega_x.add(wedge(beta, x)) == omega
    assert contract(omega_x, e).is_zero()
    assert contract(beta, e).is_zero()


def test_split_random_forms_satisfy_both_identities():
    ctx = ctx_p(6)
    for seed in range(5):
        omega = random_tensor(ctx, 3, "form", seed)
        x = random_tensor(ctx, 1, "form", seed + 100)
        if x.is_zero():
            continue
        omega_x, beta, e = split_along_covector(omega, x)
        assert omega_x.add(wedge(beta, x)) == omega
        assert contract(omega_x, e).is_zero()
        assert contract(beta, e).is_zero()
        assert pair(x, e) == 1


def test_split_rejects_zero_direction():
    ctx = ctx_q(3)
    with pytest.raises(ValueError):
        split_along_covector(
            blade(ctx, "form", 0, 1, 2), ctx.zero_tensor(1, "form")
        )


# --- random tensors ----------------------------------------------------------------


def test_random_tensor_is_seed_deterministic():
    ctx = ctx_q(5)
    assert random_tensor(ctx, 3, "form", 7) == random_tensor(ctx, 3, "form", 7)
    assert random_tensor(ctx, 3, "form", 7) != random_tensor(ctx, 3, "form", 8)


def test_random_tensor_rational_coefficients_are_small_integers():
    ctx = ctx_q(4)
    t = random_tensor(ctx, 2, "vector", 123)
    for _, value in t.terms:
        assert value.denominator == 1
        assert -10 <= value <= 10


def test_random_tensor_prime_coefficients_in_range():
    ctx = ctx_p(4)
    t = random_tensor(ctx, 2, "form", 99)
    for _, value in t.terms:
        assert 0 < value < 101


def _value_error(call) -> str | None:
    """The message of the `ValueError` that ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(
    fld=st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(3), F101, QQ]),
    n=st.integers(3, 8),
    data=st.data(),
    variance=st.sampled_from(["vector", "form", "covector"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_random_tensor_matches_the_make_path(fld, n, data, variance, seed):
    ctx = SpaceContext(n, fld)
    k = data.draw(st.integers(-2, ctx.dim + 2), label="degree")
    error = _value_error(lambda: random_tensor_reference(ctx, k, variance, seed))
    if error is not None:
        assert _value_error(lambda: random_tensor(ctx, k, variance, seed)) == error
        return
    got = random_tensor(ctx, k, variance, seed)
    want = random_tensor_reference(ctx, k, variance, seed)
    assert got == want
    assert [type(v) for _, v in got.terms] == [type(v) for _, v in want.terms]
    assert AlternatingTensor(ctx, k, variance, got.terms) == got


# --- pullback -------------------------------------------------------------------------


def test_pullback_along_coordinate_subspace():
    ctx = ctx_q(5)
    omega = two_planes_form(ctx)
    basis = [ctx.basis_vector(i) for i in (0, 1, 2, 3)]
    restricted = pullback(omega, basis)
    assert restricted.ctx.n == 3
    assert restricted.coeff_map() == {(0, 1, 2): Fraction(1)}


def test_pullback_along_full_basis_is_identity_on_coefficients():
    ctx = ctx_p(5)
    omega = random_tensor(ctx, 3, "form", 4)
    restricted = pullback(omega, [ctx.basis_vector(i) for i in range(6)])
    assert restricted.terms == omega.terms


@st.composite
def pullback_cases(draw):
    """(form, basis) over F_2, F_3, F_101 or Q with n = 5..8 and degree
    1..4: the basis of the annihilator of one or of two random covectors,
    or 4..dim random independent vectors, with Fraction entries over Q."""
    fields = [FieldSpec.prime(2), FieldSpec.prime(3), F101, QQ]
    fld = draw(st.sampled_from(fields), label="field")
    ctx = SpaceContext(draw(st.integers(5, 8), label="n"), fld)
    degree = draw(st.integers(1, 4), label="degree")
    form = random_tensor(ctx, degree, "form", draw(st.integers(0, 99)))
    kind = draw(st.sampled_from([1, 2, "random"]), label="covectors")
    if kind != "random":
        seeds = draw(st.lists(st.integers(0, 99), min_size=kind, max_size=kind))
        covectors = [random_tensor(ctx, 1, "form", seed) for seed in seeds]
        return form, LinearSubspace.annihilator(ctx, covectors).basis_tensors()
    if fld.p is None:
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    else:
        entry = st.integers(0, fld.p - 1)
    size = draw(st.integers(4, ctx.dim), label="size")
    row = st.lists(entry, min_size=ctx.dim, max_size=ctx.dim)
    rows = draw(st.lists(row, min_size=size, max_size=size))
    assume(matrix_rank(fld, rows) == size)
    return form, [ctx.vector_from_coords(r) for r in rows]


@settings(max_examples=200, deadline=None)
@given(case=pullback_cases())
def test_pullback_matches_the_wedge_and_pair_reference(case):
    form, basis = case
    got, want = pullback(form, basis), pullback_reference(form, basis)
    assert (got.ctx, got.degree, got.variance, got.terms) == (
        want.ctx, want.degree, want.variance, want.terms
    )
    assert [type(v) for _, v in got.terms] == [type(v) for _, v in want.terms]
    assert AlternatingTensor(got.ctx, got.degree, got.variance, got.terms) == got


@pytest.mark.parametrize("fld", [FieldSpec.prime(2), FieldSpec.prime(3), F101, QQ])
def test_pullback_raises_where_the_reference_raises(fld):
    ctx = SpaceContext(5, fld)
    form = random_tensor(ctx, 3, "form", 1)
    basis = [ctx.basis_vector(i) for i in range(5)]
    other = [SpaceContext(5, FieldSpec.prime(7)).basis_vector(0)] + basis[1:]
    for bad_form, bad_basis in (
        (random_tensor(ctx, 3, "vector", 1), basis),
        (form, basis[:4] + [ctx.basis_covector(4)]),
        (form, basis[:4] + [blade(ctx, "vector", 0, 4)]),
        (form, other),
        (form, [SpaceContext(6, fld).basis_vector(i) for i in range(5)]),
        (form, basis[:3]),
    ):
        assert _value_error(lambda: pullback_reference(bad_form, bad_basis)) is not None
        assert _value_error(lambda: pullback(bad_form, bad_basis)) is not None


@settings(max_examples=100, deadline=None)
@given(case=pullback_cases())
def test_pullback_rows_match_the_reference_on_int_rows(case):
    # each basis vector scaled to ints over its own denominator
    form, basis = case
    rows = [as_ints(form.ctx.field, b.coords())[0] for b in basis]
    vectors = [form.ctx.vector_from_coords(row) for row in rows]
    assert pullback_rows(form, rows) == pullback_reference(form, vectors)


def test_pullback_rows_reject_what_is_no_int_row_of_the_space():
    ctx = ctx_q(5)
    form = random_tensor(ctx, 3, "form", 1)
    rows = [[int(i == j) for j in range(6)] for i in range(5)]
    for bad_form, bad_rows in (
        (random_tensor(ctx, 3, "vector", 1), rows),
        (form, rows[:4] + [[0] * 5]),
        (form, rows[:4] + [[Fraction(1, 2)] + [0] * 5]),
        (form, rows[:3]),
    ):
        assert _value_error(lambda: pullback_rows(bad_form, bad_rows)) is not None


def test_pullback_calls_neither_wedge_nor_pair(monkeypatch):
    ctx = ctx_q(6)
    omega = random_tensor(ctx, 3, "form", 2)
    covector = random_tensor(ctx, 1, "form", 3)
    basis = LinearSubspace.annihilator(ctx, [covector]).basis_tensors()
    want = pullback_reference(omega, basis)

    def forbidden(*args):
        raise AssertionError("pullback reached a blade kernel")

    monkeypatch.setattr(exterior_core, "wedge", forbidden)
    monkeypatch.setattr(exterior_core, "pair", forbidden)
    assert pullback(omega, basis) == want


# --- form documents ---------------------------------------------------------------------


def test_form_document_roundtrip_rational():
    ctx = ctx_q(5)
    omega = AlternatingTensor.make(
        ctx, 3, "form", {(0, 1, 2): Fraction(2, 3), (3, 4, 5): -1}
    )
    doc = form_to_document(omega)
    assert doc["n"] == 5
    assert doc["field"] == {"kind": "rational"}
    assert form_from_document(doc) == omega


def test_form_document_roundtrip_prime():
    ctx = ctx_p(6)
    omega = random_tensor(ctx, 3, "form", 2)
    doc = form_to_document(omega)
    assert doc["field"] == {"kind": "prime", "p": 101}
    assert form_from_document(doc) == omega


def test_form_document_rejects_bad_indices():
    doc = {
        "n": 5,
        "field": {"kind": "rational"},
        "terms": [{"indices": [2, 1, 0], "coeff": "1"}],
    }
    with pytest.raises(ValueError):
        form_from_document(doc)


def test_form_document_rejects_unknown_field():
    doc = {"n": 5, "field": {"kind": "real"}, "terms": []}
    with pytest.raises(ValueError):
        form_from_document(doc)


# --- oracle: the tuple-based kernels --------------------------------------------------
#
# The kernels below are the package's exterior algebra as it was before index
# sets became bitmasks: sign-by-sorting on tuples, every term pair tested, and
# every result built through the validating public constructor.  They are
# kept here, unoptimised, as the reference the mask kernels must reproduce.


def _sort_with_sign(indices):
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Repeated indices make the alternating term vanish; flagged by (None, 0).
    """
    idx = list(indices)
    swaps = 0
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            swaps += 1
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), (-1 if swaps % 2 else 1)


def _merge_sign(left, right):
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    inversions = 0
    for r in right:
        for l in left:
            if l > r:
                inversions += 1
    return -1 if inversions % 2 else 1


def _cleaned(field, acc):
    return tuple(sorted((k, v) for k, v in acc.items() if not field.is_zero(v)))


def _reference_make(ctx, degree, variance, coeffs):
    field = ctx.field
    items = coeffs.items() if isinstance(coeffs, dict) else coeffs
    acc = {}
    for raw_key, raw_val in items:
        key, sign = _sort_with_sign(tuple(raw_key))
        if key is None:
            continue
        value = field.coerce(raw_val)
        if sign < 0:
            value = field.neg(value)
        if key in acc:
            value = field.add(acc[key], value)
        acc[key] = value
    return AlternatingTensor(ctx, degree, variance, _cleaned(field, acc))


def _reference_wedge(a, b):
    field = a.ctx.field
    acc = {}
    for ka, va in a.terms:
        sa = set(ka)
        for kb, vb in b.terms:
            if sa.intersection(kb):
                continue
            key = tuple(sorted(ka + kb))
            term = field.mul(va, vb)
            if _merge_sign(ka, kb) < 0:
                term = field.neg(term)
            acc[key] = field.add(acc[key], term) if key in acc else term
    terms = _cleaned(field, acc)
    return AlternatingTensor(a.ctx, a.degree + b.degree, a.variance, terms)


def _reference_contract_terms(field, big, small):
    acc = {}
    for kb, cb in big.terms:
        sb = set(kb)
        for ks, cs in small.terms:
            if not sb.issuperset(ks):
                continue
            rest = tuple(i for i in kb if i not in ks)
            term = field.mul(cs, cb)
            if _merge_sign(ks, rest) < 0:
                term = field.neg(term)
            acc[rest] = field.add(acc[rest], term) if rest in acc else term
    return _cleaned(field, acc)


def _reference_contract(f, v):
    terms = _reference_contract_terms(f.ctx.field, f, v)
    return AlternatingTensor(f.ctx, f.degree - v.degree, "form", terms)


def _reference_covector_contract(f, v):
    terms = _reference_contract_terms(f.ctx.field, v, f)
    return AlternatingTensor(f.ctx, v.degree - f.degree, "vector", terms)


def _reference_reduced_square(L):
    field = L.ctx.field
    cmap = L.coeff_map()

    def entry(i, j):
        return cmap.get((i, j), field.zero())

    acc = {}
    support = sorted({i for key in cmap for i in key})
    for i, j, h, k in itertools.combinations(support, 4):
        acc[(i, j, h, k)] = field.add(
            field.sub(
                field.mul(entry(i, j), entry(h, k)),
                field.mul(entry(i, h), entry(j, k)),
            ),
            field.mul(entry(i, k), entry(j, h)),
        )
    return AlternatingTensor(L.ctx, 4, "vector", _cleaned(field, acc))


def _reference_pair(f, v):
    field = f.ctx.field
    vmap = v.coeff_map()
    acc = field.zero()
    for key, a in f.terms:
        if key in vmap:
            acc = field.add(acc, field.mul(a, vmap[key]))
    return acc


ORACLE_FIELDS = (QQ, FieldSpec.prime(2), FieldSpec.prime(3), F101)


def _random_scalar(field, rng):
    if field.kind == "prime":
        return rng.randrange(field.p)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _random_sparse(ctx, degree, variance, rng):
    """Up to 30 random terms, built with the validating public constructor."""
    keys = list(itertools.combinations(range(ctx.dim), degree))
    chosen = rng.sample(keys, rng.randint(0, min(len(keys), 30)))
    field = ctx.field
    values = ((key, field.coerce(_random_scalar(field, rng))) for key in chosen)
    terms = tuple(sorted((k, v) for k, v in values if not field.is_zero(v)))
    return AlternatingTensor(ctx, degree, variance, terms)


def _assert_same(got, expected):
    """Equal as tensors with equal scalar types, and valid by the constructor."""
    assert got == expected
    assert repr(got.terms) == repr(expected.terms)
    assert AlternatingTensor(got.ctx, got.degree, got.variance, got.terms) == got


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(ORACLE_FIELDS),
    n=st.integers(3, 9),
    data=st.data(),
)
def test_kernels_match_the_tuple_reference(field, n, data):
    ctx = SpaceContext(n, field)
    low = data.draw(st.integers(0, ctx.dim), label="low degree")
    high = data.draw(st.integers(low, ctx.dim), label="high degree")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    variance = rng.choice(("vector", "form"))

    a = _random_sparse(ctx, low, variance, rng)
    b = _random_sparse(ctx, high - low, variance, rng)
    _assert_same(wedge(a, b), _reference_wedge(a, b))
    _assert_same(wedge(b, a), _reference_wedge(b, a))

    f = _random_sparse(ctx, high, "form", rng)
    v = _random_sparse(ctx, low, "vector", rng)
    _assert_same(contract(f, v), _reference_contract(f, v))
    g = _random_sparse(ctx, low, "form", rng)
    w = _random_sparse(ctx, high, "vector", rng)
    _assert_same(covector_contract(g, w), _reference_covector_contract(g, w))

    L = _random_sparse(ctx, 2, "vector", rng)
    _assert_same(reduced_square(L), _reference_reduced_square(L))

    u = _random_sparse(ctx, high, "vector", rng)
    got, expected = pair(f, u), _reference_pair(f, u)
    assert got == expected and type(got) is type(expected)

    c = _random_scalar(field, rng)
    scaled = {k: field.mul(field.coerce(c), x) for k, x in f.terms}
    _assert_same(f.scale(c), AlternatingTensor(ctx, high, "form", _cleaned(field, scaled)))
    negated = tuple((k, field.neg(x)) for k, x in f.terms)
    _assert_same(f.neg(), AlternatingTensor(ctx, high, "form", negated))
    zero = field.zero()
    cmap = f.coeff_map()
    expected_coords = tuple(
        cmap.get(key, zero) for key in itertools.combinations(range(ctx.dim), high)
    )
    assert repr(f.coords()) == repr(expected_coords)


def _random_raw_key(ctx, degree, rng):
    """A key as callers may pass it: any order, now and then a repeated index,
    an index past n or one index too many or too few."""
    size = degree if rng.random() < 0.85 else max(0, degree + rng.choice((-1, 1)))
    top = ctx.n + 2 if rng.random() < 0.15 else ctx.n
    key = [rng.randint(0, top) for _ in range(size)]
    return key if rng.random() < 0.5 else tuple(key)


def _raw_value(field, rng):
    value = _random_scalar(field, rng)
    kind = rng.random()
    if kind < 0.2:
        return 0
    if kind < 0.4:
        return str(value)
    if kind < 0.6:
        return rng.randint(-500, 500)
    return value


def _outcome(build):
    try:
        return build()
    except (ValueError, ZeroDivisionError) as exc:
        return (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(ORACLE_FIELDS),
    n=st.integers(3, 9),
    data=st.data(),
)
def test_make_matches_the_tuple_reference(field, n, data):
    ctx = SpaceContext(n, field)
    degree = data.draw(st.integers(0, ctx.dim), label="degree")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    items = [
        (_random_raw_key(ctx, degree, rng), _raw_value(field, rng))
        for _ in range(rng.randint(0, 25))
    ]
    # repeat some keys, permuted, so that duplicates accumulate and cancel
    for key, value in rng.sample(items, min(len(items), 5)):
        permuted = list(key)
        rng.shuffle(permuted)
        items.append((permuted, value))
    variance = rng.choice(("vector", "form"))
    coeffs = items if rng.random() < 0.5 else {tuple(k): v for k, v in items}
    got = _outcome(lambda: AlternatingTensor.make(ctx, degree, variance, coeffs))
    expected = _outcome(lambda: _reference_make(ctx, degree, variance, coeffs))
    if isinstance(expected, AlternatingTensor):
        _assert_same(got, expected)
    else:
        assert got == expected


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.kind + str(f.p or ""))
def test_kernels_match_the_reference_at_extreme_degrees(field):
    ctx = SpaceContext(5, field)
    rng = random.Random(7)
    dim = ctx.dim
    for low, high in ((0, 0), (0, dim), (dim, dim), (1, dim), (dim - 1, dim)):
        a = _random_sparse(ctx, low, "form", rng)
        b = _random_sparse(ctx, high - low, "form", rng)
        _assert_same(wedge(a, b), _reference_wedge(a, b))
        f = _random_sparse(ctx, high, "form", rng)
        v = _random_sparse(ctx, low, "vector", rng)
        _assert_same(contract(f, v), _reference_contract(f, v))
        w = _random_sparse(ctx, high, "vector", rng)
        g = _random_sparse(ctx, low, "form", rng)
        _assert_same(covector_contract(g, w), _reference_covector_contract(g, w))


def test_make_rejects_bad_variance_and_degree():
    ctx = ctx_q(3)
    with pytest.raises(ValueError, match="variance"):
        AlternatingTensor.make(ctx, 1, "covector", {(0,): 1})
    with pytest.raises(ValueError, match="degree"):
        AlternatingTensor.make(ctx, 5, "form", {})
    with pytest.raises(ValueError, match="degree"):
        AlternatingTensor.make(ctx, -1, "form", {})


def test_make_rejects_out_of_range_and_wrong_size_keys():
    ctx = ctx_q(3)
    with pytest.raises(ValueError, match="out of range"):
        AlternatingTensor.make(ctx, 2, "vector", {(1, 4): 1})
    with pytest.raises(ValueError, match="out of range"):
        AlternatingTensor.make(ctx, 2, "vector", {(-1, 2): 1})
    with pytest.raises(ValueError, match="wrong size"):
        AlternatingTensor.make(ctx, 2, "vector", {(0, 1, 2): 1})
    with pytest.raises(ValueError, match="wrong size"):
        AlternatingTensor.make(ctx, 2, "vector", [((2,), 1), ((0, 1), 1)])


def test_make_drops_bad_keys_whose_coefficient_vanishes():
    ctx = ctx_q(3)
    t = AlternatingTensor.make(
        ctx, 2, "vector", [((1, 4), 1), ((4, 1), 1), ((0, 1, 2), 0), ((5, 5), 3)]
    )
    assert t.is_zero()


def test_public_constructor_still_validates():
    ctx = ctx_q(3)
    for terms in (
        (((1, 0), Fraction(1)),),
        (((0, 1), Fraction(0)),),
        (((0, 2), Fraction(1)), ((0, 1), Fraction(1))),
        (((0, 4), Fraction(1)),),
        (((0,), Fraction(1)),),
    ):
        with pytest.raises(ValueError):
            AlternatingTensor(ctx, 2, "vector", terms)


# --- oracle: the kernels on Fractions ------------------------------------------
#
# Over the rationals the kernels take int products of numerators over one
# denominator per operand; `oracles` keeps the loops that took every product
# and sum on Fractions.  Inputs carry denominators 1-30 (the package's random
# tensors all have denominator 1), include empty tensors, and include operands
# whose products cancel.


@st.composite
def rational_tensors(draw, ctx, degree, variance):
    """A tensor of up to 12 terms with numerators in [-30, 30] and
    denominators 1-30; one draw in eight is the empty tensor."""
    if draw(st.integers(0, 7)) == 0:
        return ctx.zero_tensor(degree, variance)
    keys = list(itertools.combinations(range(ctx.dim), degree))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=12))
    value = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))
    return AlternatingTensor.make(ctx, degree, variance, {k: draw(value) for k in chosen})


def _assert_fraction_terms(got, expected):
    """The same terms, every value a Fraction."""
    assert repr(got.terms) == repr(expected.terms)
    assert all(type(v) is Fraction for _, v in got.terms)


@st.composite
def cancelling_operands(draw, ctx):
    """(x, e, alpha): x = b·x_i − a·x_j and e = a·e_i + b·e_j for distinct
    i, j and nonzero rationals a, b, so that x(e) = 0, and a nonzero form
    alpha on the other indices."""
    i, j = draw(st.lists(st.integers(0, ctx.dim - 1), min_size=2, max_size=2, unique=True))
    nonzero = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30))
    a, b = draw(nonzero), -draw(nonzero)
    x = AlternatingTensor.make(ctx, 1, "form", {(i,): b, (j,): -a})
    e = AlternatingTensor.make(ctx, 1, "vector", {(i,): a, (j,): b})
    others = [k for k in range(ctx.dim) if k not in (i, j)]
    degree = draw(st.integers(1, min(3, len(others))))
    keys = list(itertools.combinations(others, degree))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, min_size=1, max_size=6))
    alpha = AlternatingTensor.make(ctx, degree, "form", {k: draw(nonzero) for k in chosen})
    return x, e, alpha


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 7), data=st.data())
def test_rational_kernels_match_the_fraction_loops(n, data):
    ctx = ctx_q(n)
    low = data.draw(st.integers(0, ctx.dim), label="low degree")
    high = data.draw(st.integers(low, ctx.dim), label="high degree")
    a = data.draw(rational_tensors(ctx, low, "form"), label="a")
    b = data.draw(rational_tensors(ctx, high - low, "form"), label="b")
    _assert_fraction_terms(wedge(a, b), wedge_reference(a, b))

    f = data.draw(rational_tensors(ctx, high, "form"), label="f")
    v = data.draw(rational_tensors(ctx, low, "vector"), label="v")
    _assert_fraction_terms(contract(f, v), _contracted(f, v))
    g = data.draw(rational_tensors(ctx, low, "form"), label="g")
    w = data.draw(rational_tensors(ctx, high, "vector"), label="w")
    _assert_fraction_terms(covector_contract(g, w), _covector_contracted(g, w))

    L = data.draw(rational_tensors(ctx, 2, "vector"), label="L")
    _assert_fraction_terms(reduced_square(L), reduced_square_reference(L))

    u = data.draw(rational_tensors(ctx, high, "vector"), label="u")
    got, expected = pair(f, u), pair_reference(f, u)
    assert got == expected and type(got) is Fraction


def _contracted(f, v):
    terms = contract_terms_reference(f, v)
    return AlternatingTensor(f.ctx, f.degree - v.degree, "form", terms)


def _covector_contracted(f, v):
    terms = contract_terms_reference(v, f)
    return AlternatingTensor(f.ctx, v.degree - f.degree, "vector", terms)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 7), data=st.data())
def test_rational_kernels_match_the_fraction_loops_when_terms_cancel(n, data):
    ctx = ctx_q(n)
    x, e, alpha = data.draw(cancelling_operands(ctx))
    got = pair(x, e)
    assert got == pair_reference(x, e) == 0 and type(got) is Fraction
    # every key of the contraction of x^alpha by e takes two opposite values
    f = wedge(x, alpha)
    assert contract(f, e).is_zero()
    _assert_fraction_terms(contract(f, e), _contracted(f, e))
    # partial cancellation: g = ((b+1)·x_i − a·x_j)^alpha contracts to a·alpha
    i = e.terms[0][0]
    g = f.add(wedge(AlternatingTensor.make(ctx, 1, "form", {i: 1}), alpha))
    _assert_fraction_terms(contract(g, e), _contracted(g, e))
    # a covector wedged with a multiple of itself
    _assert_fraction_terms(wedge(x, x.scale(Fraction(3, 7))), wedge_reference(x, x))
    assert wedge(x, x.scale(Fraction(3, 7))).is_zero()
    # the reduced square of a decomposable bivector
    y = ctx.vector_from_coords([Fraction(k + 1, 7) for k in range(ctx.dim)])
    L = wedge(e, y)
    _assert_fraction_terms(reduced_square(L), reduced_square_reference(L))
    assert reduced_square(L).is_zero()


MOD_P_PRIMES = (2, 3, 7, 31, 101)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 7), p=st.sampled_from(MOD_P_PRIMES), data=st.data())
def test_rational_kernels_commute_with_reduction_mod_p(n, p, data):
    ctx = ctx_q(n)
    low = data.draw(st.integers(0, ctx.dim), label="low degree")
    high = data.draw(st.integers(low, ctx.dim), label="high degree")
    a = data.draw(rational_tensors(ctx, low, "form"), label="a")
    b = data.draw(rational_tensors(ctx, high - low, "form"), label="b")
    f = data.draw(rational_tensors(ctx, high, "form"), label="f")
    v = data.draw(rational_tensors(ctx, low, "vector"), label="v")
    L = data.draw(rational_tensors(ctx, 2, "vector"), label="L")
    assume(all(x.denominator % p for t in (a, b, f, v, L) for _, x in t.terms))

    def mod_p(t):
        return reduce_mod_p(t, p)

    assert mod_p(wedge(a, b)) == wedge(mod_p(a), mod_p(b))
    assert mod_p(contract(f, v)) == contract(mod_p(f), mod_p(v))
    assert mod_p(reduced_square(L)) == reduced_square(mod_p(L))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_points_match_the_divmod_odometer(p):
    field = FieldSpec.prime(p)
    for length in range(1, 7):
        points = list(projective_points(field, length))
        assert points == list(projective_points_reference(field, length))
        assert len(points) == len(set(points)) == projective_point_count(p, length)
        assert all(type(point) is tuple and len(point) == length for point in points)


# --- index plans against the bitmask loops ----------------------------------------

PLAN_FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), F101, FieldSpec.prime(2**61 - 1), QQ]


def tensor_with_terms(ctx, degree, variance, count, seed):
    """A tensor with exactly ``count`` nonzero terms at seeded index sets:
    residues over F_p, fractions with denominators up to 6 over Q."""
    rng = random.Random(seed)
    keys = sorted(rng.sample(list(ctx.index_sets(degree)), count))
    p = ctx.field.p
    if p is None:
        values = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 6))
            for _ in keys
        ]
    else:
        values = [rng.randrange(1, p) for _ in keys]
    return AlternatingTensor(ctx, degree, variance, tuple(zip(keys, values)))


def term_counts(data, total, boundary, label):
    """A term count for an operand with ``total`` index sets: none, one, the
    dispatch boundary ``boundary`` or one below it, all of them, or any."""
    kinds = ["zero", "one", "boundary", "below", "dense", "any"]
    kind = data.draw(st.sampled_from(kinds), label=label)
    count = {
        "zero": 0,
        "one": 1,
        "boundary": boundary,
        "below": boundary - 1,
        "dense": total,
        "any": data.draw(st.integers(0, total), label=label + " count"),
    }[kind]
    return min(max(count, 0), total)


@settings(max_examples=150, deadline=None)
@given(
    fld=st.sampled_from(PLAN_FIELDS),
    dim=st.integers(4, 10),
    data=st.data(),
    seed=st.integers(0, 10**6),
)
def test_wedge_plan_matches_the_bitmask_loop(fld, dim, data, seed):
    ctx = SpaceContext(dim - 1, fld)
    ka = data.draw(st.integers(0, dim), label="ka")
    kb = data.draw(st.integers(0, dim - ka), label="kb")
    variance = data.draw(st.sampled_from(["vector", "form"]), label="variance")
    products = math.comb(dim, ka) * math.comb(dim - ka, kb)
    la = term_counts(data, math.comb(dim, ka), math.comb(dim, ka), "a terms")
    # with la terms on the left, lb = ceil(products / (2 la)) puts the
    # right operand on the boundary of the dispatch
    lb = term_counts(data, math.comb(dim, kb), -(-products // (2 * max(la, 1))), "b terms")
    a = tensor_with_terms(ctx, ka, variance, la, seed)
    b = tensor_with_terms(ctx, kb, variance, lb, seed + 1)
    loop = exterior_core._wedge_loop(a, b)
    plan = exterior_core._wedge_plan(dim, ka, kb)
    got = exterior_core._planned(plan, a, b, ka + kb, variance)
    assert got.terms == loop
    assert wedge(a, b).terms == loop
    assert loop == wedge_reference(a, b).terms
    if fld.p is not None:
        assert got._dense_ints == (list(got.coords()), 1)


@settings(max_examples=150, deadline=None)
@given(
    fld=st.sampled_from(PLAN_FIELDS),
    dim=st.integers(4, 10),
    data=st.data(),
    seed=st.integers(0, 10**6),
)
def test_contraction_plan_matches_the_bitmask_loop(fld, dim, data, seed):
    ctx = SpaceContext(dim - 1, fld)
    big = data.draw(st.integers(0, dim), label="big degree")
    small = data.draw(st.integers(0, big), label="small degree")
    total = math.comb(dim, big)
    f = tensor_with_terms(ctx, big, "form", term_counts(data, total, -(-total // 2), "big terms"), seed)
    v = tensor_with_terms(ctx, small, "vector", term_counts(data, math.comb(dim, small), 1, "small terms"), seed + 1)
    plan = exterior_core._contract_plan(dim, big, small)
    loop = exterior_core._contract_loop(f, v)
    assert exterior_core._planned(plan, f, v, big - small, "form").terms == loop
    assert contract(f, v).terms == loop == contract_terms_reference(f, v)
    # the same degrees on the vector side: the vector is contracted by the form
    g = tensor_with_terms(ctx, small, "form", len(v.terms), seed + 2)
    w = tensor_with_terms(ctx, big, "vector", len(f.terms), seed + 3)
    loop = exterior_core._contract_loop(w, g)
    assert exterior_core._planned(plan, w, g, big - small, "vector").terms == loop
    assert covector_contract(g, w).terms == loop == contract_terms_reference(w, g)


@settings(max_examples=100, deadline=None)
@given(
    fld=st.sampled_from(PLAN_FIELDS),
    dim=st.integers(4, 10),
    data=st.data(),
    seed=st.integers(0, 10**6),
)
def test_reduced_square_plan_matches_the_bitmask_loop(fld, dim, data, seed):
    ctx = SpaceContext(dim - 1, fld)
    products = 3 * math.comb(dim, 4)
    # the fewest terms m with m (m - 1) / 2 visits reaching half the products
    boundary = next(m for m in itertools.count() if m * (m - 1) >= products)
    L = tensor_with_terms(ctx, 2, "vector", term_counts(data, math.comb(dim, 2), boundary, "terms"), seed)
    loop = exterior_core._reduced_square_loop(L)
    got = exterior_core._planned(exterior_core._square_plan(dim), L, L, 4, "vector")
    assert got.terms == loop
    assert reduced_square(L).terms == loop == reduced_square_reference(L).terms


@pytest.mark.parametrize("fld", PLAN_FIELDS)
def test_plans_with_one_product_or_groups_of_one(fld):
    # one product in all: 0 ^ 0, 0 ^ dim and contracting a top-degree form
    # by a top-degree vector; groups of one: 0 ^ k for every output
    ctx = SpaceContext(3, fld)
    scalar = tensor_with_terms(ctx, 0, "vector", 1, 0)
    top = tensor_with_terms(ctx, 4, "vector", 1, 1)
    top_form = tensor_with_terms(ctx, 4, "form", 1, 2)
    bivector = tensor_with_terms(ctx, 2, "vector", 6, 3)
    for a, b in ((scalar, scalar), (scalar, top), (top, scalar), (scalar, bivector)):
        plan = exterior_core._wedge_plan(4, a.degree, b.degree)
        got = exterior_core._planned(plan, a, b, a.degree + b.degree, "vector")
        assert got.terms == exterior_core._wedge_loop(a, b) == wedge_reference(a, b).terms
    plan = exterior_core._contract_plan(4, 4, 4)
    got = exterior_core._planned(plan, top_form, top, 0, "form")
    assert got.terms == exterior_core._contract_loop(top_form, top)
    assert contract(top_form, top).terms == contract_terms_reference(top_form, top)


def test_random_tensor_keeps_its_drawn_values_as_dense_coordinates():
    for fld in PLAN_FIELDS:
        t = random_tensor(SpaceContext(5, fld), 3, "form", 4)
        values, den = t._dense_ints
        assert den == 1
        assert [fld.coerce(v) for v in values] == list(t.coords())
        del t.__dict__["_dense_ints"]
        assert t._dense_ints == (values, 1)


@pytest.mark.parametrize("dim, degree, j", [(4, 2, 1), (6, 3, 1), (6, 3, 2), (7, 4, 2), (8, 4, 3), (5, 5, 2)])
def test_contraction_gathers_read_contract_off_the_coordinates(dim, degree, j):
    # on a form whose coefficients are all distinct, each gathered entry
    # names one coordinate and its sign, so the whole matrix is checked
    ctx = SpaceContext(dim - 1, FieldSpec.rationals())
    keys = list(ctx.index_sets(degree))
    f = exterior_core.AlternatingTensor.make(
        ctx, degree, "form", {key: i + 1 for i, key in enumerate(keys)}
    )
    coords = list(f.coords())
    signed = [*coords, *(-c for c in coords), 0]
    columns, rows = exterior_core.contraction_gathers(dim, degree, j)
    want = [
        contract(f, exterior_core.AlternatingTensor.make(ctx, j, "vector", {key: 1})).coords()
        for key in ctx.index_sets(j)
    ]
    assert [tuple(get(signed)) for get in columns] == want
    assert [tuple(get(signed)) for get in rows] == list(zip(*want))


@pytest.mark.parametrize("dim, degree, j", [(6, 3, 0), (6, 3, 3), (6, 3, 4), (4, 5, 2)])
def test_contraction_gathers_reject_degrees_out_of_range(dim, degree, j):
    with pytest.raises(ValueError, match="need 1 <= j < degree"):
        exterior_core.contraction_gathers(dim, degree, j)
