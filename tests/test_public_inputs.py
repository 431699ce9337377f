"""Every input ends in an answer, a `ConventionError` or a `NonGenericFormError`.

A hypothesis property calls each public function of `degeneracy`,
`congruence`, `form_analysis` and `residual` on zero, decomposable,
two-plane and random 3-forms with n = 3..6 over F_2, F_3, F_5 and the
rationals, with drawn points, covectors and bivectors (zero ones included)
and small sampling budgets (`classify_linear_section` on a custom space of
at most four dimensions, since the default one can hold a million points).
Each call must return or raise one of the two package errors; any other
exception fails the property.  The points are int lists; a test of its own
gives the point-rank routines float, string and vector-tensor points, on the
packed path and on byte lanes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from triwedge import catalog, congruence, degeneracy, form_analysis, residual
from triwedge.degeneracy import NonGenericFormError
from triwedge.exact_scalar import ConventionError, FieldSpec, UniPoly
from triwedge.exterior_core import (
    AlternatingTensor,
    SpaceContext,
    random_tensor,
    reduce_mod_p,
    wedge,
)

FIELDS = (FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.rationals())
KINDS = ("zero", "decomposable", "two-plane", "random")


def _form(ctx: SpaceContext, kind: str, seed: int) -> AlternatingTensor:
    """A 3-form of the given kind; below dimension 6 the two planes meet."""
    last = ctx.dim - 3
    terms = {
        "zero": {},
        "decomposable": {(0, 1, 2): 1},
        "two-plane": {(0, 1, 2): 1, (last, last + 1, last + 2): 1},
    }
    if kind == "random":
        return random_tensor(ctx, 3, "form", seed)
    return AlternatingTensor.make(ctx, 3, "form", terms[kind])


@st.composite
def inputs(draw):
    """(omega, point, x, y, line, seed): a form of a drawn kind, a point, two
    covectors and a bivector with entries in -2..2, any of them possibly zero."""
    field = draw(st.sampled_from(FIELDS))
    ctx = SpaceContext(draw(st.integers(3, 6)), field)
    seed = draw(st.integers(0, 99))
    omega = _form(ctx, draw(st.sampled_from(KINDS)), seed)
    entries = st.lists(st.integers(-2, 2), min_size=ctx.dim, max_size=ctx.dim)
    point, x, y, u, v = (draw(entries) for _ in range(5))
    coerce = ctx.field.coerce
    x, y = (ctx.tensor_from_coords(1, "form", [coerce(c) for c in w]) for w in (x, y))
    u, v = (ctx.vector_from_coords([coerce(c) for c in w]) for w in (u, v))
    return omega, point, x, y, wedge(u, v), seed


def _calls(omega, point, x, y, line, seed):
    """(name, thunk) for each call on one input; later thunks read what
    earlier ones left in ``found`` (a sampled line, a residual handle)."""
    ctx = omega.ctx
    field = ctx.field
    p = field.p if field.p is not None else 3
    rng = random.Random(seed)
    found: dict = {}

    def lines():
        return [line] + ([found["X"]] if "X" in found else [])

    def handles():
        return [h for h in (found.get("handle"), found.get("general")) if h is not None]

    def keep(key, thunk):
        def run():
            found[key] = thunk()
        return run

    def coordinate_off(coords, keep):
        return coords[next(k for k in range(len(coords)) if k not in keep)]

    def classify():
        # the relaxed span can hold up to a million points; its first four
        # basis vectors span at most 5^4 of them
        omega_p = reduce_mod_p(omega, p)
        relaxed = form_analysis.contraction_kernel(omega_p, [reduce_mod_p(x, p)])
        small = form_analysis.LinearSubspace("bivectors", omega_p.ctx, relaxed.basis[:4])
        return congruence.classify_linear_section(omega, x, p, space=small)

    M = form_analysis.build_M(omega)
    poly = UniPoly.from_coeffs(field, [1, 1, 1])
    calls = [
        # form_analysis
        ("build_M", lambda: form_analysis.build_M(omega)),
        ("point_contraction_rank", lambda: form_analysis.point_contraction_rank(M, point)),
        ("point_ranks", lambda: list(form_analysis.point_ranks(M, [point, point]))),
        ("point_coords", lambda: form_analysis.point_coords(ctx, point)),
        ("first_rank_at_most_two", lambda: form_analysis.first_rank_at_most_two(M, [point])),
        ("random_points", lambda: list(form_analysis.random_points(field, ctx.dim, rng, 3))),
        ("bivector_contraction", lambda: form_analysis.bivector_contraction(omega)),
        ("contraction_kernel", lambda: form_analysis.contraction_kernel(omega, [x], inside=True)),
        ("contraction_kernel pair", lambda: form_analysis.contraction_kernel(omega, [x, y])),
        ("contraction_matrix", lambda: form_analysis.contraction_matrix(omega, 2)),
        ("covector_echelon", lambda: form_analysis.covector_echelon(ctx, [x, y])),
        ("j_rank", lambda: [form_analysis.j_rank(omega, j) for j in (1, 2)]),
        ("genericity", lambda: form_analysis.genericity(omega, samples=20, seed=seed)),
        ("polar_quadric", lambda: form_analysis.polar_quadric(wedge(omega, x))),
        ("quadric_of", lambda: form_analysis.quadric_of(wedge(omega, x))),
        ("span_lattice", lambda: form_analysis.span_lattice(omega, x, y)),
        # degeneracy
        ("rank_at", lambda: degeneracy.rank_at(M, point)),
        ("stratify", lambda: degeneracy.stratify(omega, samples=20, seed=seed)),
        ("hypersurface_degree", lambda: degeneracy.hypersurface_degree(omega, seed=seed)),
        ("exhaustive_strata", lambda: degeneracy.exhaustive_strata(omega, 2 if p > 3 else p)),
        ("directions_through", lambda: degeneracy.directions_through(M, point)),
        ("independent_pair", lambda: degeneracy.independent_pair(field, ctx.dim, rng)),
        ("random_coords", lambda: degeneracy.random_coords(field, ctx.dim, rng)),
        ("line_subpfaffian_gcd", lambda: degeneracy.line_subpfaffian_gcd(M, point, x.coords())),
        ("line_gcd", lambda: degeneracy.line_gcd(field, point, x.coords(), 2, lambda c: c)),
        ("line_zeros", lambda: degeneracy.line_zeros(field, point, x.coords(), poly, 3)),
        # f_i = P_i, the cofactor family of c = 1
        ("line_cofactor", lambda: degeneracy.line_cofactor(field, point, x.coords(), 1, coordinate_off)),
        ("normalize_projective", lambda: degeneracy.normalize_projective(point, p)),
        ("require_three_form", lambda: degeneracy.require_three_form(omega)),
        ("split_decomposable", lambda: degeneracy.split_decomposable(line)),
        # congruence
        ("kernel_span", lambda: congruence.kernel_span(omega)),
        ("lines_through", lambda: congruence.lines_through(omega, point)),
        ("order", lambda: congruence.order(omega, samples=5, seed=seed)),
        ("sample_line_on_X", keep("X", lambda: congruence.sample_line_on_X(omega, seed=seed))),
        ("draw_line_on_X", lambda: congruence.draw_line_on_X(omega, rng, 2)),
        ("member_X", lambda: [congruence.member_X(omega, L) for L in lines()]),
        ("secant_pencil", lambda: [degeneracy.secant_pencil(omega, L) for L in lines()]),
        ("tangent_certificate", lambda: [congruence.tangent_certificate(omega, L) for L in lines()]),
        (
            "tangent_intersection_dim",
            lambda: [
                congruence.tangent_intersection_dim(congruence.kernel_span(omega), L)
                for L in lines()
            ],
        ),
        ("quadrics_through_span", lambda: congruence.quadrics_through_span(omega)),
        ("recover_forms", lambda: congruence.recover_forms(congruence.kernel_span(omega))),
        ("classify_linear_section", classify),
        # residual
        ("general_directions", lambda: residual.general_directions(omega, seed=seed)),
        ("ResidualHandle", keep("handle", lambda: residual.ResidualHandle(omega, x, y))),
        ("ResidualHandle.general", keep("general", lambda: residual.ResidualHandle.general(omega, seed))),
    ]
    for name, method in (
        ("line_system", lambda h: residual.line_system(h, point)),
        (
            "line_system_kernel_dims",
            lambda h: list(residual.line_system_kernel_dims(h, [point] * 17)),
        ),
        ("G_membership", lambda h: residual.G_membership(h, point)),
        ("member_Y", lambda h: [residual.member_Y(h, L) for L in lines()]),
        ("pencil_parameter", lambda h: [residual.pencil_parameter(h, L) for L in lines()]),
        ("sample_line_on_Y", lambda h: residual.sample_line_on_Y(h, seed)),
        ("Y_secancy_even", lambda h: residual.Y_secancy_even(h, seed)),
        ("G_degree_odd", lambda h: residual.G_degree_odd(h, seed)),
        ("sing_Y_dimension", lambda h: residual.sing_Y_dimension(h, seed)),
    ):
        calls.append((name, lambda method=method: [method(h) for h in handles()]))
    return calls


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=inputs())
def test_public_functions_answer_or_raise_a_package_error(case):
    omega, point, x, y, line, seed = case
    note(f"omega={omega.terms} over {omega.ctx.field}, point={point}, seed={seed}")
    for name, thunk in _calls(omega, point, x, y, line, seed):
        note(f"calling {name}")
        try:
            thunk()
        except (ConventionError, NonGenericFormError):
            pass


def test_point_ranks_coerce_every_point_that_is_not_canonical_residues():
    """A float point raises `ConventionError`, a string coordinate is coerced
    ("1/2" is 51 mod 101) and a vector tensor is read by its coordinates, on
    the packed path (one point) and on byte lanes (a block of 20), through
    `point_ranks` and `SkewLinearMatrix.packed_rows_at` alike."""
    omega = catalog.get("n6-g2", field=FieldSpec.prime(101))[0]
    M = form_analysis.build_M(omega)
    ctx = omega.ctx
    vector = ctx.vector_from_coords([1, 2, 3, 4, 5, 6, 7])
    for count in (1, 20):
        for point in ([1.5] * 7, [1, 2, 3, 4, 5, 6, 1.5]):
            with pytest.raises(ConventionError, match="not an exact scalar"):
                list(form_analysis.point_ranks(M, [point] * count))
        halves = list(form_analysis.point_ranks(M, [["1/2"] * 7] * count))
        assert halves == list(form_analysis.point_ranks(M, [[51] * 7] * count))
        tensors = list(form_analysis.point_ranks(M, [vector] * count))
        assert tensors == list(form_analysis.point_ranks(M, [[1, 2, 3, 4, 5, 6, 7]] * count))
        mixed = [[51] * 7, ["1/2"] * 7, vector, [True] * 7] * (count // 4 + 1)
        assert list(form_analysis.point_ranks(M, mixed)) == [
            form_analysis.point_contraction_rank(M, form_analysis.point_coords(ctx, point))
            for point in mixed
        ]
    with pytest.raises(ConventionError, match="not an exact scalar"):
        M.packed_rows_at([1.5] * 7)
    assert M.packed_rows_at(["1/2"] * 7) == M.packed_rows_at([51] * 7)
    assert M.packed_rows_at(vector) == M.packed_rows_at([1, 2, 3, 4, 5, 6, 7])


@pytest.mark.parametrize("field", [FieldSpec.prime(101), FieldSpec.rationals()])
def test_points_that_are_no_sequences_of_scalars_raise_convention_error(field):
    """None, an int, an arbitrary object, and sequences of None or of such
    objects are no points: every routine that takes a point raises
    `ConventionError`, one point at a time and in a block of 20 (byte lanes
    over F_101), not the `TypeError` of `tuple` or `FieldSpec.coerce`."""
    omega = catalog.get("n5", field=field)[0]
    ctx = omega.ctx
    M = form_analysis.build_M(omega)
    handle = residual.ResidualHandle.general(omega, 0)
    good = [1] * ctx.dim
    for bad in (None, 5, object(), [None] * ctx.dim, [object()] * ctx.dim):
        calls = [
            lambda: form_analysis.point_coords(ctx, bad),
            lambda: degeneracy.rank_at(M, bad),
            lambda: degeneracy.directions_through(M, bad),
            lambda: list(form_analysis.point_ranks(M, [bad])),
            lambda: list(form_analysis.point_ranks(M, [good] * 19 + [bad])),
            lambda: residual.line_system(handle, bad),
            lambda: residual.G_membership(handle, bad),
            lambda: list(residual.line_system_kernel_dims(handle, [bad])),
            lambda: list(residual.line_system_kernel_dims(handle, [good] * 19 + [bad])),
        ]
        for call in calls:
            with pytest.raises(ConventionError, match="sequence of field elements"):
                call()
