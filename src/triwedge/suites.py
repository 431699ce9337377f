"""Verification suites: named groups of claims, each comparing an expected
value with one computed by the package, and the report that carries them.

Each claim carries a ``source`` marker from the fixed vocabulary
``catalog.SOURCES``: ``published`` (a value printed in the reference
tables), ``computed`` (a value frozen from an independent computation), and
``definition`` (an internal consistency law).  A report's status is
``pass`` when every claim passes, ``fail`` on any failure, and
``inconclusive`` when nothing failed but some sampling budget ran out.
Serialization is stable under re-run with the same seed, up to the
``elapsed`` stopwatch field.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from math import comb

from . import catalog
from .catalog import COMPUTED, DEFINITION, PUBLISHED, SOURCES
from .congruence import (
    classify_linear_section,
    kernel_span,
    order,
    quadrics_through_span,
    recover_forms,
    sample_line_on_X,
)
from .degeneracy import (
    NonGenericFormError,
    build_M,
    directions_through,
    exhaustive_strata,
    hypersurface_degree,
    normalize_projective,
    random_points,
    secant_pencil,
    split_decomposable,
)
from .enumerative import (
    chern,
    fundamental_locus_degrees,
    multidegrees,
    stratum_class_degree,
    triangle,
)
from .exact_scalar import (
    ConventionError,
    FieldSpec,
    Matrix,
    matrix_rank,
    pfaffian,
    randbelow_many,
    rank_kernel,
)
from .exterior_core import (
    AlternatingTensor,
    SpaceContext,
    contract,
    derive_seed,
    pair,
    random_tensor,
    wedge,
)
from .form_analysis import (
    LinearSubspace,
    j_rank,
    point_ranks,
    polar_quadric,
    quadric_of,
    span_lattice,
)
from .residual import (
    ResidualHandle,
    Y_secancy_even,
    G_degree_odd,
    general_directions,
    line_system_kernel_dims,
    member_Y,
    pencil_parameter,
    sample_line_on_Y,
    sing_Y_dimension,
)

__all__ = [
    "Claim",
    "RunConfig",
    "SuiteSpec",
    "SUITES",
    "VerificationReport",
    "field_label",
    "run_suite",
]

SCHEMA_REPORT = "triwedge-report/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_STATUSES = (PASS, FAIL, INCONCLUSIVE)

F101 = FieldSpec.prime(101)
F1009 = FieldSpec.prime(1009)


def _jsonable(value):
    """Normalize a value into plain JSON types so equality is structural."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class Claim:
    """One verified statement: what was expected, where the expectation comes
    from, what was computed, and whether they agree."""

    id: str
    anchor: str
    expected: object
    source: str
    computed: object
    status: str

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ConventionError(f"unknown claim status {self.status!r}")
        if self.source not in SOURCES:
            raise ConventionError(f"unknown claim source {self.source!r}")

    def to_document(self) -> dict:
        return asdict(self)


def _claim(cid: str, anchor: str, expected, computed, source: str) -> Claim:
    expected = _jsonable(expected)
    computed = _jsonable(computed)
    status = PASS if expected == computed else FAIL
    return Claim(cid, anchor, expected, source, computed, status)


@dataclass(frozen=True)
class VerificationReport:
    """A named suite run: claims plus the seed and field that produced them."""

    suite: str
    claims: tuple[Claim, ...]
    seed: int
    field: str
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.status == PASS for c in self.claims)

    @property
    def exit_code(self) -> int:
        if any(c.status == FAIL for c in self.claims):
            return EXIT_FAIL
        if any(c.status == INCONCLUSIVE for c in self.claims):
            return EXIT_INCONCLUSIVE
        return EXIT_PASS

    def to_document(self) -> dict:
        return {
            "schema": SCHEMA_REPORT,
            "suite": self.suite,
            "seed": self.seed,
            "field": self.field,
            "pass": self.passed,
            "status": _STATUSES[self.exit_code],
            "claims": [c.to_document() for c in self.claims],
            "elapsed": self.elapsed,
        }

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["id", "status", "source", "expected", "computed", "anchor"])
        for c in self.claims:
            writer.writerow(
                [
                    c.id,
                    c.status,
                    c.source,
                    json.dumps(c.expected, sort_keys=True),
                    json.dumps(c.computed, sort_keys=True),
                    c.anchor,
                ]
            )
        return buffer.getvalue()


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    samples: int | None = None
    field: FieldSpec | None = None

    def count(self, default: int) -> int:
        return default if self.samples is None else self.samples

    def prime_field(self, default: FieldSpec) -> FieldSpec:
        return default if self.field is None else self.field


# -- shared builders ---------------------------------------------------------------


def field_label(field: FieldSpec) -> str:
    """The report label of a field: ``q`` or ``p:<prime>``."""
    return "q" if field.kind == "rational" else f"p:{field.p}"


def _catalog_values(key: str, names: Iterable[str]) -> dict:
    """The catalog's expected ``key`` value of each named form, in order."""
    return {name: catalog.get(name)[1].expected[key].value for name in names}


def _n9_random() -> AlternatingTensor:
    """``n9-random``, a form outside the catalog; its degrees stay literal."""
    return random_tensor(SpaceContext(9, F1009), 3, "form", 12)


def _random_gc2_forms(
    n: int, field: FieldSpec, count: int, label: str, seed: int
) -> list[AlternatingTensor]:
    """Seeded random 3-forms with full contraction rank."""
    forms: list[AlternatingTensor] = []
    ctx = SpaceContext(n, field)
    attempt = 0
    while len(forms) < count and attempt < 16 * count:
        omega = random_tensor(ctx, 3, "form", derive_seed(label, n, seed, attempt))
        attempt += 1
        if j_rank(omega, 1) == n + 1:
            forms.append(omega)
    return forms


# -- suites -------------------------------------------------------------------------

_TRIANGLE_A_ROWS = (
    (1,),
    (0, 0),
    (1, 1, 1),
    (0, 1, 2, 2),
    (1, 2, 4, 6, 6),
    (0, 2, 6, 12, 18, 18),
    (1, 3, 9, 21, 39, 57, 57),
    (0, 3, 12, 33, 72, 129, 186, 186),
    (1, 4, 16, 49, 121, 250, 436, 622, 622),
    (0, 4, 20, 69, 190, 440, 876, 1498, 2120, 2120),
)

_TRIANGLE_B_ROWS = (
    (1,),
    (1, 1),
    (1, 2, 2),
    (1, 3, 5, 5),
    (1, 4, 9, 14, 14),
    (1, 5, 14, 28, 42, 42),
    (1, 6, 20, 48, 90, 132, 132),
    (1, 7, 27, 75, 165, 297, 429, 429),
    (1, 8, 35, 110, 275, 572, 1001, 1430, 1430),
    (1, 9, 44, 154, 429, 1001, 2002, 3432, 4862, 4862),
)

_TRIANGLE_C_ROWS = (
    (0,),
    (1, 1),
    (0, 1, 1),
    (1, 2, 3, 3),
    (0, 2, 5, 8, 8),
    (1, 3, 8, 16, 24, 24),
    (0, 3, 11, 27, 51, 75, 75),
    (1, 4, 15, 42, 93, 168, 243, 243),
    (0, 4, 19, 61, 154, 322, 565, 808, 808),
    (1, 5, 24, 85, 239, 561, 1126, 1934, 2742, 2742),
)

_DEG_X_SEQUENCE = [1, 2, 6, 18, 57, 186, 622]
_DEG_Y_SEQUENCE = [1, 3, 8, 24, 75, 243, 808]

_MULTIDEGREE_X = {5: [1, 1, 1], 7: [1, 2, 4, 2], 9: [1, 3, 9, 12, 6]}
_MULTIDEGREE_Y = {5: [0, 2, 1], 7: [0, 3, 5, 3], 9: [0, 4, 11, 16, 8]}


def _suite_enumerative(cfg: RunConfig) -> list[Claim]:
    claims = [
        _claim(
            f"triangle-{kind}-rows",
            f"rows 0..9 of the {kind}-triangle recursion match digit for digit",
            [list(r) for r in frozen],
            [list(r) for r in triangle(kind, 10).rows],
            PUBLISHED,
        )
        for kind, frozen in (
            ("a", _TRIANGLE_A_ROWS),
            ("b", _TRIANGLE_B_ROWS),
            ("c", _TRIANGLE_C_ROWS),
        )
    ]
    closed_form = [comb(2 * n - 2, n) // (n - 1) for n in range(3, 16)]
    diagonal = triangle("b", 15).diagonal()
    md = {n: multidegrees(n) for n in range(3, 16)}
    return claims + [
        _claim(
            "deg-x-sequence",
            "degrees of the kernel-line family for n = 3..9",
            _DEG_X_SEQUENCE,
            [md[n].degX for n in range(3, 10)],
            PUBLISHED,
        ),
        _claim(
            "deg-y-sequence",
            "degrees of the residual family for n = 3..9",
            _DEG_Y_SEQUENCE,
            [md[n].degY for n in range(3, 10)],
            PUBLISHED,
        ),
        _claim(
            "deg-b-closed-form",
            "the linear-congruence degree equals C(2n-2, n)/(n-1) for n = 3..15 "
            "and sits on the b-triangle diagonal",
            closed_form,
            [md[n].degB for n in range(3, 16)],
            PUBLISHED,
        ),
        _claim(
            "catalan-diagonal",
            "the b-triangle diagonal is the Catalan sequence",
            closed_form[:12],
            [diagonal[n - 1] for n in range(3, 15)],
            PUBLISHED,
        ),
        _claim(
            "multidegree-x-lists",
            "multidegree lists of the kernel-line family for n = 5, 7, 9",
            _MULTIDEGREE_X,
            {n: list(md[n].X) for n in (5, 7, 9)},
            PUBLISHED,
        ),
        _claim(
            "multidegree-y-lists",
            "multidegree lists of the residual family for n = 5, 7, 9",
            _MULTIDEGREE_Y,
            {n: list(md[n].Y) for n in (5, 7, 9)},
            PUBLISHED,
        ),
        _claim(
            "degree-additivity",
            "family and residual degrees sum to the linear-congruence degree "
            "for n = 3..15",
            True,
            all(m.degX + m.degY == m.degB for m in md.values()),
            DEFINITION,
        ),
    ]


_STRATUM_EVEN = [0, 18, 99, 364, 1064, 2652]
_STRATUM_ODD = [18, 99, 858, 5824, 29784]


def _suite_chern_strata(cfg: RunConfig) -> list[Claim]:
    ns = range(4, 13)
    closed_forms = {
        "c1": [Fraction(n, 2) - 1 for n in ns],
        "c2": [Fraction(n * n - 5 * n + 12, 8) for n in ns],
        "c3": [Fraction(n**3 - 9 * n**2 + 44 * n - 108, 48) for n in ns],
    }
    return [
        _claim(
            "chern-normalization",
            "the degree-zero coefficient is 1 for n = 4..12",
            [1] * 9,
            [chern(n).c[0] for n in ns],
            DEFINITION,
        ),
        _claim(
            "chern-printed-closed-forms",
            "the first three coefficients match their printed closed forms "
            "for n = 4..12",
            closed_forms,
            {
                "c1": [chern(n).c[1] for n in ns],
                "c2": [chern(n).c[2] for n in ns],
                "c3": [chern(n).c[3] for n in ns],
            },
            PUBLISHED,
        ),
        _claim(
            "stratum-even-sequence",
            "degrees of the rank <= n-4 stratum match the printed sextic "
            "polynomial at even n = 6..16",
            _STRATUM_EVEN,
            [stratum_class_degree(n, n - 4) for n in (6, 8, 10, 12, 14, 16)],
            PUBLISHED,
        ),
        _claim(
            "stratum-odd-sequence",
            "degrees of the rank <= n-5 stratum match the printed degree-ten "
            "polynomial at odd n = 7..15",
            _STRATUM_ODD,
            [stratum_class_degree(n, n - 5) for n in (7, 9, 11, 13, 15)],
            PUBLISHED,
        ),
        _claim(
            "stratum-codim-three-at-ten",
            "the rank <= 6 stratum degree at n = 10",
            99,
            stratum_class_degree(10, 6),
            PUBLISHED,
        ),
        _claim(
            "drop-degree-even",
            "drop-locus degrees (n-2)/2 for even n = 4..16",
            [1, 2, 3, 4, 5, 6, 7],
            [fundamental_locus_degrees(n).degF for n in range(4, 17, 2)],
            PUBLISHED,
        ),
        _claim(
            "drop-degree-odd",
            "drop-locus degrees C(n-1,3)/4 + 1 for odd n = 5..13",
            [2, 6, 15, 31, 56],
            [fundamental_locus_degrees(n).degF for n in range(5, 14, 2)],
            PUBLISHED,
        ),
        _claim(
            "top-stratum-matches-first-coefficient",
            "the rank <= n-2 stratum degree equals the first coefficient "
            "for even n = 4..12",
            True,
            all(
                stratum_class_degree(n, n - 2) == chern(n).c[1]
                for n in (4, 6, 8, 10, 12)
            ),
            DEFINITION,
        ),
    ]


def _suite_rank_laws(cfg: RunConfig) -> list[Claim]:
    field = cfg.prime_field(F101)
    instances = cfg.count(20)
    mismatch = {"product": 0, "plane-times-two-form": 0, "covector-times-form": 0}
    checked = dict.fromkeys(mismatch, 0)
    for n in (5, 6, 7):
        ctx = SpaceContext(n, field)
        for i in range(instances):
            covs = [
                random_tensor(ctx, 1, "form", derive_seed("rl-a", n, cfg.seed, i, k))
                for k in range(4)
            ]
            eta = covs[0]
            for c in covs[1:]:
                eta = wedge(eta, c)
            if not eta.is_zero():
                checked["product"] += 1
                if quadric_of(eta).rank != 6:
                    mismatch["product"] += 1

            beta = random_tensor(ctx, 2, "form", derive_seed("rl-b", n, cfg.seed, i))
            x = random_tensor(ctx, 1, "form", derive_seed("rl-bx", n, cfg.seed, i))
            y = random_tensor(ctx, 1, "form", derive_seed("rl-by", n, cfg.seed, i))
            eta = wedge(beta, wedge(x, y))
            if not wedge(x, y).is_zero() and not eta.is_zero():
                checked["plane-times-two-form"] += 1
                restricted_rank = j_rank(LinearSubspace.annihilator(ctx, [x, y]).pullback(beta), 1)
                if quadric_of(eta).rank != 2 * restricted_rank + 2:
                    mismatch["plane-times-two-form"] += 1

            omega = random_tensor(ctx, 3, "form", derive_seed("rl-c", n, cfg.seed, i))
            x = random_tensor(ctx, 1, "form", derive_seed("rl-cx", n, cfg.seed, i))
            eta = wedge(omega, x)
            if not x.is_zero() and not eta.is_zero():
                checked["covector-times-form"] += 1
                restricted_rank = j_rank(LinearSubspace.annihilator(ctx, [x]).pullback(omega), 1)
                if quadric_of(eta).rank != 2 * restricted_rank:
                    mismatch["covector-times-form"] += 1
    return [
        _claim(
            f"rank-law-{key}",
            f"{anchor} ({checked[key]} seeded instances on n = 5, 6, 7)",
            0,
            mismatch[key],
            PUBLISHED,
        )
        for key, anchor in (
            ("product", "a product of four covectors has quadric rank 6"),
            (
                "plane-times-two-form",
                "a two-form wedged with a covector plane has quadric rank "
                "twice the restricted rank plus two",
            ),
            (
                "covector-times-form",
                "a 3-form wedged with a covector has quadric rank twice the "
                "restricted contraction rank",
            ),
        )
    ]


def _suite_order_law(cfg: RunConfig) -> list[Claim]:
    field = cfg.prime_field(F101)
    samples = cfg.count(200)
    names = [n for n in catalog.list_names() if "order" in catalog.get(n)[1].expected]
    expected = _catalog_values("order", names)
    computed = {}
    for name in expected:
        omega, _ = catalog.get(name, field=field)
        computed[name] = order(omega, samples=samples, seed=cfg.seed)
    random_orders = {}
    for n in range(5, 10):
        forms = _random_gc2_forms(n, field, 10, "order-law", cfg.seed)
        random_orders[n] = sorted(
            {
                order(omega, samples=samples, seed=cfg.seed + i)
                for i, omega in enumerate(forms)
            }
        )
    return [
        _claim(
            "catalog-orders",
            f"orders of the catalog forms with {samples} agreeing samples each",
            expected,
            computed,
            PUBLISHED,
        ),
        _claim(
            "random-form-order-parity",
            "order is 1 for odd and 0 for even n over ten random full-rank "
            f"forms per n = 5..9, {samples} agreeing samples each",
            {n: [n % 2] for n in range(5, 10)},
            random_orders,
            PUBLISHED,
        ),
    ]


def _suite_span_lattice(cfg: RunConfig) -> list[Claim]:
    field = cfg.prime_field(F101)
    codim_mismatches = 0
    containment_violations = 0
    instances = 0

    def check(omega: AlternatingTensor, tag: str) -> None:
        nonlocal codim_mismatches, containment_violations, instances
        ctx = omega.ctx
        n = ctx.n
        x, y = general_directions(omega, seed=cfg.seed)
        lattice = span_lattice(omega, x, y)
        restricted_rank = j_rank(LinearSubspace.annihilator(ctx, [x]).pullback(omega), 1)
        expected = {
            "full": n + 1,
            "modulo_x": n,
            "modulo_xy": n - 1,
            "split_at_x": n + restricted_rank,
            "pencil_at_xy": n,
        }
        instances += 1
        if lattice.codimensions() != expected:
            codim_mismatches += 1
        chain = (
            lattice.modulo_x.contains_subspace(lattice.full)
            and lattice.modulo_xy.contains_subspace(lattice.modulo_x)
            and lattice.modulo_x.contains_subspace(lattice.split_at_x)
            and lattice.modulo_xy.contains_subspace(lattice.pencil_at_xy)
        )
        if not chain:
            containment_violations += 1

    for name in ("n5", "n6-g2", "n7-ozeki"):
        omega, _ = catalog.get(name, field=field)
        check(omega, name)
    for n in (5, 6, 7):
        for omega in _random_gc2_forms(n, field, 5, "span-lattice", cfg.seed):
            check(omega, f"random-n{n}")
    return [
        _claim(
            "span-codimensions",
            "span-lattice codimensions are (n+1, n, n-1, n + restricted rank, n) "
            f"for general directions ({instances} instances)",
            0,
            codim_mismatches,
            PUBLISHED,
        ),
        _claim(
            "span-containments",
            f"the containment chain of the five spans holds ({instances} instances)",
            0,
            containment_violations,
            DEFINITION,
        ),
    ]


def _suite_quadric_count(cfg: RunConfig) -> list[Claim]:
    names = ("n5", "n6-g2", "n7-ozeki")
    dims = {}
    matches = {}
    for name in names:
        omega, _ = catalog.get(name)
        system = quadrics_through_span(omega)
        dims[name] = system.dimension
        matches[name] = system.matches_wedge_family
    return [
        _claim(
            "quadric-count",
            "the quadrics through the family span form an (n+1)-dimensional "
            "system over the rationals",
            _catalog_values("quadrics_dim", names),
            dims,
            PUBLISHED,
        ),
        _claim(
            "quadric-family-match",
            "that system is exactly the wedge family of the form",
            dict.fromkeys(names, True),
            matches,
            PUBLISHED,
        ),
    ]


def _suite_form_recovery(cfg: RunConfig) -> list[Claim]:
    expected = _catalog_values("recovery_dim", ("n5", "n6-g2", "n7-ozeki"))
    generic = ("n6-g2", "n7-ozeki")
    dims = {}
    contains = {}
    for name in expected:
        omega, _ = catalog.get(name)
        dimension, solutions = recover_forms(kernel_span(omega))
        dims[name] = dimension
        joined = [s.coords() for s in solutions] + [omega.coords()]
        contains[name] = matrix_rank(omega.ctx.field, joined) == len(solutions)
    return [
        _claim(
            "recovery-dimension-generic",
            "the space of forms with the given family span is a single form "
            "up to scale for the large catalog shapes",
            {k: expected[k] for k in generic},
            {k: dims[k] for k in generic},
            PUBLISHED,
        ),
        _claim(
            "recovery-dimension-two-planes",
            "the two-plane shape is recovered inside a two-dimensional space",
            expected["n5"],
            dims["n5"],
            COMPUTED,
        ),
        _claim(
            "recovery-contains-original",
            "the recovered space always contains the original form",
            dict.fromkeys(expected, True),
            contains,
            DEFINITION,
        ),
    ]


def _suite_degeneracy_degree(cfg: RunConfig) -> list[Claim]:
    expected = _catalog_values("degF", ("n4", "n6-g2", "n8-family"))
    degrees = {}
    stable = {}
    for name in expected:
        omega, _ = catalog.get(name, field=F1009)
        values = [hypersurface_degree(omega, seed=cfg.seed + k) for k in range(3)]
        degrees[name] = values[0]
        stable[name] = len(set(values)) == 1
    return [
        _claim(
            "drop-locus-degrees",
            "skew-matrix drop-locus degrees for the even catalog forms",
            expected,
            degrees,
            PUBLISHED,
        ),
        _claim(
            "drop-locus-seed-stability",
            "each degree is stable across three seeded line draws",
            dict.fromkeys(expected, True),
            stable,
            DEFINITION,
        ),
    ]


def _suite_stratification(cfg: RunConfig) -> list[Claim]:
    omega5, _ = catalog.get("n5")
    strata5 = exhaustive_strata(omega5, 3)
    low = set(strata5.stratum(2))
    plane_a = {pt for pt in low if pt[0] == pt[1] == pt[2] == 0}
    plane_b = {pt for pt in low if pt[3] == pt[4] == pt[5] == 0}
    omega4, _ = catalog.get("n4")
    strata4 = exhaustive_strata(omega4, 3)
    low4 = strata4.stratum(2)
    omega3, _ = catalog.get("n3")
    strata3 = exhaustive_strata(omega3, 5)
    return [
        _claim(
            "two-plane-strata-mod-3",
            "the two-plane shape drops rank exactly on its two planes over "
            "the 3-element field",
            {
                "counts": {"2": 26, "4": 338},
                "plane_sizes": [13, 13],
                "planes_cover_and_split": True,
            },
            {
                "counts": dict(strata5.counts),
                "plane_sizes": [len(plane_a), len(plane_b)],
                "planes_cover_and_split": bool(
                    not (plane_a & plane_b) and (plane_a | plane_b) == low
                ),
            },
            COMPUTED,
        ),
        _claim(
            "hyperplane-strata-mod-3",
            "the n = 4 shape drops rank exactly on one coordinate hyperplane "
            "over the 3-element field",
            {"counts": {"2": 40, "4": 81}, "all_on_hyperplane": True},
            {
                "counts": dict(strata4.counts),
                "all_on_hyperplane": all(pt[0] == 0 for pt in low4),
            },
            COMPUTED,
        ),
        _claim(
            "decomposable-zero-point-mod-5",
            "the decomposable shape vanishes at exactly one point over the "
            "5-element field",
            {"counts": {"0": 1, "2": 155}, "zero_point": [1, 0, 0, 0]},
            {
                "counts": dict(strata3.counts),
                "zero_point": list(strata3.points[0][0]),
            },
            COMPUTED,
        ),
    ]


def _suite_secancy(cfg: RunConfig) -> list[Claim]:
    lines = cfg.count(20)
    degrees = _catalog_values("secant_degree", ("n5", "n7-ozeki"))
    sources = {name: catalog.get(name, field=F1009)[0] for name in degrees}
    sources["n9-random"] = _n9_random()
    expected_counts = {name: [d] for name, d in degrees.items()} | {"n9-random": [4]}
    degree_counts = {}
    for label, omega in sources.items():
        observed = []
        for i in range(lines):
            line = sample_line_on_X(omega, seed=cfg.seed + i)
            observed.append(secant_pencil(omega, line).total_degree)
        degree_counts[label] = sorted(set(observed))
    omega5 = sources["n5"]
    field = omega5.ctx.field
    p: int = field.p  # type: ignore[assignment]
    matches = 0
    checked = 5
    for i in range(checked):
        line = sample_line_on_X(omega5, seed=cfg.seed + i)
        pencil = secant_pencil(omega5, line)
        pencil_points = {
            normalize_projective(point.coords(), p) for point in pencil.zeros()
        }
        first, second = split_decomposable(line)
        spanning = (first.coords(), second.coords())
        direct = set()
        for zero_indices in ((3, 4, 5), (0, 1, 2)):
            rows = [[v[k] for v in spanning] for k in zero_indices]
            _, kernel = rank_kernel(field, rows, 2)
            if len(kernel) != 1:
                continue
            a, b = kernel[0]
            point = first.scale(a).add(second.scale(b))
            direct.add(normalize_projective(point.coords(), p))
        if pencil_points == direct and len(direct) == 2:
            matches += 1
    return [
        _claim(
            "secant-pencil-degrees",
            f"rank-drop counts along {lines} sampled family lines per shape "
            "equal (n-1)/2 uniformly",
            expected_counts,
            degree_counts,
            PUBLISHED,
        ),
        _claim(
            "two-plane-roots-meet-the-planes",
            "for the two-plane shape the pencil roots are exactly the "
            f"intersections of the line with the two planes ({checked} lines)",
            checked,
            matches,
            PUBLISHED,
        ),
    ]


def _suite_section_split(cfg: RunConfig) -> list[Claim]:
    omega, _ = catalog.get("n5")
    report = classify_linear_section(omega, omega.ctx.basis_covector(0), 2)
    return [
        _claim(
            "section-partition-counts",
            "exhaustive classification of the relaxed span over the 2-element "
            "field (heuristic: small characteristic)",
            {"grassmannian": 71, "only_full": 28, "only_split": 22, "overlap": 21},
            {
                "grassmannian": report.grassmannian_points,
                "only_full": report.only_full,
                "only_split": report.only_split,
                "overlap": report.overlap,
            },
            COMPUTED,
        ),
        _claim(
            "section-no-stray-lines",
            "every decomposable point of the section belongs to one of the "
            "two families (heuristic: small characteristic)",
            0,
            report.neither,
            PUBLISHED,
        ),
        _claim(
            "section-overlap-on-hyperplane",
            "family overlap happens only on the residue hyperplane "
            "(heuristic: small characteristic)",
            [],
            [list(w) for w in report.overlap_off_hyperplane],
            PUBLISHED,
        ),
    ]


def _suite_residual_membership(cfg: RunConfig) -> list[Claim]:
    field = cfg.prime_field(F101)
    seeds = cfg.count(50)
    membership_failures = 0
    parameter_failures = 0
    sampled = 0
    parity_modes = {"n5": 1, "n6-g2": 2, "n7-ozeki": 1, "n8-family": 2}
    modes = {}
    for name in parity_modes:
        omega, _ = catalog.get(name, field=field)
        handle = ResidualHandle.general(omega, seed=cfg.seed)
        for s in range(seeds):
            line = sample_line_on_Y(handle, seed=cfg.seed + s)
            sampled += 1
            if not member_Y(handle, line):
                membership_failures += 1
            try:
                pencil_parameter(handle, line)
            except ConventionError:
                parameter_failures += 1
        rng = random.Random(derive_seed("residual-kernel", name, cfg.seed))
        histogram: dict[int, int] = {}
        points = random_points(field, handle.ctx.dim, rng, 250)
        for k in line_system_kernel_dims(handle, points):
            histogram[k] = histogram.get(k, 0) + 1
        modes[name] = max(histogram, key=lambda k: histogram[k])
    return [
        _claim(
            "residual-membership",
            f"{sampled} sampled residual lines are members with a unique "
            "pencil parameter",
            {"membership_failures": 0, "parameter_failures": 0},
            {
                "membership_failures": membership_failures,
                "parameter_failures": parameter_failures,
            },
            PUBLISHED,
        ),
        _claim(
            "line-system-generic-kernel",
            "the generic line-system kernel dimension is 1 for odd and 2 for "
            "even n (mode over 250 points per shape)",
            parity_modes,
            modes,
            PUBLISHED,
        ),
    ]


def _residual_claim(
    cid: str,
    anchor: str,
    short_anchor: str,
    expected: dict,
    forms: dict[str, AlternatingTensor],
    measure: Callable[..., object],
    seed: int,
) -> list[Claim]:
    """One published claim on ``measure(handle, seed=seed)`` for a general
    residual handle of each labelled form; the first form whose sampling
    budget runs out makes it inconclusive, under ``short_anchor``."""
    computed = {}
    for label, omega in forms.items():
        handle = ResidualHandle.general(omega, seed=seed)
        try:
            computed[label] = measure(handle, seed=seed)
        except NonGenericFormError as exc:
            reason = f"{label}: {exc}"
            expected = _jsonable(expected)
            return [Claim(cid, short_anchor, expected, PUBLISHED, reason, INCONCLUSIVE)]
    return [_claim(cid, anchor, expected, computed, PUBLISHED)]


def _suite_residual_odd(cfg: RunConfig) -> list[Claim]:
    degrees = _catalog_values("g_degree", ("n5", "n7-ozeki"))
    forms = {name: catalog.get(name, field=F101)[0] for name in degrees}
    forms["n9-random"] = _n9_random()
    return _residual_claim(
        "residual-odd-degrees",
        "degrees of the infinitely-many-lines locus for odd n = 5, 7, 9",
        "degrees of the infinitely-many-lines locus for odd n",
        degrees | {"n9-random": 4},
        forms,
        G_degree_odd,
        cfg.seed,
    )


def _suite_residual_even(cfg: RunConfig) -> list[Claim]:
    counts = _catalog_values("y_secancy", ("n4", "n6-g2", "n8-family"))
    return _residual_claim(
        "residual-even-secancy",
        "the sampled residual line is an (n-2)/2-secant of the drop locus "
        "and meets the base locus, for even n = 4, 6, 8",
        "secancy counts along the pencil for even n",
        {name: [count, True] for name, count in counts.items()},
        {name: catalog.get(name, field=F101)[0] for name in counts},
        Y_secancy_even,
        cfg.seed,
    )


def _suite_residual_singular(cfg: RunConfig) -> list[Claim]:
    fields = {"n5": F101, "n6-g2": F101, "n7-ozeki": FieldSpec.prime(31)}
    return _residual_claim(
        "residual-singular-dimensions",
        "the singular locus of the residual family has certified "
        "dimension n - 5 for n = 5, 6, 7",
        "certified singular-locus dimensions of the residual family",
        _catalog_values("sing_y_dim", fields),
        {name: catalog.get(name, field=field)[0] for name, field in fields.items()},
        sing_Y_dimension,
        cfg.seed,
    )


def _suite_conventions(cfg: RunConfig) -> list[Claim]:
    field = cfg.prime_field(F101)
    if field.char == 2:
        raise ConventionError(
            "the conventions suite checks q(L) = (1/2) L^T rho L and needs a "
            "field of characteristic other than 2"
        )
    instances = cfg.count(1000)
    rng = random.Random(derive_seed("conventions", cfg.seed))
    contexts = {n: SpaceContext(n, field) for n in range(4, 9)}

    def random_skew(size: int) -> Matrix:
        grid = [[field.zero()] * size for _ in range(size)]
        upper = [(i, j) for i in range(size) for j in range(i + 1, size)]
        if field.kind == "prime":
            values = randbelow_many(rng, field.p, len(upper))
        else:
            values = [field.coerce(rng.randint(-10, 10)) for _ in upper]
        for (i, j), v in zip(upper, values):
            grid[i][j] = v
            grid[j][i] = field.neg(v)
        return Matrix(field, size, size, tuple(v for row in grid for v in row))

    pf_mismatch = 0
    for i in range(instances):
        size = 2 * (2 + (i % 4))
        m = random_skew(size)
        pf = pfaffian(m)
        if not field.is_zero(field.sub(field.mul(pf, pf), m.det())):
            pf_mismatch += 1

    adj_mismatch = 0
    for i in range(instances):
        ctx = contexts[4 + (i % 5)]
        omega = random_tensor(ctx, 3, "form", derive_seed("cv-adj", cfg.seed, i))
        line = random_tensor(ctx, 2, "vector", derive_seed("cv-adj-l", cfg.seed, i))
        vector = random_tensor(ctx, 1, "vector", derive_seed("cv-adj-v", cfg.seed, i))
        lhs = pair(contract(omega, line), vector)
        rhs = pair(omega, wedge(line, vector))
        if not field.is_zero(field.sub(lhs, rhs)):
            adj_mismatch += 1

    polar_mismatch = 0
    half = field.inv(field.coerce(2))
    for i in range(instances):
        ctx = contexts[4 + (i % 5)]
        eta = random_tensor(ctx, 4, "form", derive_seed("cv-q", cfg.seed, i))
        # the claim itself checks rho, so the builder skips quadric_of's checks
        quadric = polar_quadric(eta)
        line = random_tensor(ctx, 2, "vector", derive_seed("cv-q-l", cfg.seed, i))
        via_polar = field.mul(half, quadric.polar_pairing(line, line))
        if not field.is_zero(field.sub(quadric.value(line), via_polar)):
            polar_mismatch += 1

    annihilation_mismatch = 0
    forms = max(1, instances // 10)
    for i in range(forms):
        ctx = contexts[4 + (i % 5)]
        omega = random_tensor(ctx, 3, "form", derive_seed("cv-m", cfg.seed, i))
        matrix = build_M(omega)
        for coords in random_points(field, ctx.dim, rng, instances // forms):
            image = matrix.evaluate(coords).matvec(coords)
            if any(not field.is_zero(v) for v in image):
                annihilation_mismatch += 1

    star_mismatch = 0
    star_forms = max(1, instances // 25)
    for i in range(star_forms):
        ctx = contexts[4 + (i % 5)]
        omega = random_tensor(ctx, 3, "form", derive_seed("cv-s", cfg.seed, i))
        matrix = build_M(omega)
        points = list(random_points(field, ctx.dim, rng, instances // star_forms))
        for coords, rank in zip(points, point_ranks(matrix, points)):
            star = directions_through(matrix, coords)
            if star.projective_dim != ctx.dim - rank - 2:
                star_mismatch += 1

    return [
        _claim(cid, f"{anchor} ({instances} instances)", 0, bad, DEFINITION)
        for cid, anchor, bad in (
            (
                "pfaffian-squares-to-determinant",
                "the squared Pfaffian equals the determinant on random skew matrices",
                pf_mismatch,
            ),
            (
                "contraction-adjunction",
                "pairing the contraction against a vector equals pairing the "
                "form against the wedge",
                adj_mismatch,
            ),
            (
                "quadric-polar-identity",
                "the quadric value is half the polar self-pairing away from "
                "characteristic 2",
                polar_mismatch,
            ),
            (
                "matrix-annihilates-its-point",
                "the skew matrix of a form kills the point it is evaluated at",
                annihilation_mismatch,
            ),
            (
                "star-dimension-correspondence",
                "the star dimension at a point is the matrix corank minus two",
                star_mismatch,
            ),
        )
    ]


def _suite_claims(name: str, cfg: RunConfig) -> list[Claim]:
    """The claims of one named suite.  A `NonGenericFormError` that escapes
    the suite becomes one inconclusive claim that names the suite and the
    error, so a run of several suites keeps the claims of the others."""
    try:
        return SUITES[name].builder(cfg)
    except NonGenericFormError as exc:
        return [
            Claim(
                f"suite-{name}",
                f"suite {name} runs to completion on generic inputs",
                "completed",
                DEFINITION,
                f"{name}: {exc}",
                INCONCLUSIVE,
            )
        ]


def _run_parts(parts: Iterable[str], cfg: RunConfig) -> list[Claim]:
    """The claims of the named suites, in order."""
    claims: list[Claim] = []
    for part in parts:
        claims.extend(_suite_claims(part, cfg))
    return claims


@dataclass(frozen=True)
class SuiteSpec:
    builder: Callable[[RunConfig], list[Claim]]
    field_label: str
    honors_field: bool
    description: str


SUITES: dict[str, SuiteSpec] = {
    "enumerative": SuiteSpec(
        _suite_enumerative, "none", False, "integer triangles, degrees, multidegrees"
    ),
    "chern-strata": SuiteSpec(
        _suite_chern_strata, "none", False, "coefficient and stratum degree formulas"
    ),
    "rank-laws": SuiteSpec(
        _suite_rank_laws, "p:101", True, "quadric ranks of structured 4-forms"
    ),
    "order-law": SuiteSpec(
        _suite_order_law, "p:101", True, "order parity across catalog and random forms"
    ),
    "span-lattice": SuiteSpec(
        _suite_span_lattice, "p:101", True, "span codimensions and containments"
    ),
    "quadric-count": SuiteSpec(
        _suite_quadric_count, "q", False, "quadrics through the family span"
    ),
    "form-recovery": SuiteSpec(
        _suite_form_recovery, "q", False, "forms recovered from their span"
    ),
    "degeneracy-degree": SuiteSpec(
        _suite_degeneracy_degree, "p:1009", False, "drop-locus degrees, even n"
    ),
    "stratification": SuiteSpec(
        _suite_stratification, "p:3, p:5", False, "exhaustive small-field strata"
    ),
    "secancy": SuiteSpec(
        _suite_secancy, "p:1009", False, "secant counts along sampled family lines"
    ),
    "section-split": SuiteSpec(
        _suite_section_split, "p:2", False, "two-family split of a relaxed span"
    ),
    "residual-membership": SuiteSpec(
        _suite_residual_membership, "p:101", True, "residual sampling and line system"
    ),
    "residual-odd": SuiteSpec(
        _suite_residual_odd, "p:101, p:1009", False, "residual locus degrees, odd n"
    ),
    "residual-even": SuiteSpec(
        _suite_residual_even, "p:101", False, "residual secancy counts, even n"
    ),
    "residual-singular": SuiteSpec(
        _suite_residual_singular, "p:101, p:31", False, "residual singular dimensions"
    ),
    "residual": SuiteSpec(
        partial(
            _run_parts,
            (
                "residual-membership",
                "residual-odd",
                "residual-even",
                "residual-singular",
            ),
        ),
        "p:101, p:1009, p:31",
        False,
        "all residual-family claims",
    ),
    "conventions": SuiteSpec(
        _suite_conventions, "p:101", True, "internal consistency laws"
    ),
}

def run_suite(name: str, cfg: RunConfig) -> VerificationReport:
    """Run one named suite (or 'all') and wrap the claims in a report."""
    if name != "all" and name not in SUITES:
        known = ", ".join(sorted(SUITES) + ["all"])
        raise ConventionError(f"unknown suite {name!r}; known suites: {known}")
    start = time.monotonic()
    if name == "all":
        claims = _run_parts([part for part in SUITES if part != "residual"], cfg)
        label = "mixed"
    else:
        spec = SUITES[name]
        # a fixed-field suite reads no cfg.field, so naming its one field is
        # the run without --field
        if (
            cfg.field is not None
            and not spec.honors_field
            and field_label(cfg.field) != spec.field_label
        ):
            raise ConventionError(
                f"suite {name!r} runs on fixed fields ({spec.field_label}); "
                "omit --field"
            )
        claims = _suite_claims(name, cfg)
        label = spec.field_label if cfg.field is None else field_label(cfg.field)
    return VerificationReport(
        suite=name,
        claims=tuple(claims),
        seed=cfg.seed,
        field=label,
        elapsed=time.monotonic() - start,
    )
