"""Named alternating 3-forms with their recorded expected invariants.

Each catalog entry packages integer term data for one specific 3-form
together with a read-only map of expected invariant values (congruence
order, locus degrees, generic matrix rank, ...) that the verification
suites consume.  Two entries are parameterized: ``n8-family`` takes the
four pencil coefficients ``lam`` and ``genN-mod3`` takes the ambient
``n`` and builds the standard representative for the residue of ``n+1``
modulo 3.

Every expected value carries a ``source`` marker from ``SOURCES``:

* ``published`` -- the value is stated in the literature the form is
  drawn from and is asserted as an external fact;
* ``computed`` -- the value was established by an independent exact
  computation and frozen here;
* ``definition`` -- the value restates a definition or a convention.

Forms are built over the rationals by default; pass ``field`` to obtain
the same integer terms coerced into a prime field.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .exact_scalar import ConventionError, FieldSpec
from .exterior_core import AlternatingTensor, SpaceContext

__all__ = [
    "Expected",
    "CatalogEntry",
    "get",
    "list_names",
    "PUBLISHED",
    "COMPUTED",
    "DEFINITION",
    "SOURCES",
]

PUBLISHED = "published"
COMPUTED = "computed"
DEFINITION = "definition"

SOURCES = (PUBLISHED, COMPUTED, DEFINITION)

IndexTriple = tuple[int, int, int]
Term = tuple[IndexTriple, int]


@dataclass(frozen=True)
class Expected:
    """One expected invariant value together with its source marker."""

    value: object
    source: str

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ConventionError(f"unknown claim source {self.source!r}")


@dataclass(frozen=True)
class CatalogEntry:
    """Descriptor for a named form: term data plus expected values."""

    name: str
    n: int
    terms: tuple[Term, ...]
    expected: Mapping[str, Expected]
    parameters: Mapping[str, object]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ConventionError("catalog forms live in at least four variables")
        for indices, coefficient in self.terms:
            if len(indices) != 3 or not all(
                0 <= a < b <= self.n for a, b in zip(indices, indices[1:])
            ):
                raise ConventionError(f"term indices {indices} are not strictly increasing")
            if coefficient == 0:
                raise ConventionError("catalog terms must have nonzero coefficients")


def _claims(**kwargs: Expected) -> Mapping[str, Expected]:
    return MappingProxyType(dict(kwargs))


def _published(value: object) -> Expected:
    return Expected(value, PUBLISHED)


def _computed(value: object) -> Expected:
    return Expected(value, COMPUTED)


_N3_TERMS: tuple[Term, ...] = (((1, 2, 3), 1),)

_N4_TERMS: tuple[Term, ...] = (((0, 1, 2), 1), ((0, 3, 4), 1))

_N5_TERMS: tuple[Term, ...] = (((0, 1, 2), 1), ((3, 4, 5), 1))

_N5_TANGENT_TERMS: tuple[Term, ...] = (
    ((0, 1, 2), 1),
    ((2, 3, 4), 1),
    ((0, 4, 5), 1),
)

_N6_G2_TERMS: tuple[Term, ...] = (
    ((1, 2, 3), 1),
    ((4, 5, 6), 1),
    ((0, 1, 4), 1),
    ((0, 2, 5), 1),
    ((0, 3, 6), 1),
)

_N7_OZEKI_TERMS: tuple[Term, ...] = (
    ((0, 1, 2), 1),
    ((0, 3, 4), 1),
    ((1, 3, 5), 1),
    ((1, 6, 7), 1),
    ((2, 3, 6), 1),
    ((2, 5, 7), 1),
    ((4, 5, 6), 1),
)

_N7_DJOKOVIC_TERMS: tuple[Term, ...] = (
    ((0, 1, 3), 1),
    ((0, 2, 3), 1),
    ((1, 4, 5), 1),
    ((2, 6, 7), 1),
    ((0, 4, 6), 1),
    ((3, 5, 7), 1),
)

_N8_PENCIL_TERMS: tuple[tuple[IndexTriple, ...], ...] = (
    ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
    ((0, 3, 6), (1, 4, 7), (2, 5, 8)),
    ((0, 4, 8), (1, 5, 6), (2, 3, 7)),
    ((0, 5, 7), (1, 3, 8), (2, 4, 6)),
)

_N7_CLAIMS = _claims(
    order=_published(1),
    degX=_published(57),
    secant_degree=_published(3),
    g_degree=_published(3),
    quadrics_dim=_published(8),
    recovery_dim=_published(1),
    generic_m_rank=_published(6),
    rank=_computed(8),
    sing_y_dim=_published(2),
)

_FIXED_ENTRIES: dict[str, tuple[int, tuple[Term, ...], Mapping[str, Expected]]] = {
    "n3": (
        3,
        _N3_TERMS,
        _claims(
            rank=_published(3),
            order=_published(1),
            degX=_published(1),
            generic_m_rank=_published(2),
        ),
    ),
    "n4": (
        4,
        _N4_TERMS,
        _claims(
            rank=_computed(5),
            order=_published(0),
            degX=_published(2),
            degF=_published(1),
            y_secancy=_published(1),
            generic_m_rank=_published(4),
        ),
    ),
    "n5": (
        5,
        _N5_TERMS,
        _claims(
            rank=_computed(6),
            order=_published(1),
            degX=_published(6),
            secant_degree=_published(2),
            g_degree=_published(2),
            quadrics_dim=_published(6),
            recovery_dim=_computed(2),
            generic_m_rank=_published(4),
            sing_y_dim=_published(0),
        ),
    ),
    "n5-tangent": (
        5,
        _N5_TANGENT_TERMS,
        _claims(
            congruence_dim=_published(4),
            rank=_computed(6),
            order=_computed(1),
            generic_m_rank=_computed(4),
        ),
    ),
    "n6-g2": (
        6,
        _N6_G2_TERMS,
        _claims(
            rank=_computed(7),
            order=_published(0),
            degX=_published(18),
            degF=_published(2),
            quadrics_dim=_published(7),
            recovery_dim=_published(1),
            y_secancy=_published(2),
            generic_m_rank=_published(6),
            sing_y_dim=_published(1),
        ),
    ),
    "n7-ozeki": (7, _N7_OZEKI_TERMS, _N7_CLAIMS),
    "n7-djokovic": (7, _N7_DJOKOVIC_TERMS, _N7_CLAIMS),
}

_NAME_ORDER = (
    "n3",
    "n4",
    "n5",
    "n5-tangent",
    "n6-g2",
    "n7-ozeki",
    "n7-djokovic",
    "n8-family",
    "genN-mod3",
)


def list_names() -> tuple[str, ...]:
    """Return the catalog names in their fixed canonical order."""
    return _NAME_ORDER


def _n8_family_terms(lam: Sequence[int]) -> tuple[Term, ...]:
    if len(lam) != 4:
        raise ConventionError("the n8 family takes exactly four coefficients")
    if any(value == 0 for value in lam):
        raise ConventionError(
            "n8 family members require all four pencil coefficients nonzero"
        )
    terms: list[Term] = []
    for coefficient, triples in zip(lam, _N8_PENCIL_TERMS):
        for indices in triples:
            terms.append((indices, int(coefficient)))
    return tuple(terms)


def _mod3_terms(n: int) -> tuple[Term, ...]:
    residue = (n + 1) % 3
    if residue == 0:
        if n < 2:
            raise ConventionError("no representative below n=2 in this residue class")
        blocks = range(0, n + 1, 3)
        return tuple(((i, i + 1, i + 2), 1) for i in blocks)
    if residue == 1:
        if n <= 3:
            raise ConventionError("the residue-1 representative requires n > 3")
        blocks = range(0, n, 3)
        triples = [((i, i + 1, i + 2), 1) for i in blocks]
        triples.append(((0, 3, n), 1))
        return tuple(triples)
    if n <= 4:
        raise ConventionError("the residue-2 representative requires n > 4")
    blocks = range(0, n - 1, 3)
    triples = [((i, i + 1, i + 2), 1) for i in blocks]
    triples.append(((0, 3, n - 1), 1))
    triples.append(((1, 4, n), 1))
    return tuple(triples)


def _build_form(
    n: int, terms: Sequence[Term], field: FieldSpec
) -> AlternatingTensor:
    ctx = SpaceContext(n=n, field=field)
    mapping = {indices: field.coerce(coefficient) for indices, coefficient in terms}
    return AlternatingTensor.make(ctx, 3, "form", mapping)


def get(
    name: str,
    *,
    field: Optional[FieldSpec] = None,
    lam: Optional[Sequence[int]] = None,
    n: Optional[int] = None,
) -> tuple[AlternatingTensor, CatalogEntry]:
    """Build the named form and its descriptor.

    ``lam`` applies only to ``n8-family`` (default ``(1, 1, 1, 1)``) and
    ``n`` only to ``genN-mod3`` (default ``9``).  Unknown names and
    misapplied parameters raise :class:`ConventionError`.
    """
    scalar_field = FieldSpec.rationals() if field is None else field
    if name not in _NAME_ORDER:
        raise ConventionError(f"unknown catalog name {name!r}")
    if lam is not None and name != "n8-family":
        raise ConventionError("lam applies only to the n8-family entry")
    if n is not None and name != "genN-mod3":
        raise ConventionError("n applies only to the genN-mod3 entry")

    if name == "n8-family":
        chosen = tuple(int(v) for v in (lam if lam is not None else (1, 1, 1, 1)))
        terms = _n8_family_terms(chosen)
        entry = CatalogEntry(
            name=name,
            n=8,
            terms=terms,
            expected=_claims(
                order=_published(0),
                degX=_published(186),
                degF=_published(3),
                y_secancy=_published(3),
                generic_m_rank=_published(8),
                rank=_computed(9),
            ),
            parameters=MappingProxyType({"lam": chosen}),
        )
        return _build_form(8, terms, scalar_field), entry

    if name == "genN-mod3":
        ambient = 9 if n is None else int(n)
        if ambient < 3:
            raise ConventionError("genN-mod3 requires n >= 3")
        terms = _mod3_terms(ambient)
        entry = CatalogEntry(
            name=name,
            n=ambient,
            terms=terms,
            expected=_claims(
                gc1=_published(True),
                gc2=_published(True),
            ),
            parameters=MappingProxyType({"n": ambient}),
        )
        return _build_form(ambient, terms, scalar_field), entry

    size, terms, expected = _FIXED_ENTRIES[name]
    entry = CatalogEntry(
        name=name,
        n=size,
        terms=terms,
        expected=expected,
        parameters=MappingProxyType({}),
    )
    return _build_form(size, terms, scalar_field), entry
