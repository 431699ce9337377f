"""Tests for the named-form catalog."""

from __future__ import annotations

from fractions import Fraction

import pytest

from triwedge import catalog
from triwedge.exact_scalar import ConventionError, FieldSpec
from triwedge.enumerative import fundamental_locus_degrees, multidegrees
from triwedge.exterior_core import form_from_document, form_to_document
from triwedge.form_analysis import j_rank


def coeff_map(form):
    return {key: value for key, value in form.terms}


def test_list_names_is_deterministic_and_complete():
    names = catalog.list_names()
    assert names == catalog.list_names()
    assert len(names) >= 9
    assert "n5" in names
    assert "n7-ozeki" in names


def test_every_entry_loads_and_matches_its_term_data():
    for name in catalog.list_names():
        form, entry = catalog.get(name)
        assert entry.name == name
        assert form.ctx.n == entry.n
        assert not form.is_zero()
        expected = {
            indices: Fraction(value) for indices, value in entry.terms
        }
        assert coeff_map(form) == expected


def test_every_entry_round_trips_through_the_document_format():
    for name in catalog.list_names():
        form, _ = catalog.get(name)
        again = form_from_document(form_to_document(form))
        assert again == form


def test_fixed_term_data_is_frozen():
    form, _ = catalog.get("n3")
    assert coeff_map(form) == {(1, 2, 3): 1}

    form, _ = catalog.get("n4")
    assert coeff_map(form) == {(0, 1, 2): 1, (0, 3, 4): 1}

    form, _ = catalog.get("n5")
    assert coeff_map(form) == {(0, 1, 2): 1, (3, 4, 5): 1}

    form, _ = catalog.get("n5-tangent")
    assert coeff_map(form) == {(0, 1, 2): 1, (2, 3, 4): 1, (0, 4, 5): 1}

    form, _ = catalog.get("n6-g2")
    assert coeff_map(form) == {
        (1, 2, 3): 1,
        (4, 5, 6): 1,
        (0, 1, 4): 1,
        (0, 2, 5): 1,
        (0, 3, 6): 1,
    }

    form, _ = catalog.get("n7-ozeki")
    assert len(form.terms) == 7
    assert set(coeff_map(form).values()) == {1}

    form, _ = catalog.get("n7-djokovic")
    assert coeff_map(form) == {
        (0, 1, 3): 1,
        (0, 2, 3): 1,
        (1, 4, 5): 1,
        (2, 6, 7): 1,
        (0, 4, 6): 1,
        (3, 5, 7): 1,
    }


def test_n8_family_default_and_custom_coefficients():
    form, entry = catalog.get("n8-family")
    assert entry.parameters["lam"] == (1, 1, 1, 1)
    assert len(form.terms) == 12
    assert set(coeff_map(form).values()) == {1}

    form, entry = catalog.get("n8-family", lam=(2, 3, 5, 7))
    values = coeff_map(form)
    assert values[(0, 1, 2)] == 2
    assert values[(0, 3, 6)] == 3
    assert values[(0, 4, 8)] == 5
    assert values[(0, 5, 7)] == 7
    assert len(values) == 12


def test_n8_family_rejects_degenerate_coefficients():
    with pytest.raises(ConventionError):
        catalog.get("n8-family", lam=(1, 0, 1, 1))
    with pytest.raises(ConventionError):
        catalog.get("n8-family", lam=(1, 1, 1))
    with pytest.raises(ConventionError):
        catalog.get("n5", lam=(1, 1, 1, 1))


def test_mod3_representatives_by_residue():
    form, entry = catalog.get("genN-mod3", n=5)
    reference, _ = catalog.get("n5")
    assert form == reference
    assert entry.parameters["n"] == 5

    form, _ = catalog.get("genN-mod3", n=6)
    assert coeff_map(form) == {(0, 1, 2): 1, (3, 4, 5): 1, (0, 3, 6): 1}

    form, _ = catalog.get("genN-mod3", n=7)
    assert coeff_map(form) == {
        (0, 1, 2): 1,
        (3, 4, 5): 1,
        (0, 3, 6): 1,
        (1, 4, 7): 1,
    }

    form, entry = catalog.get("genN-mod3", n=11)
    assert coeff_map(form) == {
        (0, 1, 2): 1,
        (3, 4, 5): 1,
        (6, 7, 8): 1,
        (9, 10, 11): 1,
    }
    assert entry.expected["gc1"].value is True
    assert entry.expected["gc2"].value is True


def test_mod3_residue_constraints():
    with pytest.raises(ConventionError):
        catalog.get("genN-mod3", n=3)
    with pytest.raises(ConventionError):
        catalog.get("genN-mod3", n=4)
    with pytest.raises(ConventionError):
        catalog.get("n5", n=5)


def test_default_mod3_representative_is_nine_variables():
    form, entry = catalog.get("genN-mod3")
    assert entry.n == 9
    assert form.ctx.n == 9


def test_rank_claims_match_contraction_rank():
    for name in catalog.list_names():
        form, entry = catalog.get(name)
        claim = entry.expected.get("rank")
        if claim is not None:
            assert j_rank(form, 1) == claim.value


# Each recorded per-form value against the formula in n that it instantiates;
# the verification suites read these values as their expectations.
CATALOG_FORMULAS = {
    "degX": lambda n: multidegrees(n).degX,
    "degF": lambda n: fundamental_locus_degrees(n).degF,
    "g_degree": lambda n: fundamental_locus_degrees(n).degG,
    "secant_degree": lambda n: Fraction(n - 1, 2),
    "y_secancy": lambda n: Fraction(n - 2, 2),
    "quadrics_dim": lambda n: n + 1,
}


def test_expected_values_match_the_enumerative_formulas():
    checked = dict.fromkeys(CATALOG_FORMULAS, 0)
    for name in catalog.list_names():
        _, entry = catalog.get(name)
        for key, formula in CATALOG_FORMULAS.items():
            if key in entry.expected:
                assert entry.expected[key].value == formula(entry.n), (name, key)
                checked[key] += 1
    assert all(checked.values()), checked


def test_published_claims_for_spotlight_entries():
    _, entry = catalog.get("n6-g2")
    assert entry.expected["order"].value == 0
    assert entry.expected["degF"].value == 2
    assert entry.expected["order"].source == catalog.PUBLISHED

    _, entry = catalog.get("n3")
    assert entry.expected["rank"].value == 3

    _, entry = catalog.get("n5")
    assert entry.expected["recovery_dim"].value == 2
    assert entry.expected["recovery_dim"].source == catalog.COMPUTED


def test_expected_maps_are_read_only():
    _, entry = catalog.get("n5")
    with pytest.raises(TypeError):
        entry.expected["order"] = catalog.Expected(7, catalog.PUBLISHED)


def test_prime_field_coercion():
    form, _ = catalog.get("n5", field=FieldSpec.prime(3))
    assert form.ctx.field.kind == "prime"
    assert coeff_map(form) == {(0, 1, 2): 1, (3, 4, 5): 1}


def test_claim_source_vocabulary_is_validated():
    assert catalog.SOURCES == (catalog.PUBLISHED, catalog.COMPUTED, catalog.DEFINITION)
    for source in catalog.SOURCES:
        assert catalog.Expected(1, source).source == source
    with pytest.raises(ConventionError, match="unknown claim source"):
        catalog.Expected(1, "rumor")


def test_unknown_name_is_rejected():
    with pytest.raises(ConventionError):
        catalog.get("n99")
