"""Acceptance gate: thirteen criteria, each driven through the verification
suites and reported as one pass/fail line.

Run with ``-s`` (or read the -v test ids) to see the per-criterion lines.
"""

from __future__ import annotations

import time

from triwedge.suites import RunConfig, run_suite


def _run(number: int, title: str, suite: str, budget: float | None = None):
    start = time.monotonic()
    report = run_suite(suite, RunConfig())
    elapsed = time.monotonic() - start
    failures = [c for c in report.claims if c.status != "pass"]
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number:02d} ({title}): {verdict} "
          f"[{len(report.claims)} claims, {elapsed:.2f}s]")
    assert not failures, "\n".join(
        f"{c.id}: expected {c.expected!r}, computed {c.computed!r} ({c.status})"
        for c in failures
    )
    if budget is not None:
        assert elapsed < budget, f"suite {suite} took {elapsed:.2f}s >= {budget}s"
    return {c.id: c for c in report.claims}


def test_criterion_01_enumerative_exactness():
    claims = _run(1, "enumerative exactness", "enumerative", budget=1.0)
    assert claims["deg-x-sequence"].computed == [1, 2, 6, 18, 57, 186, 622]
    assert claims["deg-y-sequence"].computed == [1, 3, 8, 24, 75, 243, 808]


def test_criterion_02_chern_and_stratum_formulas():
    claims = _run(2, "coefficient and stratum formulas", "chern-strata", budget=1.0)
    assert claims["stratum-codim-three-at-ten"].computed == 99
    assert claims["drop-degree-odd"].computed == [2, 6, 15, 31, 56]


def test_criterion_03_rank_laws():
    claims = _run(3, "quadric rank laws", "rank-laws")
    assert all(claim.computed == 0 for claim in claims.values())


def test_criterion_04_order_law():
    claims = _run(4, "order parity law", "order-law")
    orders = claims["catalog-orders"].computed
    assert orders["n5"] == 1 and orders["n6-g2"] == 0 and orders["n8-family"] == 0


def test_criterion_05_span_lattice():
    claims = _run(5, "span-lattice codimensions", "span-lattice")
    assert claims["span-codimensions"].computed == 0
    assert claims["span-containments"].computed == 0


def test_criterion_06_quadric_count():
    claims = _run(6, "quadrics through the span", "quadric-count", budget=30.0)
    assert claims["quadric-count"].computed == {"n5": 6, "n6-g2": 7, "n7-ozeki": 8}


def test_criterion_07_form_recovery():
    claims = _run(7, "form recovery from the span", "form-recovery")
    assert claims["recovery-dimension-generic"].computed == {
        "n6-g2": 1,
        "n7-ozeki": 1,
    }
    assert claims["recovery-dimension-two-planes"].computed == 2


def test_criterion_08_drop_locus_degrees_even():
    claims = _run(8, "drop-locus degrees, even n", "degeneracy-degree")
    assert claims["drop-locus-degrees"].computed == {
        "n4": 1,
        "n6-g2": 2,
        "n8-family": 3,
    }


def test_criterion_09_exhaustive_stratification():
    claims = _run(9, "exhaustive small-field strata", "stratification", budget=10.0)
    two_plane = claims["two-plane-strata-mod-3"].computed
    assert two_plane["plane_sizes"] == [13, 13]
    assert two_plane["planes_cover_and_split"] is True


def test_criterion_10_secant_index():
    claims = _run(10, "secant index along family lines", "secancy")
    assert claims["secant-pencil-degrees"].computed == {
        "n5": [2],
        "n7-ozeki": [3],
        "n9-random": [4],
    }
    assert claims["two-plane-roots-meet-the-planes"].computed == 5


def test_criterion_11_section_split():
    claims = _run(11, "two-family section split", "section-split")
    assert claims["section-no-stray-lines"].computed == 0
    assert claims["section-overlap-on-hyperplane"].computed == []


def test_criterion_12_residual_geometry():
    claims = _run(12, "residual-family geometry", "residual")
    assert claims["residual-odd-degrees"].computed == {
        "n5": 2,
        "n7-ozeki": 3,
        "n9-random": 4,
    }
    assert claims["residual-even-secancy"].computed == {
        "n4": [1, True],
        "n6-g2": [2, True],
        "n8-family": [3, True],
    }
    assert claims["residual-singular-dimensions"].computed == {
        "n5": 0,
        "n6-g2": 1,
        "n7-ozeki": 2,
    }
    assert claims["line-system-generic-kernel"].computed == {
        "n5": 1,
        "n6-g2": 2,
        "n7-ozeki": 1,
        "n8-family": 2,
    }


def test_criterion_13_convention_self_consistency():
    claims = _run(13, "convention self-consistency", "conventions")
    assert set(claims) == {
        "pfaffian-squares-to-determinant",
        "contraction-adjunction",
        "quadric-polar-identity",
        "matrix-annihilates-its-point",
        "star-dimension-correspondence",
    }
    assert all(claim.computed == 0 for claim in claims.values())
