"""Command-line surface: analyze, tables, verify, random-form, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from math import comb

import pytest

from triwedge import catalog, cli, suites
from triwedge.cli import EXIT_USAGE, RANDOM_FORM_N_MAX, TABLES_N_MAX, main
from triwedge.suites import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    Claim,
    RunConfig,
    SUITES,
    SuiteSpec,
    VerificationReport,
    run_suite,
)
from triwedge.degeneracy import NonGenericFormError
from triwedge.enumerative import tables_rows
from triwedge.exact_scalar import ConventionError, FieldSpec
from triwedge.exterior_core import form_from_document
from triwedge.form_analysis import j_rank


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


# -- analyze --------------------------------------------------------------------------


def test_analyze_two_plane_catalog_form(tmp_path):
    code, doc = run_json(tmp_path, ["analyze", "--form", "catalog:n5"])
    assert code == EXIT_PASS
    assert doc["schema"] == "triwedge-analysis/1"
    assert doc["n"] == 5
    assert doc["field"] == "p:101"
    assert doc["rank"] == 6
    assert doc["order"] == 1
    assert doc["span_codims"]["full"] == 6
    assert doc["span_codims"]["pencil_at_xy"] == 5
    assert doc["secant_index"] == 2
    assert doc["matrix_rank"]["generic"] == 4
    assert doc["genericity"]["contraction_full_rank"] is True


def test_analyze_even_catalog_form_reports_drop_degree(tmp_path):
    code, doc = run_json(tmp_path, ["analyze", "--form", "catalog:n6-g2"])
    assert code == EXIT_PASS
    assert doc["rank"] == 7
    assert doc["order"] == 0
    assert doc["drop_locus_degree"] == 2
    assert "secant_index" not in doc


def test_analyze_degenerate_form_skips_sections_gracefully(tmp_path):
    code, doc = run_json(tmp_path, ["analyze", "--form", "catalog:n3"])
    assert code == EXIT_PASS
    assert doc["rank"] == 3
    assert doc["order"] == 1
    assert doc["genericity"]["contraction_full_rank"] is False
    assert "skipped" in doc["span_codims"]
    assert "skipped" in doc["secant_index"]


def test_analyze_is_deterministic(tmp_path):
    _, first = run_json(tmp_path, ["analyze", "--form", "catalog:n5"], "a.json")
    _, second = run_json(tmp_path, ["analyze", "--form", "catalog:n5"], "b.json")
    assert first == second


def test_analyze_accepts_form_files(tmp_path):
    form_path = tmp_path / "form.json"
    assert main(["random-form", "--n", "7", "--field", "p:101", "--seed", "5",
                 "--out", str(form_path)]) == EXIT_PASS
    code, doc = run_json(tmp_path, ["analyze", "--form", str(form_path)])
    assert code == EXIT_PASS
    assert doc["n"] == 7
    assert doc["rank"] == 8
    assert doc["order"] == 1


def test_analyze_rejects_malformed_form_file(tmp_path, capsys):
    form_path = tmp_path / "bad.json"
    form_path.write_text(
        json.dumps(
            {
                "n": 5,
                "field": {"kind": "prime", "p": 101},
                "terms": [{"indices": [0, 0, 2], "coeff": "1"}],
            }
        )
    )
    assert main(["analyze", "--form", str(form_path)]) == EXIT_USAGE
    assert "(0, 0, 2)" in capsys.readouterr().err


_P101 = {"kind": "prime", "p": 101}


@pytest.mark.parametrize(
    "document",
    [
        {"n": 4, "field": _P101, "terms": 5},
        {"n": 4, "field": _P101, "terms": [5]},
        {"n": 4, "field": _P101, "terms": [{"coeff": "1"}]},
        {"n": 4, "field": _P101, "terms": [{"indices": [0, 1, 2]}]},
        {"n": 4, "field": {"kind": "prime", "p": 2},
         "terms": [{"indices": [0, 1, 2], "coeff": "1/2"}]},
        {"n": 4, "field": {"kind": "rational"},
         "terms": [{"indices": [0, 1, 2], "coeff": "1/0"}]},
        {"n": 4, "field": {"kind": "prime"}, "terms": []},
    ],
    ids=["terms-int", "term-int", "no-indices", "no-coeff", "half-mod-2",
         "over-zero", "no-prime"],
)
def test_analyze_ends_a_malformed_form_file_in_a_usage_error(document, tmp_path, capsys):
    # each of these escaped `main` as a TypeError, KeyError or
    # ZeroDivisionError traceback before `form_from_document` checked them
    form_path = tmp_path / "bad.json"
    form_path.write_text(json.dumps(document))
    assert main(["analyze", "--form", str(form_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("triwedge: error: ")


@pytest.mark.parametrize("field", ["p:2", "p:3", "p:5", "p:7", "p:13"])
@pytest.mark.parametrize("name", catalog.list_names())
def test_analyze_answers_on_every_catalog_form_over_small_fields(name, field, tmp_path):
    code, doc = run_json(
        tmp_path, ["analyze", "--form", f"catalog:{name}", "--field", field]
    )
    assert code == EXIT_PASS
    assert doc["form"] == f"catalog:{name}"


def test_analyze_rejects_rational_field(capsys):
    assert main(["analyze", "--form", "catalog:n5", "--field", "q"]) == EXIT_USAGE
    assert "prime" in capsys.readouterr().err


def test_analyze_rejects_field_mismatch_with_file(tmp_path, capsys):
    form_path = tmp_path / "form.json"
    main(["random-form", "--n", "5", "--field", "p:101", "--out", str(form_path)])
    code = main(["analyze", "--form", str(form_path), "--field", "p:7"])
    assert code == EXIT_USAGE
    assert "carry their own field" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_analyze_rejects_samples_below_one(samples, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_analyze_document", _refuse)
    assert main(["analyze", "--form", "catalog:n5", "--samples", samples]) == EXIT_USAGE
    assert "--samples must be at least 1" in capsys.readouterr().err


# -- tables ---------------------------------------------------------------------------


def test_tables_rows_and_parity_columns(tmp_path):
    code, doc = run_json(tmp_path, ["tables", "--n-max", "9"])
    assert code == EXIT_PASS
    assert doc["schema"] == "triwedge-tables/1"
    rows = {row["n"]: row for row in doc["rows"]}
    assert sorted(rows) == list(range(3, 10))
    assert rows[9]["degX"] == 622
    assert rows[9]["degY"] == 808
    assert rows[9]["degG"] == 4
    assert rows[5]["multidegree_X"] == [1, 1, 1]
    assert rows[5]["degF"] == 2
    assert rows[6]["degG0"] == 4 and rows[6]["degG0_meet_plane"] == 2
    assert "degG" not in rows[6] and "degG0" not in rows[5]


def test_tables_minimum_size(tmp_path):
    code, doc = run_json(tmp_path, ["tables", "--n-max", "3"])
    assert code == EXIT_PASS
    assert [row["n"] for row in doc["rows"]] == [3]


def test_tables_csv_format(tmp_path):
    out = tmp_path / "tables.csv"
    assert main(["tables", "--n-max", "4", "--format", "csv",
                 "--out", str(out)]) == EXIT_PASS
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,multidegree_X,multidegree_B,multidegree_Y,degX")
    assert lines[1].startswith("3,1 0,1 1,0 1,1,2,1,1")
    assert len(lines) == 3


def test_tables_rejects_small_n_max(capsys):
    assert main(["tables", "--n-max", "2"]) == EXIT_USAGE
    assert "at least 3" in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("the size check must come before any work")


def test_tables_rejects_n_max_above_the_limit_before_building(capsys, monkeypatch):
    monkeypatch.setattr(cli, "tables_rows", _refuse)
    assert main(["tables", "--n-max", str(TABLES_N_MAX + 1)]) == EXIT_USAGE
    assert f"at most {TABLES_N_MAX}" in capsys.readouterr().err


def test_tables_accepts_n_max_at_the_limit(tmp_path, monkeypatch):
    asked = []
    monkeypatch.setattr(cli, "tables_rows", lambda n_max: asked.append(n_max) or [])
    code, doc = run_json(tmp_path, ["tables", "--n-max", str(TABLES_N_MAX)])
    assert code == EXIT_PASS
    assert asked == [TABLES_N_MAX] and doc["n_max"] == TABLES_N_MAX


def test_tables_rows_at_the_limit_satisfy_the_fine_catalan_identity():
    """C_m = 2 F_m + F_(m-1) links the Fine degrees of X to the Catalan
    degrees of B without the triangle recursion, and smaller tables are
    prefixes of the table at the limit."""
    rows = tables_rows(TABLES_N_MAX)
    assert [row["n"] for row in rows] == list(range(3, TABLES_N_MAX + 1))
    deg_x = {row["n"]: row["degX"] for row in rows}
    for row in rows[1:]:
        n = row["n"]
        catalan = comb(2 * n - 2, n) // (n - 1)
        assert 2 * deg_x[n] + deg_x[n - 1] == row["degB"] == catalan
    for k in (3, 9, 200):
        assert tables_rows(k) == rows[: k - 2]


@pytest.mark.parametrize(
    ("command", "limit"), [("tables", TABLES_N_MAX), ("random-form", RANDOM_FORM_N_MAX)]
)
def test_help_names_the_size_limits(command, limit, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert f"3..{limit}" in capsys.readouterr().out


# -- verify ---------------------------------------------------------------------------


def test_verify_enumerative_passes(tmp_path):
    code, doc = run_json(tmp_path, ["verify", "--suite", "enumerative"])
    assert code == EXIT_PASS
    assert doc["schema"] == "triwedge-report/1"
    assert doc["pass"] is True
    assert doc["status"] == "pass"
    assert len(doc["claims"]) == 10
    assert all(
        claim["source"] in ("published", "computed", "definition")
        for claim in doc["claims"]
    )


def test_verify_secancy_at_alternate_seed(tmp_path):
    code, doc = run_json(tmp_path, ["verify", "--suite", "secancy", "--seed", "42"])
    assert code == EXIT_PASS
    assert doc["seed"] == 42
    by_id = {claim["id"]: claim for claim in doc["claims"]}
    assert by_id["secant-pencil-degrees"]["computed"] == {
        "n5": [2],
        "n7-ozeki": [3],
        "n9-random": [4],
    }


def test_verify_residual_odd_degrees(tmp_path):
    code, doc = run_json(
        tmp_path, ["verify", "--suite", "residual-odd", "--seed", "42"]
    )
    assert code == EXIT_PASS
    (claim,) = doc["claims"]
    assert claim["computed"] == {"n5": 2, "n7-ozeki": 3, "n9-random": 4}
    assert claim["source"] == "published"


def test_verify_report_is_stable_modulo_elapsed(tmp_path):
    _, first = run_json(
        tmp_path, ["verify", "--suite", "rank-laws", "--samples", "5"], "r1.json"
    )
    _, second = run_json(
        tmp_path, ["verify", "--suite", "rank-laws", "--samples", "5"], "r2.json"
    )
    first.pop("elapsed")
    second.pop("elapsed")
    assert first == second


def test_verify_csv_report(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["verify", "--suite", "quadric-count", "--format", "csv",
                 "--out", str(out)])
    assert code == EXIT_PASS
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,status,source,expected,computed,anchor"
    assert len(lines) == 3


def test_verify_prints_summary_when_writing_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["verify", "--suite", "enumerative", "--out", str(out)])
    assert "suite enumerative: 10 pass, 0 fail, 0 inconclusive" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("field", ["q", "p:2", "p:3", "p:5", "p:7", "p:13"])
@pytest.mark.parametrize(
    "suite",
    ["span-lattice", "residual-membership", "rank-laws", "order-law", "conventions"],
)
def test_verify_ends_in_an_answer_or_a_package_error_over_every_field(
    suite, field, seed, capsys
):
    # 0 pass, 2 inconclusive, 3 ConventionError; 1 would be a failed claim,
    # and any other exception escapes main
    argv = ["verify", "--suite", suite, "--field", field, "--seed", str(seed)]
    if suite in ("rank-laws", "order-law", "conventions"):
        argv += ["--samples", "20"]
    assert main(argv + ["--format", "json"]) in (0, 2, 3)
    capsys.readouterr()


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == EXIT_USAGE
    assert "known suites" in capsys.readouterr().err


@pytest.mark.parametrize("suite, samples", [("rank-laws", "0"), ("conventions", "-3")])
def test_verify_rejects_samples_below_one(suite, samples, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _refuse)
    assert main(["verify", "--suite", suite, "--samples", samples]) == EXIT_USAGE
    assert "--samples must be at least 1" in capsys.readouterr().err


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ConventionError, match="unknown suite 'nope'.*residual-odd"):
        run_suite("nope", RunConfig())


def test_verify_rejects_field_override_on_fixed_suite(capsys):
    code = main(["verify", "--suite", "stratification", "--field", "p:7"])
    assert code == EXIT_USAGE
    assert "fixed fields" in capsys.readouterr().err


def _report_without_elapsed(path) -> bytes:
    return b"".join(
        line
        for line in path.read_bytes().splitlines(keepends=True)
        if not line.lstrip().startswith(b'"elapsed":')
    )


@pytest.mark.parametrize("suite", ["quadric-count", "form-recovery"])
def test_verify_accepts_the_single_field_of_a_fixed_suite(tmp_path, suite):
    named = tmp_path / "named.json"
    plain = tmp_path / "plain.json"
    argv = ["verify", "--suite", suite, "--format", "json"]
    assert main([*argv, "--field", "q", "--out", str(named)]) == EXIT_PASS
    assert main([*argv, "--out", str(plain)]) == EXIT_PASS
    assert _report_without_elapsed(named) == _report_without_elapsed(plain)


@pytest.mark.parametrize(
    "suite, field",
    [
        ("quadric-count", "p:101"),
        ("degeneracy-degree", "p:101"),
        # one of several fixed fields is not the suite's field
        ("residual-odd", "p:101"),
        ("enumerative", "q"),
    ],
)
def test_verify_rejects_any_other_field_on_a_fixed_suite(suite, field, capsys):
    assert main(["verify", "--suite", suite, "--field", field]) == EXIT_USAGE
    assert "fixed fields" in capsys.readouterr().err


def test_verify_field_override_on_generic_suite(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["verify", "--suite", "rank-laws", "--field", "p:211", "--samples", "4"],
    )
    assert code == EXIT_PASS
    assert doc["field"] == "p:211"


def test_conventions_suite_runs_over_the_rationals():
    report = run_suite("conventions", RunConfig(field=FieldSpec.rationals(), samples=20))
    assert report.field == "q"
    assert [claim.status for claim in report.claims] == ["pass"] * 5


def test_conventions_suite_refuses_characteristic_two(capsys):
    code = main(["verify", "--suite", "conventions", "--field", "p:2"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "characteristic other than 2" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_suite_registry_matches_runner():
    cfg = RunConfig(samples=2)
    report = run_suite("span-lattice", cfg)
    assert report.suite == "span-lattice"
    assert report.passed
    assert set(SUITES) >= {
        "enumerative",
        "chern-strata",
        "rank-laws",
        "order-law",
        "span-lattice",
        "quadric-count",
        "form-recovery",
        "degeneracy-degree",
        "stratification",
        "secancy",
        "section-split",
        "residual-membership",
        "residual-odd",
        "residual-even",
        "residual-singular",
        "residual",
        "conventions",
    }


def test_report_exit_codes_follow_claim_statuses():
    ok = Claim("a", "anchor", 1, "published", 1, "pass")
    bad = Claim("b", "anchor", 1, "published", 2, "fail")
    maybe = Claim("c", "anchor", 1, "published", "budget", "inconclusive")

    def report(*claims):
        return VerificationReport("demo", claims, 0, "q", 0.0)

    assert report(ok).exit_code == EXIT_PASS
    assert report(ok, maybe).exit_code == EXIT_INCONCLUSIVE
    assert report(ok, maybe, bad).exit_code == EXIT_FAIL
    assert report(ok, maybe, bad).to_document()["status"] == "fail"
    with pytest.raises(ConventionError, match="unknown claim status"):
        Claim("d", "anchor", 1, "published", 1, "maybe")
    with pytest.raises(ConventionError, match="unknown claim source"):
        Claim("e", "anchor", 1, "rumor", 1, "pass")
    for source in catalog.SOURCES:
        assert Claim("f", "anchor", 1, source, 1, "pass").source == source


def test_a_non_generic_suite_becomes_one_inconclusive_claim(tmp_path, monkeypatch):
    def non_generic(cfg):
        raise NonGenericFormError("could not find three usable lines")

    registry = {
        "enumerative": SUITES["enumerative"],
        "stub": SuiteSpec(non_generic, "none", False, "always raises"),
        "chern-strata": SUITES["chern-strata"],
    }
    cfg = RunConfig()
    others = [run_suite(name, cfg).claims for name in ("enumerative", "chern-strata")]
    monkeypatch.setattr(suites, "SUITES", registry)

    report = run_suite("all", cfg)
    stub_claim = Claim(
        "suite-stub",
        "suite stub runs to completion on generic inputs",
        "completed",
        "definition",
        "stub: could not find three usable lines",
        "inconclusive",
    )
    assert report.claims == others[0] + (stub_claim,) + others[1]
    assert report.exit_code == EXIT_INCONCLUSIVE
    assert run_suite("stub", cfg).claims == (stub_claim,)

    code, doc = run_json(tmp_path, ["verify", "--suite", "all"])
    assert code == EXIT_INCONCLUSIVE
    assert doc["status"] == "inconclusive"
    assert [claim["id"] for claim in doc["claims"]] == [claim.id for claim in report.claims]


# -- random-form ----------------------------------------------------------------------


def test_random_form_round_trips_and_is_deterministic(tmp_path):
    first = tmp_path / "f1.json"
    second = tmp_path / "f2.json"
    for path in (first, second):
        assert main(["random-form", "--n", "6", "--field", "p:101", "--seed", "9",
                     "--out", str(path)]) == EXIT_PASS
    assert first.read_text() == second.read_text()
    omega = form_from_document(json.loads(first.read_text()))
    assert omega.ctx.n == 6
    assert omega.ctx.field == FieldSpec.prime(101)


def test_random_forms_are_generically_full_rank():
    from triwedge.exterior_core import SpaceContext, random_tensor

    ctx = SpaceContext(9, FieldSpec.prime(101))
    ranks = [j_rank(random_tensor(ctx, 3, "form", seed), 1) for seed in range(100)]
    assert ranks.count(10) == 100


def test_random_form_defaults_to_rationals(tmp_path):
    out = tmp_path / "form.json"
    assert main(["random-form", "--n", "5", "--out", str(out)]) == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["field"] == {"kind": "rational"}


def test_random_form_rejects_tiny_n(capsys):
    assert main(["random-form", "--n", "2"]) == EXIT_USAGE
    assert "projective dimension" in capsys.readouterr().err


def test_random_form_rejects_n_above_the_limit_before_building(capsys, monkeypatch):
    monkeypatch.setattr(cli, "random_tensor", _refuse)
    assert main(["random-form", "--n", str(RANDOM_FORM_N_MAX + 1)]) == EXIT_USAGE
    assert f"at most {RANDOM_FORM_N_MAX}" in capsys.readouterr().err


def test_random_form_accepts_n_at_the_limit(tmp_path):
    code, doc = run_json(
        tmp_path, ["random-form", "--n", str(RANDOM_FORM_N_MAX), "--field", "p:101"]
    )
    assert code == EXIT_PASS
    assert doc["n"] == RANDOM_FORM_N_MAX
    assert form_from_document(doc).ctx.n == RANDOM_FORM_N_MAX


# -- process-level behavior -------------------------------------------------------------


def test_missing_subcommand_arguments_exit_with_usage_code():
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == EXIT_USAGE


def test_suites_listing(capsys):
    assert main(["suites"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "residual-singular" in out
    assert "all" in out


def test_cli_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "triwedge.cli", "tables", "--n-max", "4"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_PASS
    doc = json.loads(proc.stdout)
    assert doc["rows"][1]["degB"] == 5
    bad = subprocess.run(
        [sys.executable, "-m", "triwedge.cli", "verify", "--suite", "nope"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert bad.returncode == EXIT_USAGE
