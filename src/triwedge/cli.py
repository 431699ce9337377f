"""Command-line surface: form analysis, integer tables, verification suites,
and random form files.

Commands (each deterministic given its inputs and seed):

* ``triwedge analyze --form catalog:n5`` — contraction rank, genericity
  verdicts, span codimensions, order, skew-matrix rank statistics, and the
  parity-specific degree data (drop-locus degree for even n, secant index
  for odd n) as a JSON document;
* ``triwedge tables --n-max 9`` — the integer tables (multidegrees, family
  degrees, degeneracy- and fundamental-locus degrees) as JSON or CSV;
* ``triwedge verify --suite secancy`` — a named suite of claims (see
  :mod:`triwedge.suites`), each reported with its expected value, source
  marker, computed value, and status; exit code 0 when every claim passes,
  1 on any failure, 2 when nothing failed but some claim was inconclusive
  (a sampling budget ran out), 3 on usage errors;
* ``triwedge suites`` — the suite names, each with its fields and a
  one-line description;
* ``triwedge random-form --n 7 --seed 3`` — seeded random form documents
  that round-trip through the document format of the core module.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from pathlib import Path

from . import catalog
from .congruence import order, sample_line_on_X
from .degeneracy import NonGenericFormError, hypersurface_degree, secant_pencil, stratify
from .enumerative import tables_rows
from .exact_scalar import ConventionError, FieldSpec
from .exterior_core import (
    AlternatingTensor,
    SpaceContext,
    form_from_document,
    form_to_document,
    random_tensor,
)
from .form_analysis import genericity, span_lattice
from .residual import general_directions
from .suites import (
    EXIT_PASS,
    F101,
    FAIL,
    INCONCLUSIVE,
    PASS,
    SUITES,
    RunConfig,
    field_label,
    run_suite,
)

__all__ = [
    "cmd_analyze",
    "cmd_random_form",
    "cmd_tables",
    "cmd_verify",
    "main",
]

SCHEMA_ANALYSIS = "triwedge-analysis/1"
SCHEMA_TABLES = "triwedge-tables/1"

EXIT_USAGE = 3

# Largest sizes the size-driven commands accept (measured on a 2-vCPU VM:
# `tables --n-max 400` 0.55 s and 66 MB, `random-form --n 60` 0.8 s and 72 MB,
# the form growing as n^3 beyond, the table as n^2 entries of O(n) bits).
TABLES_N_MAX = 400
RANDOM_FORM_N_MAX = 60


# -- analyze -------------------------------------------------------------------------


def _analyze_document(
    omega: AlternatingTensor, label: str, seed: int, samples: int
) -> dict:
    ctx = omega.ctx
    field = ctx.field
    report = genericity(omega, seed=seed)
    doc: dict = {
        "schema": SCHEMA_ANALYSIS,
        "form": label,
        "n": ctx.n,
        "field": field_label(field),
        "seed": seed,
        "samples": samples,
        "rank": report.rank_omega,
    }
    doc["genericity"] = {
        "wedge_map_injective": report.gc1,
        "contraction_full_rank": report.gc2,
        "pointwise_rank_above_two": report.gc3_status,
        "pointwise_samples": report.gc3_samples,
        "pointwise_exhaustive": report.gc3_exhaustive,
    }
    try:
        x, y = general_directions(omega, seed=seed)
        doc["span_codims"] = span_lattice(omega, x, y).codimensions()
    except NonGenericFormError as exc:
        doc["span_codims"] = {"skipped": str(exc)}
    try:
        doc["order"] = order(omega, samples=samples, seed=seed)
    except (ConventionError, NonGenericFormError) as exc:
        doc["order"] = {"skipped": str(exc)}
    try:
        strata = stratify(omega, samples=max(2000, samples), seed=seed)
        doc["matrix_rank"] = {
            "generic": strata.generic_rank,
            "histogram": {str(k): v for k, v in sorted(strata.rank_histogram.items())},
        }
    except (ConventionError, NonGenericFormError) as exc:
        doc["matrix_rank"] = {"skipped": str(exc)}
    if ctx.n % 2 == 0:
        try:
            doc["drop_locus_degree"] = hypersurface_degree(omega, seed=seed)
        except (ConventionError, NonGenericFormError) as exc:
            doc["drop_locus_degree"] = {"skipped": str(exc)}
    else:
        try:
            line = sample_line_on_X(omega, seed=seed)
            doc["secant_index"] = secant_pencil(omega, line).total_degree
        except (ConventionError, NonGenericFormError) as exc:
            doc["secant_index"] = {"skipped": str(exc)}
    return doc


# -- argument handling ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_field(text: str) -> FieldSpec:
    if text == "q":
        return FieldSpec.rationals()
    if text.startswith("p:"):
        try:
            p = int(text[2:])
        except ValueError as exc:
            raise ConventionError(f"bad prime in field spec {text!r}") from exc
        return FieldSpec.prime(p)
    raise ConventionError(f"field must be 'q' or 'p:<prime>', got {text!r}")


def _resolve_form(spec: str, field: FieldSpec | None) -> tuple[AlternatingTensor, str]:
    if spec.startswith("catalog:"):
        name = spec[len("catalog:") :]
        omega, _ = catalog.get(name, field=field or F101)
        return omega, spec
    path = Path(spec)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConventionError(f"cannot read form file {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConventionError(
            f"form file {spec!r} is not valid JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    omega = form_from_document(doc)
    if field is not None and omega.ctx.field != field:
        raise ConventionError(
            "form files carry their own field; omit --field or pass the "
            "matching one"
        )
    return omega, spec


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _analysis_csv(doc: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["key", "value"])
    for key, value in doc.items():
        writer.writerow(
            [key, value if isinstance(value, (int, str)) else json.dumps(value)]
        )
    return buffer.getvalue()


def _tables_csv(rows: list[dict]) -> str:
    fields = [
        "n",
        "multidegree_X",
        "multidegree_B",
        "multidegree_Y",
        "degX",
        "degB",
        "degY",
        "degF",
        "degG",
        "degG0",
        "degG0_meet_plane",
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(fields)
    for row in rows:
        cells = []
        for key in fields:
            value = row.get(key, "")
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            cells.append(value)
        writer.writerow(cells)
    return buffer.getvalue()


def _require_samples(args: argparse.Namespace) -> None:
    if args.samples is not None and args.samples < 1:
        raise ConventionError(f"--samples must be at least 1, got {args.samples}")


def cmd_analyze(args: argparse.Namespace) -> int:
    _require_samples(args)
    field = _parse_field(args.field) if args.field else None
    omega, label = _resolve_form(args.form, field)
    if omega.ctx.field.kind != "prime":
        raise ConventionError(
            "analysis includes sampled statistics and needs a prime field; "
            "pass --field p:<prime> or supply a prime-field form"
        )
    doc = _analyze_document(omega, label, args.seed, args.samples or 200)
    if args.format == "csv":
        _emit(_analysis_csv(doc), args.out)
    else:
        _emit(json.dumps(doc, indent=2, sort_keys=False), args.out)
    return EXIT_PASS


def cmd_tables(args: argparse.Namespace) -> int:
    if args.n_max < 3:
        raise ConventionError("--n-max must be at least 3")
    if args.n_max > TABLES_N_MAX:
        raise ConventionError(f"--n-max must be at most {TABLES_N_MAX}")
    rows = tables_rows(args.n_max)
    if args.format == "csv":
        _emit(_tables_csv(rows), args.out)
    else:
        _emit(
            json.dumps(
                {"schema": SCHEMA_TABLES, "n_max": args.n_max, "rows": rows},
                indent=2,
            ),
            args.out,
        )
    return EXIT_PASS


def cmd_verify(args: argparse.Namespace) -> int:
    _require_samples(args)
    cfg = RunConfig(
        seed=args.seed,
        samples=args.samples,
        field=_parse_field(args.field) if args.field else None,
    )
    report = run_suite(args.suite, cfg)
    if args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        _emit(json.dumps(report.to_document(), indent=2), args.out)
    if args.out is not None:
        counts = Counter(claim.status for claim in report.claims)
        sys.stdout.write(
            f"suite {report.suite}: {counts[PASS]} pass, {counts[FAIL]} fail, "
            f"{counts[INCONCLUSIVE]} inconclusive ({report.elapsed:.1f}s)\n"
        )
    return report.exit_code


def cmd_random_form(args: argparse.Namespace) -> int:
    if args.n > RANDOM_FORM_N_MAX:
        raise ConventionError(f"--n must be at most {RANDOM_FORM_N_MAX}")
    field = _parse_field(args.field) if args.field else FieldSpec.rationals()
    try:
        ctx = SpaceContext(args.n, field)
    except ValueError as exc:
        raise ConventionError(str(exc)) from exc
    omega = random_tensor(ctx, 3, "form", args.seed)
    _emit(json.dumps(form_to_document(omega), indent=2), args.out)
    return EXIT_PASS


def _build_parser() -> _Parser:
    parser = _Parser(prog="triwedge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, form: bool = False) -> None:
        if form:
            p.add_argument(
                "--form",
                required=True,
                help="form source: a JSON file path or catalog:NAME",
            )
        p.add_argument("--field", help="q or p:<prime>")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--samples", type=int, help="sampling count override")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format"
        )

    analyze = sub.add_parser("analyze", help="invariants of one form")
    common(analyze, form=True)
    analyze.set_defaults(handler=cmd_analyze)

    tables = sub.add_parser("tables", help="integer tables for n = 3..n_max")
    tables.add_argument(
        "--n-max", type=int, required=True, help=f"largest n, 3..{TABLES_N_MAX}"
    )
    tables.add_argument("--out", help="write the table to this path")
    tables.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    tables.set_defaults(handler=cmd_tables)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument(
        "--suite",
        required=True,
        help="suite name or 'all' (see 'triwedge suites')",
    )
    common(verify)
    verify.set_defaults(handler=cmd_verify)

    suites = sub.add_parser("suites", help="list the verification suites")
    suites.set_defaults(handler=_cmd_suites)

    random_form = sub.add_parser("random-form", help="write a seeded random form file")
    random_form.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"projective dimension, 3..{RANDOM_FORM_N_MAX}",
    )
    random_form.add_argument("--field", help="q or p:<prime> (default q)")
    random_form.add_argument("--seed", type=int, default=0)
    random_form.add_argument("--out", help="write the form document to this path")
    random_form.set_defaults(handler=cmd_random_form)

    return parser


def _cmd_suites(args: argparse.Namespace) -> int:
    for name in sorted(SUITES):
        spec = SUITES[name]
        sys.stdout.write(f"{name:22s} [{spec.field_label}] {spec.description}\n")
    sys.stdout.write(f"{'all':22s} [mixed] every suite above\n")
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConventionError, ValueError) as exc:
        sys.stderr.write(f"triwedge: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
