"""The benchmark's workloads: inputs made from the seed, one pass, and the
checks on every output of that pass.

Each workload is a closed loop with one client in one process: the next
operation starts only after the previous one returns.  An operation is one
claim of a suite, one analysed form or one table.  It fails if an output is
wrong, if it raises, or if it is inconclusive: a claim with status
``inconclusive``, an analysis section skipped where the catalog records a
value, or a ``NonGenericFormError`` escaping the package.  Only wrong outputs
and other exceptions make the run's outputs incorrect.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from triwedge import catalog, cli
from triwedge.degeneracy import NonGenericFormError
from triwedge.enumerative import tables_rows
from triwedge.exact_scalar import FieldSpec
from triwedge.exterior_core import SpaceContext, random_tensor

RECORDED = Path(__file__).with_name("recorded.json")

SUITE_PARTS = tuple(name for name in cli.SUITES if name != "residual")
# residual-singular costs 0.2 s to 11 s depending on the seed (seeds 0..25),
# enough to swamp the other 15 parts (~17 s); it runs at the ``verify``
# default seed so that the suites pass time stays comparable across seeds.
FIXED_SEED_PARTS = {"residual-singular": 0}

# ``conventions`` also honors the field but crashes over Q (see NOTES.md).
RATIONAL_PARTS = ("rank-laws", "span-lattice", "quadric-count", "form-recovery")

ANALYZE_FIELD = FieldSpec.prime(101)
ANALYZE_SAMPLES = 200
ANALYZE_RANDOM_N = range(4, 10)
# Analysis documents are recorded for these many input seeds; a workload seed
# s analyses with input seed s % ANALYZE_SEEDS.
ANALYZE_SEEDS = 32

# Analysis field -> catalog expectation key, compared wherever the key exists.
EXPECTED_PAIRS = (
    (("order",), "order"),
    (("rank",), "rank"),
    (("matrix_rank", "generic"), "generic_m_rank"),
    (("drop_locus_degree",), "degF"),
    (("secant_index",), "secant_degree"),
    (("genericity", "wedge_map_injective"), "gc1"),
    (("genericity", "contraction_full_rank"), "gc2"),
)

TABLES_N_MAX = 200
# Published values for n = 3..9 and n = 5, 7, 9.
PUBLISHED_DEG_X = (1, 2, 6, 18, 57, 186, 622)
PUBLISHED_DEG_Y = (1, 3, 8, 24, 75, 243, 808)
PUBLISHED_MULTIDEGREE_X = {5: [1, 1, 1], 7: [1, 2, 4, 2], 9: [1, 3, 9, 12, 6]}
PUBLISHED_MULTIDEGREE_Y = {5: [0, 2, 1], 7: [0, 3, 5, 3], 9: [0, 4, 11, 16, 8]}


class Untraced:
    """Stand-in for the tracer: opens no spans."""

    def operation(self, label: str):
        return nullcontext()

    span = operation


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, *, inconclusive: bool = False, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += inconclusive or wrong
        self.wrong += wrong

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


def _raised(tally: Tally, label: str, exc: Exception) -> None:
    """Count an operation that raised.  NonGenericFormError is the package's
    inconclusive outcome (a sampling budget ran out); anything else is wrong."""
    sys.stderr.write(f"operation {label} raised:\n{traceback.format_exc()}")
    inconclusive = isinstance(exc, NonGenericFormError)
    tally.add(inconclusive=inconclusive, wrong=not inconclusive)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_recorded() -> dict:
    return json.loads(RECORDED.read_text())


# -- suites and rational -----------------------------------------------------


def _suites_inputs(seed: int) -> list[tuple[str, cli.RunConfig]]:
    return [
        (name, cli.RunConfig(seed=FIXED_SEED_PARTS.get(name, seed)))
        for name in SUITE_PARTS
    ]


def _rational_inputs(seed: int) -> list[tuple[str, cli.RunConfig]]:
    """Every part over Q: the field is passed where the suite honors it."""
    rationals = FieldSpec.rationals()
    inputs = []
    for name in RATIONAL_PARTS:
        field = rationals if cli.SUITES[name].honors_field else None
        inputs.append((name, cli.RunConfig(seed=seed, field=field)))
    return inputs


def _run_suites(inputs, trace) -> Tally:
    tally = Tally()
    for name, cfg in inputs:
        with trace.operation(f"suite:{name}"), trace.span(f"cli.run_suite.{name}"):
            try:
                report = cli.run_suite(name, cfg)
            except Exception as exc:
                _raised(tally, f"suite {name}", exc)
                continue
        for claim in report.claims:
            if claim.status != cli.PASS:
                sys.stderr.write(f"suite {name}: claim {claim.id} is {claim.status}\n")
            tally.add(
                inconclusive=claim.status == cli.INCONCLUSIVE,
                wrong=claim.status == cli.FAIL,
            )
    return tally


# -- analyze -----------------------------------------------------------------


@dataclass(frozen=True)
class AnalyzeInput:
    label: str
    omega: object
    expected: dict
    digest: str


def analyze_forms(input_seed: int) -> list[tuple[str, object, dict]]:
    """(label, form, catalog expectations) for every analysed form."""
    forms = []
    for name in catalog.list_names():
        omega, entry = catalog.get(name, field=ANALYZE_FIELD)
        expected = {key: claim.value for key, claim in entry.expected.items()}
        forms.append((f"catalog:{name}", omega, expected))
    for n in ANALYZE_RANDOM_N:
        ctx = SpaceContext(n, ANALYZE_FIELD)
        forms.append((f"random:n{n}", random_tensor(ctx, 3, "form", input_seed), {}))
    return forms


def _analyze_inputs(seed: int) -> tuple[int, list[AnalyzeInput]]:
    input_seed = seed % ANALYZE_SEEDS
    digests = load_recorded()["analyze"][str(input_seed)]
    return input_seed, [
        AnalyzeInput(label, omega, expected, digests[label])
        for label, omega, expected in analyze_forms(input_seed)
    ]


def analysis_text(omega, label: str, seed: int) -> str:
    """The analysis document exactly as ``triwedge analyze`` prints it."""
    doc = cli._analyze_document(omega, label, seed, ANALYZE_SAMPLES)
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def expectation_mismatches(text: str, expected: dict) -> tuple[list[str], list[str]]:
    """(skipped, wrong): analysis fields that disagree with the catalog, split
    by whether the analysis skipped the section (or its parent) or reported
    another value."""
    doc = json.loads(text)
    skipped, wrong = [], []
    for path, key in EXPECTED_PAIRS:
        if key not in expected:
            continue
        value = doc
        for part in path:
            if isinstance(value, dict) and "skipped" in value:
                break
            value = value.get(part) if isinstance(value, dict) else None
        if value != expected[key]:
            note = f"{'.'.join(path)}={value!r} expected {key}={expected[key]!r}"
            is_skip = isinstance(value, dict) and "skipped" in value
            (skipped if is_skip else wrong).append(note)
    return skipped, wrong


def _run_analyze(inputs, trace) -> Tally:
    input_seed, forms = inputs
    tally = Tally()
    for form in forms:
        with trace.operation(f"form:{form.label}"), trace.span("cli.analyze"):
            try:
                text = analysis_text(form.omega, form.label, input_seed)
            except Exception as exc:
                _raised(tally, f"analyze {form.label}", exc)
                continue
        skipped, wrong = expectation_mismatches(text, form.expected)
        if sha256(text) != form.digest:
            wrong.append("document differs from the recorded one")
        for problem in skipped + wrong:
            sys.stderr.write(f"analyze {form.label} seed {input_seed}: {problem}\n")
        tally.add(inconclusive=bool(skipped), wrong=bool(wrong))
    return tally


# -- tables ------------------------------------------------------------------


def rows_digest(rows: list[dict]) -> str:
    return sha256(json.dumps(rows, sort_keys=True))


def table_problems(rows: list[dict], digest: str) -> list[str]:
    by_n = {row["n"]: row for row in rows}
    problems = []
    for offset, (deg_x, deg_y) in enumerate(zip(PUBLISHED_DEG_X, PUBLISHED_DEG_Y)):
        row = by_n[3 + offset]
        if (row["degX"], row["degY"]) != (deg_x, deg_y):
            problems.append(f"n={row['n']}: degX/degY differ from the published values")
    for n, values in PUBLISHED_MULTIDEGREE_X.items():
        if by_n[n]["multidegree_X"] != values:
            problems.append(f"n={n}: multidegree_X differs from the published values")
    for n, values in PUBLISHED_MULTIDEGREE_Y.items():
        if by_n[n]["multidegree_Y"] != values:
            problems.append(f"n={n}: multidegree_Y differs from the published values")
    if rows_digest(rows) != digest:
        problems.append("rows differ from the recorded table")
    return problems


def _tables_inputs(seed: int) -> tuple[int, str]:
    return TABLES_N_MAX, load_recorded()["tables"][str(TABLES_N_MAX)]


def _run_tables(inputs, trace) -> Tally:
    n_max, digest = inputs
    tally = Tally()
    with trace.operation(f"table:{n_max}"):
        try:
            problems = table_problems(tables_rows(n_max), digest)
        except Exception as exc:
            _raised(tally, f"tables {n_max}", exc)
            return tally
    for problem in problems:
        sys.stderr.write(f"tables {n_max}: {problem}\n")
    tally.add(wrong=bool(problems))
    return tally


@dataclass(frozen=True)
class Workload:
    prepare: object
    run_pass: object


WORKLOADS = {
    "suites": Workload(_suites_inputs, _run_suites),
    "analyze": Workload(_analyze_inputs, _run_analyze),
    "rational": Workload(_rational_inputs, _run_suites),
    "tables": Workload(_tables_inputs, _run_tables),
}
