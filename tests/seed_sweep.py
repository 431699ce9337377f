"""Every non-passing claim and every skipped analysis section over a range of seeds.

    PYTHONPATH=src python3 tests/seed_sweep.py

The sweep runs ``triwedge verify --suite all --seed S`` at the seeds in
``VERIFY_SEEDS``, and ``triwedge analyze --form catalog:NAME --seed S`` on
every catalog form at the input seeds in ``ANALYZE_SEEDS`` (the benchmark's
``analyze`` seeds).  At each of those seeds it also analyses the random
forms ``random:n4`` to ``random:n9`` over F_101 that the benchmark's
``analyze`` workload adds: ``random_tensor(SpaceContext(n, F_101), 3,
"form", S)``, with the analysis document of ``triwedge analyze`` at its
default of 200 samples.  It prints one line per claim whose status is not
``pass``, per analysis section that reports ``skipped``, and per run that
raised or printed no document, then a count of each.  It reports and does
not judge, so it exits 0 whatever it finds; a known failure, such as a line
restriction that loses its root at infinity, shows up here as an
inconclusive claim or a skipped ``drop_locus_degree``.  It is not part of
Tier-1: the full sweep took 3 min 10 s on a 2-vCPU VM.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from triwedge import catalog, cli
from triwedge.exact_scalar import FieldSpec
from triwedge.exterior_core import SpaceContext, random_tensor

VERIFY_SEEDS = range(30)
ANALYZE_SEEDS = range(32)
RANDOM_FIELD = FieldSpec.prime(101)
RANDOM_N = range(4, 10)
RANDOM_SAMPLES = 200


def run(argv: list[str]) -> tuple[dict | None, str]:
    """The JSON document that ``triwedge <argv>`` prints, or None, and a note
    on how the run ended when it printed none."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a traceback in the command line tool
        return None, f"raised {type(exc).__name__}: {exc}"
    if not out.getvalue():
        return None, f"exit {code}: {err.getvalue().strip()}"
    return json.loads(out.getvalue()), ""


def verify_findings(seed: int) -> list[str]:
    doc, note = run(["verify", "--suite", "all", "--seed", str(seed), "--format", "json"])
    if doc is None:
        return [f"verify seed {seed}: {note}"]
    return [
        f"verify seed {seed}: {claim['id']} {claim['status']}: "
        f"expected {claim['expected']!r}, computed {claim['computed']!r}"
        for claim in doc["claims"]
        if claim["status"] != "pass"
    ]


def random_analysis(n: int, seed: int) -> tuple[dict | None, str]:
    """The analysis document of ``random:n<n>`` at input seed ``seed``, or
    None and the exception it raised."""
    omega = random_tensor(SpaceContext(n, RANDOM_FIELD), 3, "form", seed)
    try:
        return cli._analyze_document(omega, f"random:n{n}", seed, RANDOM_SAMPLES), ""
    except Exception as exc:
        return None, f"raised {type(exc).__name__}: {exc}"


def analyze_findings(label: str, seed: int, doc: dict | None, note: str) -> list[str]:
    if doc is None:
        return [f"analyze {label} seed {seed}: {note}"]
    return [
        f"analyze {label} seed {seed}: {key} skipped: {value['skipped']}"
        for key, value in doc.items()
        if isinstance(value, dict) and "skipped" in value
    ]


def main() -> int:
    counts = {"verify": 0, "analyze": 0}
    for seed in VERIFY_SEEDS:
        for line in verify_findings(seed):
            counts["verify"] += 1
            print(line, flush=True)
    for seed in ANALYZE_SEEDS:
        runs = [
            (name, run(["analyze", "--form", f"catalog:{name}", "--seed", str(seed)]))
            for name in catalog.list_names()
        ]
        runs += [(f"random:n{n}", random_analysis(n, seed)) for n in RANDOM_N]
        for label, (doc, note) in runs:
            for line in analyze_findings(label, seed, doc, note):
                counts["analyze"] += 1
                print(line, flush=True)
    print(
        f"{counts['verify']} verify findings at seeds {VERIFY_SEEDS.start}-"
        f"{VERIFY_SEEDS.stop - 1}, {counts['analyze']} analyze findings at input "
        f"seeds {ANALYZE_SEEDS.start}-{ANALYZE_SEEDS.stop - 1}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
