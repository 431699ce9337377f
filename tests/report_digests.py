"""SHA-256 digests of verification reports.

    PYTHONPATH=src python3 tests/report_digests.py           # check, exit 1 on a change
    PYTHONPATH=src python3 tests/report_digests.py --record  # rewrite the digest files

Each report is the standard output of ``triwedge verify --suite <suite>
--seed <seed> --format json`` at the seeds in ``SEEDS`` (and, for
``residual-singular``, in ``RESIDUAL_SINGULAR_SEEDS``), or of ``triwedge
analyze --form catalog:<name> --field <field> --seed <seed>`` for the runs
in ``ANALYZE_RUNS``.  Four files hold the digests:

* ``data/rational_report_digests.json``: the suites in ``SUITES`` over the
  rationals.  ``rank-laws``, ``span-lattice`` and ``conventions`` take
  ``--field q``; ``quadric-count`` and ``form-recovery`` run over the
  rationals only, and their recorded commands leave the option out.
  ``conventions`` over the rationals checks pf² = det, `evaluate` and
  `directions_through`, so these digests also cover the rational `det`
  and `pfaffian`.
* ``data/prime_field_report_digests.json``: ``--suite all`` at its default
  fields, which are prime fields for every suite but ``quadric-count`` and
  ``form-recovery``, and ``conventions`` over F_3.  A third of the F_3
  coefficients of a random tensor are zero, so the F_3 runs pin how
  `random_tensor` drops them, and many operands of the exterior kernels
  there take their sparse loops.  ``conventions`` over F_(2**61 - 1) at
  seed 0 pins the dense kernels on full-size residues, whose products
  and sums run far past a machine word.  ``residual-membership`` at seed 0
  over F_5, F_127 and F_131 pins its sampled lines and line-system kernel
  dimensions at the low end of the range 5 <= p <= 127 in which the point
  streams take byte lanes, and on either side of its upper bound.
* ``data/analyze_report_digests.json``: ``analyze`` on the catalog forms,
  fields and seeds in ``ANALYZE_RUNS``.  They cover the branches of the
  pointwise rank search and of the rank sampling that the benchmark's
  F_101 analyses miss: complete exhaustive scans (``n6-g2`` over F_2),
  exhaustive scans that stop at a witness (F_3), a small field (F_5), and
  sampled search with the rank sampling and `order` over F_1009, F_9973
  and F_32003.  The two runs over F_9973, the largest prime below 10,000,
  for even n (``n6-g2``) and odd n (``n7-ozeki``), were recorded while the
  rank sampling still searched the drop locus by root scans up to that
  bound; they show that dropping the search left the reports unchanged.
  The two runs over F_(2**61 - 1) cover wide packed slots in the line-node
  sub-Pfaffians: ``n6-g2`` (even n) reaches them through the degree of the
  drop locus, ``n7-ozeki`` (odd n) through the secant pencil.  The runs
  over F_7 and F_5 are complete exhaustive scans with no witness, of all
  960,800 points of P^7(F_7) (``n7-ozeki``) and all 488,281 points of
  P^8(F_5) (``n8-family``): every point passes the 4x4 Pfaffian test and
  the projective enumeration end to end.  The runs over F_251 and F_257 sit on
  either side of the 8-bit bound at which `randbelow_many` changes how it
  draws its words: 251 has 8 bits, 257 has 9, so the sampled points of
  ``n6-g2`` and ``n7-ozeki`` there pin both ways of drawing them.  The
  runs over F_127 and F_131 sit on either side of the bound 2·(p − 1) ≤ 255
  up to which `point_ranks` ranks a block of points at once on byte lanes:
  the sampled ranks of ``n6-g2`` and ``n7-ozeki`` are taken on lanes over
  F_127 and point by point over F_131.  The runs over F_11 and F_37 take
  the sampled pointwise rank search at the low end of that lane range,
  where the runs over F_5 and F_7 are exhaustive scans: ``n6-g2`` over
  F_11 examines all 10,000 samples and finds no witness, ``n4`` over F_37
  finds one at sample 17.
* ``data/residual_singular_report_digests.json``: ``residual-singular`` at
  its default field, at the seeds in ``RESIDUAL_SINGULAR_SEEDS``.  The
  ``--suite all`` runs reach it only at seeds 0 and 7, so with these the
  suite is pinned at every seed from 0 to 15.  Its search for a singular
  point draws its anchors differently at every seed; seed 10 reaches the
  most planes.

The digest covers the output bytes without the ``"elapsed"`` line, the one
wall-clock value in a report.  Each file holds each command line with its
digest, so a check runs exactly the recorded commands.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).with_name("data")
SUITES = {
    "rank-laws": True,
    "span-lattice": True,
    "quadric-count": False,
    "form-recovery": False,
    "conventions": True,
}
SEEDS = (0, 7)
RESIDUAL_SINGULAR_SEEDS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15)
CONVENTIONS_WIDE_PRIMES = (2305843009213693951,)
RESIDUAL_MEMBERSHIP_PRIMES = (5, 127, 131)
ANALYZE_RUNS = (
    ("n6-g2", "p:2", 0),
    ("n4", "p:3", 0),
    ("genN-mod3", "p:3", 7),
    ("n5", "p:5", 0),
    ("n7-ozeki", "p:1009", 7),
    ("n8-family", "p:1009", 0),
    ("n6-g2", "p:9973", 0),
    ("n7-ozeki", "p:9973", 0),
    ("n6-g2", "p:32003", 0),
    ("n6-g2", "p:2305843009213693951", 0),
    ("n7-ozeki", "p:2305843009213693951", 0),
    ("n7-ozeki", "p:7", 0),
    ("n8-family", "p:5", 0),
    ("n6-g2", "p:251", 0),
    ("n7-ozeki", "p:257", 0),
    ("n6-g2", "p:127", 0),
    ("n7-ozeki", "p:127", 0),
    ("n6-g2", "p:131", 0),
    ("n7-ozeki", "p:131", 0),
    ("n6-g2", "p:11", 0),
    ("n4", "p:37", 0),
)


def rational_commands() -> list[list[str]]:
    """The ``verify`` argument lists over the rationals, suites in order,
    then seeds."""
    out = []
    for suite, takes_field in SUITES.items():
        for seed in SEEDS:
            field = ["--field", "q"] if takes_field else []
            out.append(
                ["verify", "--suite", suite, *field, "--seed", str(seed), "--format", "json"]
            )
    return out


def prime_field_commands() -> list[list[str]]:
    """The ``verify --suite all`` argument lists, one per seed, then the
    ``conventions`` runs over F_3, one per seed, then the ``conventions``
    runs at seed 0 over the primes of ``CONVENTIONS_WIDE_PRIMES``, then the
    ``residual-membership`` runs at seed 0 over the primes of
    ``RESIDUAL_MEMBERSHIP_PRIMES``."""
    return [
        ["verify", "--suite", "all", "--seed", str(seed), "--format", "json"]
        for seed in SEEDS
    ] + [
        ["verify", "--suite", "conventions", "--field", "p:3", "--seed", str(seed),
         "--format", "json"]
        for seed in SEEDS
    ] + [
        ["verify", "--suite", "conventions", "--field", f"p:{prime}", "--seed", "0",
         "--format", "json"]
        for prime in CONVENTIONS_WIDE_PRIMES
    ] + [
        ["verify", "--suite", "residual-membership", "--field", f"p:{prime}", "--seed", "0",
         "--format", "json"]
        for prime in RESIDUAL_MEMBERSHIP_PRIMES
    ]


def analyze_commands() -> list[list[str]]:
    """The ``analyze`` argument lists, one per entry of ``ANALYZE_RUNS``."""
    return [
        ["analyze", "--form", f"catalog:{name}", "--field", field, "--seed", str(seed)]
        for name, field, seed in ANALYZE_RUNS
    ]


def residual_singular_commands() -> list[list[str]]:
    """The ``verify --suite residual-singular`` argument lists, one per seed
    of ``RESIDUAL_SINGULAR_SEEDS``."""
    return [
        ["verify", "--suite", "residual-singular", "--seed", str(seed), "--format", "json"]
        for seed in RESIDUAL_SINGULAR_SEEDS
    ]


DIGEST_FILES = {
    DATA / "rational_report_digests.json": rational_commands,
    DATA / "prime_field_report_digests.json": prime_field_commands,
    DATA / "analyze_report_digests.json": analyze_commands,
    DATA / "residual_singular_report_digests.json": residual_singular_commands,
}


def digest(argv: list[str]) -> str:
    """SHA-256 of the report that ``triwedge <argv>`` prints, without its
    ``"elapsed"`` line."""
    run = subprocess.run(
        [sys.executable, "-m", "triwedge.cli", *argv],
        capture_output=True,
        check=False,
    )
    if not run.stdout:
        sys.exit(f"triwedge {' '.join(argv)} printed no report:\n{run.stderr.decode()}")
    kept = [
        line
        for line in run.stdout.splitlines(keepends=True)
        if not line.lstrip().startswith(b'"elapsed":')
    ]
    return hashlib.sha256(b"".join(kept)).hexdigest()


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        DATA.mkdir(exist_ok=True)
        for path, commands in DIGEST_FILES.items():
            reports = [{"argv": args, "sha256": digest(args)} for args in commands()]
            path.write_text(json.dumps({"reports": reports}, indent=2) + "\n")
            print(f"recorded {len(reports)} digests in {path}")
        return 0
    if argv:
        sys.exit(__doc__)
    changed = 0
    for path in DIGEST_FILES:
        for report in json.loads(path.read_text())["reports"]:
            got = digest(report["argv"])
            same = got == report["sha256"]
            changed += not same
            print(("same   " if same else "CHANGED"), " ".join(report["argv"]))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
