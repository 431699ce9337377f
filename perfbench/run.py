"""Benchmark runner for triwedge: one workload, one seed, one result line.

    python3 perfbench/run.py --workload suites --seed 0 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/``.  The
workloads are described in ``workloads.py`` and ``NOTES.md``.

A run makes a fixed number of whole passes of the workload: ``--seconds``
divided by the workload's nominal pass time (``PASS_SECONDS``, the pass time
when the benchmark was added), rounded down, and at least one.  The count
depends only on ``--seconds``, so the operations attempted and failed at one
seed repeat exactly from run to run and from commit to commit.

With ``--trace 0`` the run times its passes and reports the end-to-end
metrics: ``scaled_wall_s`` (median pass time), ``setup_s`` (median over
several fresh processes of the time from process start until the inputs are
ready), ``peak_rss_mb`` and ``ok_ratio`` (operations that succeeded /
attempted, so ``failed_ratio`` = 1 - ``ok_ratio``).  Both times are scaled
to one reference interpreter speed measured while they run (``speed.py``);
the raw times are printed on the line before the result.

With ``--trace 1`` the run makes as many untraced passes as half its pass
count (at least one), then as many traced ones; the per-layer metrics come
from the traced passes (counts must repeat exactly between them) and the
spans of the first traced pass are written under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
# A set-up process takes ~0.15 s, so it samples its speed more often.
SETUP_INTERVAL_S = 0.005
# Nominal wall time of one untraced pass in seconds (2-vCPU VM, Python 3.11).
PASS_SECONDS = {"suites": 21.0, "analyze": 13.5, "rational": 11.0, "tables": 1.75}


def _import_package() -> None:
    """Import triwedge from this checkout's ``src/``; exit 2 if it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import triwedge
    except ImportError as exc:
        sys.stderr.write(f"cannot import triwedge from {SRC}: {exc}\n")
        sys.exit(2)
    if Path(triwedge.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"triwedge was imported from {triwedge.__file__}, not {SRC}\n")
        sys.exit(2)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("suites", "analyze", "rational", "tables")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that only imports and builds the inputs.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median wall and scaled time of fresh processes that import and build
    the inputs.

    Each process samples its own speed while it imports and builds (see
    ``speed.py``) and prints the scale factor; its wall time, less the time
    in probes, is scaled by that factor.  The processes may write bytecode
    caches, as an installed package has them; one unmeasured process first
    lets the caches fill.  Process ``i`` runs with ``PYTHONHASHSEED=i``:
    start-up time depends on the string hash seed (0.12-0.19 s over random
    seeds on a 2-vCPU VM, 0.153-0.160 s at hash seed 0), so the same seeds in
    every run make the median repeat."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        "1",
        "--setup-probe",
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    walls, scaled = [], []
    for hash_seed in range(SETUP_PROBES + 1):
        env["PYTHONHASHSEED"] = str(hash_seed)
        start = time.perf_counter()
        done = subprocess.run(
            command, check=True, cwd=HERE.parent, env=env, stdout=subprocess.PIPE
        )
        wall = time.perf_counter() - start
        probe = json.loads(done.stdout.splitlines()[-1])
        walls.append(wall)
        scaled.append((wall - probe["probe_s"]) * probe["factor"])
    return statistics.median(walls[1:]), statistics.median(scaled[1:])


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fit in ``seconds`` at the nominal pass time."""
    return max(1, int(seconds // PASS_SECONDS[workload]))


def _timed_pass(workload, inputs, trace, total) -> float:
    begin = time.perf_counter()
    tally = workload.run_pass(inputs, trace)
    wall = time.perf_counter() - begin
    total.absorb(tally)
    return wall


def _load(workload_name: str, seed: int):
    """Import the package and the workloads; build the workload's inputs."""
    _import_package()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    return workloads, workload, workload.prepare(seed)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        sampler = speed.Sampler(SETUP_INTERVAL_S)
        _, wall, scaled = sampler.run(lambda: _load(args.workload, args.seed))
        print(json.dumps({"probe_s": sampler.probe_s, "factor": scaled / wall}))
        return 0
    workloads, workload, inputs = _load(args.workload, args.seed)

    total = workloads.Tally()
    passes = pass_count(args.workload, args.seconds)
    if args.trace == 0:
        setup_wall, setup = _setup_seconds(args.workload, args.seed)
        untraced = workloads.Untraced()
        sampler = speed.Sampler()
        walls, scaled = [], []
        for _ in range(passes):
            tally, wall, scaled_wall = sampler.run(
                lambda: workload.run_pass(inputs, untraced)
            )
            total.absorb(tally)
            walls.append(wall)
            scaled.append(scaled_wall)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ok_ratio = (total.attempted - total.failed) / total.attempted
        metrics = {
            "scaled_wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "ok_ratio": {"value": ok_ratio, "unit": "ratio"},
        }
        print(
            f"{args.workload} seed {args.seed}: {len(walls)} passes, "
            f"scaled_wall_s {statistics.median(scaled):.4f} (passes: "
            + ", ".join(f"{w:.4f}" for w in scaled)
            + f"), wall_s {statistics.median(walls):.4f} (passes: "
            + ", ".join(f"{w:.4f}" for w in walls)
            + f"), setup_s {setup:.4f} (wall {setup_wall:.4f}), "
            f"peak_rss_mb {peak_mb:.1f}, failed_ratio {1 - ok_ratio:.4f} "
            f"({total.failed}/{total.attempted}, {total.wrong} wrong)"
        )
    else:
        from tracer import MODULES, Tracer, metric_specs

        untraced = workloads.Untraced()
        half = max(1, passes // 2)
        plain = [_timed_pass(workload, inputs, untraced, total) for _ in range(half)]
        per_pass, counts, first = [], [], []

        def traced_pass() -> float:
            tracer = Tracer()
            tracer.install()
            try:
                wall = _timed_pass(workload, inputs, tracer, total)
            finally:
                tracer.remove()
            per_pass.append(tracer.metrics())
            counts.append(tracer.count_metrics())
            if not first:
                first.append(tracer)
            return wall

        traced = [traced_pass() for _ in range(half)]
        first[0].write(OUT / f"{args.workload}-seed{args.seed}")
        drift = [k for k in counts[0] if any(c[k] != counts[0][k] for c in counts)]
        if drift:
            sys.stderr.write(f"counts differ between traced passes: {drift}\n")
            total.wrong += 1
        traced_wall = statistics.median(traced)
        values = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        values.update(counts[0])
        values["traced_wall_s"] = traced_wall
        values["tracing_overhead_s"] = traced_wall - statistics.median(plain)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()
        }
        module_self = sum(values[f"{module}.self_s"] for module in MODULES)
        print(
            f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
            f"{len(traced)} traced passes, traced wall_s {traced_wall:.4f}, "
            f"overhead {values['tracing_overhead_s']:.4f} s, summed module "
            f"self_s {module_self:.4f}, {values['trace.spans']} spans"
        )

    result = {
        "correct": total.wrong == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
