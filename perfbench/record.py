"""Record the reference outputs that the benchmark checks byte for byte.

Writes ``recorded.json`` beside this file: the SHA-256 of every analysis
document of the ``analyze`` workload for input seeds 0 .. ANALYZE_SEEDS - 1,
and of the ``tables`` rows.  Run it only on a commit whose outputs are the
reference, from the repository root:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from triwedge.enumerative import tables_rows  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    analyze = {}
    for seed in range(workloads.ANALYZE_SEEDS):
        analyze[str(seed)] = {
            label: workloads.sha256(workloads.analysis_text(omega, label, seed))
            for label, omega, _ in workloads.analyze_forms(seed)
        }
        print(f"analyze seed {seed} recorded", file=sys.stderr)
    n_max = workloads.TABLES_N_MAX
    recorded = {
        "analyze": analyze,
        "tables": {str(n_max): workloads.rows_digest(tables_rows(n_max))},
    }
    workloads.RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
