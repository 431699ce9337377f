"""The benchmark's own checks: traced counts repeat exactly at one seed, and
the tracer leaves the package as it found it.  Run from the repository root
(a few minutes; ``-s`` shows the second-seed comparison):

    python3 -m pytest -s perfbench/test_determinism.py
"""

from __future__ import annotations

import json
import sys
import time

import pytest

import run

run._import_package()

import workloads  # noqa: E402
from tracer import MODULES, SPANS, Tracer  # noqa: E402

SEED = 0
SECOND_SEED = 1


def _traced_pass(name: str, seed: int) -> tuple[Tracer, float, workloads.Tally]:
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(seed)
    tracer = Tracer()
    tracer.install()
    try:
        begin = time.perf_counter()
        tally = workload.run_pass(inputs, tracer)
        wall = time.perf_counter() - begin
    finally:
        tracer.remove()
    assert tally.wrong == 0, f"{tally.wrong} of {tally.attempted} outputs are wrong"
    return tracer, wall, tally


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_at_one_seed(name: str) -> None:
    first, wall, tally = _traced_pass(name, SEED)
    assert tally.failed == 0, f"{tally.failed} of {tally.attempted} operations failed"
    second, _, _ = _traced_pass(name, SEED)
    assert first.count_metrics() == second.count_metrics()

    metrics = first.metrics()
    module_self = sum(metrics[f"{module}.self_s"] for module in MODULES)
    assert module_self <= wall

    other, _, other_tally = _traced_pass(name, SECOND_SEED)
    a, b = first.count_metrics(), other.count_metrics()
    print(
        f"\n{name}: counts at seed {SEED} vs seed {SECOND_SEED} "
        f"({other_tally.failed} inconclusive operations at seed {SECOND_SEED})"
    )
    for key in sorted(a):
        if a[key] or b.get(key):
            mark = "" if a[key] == b.get(key) else "   <- seed-dependent"
            print(f"  {key:50s} {a[key]:>10} {b.get(key, 0):>10}{mark}")


def test_remove_restores_every_binding() -> None:
    packages = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name.startswith("triwedge")
    }
    classes = {}
    for module_name, attr, _ in SPANS:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(sys.modules[f"triwedge.{module_name}"], cls_name)
            classes[(cls, method)] = cls.__dict__[method]
    tracer = Tracer()
    tracer.install()
    patched = len(tracer._patches)
    tracer.remove()
    # More bindings than timed names: private helpers are imported elsewhere.
    assert patched > len(SPANS)
    for name, before in packages.items():
        assert dict(vars(sys.modules[name])) == before, name
    for (cls, method), raw in classes.items():
        assert cls.__dict__[method] is raw


def test_skipped_sections_are_inconclusive_not_wrong() -> None:
    text = json.dumps(
        {
            "order": 1,
            "matrix_rank": {"skipped": "budget ran out"},
            "drop_locus_degree": {"skipped": "budget ran out"},
        }
    )
    expected = {"order": 1, "generic_m_rank": 4, "degF": 1, "rank": 5}
    skipped, wrong = workloads.expectation_mismatches(text, expected)
    assert len(skipped) == 2
    assert wrong == ["rank=None expected rank=5"]
