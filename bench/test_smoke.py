"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout: python3 -m pytest bench/test_smoke.py
"""

import json
import sys

import pytest

import run
import workloads
from spans import changed_attributes, snapshot


def _declared(section: str) -> dict[str, str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_smoke(workload, trace):
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import summatoria.cli  # noqa: F401  (loads every module the tracer wraps)

    modules = [m for name, m in sys.modules.items() if name.startswith("summatoria")]
    before = snapshot(modules)
    out = run.run(workload, seed=1, seconds=0.5, trace=trace, size="tiny")
    result = out["result"]

    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert result["attempted"] > 0
    assert result["failed"] == 0, out["lines"]
    assert result["correct"]
    assert changed_attributes(before) == []
    assert not list(run.ROOT.glob(".bench-tmp-*"))
