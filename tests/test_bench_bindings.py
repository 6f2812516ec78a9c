"""The benchmark's traced pass wraps package bindings by name.

bench/run.py looks each binding up with getattr and puts it back afterwards;
a binding the package renamed or dropped would break every traced run. This
test runs the same install and restore against the package as it stands.
"""

import importlib
import sys
from pathlib import Path

import summatoria
import summatoria.cli  # noqa: F401  (loads every module the tracer wraps)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_binding_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    modules = [m for name, m in sys.modules.items() if name.startswith("summatoria")]
    before = spans.snapshot(modules)
    tracer = spans.Tracer()
    try:
        run.install_tracer(tracer, summatoria)  # getattr raises on a missing binding
        wrapped = spans.changed_attributes(before)
        assert "summatoria.verify.factor_oracle" in wrapped
        for qualified in wrapped:
            module_name, attr = qualified.rsplit(".", 1)
            module = sys.modules[module_name]
            assert getattr(module, attr).__wrapped__ is before[module][attr], qualified
    finally:
        tracer.restore()
    assert spans.changed_attributes(before) == []
