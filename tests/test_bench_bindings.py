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
from summatoria.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("run"), importlib.import_module("spans")


def test_every_traced_binding_resolves_and_is_restored(monkeypatch):
    run, spans = bench_modules(monkeypatch)
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


def test_traced_cache_files_are_measured_by_path(tmp_path, monkeypatch):
    """The tracer's measure of load and save stats args[0], so each must get a path."""
    run, spans = bench_modules(monkeypatch)
    monkeypatch.delenv("SUMMATORIA_CACHE", raising=False)
    modules = [m for name, m in sys.modules.items() if name.startswith("summatoria")]
    before = spans.snapshot(modules)
    cache, table = tmp_path / "cache", tmp_path / "table.sumf"
    series_argv = ["sum", "--kind", "mobius", "--limit", "3000", "--cache-dir", str(cache),
                   "--output", str(tmp_path / "r.csv")]
    tracer = spans.Tracer()
    try:
        run.install_tracer(tracer, summatoria)
        assert main(series_argv) == 0  # cold: builds and saves
        assert main(series_argv) == 0  # warm: loads
        assert main(["sieve", "--kind", "mobius", "--hi", "100", "--binary",
                     "--output", str(table)]) == 0
    finally:
        tracer.restore()
    assert spans.changed_attributes(before) == []
    series_file = str(cache / "mobius-series-1-3000-geometric.sumf")
    measured = [(s.name, s.measure[0]) for s in tracer.spans if s.name in ("cache.load", "cache.save")]
    assert measured == [("cache.save", series_file), ("cache.load", series_file),
                        ("cache.save", str(table))]
    assert all(s.measure[1] > 0 for s in tracer.spans if s.name in ("cache.load", "cache.save"))
