"""The benchmark drives the command line: its options must parse, its oracle must be timed.

bench/run.py runs fixed command lines through cli.main and, in its traced
pass, wraps verify.factor_oracle as the "verify.oracle" span. An option the
package dropped would fail every run, and a binding verify no longer calls
would time nothing.
"""

import importlib
from pathlib import Path

import pytest

import summatoria
import summatoria.cli  # noqa: F401  (loads every module the tracer wraps)
from summatoria import cli, kernels

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's run and spans modules, imported as the benchmark does."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("run"), importlib.import_module("spans")


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_every_benchmark_command_line_parses(bench, size, tmp_path):
    run, _ = bench
    parser = cli.build_parser()
    for workload in run.workloads.WHY:
        for argv in run.workloads.commands(workload, 0, size):
            args = parser.parse_args(argv + run.command_options(workload, tmp_path))
            assert args.command == argv[0]


def test_traced_verify_times_the_oracle_it_runs(bench, capsys):
    run, spans = bench
    tracer = spans.Tracer()
    try:
        run.install_tracer(tracer, summatoria)
        assert summatoria.verify.factor_oracle.__wrapped__ is kernels.trial_division_counts
        assert cli.main(["verify", "--limit", "1000"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    oracle = [s for s in tracer.spans if s.name == "verify.oracle"]
    assert len(oracle) == 1
    assert oracle[0].binding == "verify.factor_oracle"
    assert summatoria.verify.factor_oracle is kernels.trial_division_counts


@pytest.mark.parametrize("workload", ["sieve-sweep", "float-reduce", "cache-io"])
def test_seed_0_reports_pass_the_benchmark_checks(bench, workload, tmp_path, capsys):
    # The benchmark refuses a run whose report fails check_report or differs
    # from reference.json.gz; this runs the same checks on the same commands.
    run, _ = bench
    workloads = run.workloads
    reference = workloads.load_reference()
    extra = run.command_options(workload, tmp_path)
    for _ in range(2 if workload == "cache-io" else 1):  # cache-io: a cold pass, then a warm one
        for argv in workloads.commands(workload, workloads.DEFAULT_SEED):
            assert cli.main(argv + extra) == 0, argv
            out = capsys.readouterr().out
            k = workloads.key(argv)
            assert workloads.check_report(argv, out) is None, k
            assert workloads.compare_with_reference(out, reference[k]) is None, k
