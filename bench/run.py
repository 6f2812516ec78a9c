#!/usr/bin/env python3
"""Benchmark of the summatoria command line, end to end and by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sieve-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30     # every workload, one table each
    python3 bench/run.py --write-reference               # store seed-0 reports of this commit

One run is one fresh process. It runs the workload's command lines in-process
through ``summatoria.cli.main`` with ``--threads 2``:

1. set-up: the median of three imports of ``summatoria.cli`` in fresh
   interpreters, plus one untimed pass over the commands (a warm-up, or for
   ``cache-io`` the pass that fills an empty cache directory);
2. timed passes until ``--seconds`` is used up (at least three), then the
   peak RSS of the process. Reports after the first are kept as digests
   only, so the benchmark's own memory does not grow with the pass count;
3. with ``--trace 1``, timed passes for half of ``--seconds``, then one pass
   with every layer binding wrapped (see ``spans.py``), then one untraced
   pass with ``--threads 1``.

Every report is checked: the first pass by ``workloads.check_report`` and,
on seed 0, against the stored reference; later passes must repeat the first
pass byte for byte. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end timings come from untraced passes only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer, changed_attributes, self_times, snapshot

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
IMPORT_REPS = 3
MIN_PASSES = 3
SUBCOMMANDS = ("sum", "stats", "scaling", "sieve", "verify")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "kernels.segments": "count",
    "kernels.entries": "count",
    "kernels.busy_s": "s",
    "kernels.profile_s": "s",
    "kernels.materialise_s": "s",
    "kernels.base_primes_s": "s",
    "kernels.base_primes_calls": "count",
    "kernels.ns_per_entry": "ns",
    "kernels.thread_speedup": "ratio",
    "series.accumulate_s": "s",
    "series.reduce_self_s": "s",
    "series.overlap": "ratio",
    "series.checkpoints": "count",
    "moments.scan_s": "s",
    "moments.scan_self_s": "s",
    "moments.adjacent_s": "s",
    "scaling.s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.load_s": "s",
    "cache.save_s": "s",
    "cache.hash_s": "s",
    "cache.hash_mb": "MB",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "verify.oracle_calls": "count",
    "verify.oracle_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    **{f"cmd.{c}_s": "s" for c in SUBCOMMANDS},
}


@dataclass
class CommandResult:
    argv: list[str]
    seconds: float
    rc: int | None
    out: str
    error: str | None


@dataclass
class Pass:
    wall: float
    commands: list[CommandResult]

    def by_subcommand(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for c in self.commands:
            out[c.argv[0]] += c.seconds
        return out


def run_pass(cmds, extra, main) -> Pass:
    results = []
    t0 = perf_counter()
    for argv in cmds:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        c0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv + extra)
        except SystemExit as exc:
            rc, error = exc.code, err.getvalue()
        except Exception:
            error = traceback.format_exc()
        c1 = perf_counter()
        results.append(CommandResult(argv, c1 - c0, rc, out.getvalue(), error))
    return Pass(perf_counter() - t0, results)


def timed_passes(cmds, extra, main, budget: float, checker) -> list[Pass]:
    """Passes until the next one would overrun budget seconds, at least MIN_PASSES."""
    passes = []
    t0 = perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(cmds, extra, main))
        checker.check(passes[-1])
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() - t0 + typical > budget:
            return passes


class Checker:
    """Counts attempted and failed commands and says why each failure failed.

    ``check`` only compares digests, so the benchmark's own parsing and
    sieves stay out of the measured memory; ``finish`` checks the content
    of each distinct report once.
    """

    def __init__(self, seed: int, size: str):
        self.reference = (
            workloads.load_reference()
            if seed == workloads.DEFAULT_SEED and size == "full" else None
        )
        self.expected: dict[str, str] = {}
        self.first: list[CommandResult] = []
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, p: Pass) -> None:
        for c in p.commands:
            self.attempted += 1
            k = workloads.key(c.argv)
            if c.error is not None or c.rc != 0:
                lines = (c.error or "").strip().splitlines()
                self.failures.append(f"{k}: {lines[-1] if lines else f'exit code {c.rc}'}")
            elif k not in self.expected:
                self.expected[k] = hashlib.sha256(c.out.encode()).hexdigest()
                self.first.append(c)
                continue
            elif hashlib.sha256(c.out.encode()).hexdigest() != self.expected[k]:
                self.failures.append(f"{k}: report differs from the first pass")
            c.out = ""  # only first reports are kept, so memory does not grow per pass

    def finish(self) -> None:
        for c in self.first:
            k = workloads.key(c.argv)
            problem = workloads.check_report(c.argv, c.out)
            if problem is None and self.reference is not None:
                entry = self.reference.get(k)
                problem = ("no stored reference for this command" if entry is None
                           else workloads.compare_with_reference(c.out, entry))
            if problem:
                self.failures.append(f"{k}: {problem}")
        self.first.clear()


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing summatoria.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    times = []
    for _ in range(IMPORT_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import summatoria.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def install_tracer(tracer: Tracer, pkg) -> None:
    """Wrap every binding a consumer looks up when it calls into another layer."""
    cli, verify, series, moments, kernels, cache = (
        pkg.cli, pkg.verify, pkg.series, pkg.moments, pkg.kernels, pkg.cache)

    def entries(args, kwargs, result):
        return args[2] - args[1] + 1

    def file_size(args, kwargs, result):
        path = Path(args[0])
        return [str(path), path.stat().st_size if path.exists() else 0]

    def checkpoints(args, kwargs, result):
        return 0 if result is None else len(result.ns)

    def nbytes(args, kwargs, result):
        return len(args[0])

    layers = {
        "load": ("cache", file_size), "save": ("cache", file_size),
        "sieve_values": ("kernels", entries), "accumulate": ("series", checkpoints),
        "moment_scan": ("moments", None), "prime_adjacent_joint": ("moments", None),
        "lag_covariance": ("moments", None), "fit_exponent": ("scaling", None),
        "normalized_envelope": ("scaling", None), "chebyshev_bound_coverage": ("scaling", None),
        "run_suite": ("verify", None), "factor_oracle": ("verify", None),
        "factor_profile": ("kernels", None), "values_from_profile": ("kernels", None),
        "primes_upto": ("kernels", None), "fnv1a64": ("cache", nbytes),
    }
    bindings = {
        cli: ("load", "save", "sieve_values", "accumulate", "moment_scan",
              "prime_adjacent_joint", "fit_exponent", "normalized_envelope",
              "chebyshev_bound_coverage"),
        verify: ("run_suite", "load", "save", "sieve_values", "factor_oracle", "moment_scan",
                 "accumulate", "lag_covariance", "prime_adjacent_joint", "normalized_envelope"),
        series: ("sieve_values",),
        moments: ("sieve_values",),
        kernels: ("factor_profile", "values_from_profile", "primes_upto"),
        cache: ("fnv1a64",),
    }
    for module, attrs in bindings.items():
        for attr in attrs:
            layer, measure = layers[attr]
            name = "verify.oracle" if attr == "factor_oracle" else f"{layer}.{attr}"
            tracer.wrap(module, attr, name, layer, measure)


def layer_metrics(spans, traced: Pass, cache_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the wall-clock self time per layer."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def self_of(*names):
        return sum(selfs[s.sid] for n in names for s in by_name[n])

    sid_name = {s.sid: s.name for s in spans}
    root = {}
    parent = {s.sid: s.parent for s in spans}
    for s in spans:
        r = s.sid
        while parent.get(r) is not None:
            r = parent[r]
        root[s.sid] = r

    # A series lookup is one command touching one file of the cache directory;
    # it is a hit when the command loaded the file and did not rewrite it.
    touched: dict[tuple[int, str], set] = defaultdict(set)
    for s in by_name["cache.load"] + by_name["cache.save"]:
        path = s.measure[0]
        if Path(path).parent == cache_dir:
            touched[(root[s.sid], path)].add(s.name)
    lookups = len(touched)
    hits = sum(1 for ops in touched.values() if ops == {"cache.load"})

    accumulate_s = dur("series.accumulate")
    inside = sum(s.duration for s in by_name["kernels.sieve_values"]
                 if sid_name.get(s.parent) == "series.accumulate")
    entries = sum(s.measure for s in by_name["kernels.sieve_values"])
    busy = dur("kernels.sieve_values")
    outputs = [c.out for c in traced.commands]
    m = {
        "kernels.segments": len(by_name["kernels.sieve_values"]),
        "kernels.entries": entries,
        "kernels.busy_s": busy,
        "kernels.profile_s": dur("kernels.factor_profile"),
        "kernels.materialise_s": dur("kernels.values_from_profile"),
        "kernels.base_primes_s": dur("kernels.primes_upto"),
        "kernels.base_primes_calls": len(by_name["kernels.primes_upto"]),
        "kernels.ns_per_entry": busy / entries * 1e9 if entries else 0.0,
        "series.accumulate_s": accumulate_s,
        "series.reduce_self_s": self_of("series.accumulate"),
        "series.overlap": inside / accumulate_s if accumulate_s else 0.0,
        "series.checkpoints": sum(s.measure for s in by_name["series.accumulate"]),
        "moments.scan_s": dur("moments.moment_scan"),
        "moments.scan_self_s": self_of("moments.moment_scan"),
        "moments.adjacent_s": dur("moments.prime_adjacent_joint", "moments.lag_covariance"),
        "scaling.s": dur("scaling.fit_exponent", "scaling.normalized_envelope",
                         "scaling.chebyshev_bound_coverage"),
        "cache.lookups": lookups,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.load_s": dur("cache.load"),
        "cache.save_s": dur("cache.save"),
        "cache.hash_s": dur("cache.fnv1a64"),
        "cache.hash_mb": sum(s.measure for s in by_name["cache.fnv1a64"]) / 1e6,
        "cache.bytes_read": sum(s.measure[1] for s in by_name["cache.load"]),
        "cache.bytes_written": sum(s.measure[1] for s in by_name["cache.save"]),
        "verify.oracle_calls": len(by_name["verify.oracle"]),
        "verify.oracle_s": dur("verify.oracle"),
        "verify.self_s": self_of("verify.run_suite"),
        "cli.self_s": self_of("cli.main"),
        "cli.rows_out": sum(o.count("\n") for o in outputs),
        "cli.bytes_out": sum(len(o.encode()) for o in outputs),
        "trace.wall_s": traced.wall,
        "trace.self_sum_s": sum(selfs.values()),
    }
    by_layer: dict[str, float] = defaultdict(float)
    for s in spans:
        by_layer[s.layer] += selfs[s.sid]
    return m, dict(by_layer)


def command_options(workload: str, tmp: Path, threads: int = workloads.THREADS) -> list[str]:
    """Options appended to every command; cache-io shares one cache directory under tmp."""
    extra = ["--threads", str(threads)]
    if workload == "cache-io":
        extra += ["--cache-dir", str(tmp / "cache")]
    return extra


def median_of(passes, f) -> float:
    return statistics.median(f(p) for p in passes)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run in this process; returns the result object."""
    t_import = import_seconds()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import summatoria.cli  # also imports every module the tracer wraps

    cmds = workloads.commands(workload, seed, size)
    checker = Checker(seed, size)
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(tmp)
    try:
        extra = command_options(workload, tmp)
        main = summatoria.cli.main

        warm = run_pass(cmds, extra, main)
        setup_s = t_import + warm.wall
        checker.check(warm)
        budget = seconds / 2 if trace else seconds
        passes = timed_passes(cmds, extra, main, budget, checker)
        wall = median_of(passes, lambda p: p.wall)
        sub = {c: median_of(passes, lambda p: p.by_subcommand().get(c, 0.0)) for c in SUBCOMMANDS}
        lines = [
            f"workload {workload} seed {seed}: {len(passes)} timed passes of {len(cmds)} commands,"
            f" --threads {workloads.THREADS}",
            f"  wall_s       {wall:.4f} s   (median of {len(passes)} passes, too few for a higher"
            f" percentile; max {max(p.wall for p in passes):.4f} s)",
            f"  setup_s      {setup_s:.4f} s   (import {t_import:.4f} s + warm-up {warm.wall:.4f} s)",
        ] + [f"  {c + '_s':12s} {v:.4f} s   (median)" for c, v in sub.items() if v > 0]

        if not trace:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            checker.finish()
            lines.append(f"  peak_rss_mb  {rss:.1f} MB")
            metrics = {"wall_s": wall, "peak_rss_mb": rss, "setup_s": setup_s}
        else:
            modules = [m for name, m in sys.modules.items() if name.startswith("summatoria.")]
            before = snapshot(modules)
            tracer = Tracer()
            install_tracer(tracer, summatoria)
            try:
                traced = run_pass(cmds, extra, lambda argv: tracer.call("cli.main", "cli", main, argv))
            finally:
                tracer.restore()
            metrics, by_layer = layer_metrics(tracer.spans, traced, tmp / "cache")
            checker.check(traced)
            checker.failures += [f"{a} not restored after tracing" for a in changed_attributes(before)]
            one = run_pass(cmds, command_options(workload, tmp, threads=1), main)
            checker.check(one)
            metrics["kernels.thread_speedup"] = one.wall / wall
            metrics["trace.overhead_s"] = traced.wall - wall
            metrics.update({f"cmd.{c}_s": v for c, v in sub.items()})
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.write_jsonl(TRACE_DIR / f"trace-{workload}.jsonl")
            checker.finish()
            lines.append("  traced wall-clock self time by layer:")
            lines += [f"    {k:8s} {v:.4f} s" for k, v in sorted(by_layer.items())]
            lines.append(f"    sum      {metrics['trace.self_sum_s']:.4f} s of traced wall "
                         f"{traced.wall:.4f} s; overhead {metrics['trace.overhead_s']:.4f} s")
            lines += [f"  {k:28s} {metrics[k]:.6g} {u}" for k, u in PER_LAYER_UNITS.items()]
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(checker.failures)
    lines.append(f"  fail_frac    {failed / checker.attempted:.4g}   "
                 f"({failed} of {checker.attempted} commands)")
    lines += [f"  FAILED {f}" for f in checker.failures]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": checker.attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def write_reference() -> None:
    """Store the seed-0 reports of every workload at the current commit."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import summatoria.cli

    reports = {}
    for workload in workloads.WHY:
        cmds = workloads.commands(workload, workloads.DEFAULT_SEED)
        tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
        try:
            for c in run_pass(cmds, command_options(workload, tmp), summatoria.cli.main).commands:
                if c.rc != 0 or c.error:
                    raise SystemExit(f"{workloads.key(c.argv)} failed: {c.error or c.rc}")
                reports[workloads.key(c.argv)] = c.out
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    workloads.write_reference(reports)


def run_all(args) -> int:
    """Each workload in a fresh process; prints each table, then all results as JSON."""
    results = {}
    for workload in workloads.WHY:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(out[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny runs the smoke sizes, which have no stored reference")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "summatoria" / "cli.py").is_file():
        print(f"error: no summatoria sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
