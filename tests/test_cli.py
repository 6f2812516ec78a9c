import argparse
import json
import math
import os
import re
import shutil
import stat
import struct
import tempfile
import threading
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import cli as cli_mod
from summatoria import series as series_mod
from summatoria import verify as verify_mod
from summatoria.cache import CHECKSUM_OFFSET, HEADER, encode, fnv1a64, load
from summatoria.cli import fmt12, main, parse_kind, parse_ladder, parse_limit
from summatoria.kernels import KIND_BY_LABEL, FunctionKind, ValueTable, sieve_values
from summatoria.moments import moment_scan, prime_adjacent_joint
from summatoria.series import SummatorySeries, accumulate, geometric_ladder, resolve_checkpoints


def run_cli(*argv, output=None):
    """Invoke the CLI in-process; returns (exit_code, report_path_or_None)."""
    argv = [str(a) for a in argv]
    if output is not None:
        argv += ["--output", str(output)]
    return main(argv), output


def schema_for(name):
    text = resources.files("summatoria.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def check(name, doc):
    jsonschema.validate(doc, schema_for(name))


def count_builds(monkeypatch):
    """Record every series the CLI builds with accumulate."""
    builds = []
    real = cli_mod.accumulate

    def counted(*args, **kwargs):
        builds.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "accumulate", counted)
    return builds


def record_loads(monkeypatch):
    """Record the path of every file the CLI loads."""
    paths = []
    real = cli_mod.load

    def recorded(path):
        paths.append(Path(path))
        return real(path)

    monkeypatch.setattr(cli_mod, "load", recorded)
    return paths


def count_resolutions(monkeypatch):
    """Record every plan resolved by resolve_checkpoints, from the series module or the CLI."""
    plans = []
    real = series_mod.resolve_checkpoints

    def counted(*args, **kwargs):
        plans.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(series_mod, "resolve_checkpoints", counted)
    monkeypatch.setattr(cli_mod, "resolve_checkpoints", counted)
    return plans


class TestFmt12:
    def test_negative_zero_normalized(self):
        assert fmt12(-0.0) == "0"
        assert fmt12(0.0) == "0"

    def test_twelve_significant_digits(self):
        assert fmt12(math.pi) == "3.14159265359"
        assert fmt12(-1.0 / 3.0) == "-0.333333333333"
        assert fmt12(1.5) == "1.5"

    def test_infinity(self):
        assert fmt12(math.inf) == "inf"


class TestParsers:
    def test_limits(self):
        assert parse_limit("1000") == 1000
        assert parse_limit("1e6") == 10**6
        assert parse_limit("2.5e1") == 25
        for bad in ("1.5", "0", "-3", "abc", "1e19", ""):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_limit(bad)

    def test_kinds(self):
        assert parse_kind("mobius") is FunctionKind.MOBIUS
        assert parse_kind("prime-indicator") is FunctionKind.PRIME_INDICATOR
        with pytest.raises(argparse.ArgumentTypeError):
            parse_kind("moebius")

    def test_ladders(self):
        assert parse_ladder("geometric") == "geometric"
        assert parse_ladder("all") == "all"
        assert parse_ladder("2.0") == 2.0
        assert parse_ladder("1,10,100") == [1, 10, 100]
        for bad in ("0.5", "1", "a,b", "nope"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_ladder(bad)

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)
        seen = []
        real = cli_mod.accumulate

        def recorded(*args, **kwargs):
            seen.append(kwargs["threads"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "accumulate", recorded)
        for threads in ("64", "2", "1"):
            assert main(["sum", "--kind", "mobius", "--limit", "100", "--threads", threads]) == 0
        assert main(["sum", "--kind", "mobius", "--limit", "100"]) == 0
        assert seen == [2, 2, 1, 2]


class TestSieveCommand:
    def test_csv_golden(self, tmp_path):
        out = tmp_path / "mu.csv"
        code, _ = run_cli("sieve", "--kind", "mobius", "--hi", "8", output=out)
        assert code == 0
        expected = "k,f\n1,1\n2,-1\n3,-1\n4,0\n5,-1\n6,1\n7,-1\n8,0\n"
        assert out.read_text() == expected

    def test_json_matches_schema(self, tmp_path):
        out = tmp_path / "lam.json"
        code, _ = run_cli("sieve", "--kind", "liouville", "--lo", "1", "--hi", "12",
                          "--format", "json", output=out)
        assert code == 0
        doc = json.loads(out.read_text())
        check("sieve", doc)
        assert doc["values"] == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1, -1, -1]

    def test_float_csv_rows(self, tmp_path):
        out = tmp_path / "psi.csv"
        code, _ = run_cli("sieve", "--kind", "psi", "--lo", "7", "--hi", "10", output=out)
        assert code == 0
        want = ["k,f", f"7,{fmt12(math.log(7))}", f"8,{fmt12(math.log(2))}",
                f"9,{fmt12(math.log(3))}", "10,0"]
        assert out.read_text() == "\n".join(want) + "\n"

    def test_binary_round_trip(self, tmp_path):
        out = tmp_path / "theta.sumf"
        code, _ = run_cli("sieve", "--kind", "theta", "--hi", "50", "--binary", output=out)
        assert code == 0
        back = load(out)
        fresh = sieve_values(FunctionKind.CHEBYSHEV_THETA_TERM, 1, 50)
        assert back.kind is fresh.kind
        assert np.array_equal(back.values, fresh.values)

    def test_binary_without_output_is_config_error(self, capsys):
        code, _ = run_cli("sieve", "--kind", "mobius", "--hi", "10", "--binary")
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSumCommand:
    def test_csv_golden_dense(self, tmp_path):
        out = tmp_path / "m.csv"
        code, _ = run_cli("sum", "--kind", "mobius", "--limit", "10", "--ladder", "all",
                          output=out)
        assert code == 0
        expected = "n,S\n1,1\n2,0\n3,-1\n4,-1\n5,-2\n6,-1\n7,-2\n8,-2\n9,-2\n10,-1\n"
        assert out.read_text() == expected

    def test_json_matches_schema(self, tmp_path):
        out = tmp_path / "m.json"
        code, _ = run_cli("sum", "--kind", "mobius", "--limit", "100", "--format", "json",
                          output=out)
        assert code == 0
        doc = json.loads(out.read_text())
        check("sum", doc)
        assert doc["checkpoints"][-1] == {"n": 100, "S": 1}

    def test_float_kind_prints_twelve_digits(self, tmp_path):
        out = tmp_path / "psi.csv"
        code, _ = run_cli("sum", "--kind", "psi", "--limit", "10", "--ladder", "all",
                          output=out)
        assert code == 0
        last = out.read_text().splitlines()[-1]
        n, s = last.split(",")
        assert n == "10"
        assert float(s) == pytest.approx(math.log(2520), abs=1e-9)

    @pytest.mark.parametrize("kind", ["mobius", "psi"])
    def test_rows_across_formatting_steps(self, kind, tmp_path):
        limit = 3 * 4096 + 5
        series = accumulate(parse_kind(kind), limit, "all")
        cell = str if series.kind.is_integer_valued else fmt12
        pairs = list(zip(series.ns.tolist(), series.sums.tolist()))
        for fmt in ("csv", "json"):
            out = tmp_path / f"s.{fmt}"
            assert run_cli("sum", "--kind", kind, "--limit", limit, "--ladder", "all",
                           "--format", fmt, output=out)[0] == 0
            if fmt == "csv":
                rows = [f"{n},{cell(s)}" for n, s in pairs]
                assert out.read_text() == "\n".join(["n,S", *rows]) + "\n"
            else:
                doc = json.loads(out.read_text())
                assert doc["checkpoints"] == [{"n": n, "S": s} for n, s in pairs]

    def test_ratio_ladder_next_to_one_is_quick(self, tmp_path):
        out = tmp_path / "m.csv"
        t0 = time.monotonic()
        assert run_cli("sum", "--kind", "mobius", "--limit", "1e6", "--ladder", "1.0000001",
                       output=out)[0] == 0
        assert time.monotonic() - t0 < 20.0
        lines = out.read_text().splitlines()
        assert len(lines) == 10**6 + 1 and lines[-1] == "1000000,212"

    def test_byte_identity_across_threads(self, tmp_path):
        outputs = []
        for threads, name in ((1, "a"), (5, "b")):
            for fmt in ("csv", "json"):
                out = tmp_path / f"{name}.{fmt}"
                code, _ = run_cli("sum", "--kind", "psi", "--limit", "200000",
                                  "--threads", threads, "--format", fmt, output=out)
                assert code == 0
            outputs.append((tmp_path / f"{name}.csv", tmp_path / f"{name}.json"))
        assert outputs[0][0].read_bytes() == outputs[1][0].read_bytes()
        assert outputs[0][1].read_bytes() == outputs[1][1].read_bytes()

    def test_cache_round_trip_and_corrupt_cache_recovery(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out1 = tmp_path / "r1.csv"
        code, _ = run_cli("sum", "--kind", "liouville", "--limit", "5000",
                          "--cache-dir", cache, output=out1)
        assert code == 0
        cached = cache / "liouville-series-1-5000-geometric.sumf"
        assert cached.exists()

        out2 = tmp_path / "r2.csv"
        code, _ = run_cli("sum", "--kind", "liouville", "--limit", "5000",
                          "--cache-dir", cache, output=out2)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

        cached.write_bytes(b"garbage")
        out3 = tmp_path / "r3.csv"
        code, _ = run_cli("sum", "--kind", "liouville", "--limit", "5000",
                          "--cache-dir", cache, output=out3)
        assert code == 0
        assert "warning: ignoring cache file" in capsys.readouterr().err
        assert out1.read_bytes() == out3.read_bytes()
        # the rebuild also repaired the cache file
        assert load(cached).sums[-1] == -46


    @pytest.mark.parametrize("kind", ["mobius", "psi"])
    def test_each_plan_builds_its_own_file_once(self, kind, tmp_path, monkeypatch):
        plans = ("all", "geometric", "all", "1.5", "geometric")
        expect = {}
        for plan in set(plans):
            out = tmp_path / f"ref-{plan}.csv"
            assert run_cli("sum", "--kind", kind, "--limit", "3000", "--ladder", plan,
                           output=out)[0] == 0
            expect[plan] = out.read_bytes()

        builds = count_builds(monkeypatch)
        cache = tmp_path / "cache"
        for round_ in range(2):
            for i, plan in enumerate(plans):
                out = tmp_path / f"run-{round_}-{i}.csv"
                assert run_cli("sum", "--kind", kind, "--limit", "3000", "--ladder", plan,
                               "--cache-dir", cache, output=out)[0] == 0
                assert out.read_bytes() == expect[plan], plan
            # each plan builds on its first run only, and no plan overwrites another's file
            assert len(builds) == 3, round_
        assert sorted(p.name for p in cache.iterdir()) == [
            f"{kind}-series-1-3000-{tag}.sumf" for tag in ("all", "geometric", "ratio-1.5")
        ]

    def test_stored_checkpoints_served_without_a_search(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        reports = []
        for i in range(2):
            out = tmp_path / f"r{i}.csv"
            assert run_cli("sum", "--kind", "liouville", "--limit", "3000", "--ladder", "all",
                           "--cache-dir", cache, output=out)[0] == 0
            reports.append(out.read_bytes())
            # the warm run asks for exactly the stored checkpoints and gets the stored series
            monkeypatch.setattr(cli_mod.np, "searchsorted", lambda *a, **k: pytest.fail("searched"))
        assert reports[0] == reports[1]

    def test_lists_that_resolve_alike_share_one_file(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        builds = count_builds(monkeypatch)
        assert run_cli("sum", "--kind", "liouville", "--limit", "500", "--cache-dir", cache,
                       output=tmp_path / "r.csv")[0] == 0
        geometric = cache / "liouville-series-1-500-geometric.sumf"
        before = geometric.read_bytes()
        want = accumulate(FunctionKind.LIOUVILLE, 500, [7, 11, 13])
        loaded = record_loads(monkeypatch)
        for plan in ("7,11,13", "13,11,7,7"):
            assert run_cli("sum", "--kind", "liouville", "--limit", "500", "--ladder", plan,
                           "--cache-dir", cache, output=tmp_path / "r.csv")[0] == 0
            assert (tmp_path / "r.csv").read_text().splitlines()[1:] == [
                f"{n},{s}" for n, s in zip(want.ns.tolist(), want.sums.tolist())
            ]
        assert len(builds) == 2
        assert len(list(cache.iterdir())) == 2
        assert geometric.read_bytes() == before
        assert geometric not in loaded and len(loaded) == 1

    def test_sparse_plan_never_reads_the_every_n_file(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        argv = ["sum", "--kind", "mobius", "--limit", "5000", "--cache-dir", cache]
        assert run_cli(*argv, "--ladder", "all", output=tmp_path / "all.csv")[0] == 0
        every_n = cache / "mobius-series-1-5000-all.sumf"
        loaded = record_loads(monkeypatch)
        for _ in range(2):
            assert run_cli(*argv, output=tmp_path / "r.csv")[0] == 0
        assert loaded == [cache / "mobius-series-1-5000-geometric.sumf"]
        assert every_n not in loaded
        want = accumulate(FunctionKind.MOBIUS, 5000, "geometric")
        assert (tmp_path / "r.csv").read_text().splitlines()[1:] == [
            f"{n},{s}" for n, s in zip(want.ns.tolist(), want.sums.tolist())
        ]

    def test_file_that_does_not_match_its_name_is_rebuilt(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache"
        argv = ["sum", "--kind", "psi", "--limit", "3000", "--cache-dir", cache]
        assert run_cli(*argv, "--ladder", "1.5", output=tmp_path / "ref.csv")[0] == 0
        ratio = cache / "psi-series-1-3000-ratio-1.5.sumf"
        assert run_cli(*argv, output=tmp_path / "r.csv")[0] == 0
        shutil.copyfile(cache / "psi-series-1-3000-geometric.sumf", ratio)
        capsys.readouterr()
        builds = count_builds(monkeypatch)
        assert run_cli(*argv, "--ladder", "1.5", output=tmp_path / "r.csv")[0] == 0
        assert f"warning: cache file {ratio} does not match, rebuilding" in capsys.readouterr().err
        assert len(builds) == 1
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert np.array_equal(load(ratio).ns, resolve_checkpoints(3000, 1.5))

    @pytest.mark.parametrize("ladder", ["all", "geometric", "1.5"])
    def test_each_plan_resolved_once(self, ladder, tmp_path, monkeypatch):
        monkeypatch.delenv("SUMMATORIA_CACHE", raising=False)
        argv = ["sum", "--kind", "mobius", "--limit", "3000", "--ladder", ladder]
        assert run_cli(*argv, output=tmp_path / "ref.csv")[0] == 0
        cache = tmp_path / "cache"
        plans = count_resolutions(monkeypatch)
        for name, extra in (("no cache", []), ("miss", ["--cache-dir", cache]), ("hit", ["--cache-dir", cache])):
            out = tmp_path / f"{name}.csv"
            del plans[:]
            assert run_cli(*argv, *extra, output=out)[0] == 0
            assert len(plans) == 1, name
            assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes(), name

    def test_peak_memory_of_an_every_n_sum(self, tmp_path):
        n = 10**6
        argv = ["sum", "--kind", "mobius", "--limit", str(n), "--ladder", "all", "--threads", "1"]
        run_cli(*argv, output=tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            assert run_cli(*argv, output=tmp_path / "r.csv")[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 49.0 B/n while the plan was resolved a second time inside accumulate.
        assert peak <= 45 * n

    def test_version_1_cache_file_is_rebuilt(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out1 = tmp_path / "r1.csv"
        assert run_cli("sum", "--kind", "theta", "--limit", "4000",
                       "--cache-dir", cache, output=out1)[0] == 0
        cached = cache / "theta-series-1-4000-geometric.sumf"
        raw = bytearray(cached.read_bytes())
        struct.pack_into("<I", raw, 4, 1)  # a file written by format version 1
        cached.write_bytes(bytes(raw))
        capsys.readouterr()

        out2 = tmp_path / "r2.csv"
        assert run_cli("sum", "--kind", "theta", "--limit", "4000",
                       "--cache-dir", cache, output=out2)[0] == 0
        err = capsys.readouterr().err
        assert "warning: ignoring cache file" in err and "version" in err
        assert out1.read_bytes() == out2.read_bytes()
        assert struct.unpack_from("<I", cached.read_bytes(), 4) == (2,)

    def test_cache_dir_defaults_to_env_var(self, tmp_path, monkeypatch):
        cache = tmp_path / "elsewhere"
        monkeypatch.setenv("SUMMATORIA_CACHE", str(cache))
        assert run_cli("sum", "--kind", "mobius", "--limit", "100",
                       output=tmp_path / "r.csv")[0] == 0
        assert [p.name for p in cache.iterdir()] == ["mobius-series-1-100-geometric.sumf"]


class TestStatsCommand:
    def test_csv_with_prime_adjacent_footer(self, tmp_path):
        out = tmp_path / "pi.csv"
        code, _ = run_cli("stats", "--kind", "prime-indicator", "--limit", "100", output=out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,S,Q,grid_ratio,cov_gap,F2,diag,cross"
        assert lines[-1].startswith("# prime_adjacent joint=0 product=0.0")
        # n = 1 row keeps its covariance column empty rather than faking a 0
        first = lines[1].split(",")
        assert first[0] == "1" and first[4] == ""

    def test_json_matches_schema(self, tmp_path):
        out = tmp_path / "pi.json"
        code, _ = run_cli("stats", "--kind", "prime-indicator", "--limit", "100",
                          "--format", "json", output=out)
        assert code == 0
        doc = json.loads(out.read_text())
        check("stats", doc)
        assert doc["prime_adjacent"]["joint"] == 0.0
        assert doc["reports"][0]["cov_gap"] is None

    def test_json_float_kind_no_adjacent_block(self, tmp_path):
        out = tmp_path / "psi.json"
        code, _ = run_cli("stats", "--kind", "psi", "--limit", "50", "--format", "json",
                          output=out)
        assert code == 0
        doc = json.loads(out.read_text())
        check("stats", doc)
        assert "prime_adjacent" not in doc

    def test_decomposition_identity_in_report(self, tmp_path):
        out = tmp_path / "m.json"
        code, _ = run_cli("stats", "--kind", "mobius", "--limit", "1000", "--format", "json",
                          output=out)
        assert code == 0
        for row in json.loads(out.read_text())["reports"]:
            assert row["F2"] == row["diag"] + row["cross"]
            assert row["S"] ** 2 == row["F2"]


    def test_threads_reach_the_walk_and_never_change_the_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)
        seen = []
        real = cli_mod.moment_scan

        def recorded(*args, **kwargs):
            seen.append(kwargs["threads"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "moment_scan", recorded)
        reports = []
        for threads in (1, 2):  # 5e6 is two segments, so two threads overlap them
            out = tmp_path / f"t{threads}.csv"
            assert run_cli("stats", "--kind", "mobius", "--limit", "5e6", "--threads", threads,
                           output=out)[0] == 0
            reports.append(out.read_bytes())
        assert seen == [1, 2]
        assert reports[0] == reports[1]

    def test_threads_reach_the_adjacent_prime_walk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)
        seen = []
        real = cli_mod.prime_adjacent_joint

        def recorded(n, **kwargs):
            seen.append(kwargs["threads"])
            return real(n, **kwargs)

        monkeypatch.setattr(cli_mod, "prime_adjacent_joint", recorded)
        reports = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}.csv"
            assert run_cli("stats", "--kind", "prime-indicator", "--limit", "5e6",
                           "--threads", threads, output=out)[0] == 0
            reports.append(out.read_bytes())
        assert seen == [1, 2]
        assert reports[0] == reports[1]

    def test_prime_indicator_above_the_sieve_cap(self, tmp_path):
        out = tmp_path / "pi.csv"
        assert run_cli("stats", "--kind", "prime-indicator", "--limit", "67108870",
                       output=out)[0] == 0
        lines = out.read_text().splitlines()
        assert lines[-2].startswith("67108870,")
        assert lines[-1].startswith("# prime_adjacent joint=0 product=0.00")

    def test_every_n_report_streams_to_the_output(self, tmp_path):
        # The 74 MB report is written as its rows are formatted; joined whole
        # before the write, it took the traced peak to 204 MB.
        out = tmp_path / "m.csv"
        assert run_cli("stats", "--kind", "mobius", "--limit", "1000", "--ladder", "all", output=out)[0] == 0
        tracemalloc.start()
        try:
            code, _ = run_cli("stats", "--kind", "mobius", "--limit", "1e6", "--ladder", "all", output=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 120 * 10**6
        with out.open("rb") as f:
            f.seek(-200, 2)
            assert f.read().split(b"\n")[-2].startswith(b"1000000,")


class TestScalingCommand:
    def test_json_matches_schema(self, tmp_path):
        out = tmp_path / "sc.json"
        code, _ = run_cli("scaling", "--kind", "mobius", "--limit", "10000", "--phi", "log",
                          "--format", "json", output=out)
        assert code == 0
        doc = json.loads(out.read_text())
        check("scaling", doc)
        assert doc["coverage_fraction"] == 1.0
        assert doc["max_ratio"] <= 1.5
        assert 0.0 <= doc["r_squared"] <= 1.0

    def test_csv_key_value_shape(self, tmp_path):
        out = tmp_path / "sc.csv"
        code, _ = run_cli("scaling", "--kind", "liouville", "--limit", "10000", output=out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        keys = [line.split(",", 1)[0] for line in lines[1:]]
        assert keys == ["kind", "limit", "phi", "alpha", "log_c", "r_squared",
                        "samples_used", "residual_max", "max_ratio", "argmax_n",
                        "coverage_fraction", "coverage_satisfied", "coverage_total"]

    def test_explicit_ladder_restricts_fit(self, tmp_path):
        out = tmp_path / "sc.json"
        code, _ = run_cli("scaling", "--kind", "mobius", "--limit", "4096",
                          "--ladder", "geometric", "--format", "json", output=out)
        assert code == 0
        check("scaling", json.loads(out.read_text()))

    @pytest.mark.parametrize("limit", [4, 100, 10**4])
    @pytest.mark.parametrize("kind", sorted(KIND_BY_LABEL))
    def test_change_points_give_the_every_n_report(self, kind, limit, capsys):
        # --ladder all is folded over runs of S(n); a list of every n runs on a checkpoint series.
        every_n = ",".join(map(str, range(1, limit + 1)))
        for fmt in ("csv", "json"):
            reports = []
            for ladder in ("all", every_n):
                code = main(["scaling", "--kind", kind, "--limit", str(limit), "--ladder", ladder,
                             "--format", fmt])
                reports.append((code, *capsys.readouterr()))
            assert reports[0] == reports[1]
            assert reports[0][0] == (2 if limit == 4 and kind in ("mobius", "liouville") else 0)

    @pytest.mark.parametrize("kind, used", [("mobius", (0, 0, 1)), ("liouville", (0, 0, 1)),
                                            ("prime-indicator", (0, 1, 2)), ("psi", (0, 1, 2)),
                                            ("theta", (0, 1, 2))])
    def test_limits_below_four_are_too_few_samples(self, kind, used, capsys):
        for limit, got in zip((1, 2, 3), used):
            for ladder in ([], ["--ladder", "all"]):
                assert main(["scaling", "--kind", kind, "--limit", str(limit), *ladder]) == 2
                assert capsys.readouterr() == (
                    "", f"error: exponent fit needs >= 3 usable samples, got {got}\n")


def cell(v) -> str:
    """One CSV cell of a JSON value: empty for null, fmt12 for a float, str otherwise."""
    if v is None:
        return ""
    return fmt12(v) if isinstance(v, float) else str(v)


@pytest.mark.parametrize("kind", [k.label for k in FunctionKind])
class TestCsvMatchesJson:
    """Every CSV cell is cell() of the JSON value of the same field."""

    def reports(self, tmp_path, *argv):
        out = {}
        for fmt in ("csv", "json"):
            path = tmp_path / f"report.{fmt}"
            assert run_cli(*argv, "--format", fmt, output=path)[0] == 0
            out[fmt] = path.read_text()
        return out["csv"].splitlines(), json.loads(out["json"])

    def test_stats(self, kind, tmp_path):
        for ladder in ("geometric", "all"):
            lines, doc = self.reports(tmp_path, "stats", "--kind", kind, "--limit", "300",
                                      "--ladder", ladder)
            rows = doc["reports"]
            if "prime_adjacent" in doc:
                joint, product = (cell(v) for v in doc["prime_adjacent"].values())
                assert lines.pop() == f"# prime_adjacent joint={joint} product={product}"
            assert lines[0].split(",") == list(rows[0])
            assert len(lines) == len(rows) + 1
            for line, row in zip(lines[1:], rows):
                assert line.split(",") == [cell(v) for v in row.values()]

    def test_scaling(self, kind, tmp_path):
        lines, doc = self.reports(tmp_path, "scaling", "--kind", kind, "--limit", "10000",
                                  "--phi", "pow:0.3")
        assert lines[0] == "key,value"
        assert [line.split(",") for line in lines[1:]] == [
            [key, cell(v)] for key, v in doc.items()
        ]


def reference_json(doc: dict, key: str, fields, columns) -> str:
    """json.dumps(indent=2) of doc with doc[key] one dict per row of the columns, NaN as None.

    With fields None, doc[key] is the bare values of the one column.
    """
    if fields is None:
        rows = columns[0].tolist()
    else:
        cells = []
        for col in columns:
            step = col.tolist()
            for j in np.flatnonzero(np.isnan(col)).tolist():
                step[j] = None
            cells.append(step)
        rows = [dict(zip(fields, row)) for row in zip(*cells)]
    return json.dumps({**doc, key: rows}, indent=2) + "\n"


class TestJsonMatchesReference:
    """sieve, sum and stats JSON are byte for byte the dict-per-row json.dumps report."""

    @pytest.mark.parametrize("kind", list(FunctionKind), ids=lambda k: k.label)
    def test_reports(self, kind, tmp_path):
        out = tmp_path / "report.json"
        for limit in (1, 2, 4, 300):
            assert run_cli("sieve", "--kind", kind.label, "--hi", limit, "--format", "json",
                           output=out)[0] == 0
            table = sieve_values(kind, 1, limit)
            doc = {"kind": kind.label, "lo": 1, "hi": limit}
            assert out.read_text() == reference_json(doc, "values", None, (table.values,))
            for ladder in ("geometric", "all"):
                argv = ("--kind", kind.label, "--limit", limit, "--ladder", ladder, "--format", "json")
                assert run_cli("sum", *argv, output=out)[0] == 0
                series = accumulate(kind, limit, ladder)
                doc = {"kind": kind.label, "limit": limit}
                assert out.read_text() == reference_json(
                    doc, "checkpoints", ("n", "S"), (series.ns, series.sums))
                assert run_cli("stats", *argv, output=out)[0] == 0
                doc["reports"] = None
                if kind is FunctionKind.PRIME_INDICATOR and limit >= 5:
                    doc["prime_adjacent"] = prime_adjacent_joint(limit)._asdict()
                assert out.read_text() == reference_json(
                    doc, "reports", cli_mod._STATS_FIELDS, moment_scan(kind, limit, ladder)[1:])

    def test_synthetic_columns(self):
        rng = np.random.default_rng(7)
        n = 2 * cli_mod._ROWS_PER_STEP + 3
        ints = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64)
        ints[:4] = (2**53 + 1, -(2**63), 2**63 - 1, 0)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:8] = (np.nan, -0.0, 0.1 + 0.2, 1 / 3, 5e-324, 1.7976931348623157e308, 1e16, np.nan)
        floats[-1] = np.nan
        doc = {"kind": "x", "rows": None, "after": {"a": 1.5, "b": None}}
        for fields, columns in ((("i", "f"), (ints, floats)), (("f",), (floats,)),
                                (("i",), (ints[:1],)), (None, (ints,)), (None, (floats[~np.isnan(floats)],))):
            want = reference_json(doc, "rows", fields, columns)
            assert "".join(cli_mod._json(doc, "rows", fields, columns)) == want


INT64 = 2**63 - 1
#: Zero, short and int32-sized values and values of up to 19 digits, of either sign.
report_ints = st.one_of(st.integers(-9, 9), st.integers(-(2**31), 2**31 - 1), st.integers(-INT64, INT64))


class TestIntegerRows:
    """Reports of int columns only are rendered in numpy, cell for cell as str prints them."""

    @given(st.lists(st.tuples(report_ints, report_ints, st.integers(-128, 127)), min_size=1, max_size=40),
           st.sampled_from([("", "", ""), ('\n      "n": ', '\n      "S": ', '\n      "q": ')]),
           st.sampled_from(["\n", "\n    },\n    {", ","]),
           st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_matches_str(self, rows, prefixes, sep, step):
        a, b, c = zip(*rows)
        columns = (np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), np.array(c, dtype=np.int8))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_mod, "_INT_ROWS_PER_STEP", step)
            mp.setattr(cli_mod, "_INT_ROWS_MIN", 1)
            for k, csv in ((1, True), (3, False)):
                want = sep.join(",".join(p + str(v) for p, v in zip(prefixes, row[:k])) for row in rows)
                assert "".join(cli_mod._report_rows(columns[:k], csv, prefixes[:k], sep)) == want

    def test_extremes_and_a_float_column(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "_INT_ROWS_MIN", 1)
        ints = np.array([0, -1, 1, 9, -10, 2**31 - 1, -(2**31), INT64, -INT64, -(2**63)], dtype=np.int64)
        for top in (9, 2**31 - 1, 2**31, INT64):  # the largest |v| of a column picks int32 or uint64
            col = np.array([0, -1, top, -top, top // 10], dtype=np.int64)
            assert "".join(cli_mod._report_rows((col,), True, [""], "\n")) == "\n".join(map(str, col.tolist()))
        assert "".join(cli_mod._report_rows((ints,), True, [""], "\n")) == "\n".join(map(str, ints.tolist()))
        mixed = (ints, ints.astype(np.float64))
        text = "".join(cli_mod._report_rows(mixed, True, ["", ""], "\n"))
        assert text.splitlines()[-1] == f"{-(2**63)},{fmt12(-(2.0**63))}"

    @pytest.mark.parametrize("k", range(19))
    def test_every_power_of_ten_and_one_below(self, k, monkeypatch):
        # a column of |v| < 2**31 is divided as int32, any other as uint64 (the INT64 row)
        monkeypatch.setattr(cli_mod, "_INT_ROWS_MIN", 1)
        edge = [10**k - 1, 10**k, 1 - 10**k, -(10**k)]
        for col in ([edge] if 10**k < 2**31 else []) + [edge + [INT64]]:
            col = np.array(col, dtype=np.int64)
            assert "".join(cli_mod._report_rows((col,), True, [""], "\n")) == "\n".join(map(str, col.tolist()))

    def test_a_step_boundary_in_a_report(self):
        # 2**16 + 1 rows: one whole _int_rows step and a step of one row
        ns = np.arange(1, cli_mod._INT_ROWS_PER_STEP + 2, dtype=np.int64)
        sums = (ns * 7919) % 2001 - 1000
        for prefixes, sep in ((["", ""], "\n"), (['\n      "n": ', '\n      "S": '], "\n    },\n    {")):
            want = sep.join(f"{prefixes[0]}{n},{prefixes[1]}{s}" for n, s in zip(ns.tolist(), sums.tolist()))
            assert "".join(cli_mod._report_rows((ns, sums), sep == "\n", prefixes, sep)) == want


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_either_side_of_the_row_threshold(self, fmt, monkeypatch, capsys):
        # Below _INT_ROWS_MIN rows the str join renders the report, from it on _int_rows.
        calls = []
        real = cli_mod._int_rows
        monkeypatch.setattr(cli_mod, "_int_rows", lambda *args: calls.append(1) or real(*args))
        for limit in (cli_mod._INT_ROWS_MIN - 1, cli_mod._INT_ROWS_MIN):
            calls.clear()
            assert main(["sum", "--kind", "liouville", "--limit", str(limit), "--ladder", "all",
                         "--format", fmt]) == 0
            series = accumulate(FunctionKind.LIOUVILLE, limit, "all")
            if fmt == "csv":
                want = "n,S\n" + "".join(f"{n},{v}\n" for n, v in zip(series.ns.tolist(), series.sums.tolist()))
            else:
                want = reference_json({"kind": "liouville", "limit": limit}, "checkpoints", ("n", "S"),
                                      (series.ns, series.sums))
            assert capsys.readouterr().out == want
            assert len(calls) == (limit >= cli_mod._INT_ROWS_MIN)


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        parser = cli_mod._parser()
        monkeypatch.setattr(cli_mod, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert main(["sum", "--kind", "mobius", "--limit", "4"]) == 0
        assert cli_mod._parser() is parser
        assert capsys.readouterr().out == "n,S\n1,1\n2,0\n3,-1\n4,-1\n"


class TestVerifyCommand:
    def test_small_scale_run_matches_schema(self, tmp_path):
        for limit in ("1", "2", "5", "1000"):
            out = tmp_path / f"v-{limit}.json"
            code, _ = run_cli("verify", "--limit", limit, "--format", "json", output=out)
            assert code == 0, limit
            doc = json.loads(out.read_text())
            check("verify", doc)
            assert doc["all_passed"] is True
            assert [c["criterion"] for c in doc["criteria"]] == list(range(1, 11))
            statuses = {c["status"] for c in doc["criteria"]}
            assert statuses <= {"PASS", "SKIP"}

    def test_cross_sum_decay_skips_below_two(self, tmp_path):
        out = tmp_path / "v.csv"
        code, _ = run_cli("verify", "--limit", "1", output=out)
        assert code == 0
        assert '3,cross-sum-decay,SKIP,"note=needs-limit>=2"' in out.read_text().splitlines()

    def test_one_ulp_sieve_error_fails_oracle_equivalence(self, tmp_path, monkeypatch):
        real = verify_mod.sieve_values

        def nudged(kind, lo, hi, *args, **kwargs):
            table = real(kind, lo, hi, *args, **kwargs)
            if kind is not FunctionKind.CHEBYSHEV_PSI_TERM or lo != 1 or hi < 7:
                return table
            values = table.values.copy()
            values[6] = np.nextafter(values[6], np.inf)  # the log 7 term
            return ValueTable(kind, lo, hi, values)

        monkeypatch.setattr(verify_mod, "sieve_values", nudged)
        out = tmp_path / "v.csv"
        code, _ = run_cli("verify", "--limit", "1000", output=out)
        assert code == 1
        rows = out.read_text().splitlines()
        assert rows[1] == '1,oracle-equivalence,FAIL,"checked=1000 kinds=5 mismatches=1"'
        assert all(",FAIL," not in row for row in rows[2:])

    @pytest.mark.parametrize("n", [30, 12], ids=["mu30-flipped", "mu12-nonzero"])
    def test_integer_sieve_error_fails_oracle_equivalence(self, tmp_path, monkeypatch, n):
        real = verify_mod.sieve_values

        def planted(kind, lo, hi, *args, **kwargs):
            table = real(kind, lo, hi, *args, **kwargs)
            if kind is not FunctionKind.MOBIUS or lo != 1 or hi < n:
                return table
            values = table.values.copy()
            assert values[n - 1] in (-1, 0)  # mu(30) = -1, mu(12) = 0
            values[n - 1] = 1
            return ValueTable(kind, lo, hi, values)

        monkeypatch.setattr(verify_mod, "sieve_values", planted)
        out = tmp_path / "v.csv"
        code, _ = run_cli("verify", "--limit", "1000", output=out)
        assert code == 1
        rows = out.read_text().splitlines()
        assert rows[1] == '1,oracle-equivalence,FAIL,"checked=1000 kinds=5 mismatches=1"'

    def test_one_moment_cell_off_fails_exact_identities(self, tmp_path, monkeypatch):
        real = verify_mod.moment_scan

        def planted(kind, limit, plan=None, **kwargs):
            table = real(kind, limit, plan, **kwargs)
            if kind is not FunctionKind.LIOUVILLE or plan != "geometric":
                return table
            q = table.Q.copy()
            q[7] += 1  # Q(16), which diag repeats
            return table._replace(Q=q, diag=q)

        monkeypatch.setattr(verify_mod, "moment_scan", planted)
        out = tmp_path / "v.csv"
        code, _ = run_cli("verify", "--limit", "1000", output=out)
        assert code == 1
        rows = out.read_text().splitlines()
        assert rows[2] == '2,exact-identities,FAIL,"ladder_points=40 violations=1"'
        assert all(",FAIL," not in row for row in rows[1:2] + rows[3:])

    def test_one_every_n_sum_off_fails_exact_identities(self, tmp_path, monkeypatch):
        real = verify_mod.accumulate

        def nudged(kind, limit, plan=None, **kwargs):
            series = real(kind, limit, plan, **kwargs)
            if kind is not FunctionKind.MOBIUS or plan != "all" or limit != 1000:
                return series
            sums = series.sums.copy()
            sums[15] += 1  # M(16) = -1, at a ladder point
            return SummatorySeries(kind, limit, series.ns, sums)

        monkeypatch.setattr(verify_mod, "accumulate", nudged)
        out = tmp_path / "v.csv"
        code, _ = run_cli("verify", "--limit", "1000", output=out)
        assert code == 1
        rows = out.read_text().splitlines()
        assert rows[2] == '2,exact-identities,FAIL,"ladder_points=40 violations=1"'
        assert all(",FAIL," not in row for row in rows[1:2] + rows[3:])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_renders_measured_text_as_before(self, fmt, tmp_path, monkeypatch):
        measured = ['say "a,b" \\ done', "plain", 'q"', ""]
        outcome = verify_mod.VerifyOutcome(17, [
            verify_mod.CriterionResult(i + 1, f"name-{i}", "FAIL" if i == 1 else "PASS", text)
            for i, text in enumerate(measured)
        ])
        monkeypatch.setattr(verify_mod, "run_suite", lambda **kwargs: outcome)
        out = tmp_path / f"v.{fmt}"
        assert run_cli("verify", "--format", fmt, output=out)[0] == 1
        # the formulas verify rendered its report with before cli did
        if fmt == "csv":
            lines = ["criterion,name,status,measured"]
            for c in outcome.criteria:
                quoted = c.measured.replace('"', '""')
                lines.append(f'{c.number},{c.name},{c.status},"{quoted}"')
            want = "\n".join(lines) + "\n"
        else:
            doc = {
                "limit": outcome.limit,
                "criteria": [
                    {"criterion": c.number, "name": c.name, "status": c.status, "measured": c.measured}
                    for c in outcome.criteria
                ],
                "all_passed": outcome.all_passed,
            }
            want = json.dumps(doc, indent=2) + "\n"
            assert [c["measured"] for c in json.loads(out.read_text())["criteria"]] == measured
        assert out.read_text() == want

    def test_csv_header(self, tmp_path):
        out = tmp_path / "v.csv"
        code, _ = run_cli("verify", "--limit", "1000", output=out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "criterion,name,status,measured"
        assert len(lines) == 11

    def cache_integrity_row(self, tmp_path):
        """Criterion 9's report row of a failing verify --limit 1000, the other rows checked to pass."""
        out = tmp_path / "v.csv"
        code, _ = run_cli("verify", "--limit", "1000", output=out)
        assert code == 1
        rows = out.read_text().splitlines()
        assert all(",FAIL," not in row for row in rows[1:9] + rows[10:])
        assert re.fullmatch(r'9,cache-integrity,FAIL,"round_trips=\d+/100 fuzz_detected=\d+/100"', rows[9])
        return rows[9]

    def test_flipped_payload_byte_on_write_fails_cache_integrity(self, tmp_path, monkeypatch):
        real = verify_mod.save

        def flipping(path, artifact):
            real(path, artifact)
            raw = bytearray(Path(path).read_bytes())
            raw[HEADER.size] ^= 0x01
            Path(path).write_bytes(bytes(raw))

        monkeypatch.setattr(verify_mod, "save", flipping)
        # the one table and the one series that go through a file fail their round trip
        assert self.cache_integrity_row(tmp_path).endswith('"round_trips=98/100 fuzz_detected=100/100"')

    def test_decode_without_its_checksum_compare_fails_cache_integrity(self, tmp_path, monkeypatch):
        real = verify_mod.decode

        def unchecked(buffer):
            # rewrite the stored checksum to what the bytes hash to, so the compare never fails
            raw = bytearray(buffer)
            actual = fnv1a64(bytes(raw[HEADER.size:]), bytes(raw[:CHECKSUM_OFFSET]))
            raw[CHECKSUM_OFFSET:HEADER.size] = actual.to_bytes(8, "little")
            return real(raw)

        monkeypatch.setattr(verify_mod, "decode", unchecked)
        row = self.cache_integrity_row(tmp_path)
        assert "round_trips=100/100" in row and "fuzz_detected=100/100" not in row

    def test_load_returning_another_artifact_fails_cache_integrity(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify_mod, "load", lambda path: accumulate(FunctionKind.MOBIUS, 7))
        assert self.cache_integrity_row(tmp_path).endswith('"round_trips=98/100 fuzz_detected=100/100"')

    def test_cache_integrity_writes_two_files(self, tmp_path, monkeypatch):
        # Creating and deleting a file per artifact slows every later pass on
        # some filesystems, so only one table and one series go to disk.
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        monkeypatch.setattr(shutil, "rmtree", lambda *args, **kwargs: None)  # keep what it made
        saved = []
        real = verify_mod.save
        monkeypatch.setattr(verify_mod, "save", lambda path, a: saved.append(type(a)) or real(path, a))
        assert run_cli("verify", "--limit", "1000", output=tmp_path / "v.csv")[0] == 0
        assert len(list(tmp.rglob("*"))) <= 4
        assert sorted(t.__name__ for t in saved) == ["SummatorySeries", "ValueTable"]


class TestExitCodes:
    def test_unknown_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--kind", "mertens", "--limit", "100"])
        assert exc.value.code == 2

    def test_zero_limit_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--kind", "mobius", "--limit", "0"])
        assert exc.value.code == 2

    def test_domain_error_exits_two(self, capsys):
        assert main(["sieve", "--kind", "mobius", "--lo", "10", "--hi", "5"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["sum", "--kind", "mobius", "--limit", "100", "--ladder", "inf"]) == 2
        assert "error: ladder ratio" in capsys.readouterr().err

    def test_resource_error_exits_three(self, capsys):
        assert main(["sum", "--kind", "mobius", "--limit", "2e9"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message, guard", [
        (["stats", "--kind", "mobius", "--limit", "2e9"], "exceeds the configured maximum", 10**8),
        (["sum", "--kind", "mobius", "--limit", "2e9", "--ladder", "all"], "exceeds the configured maximum",
         10**8),
        (["sum", "--kind", "mobius", "--limit", "1e9", "--ladder", "all"], "above the cap of 100000000", 10**8),
        (["sum", "--kind", "mobius", "--limit", "1e9", "--ladder", repr(1 + 2**-52)],
         "above the cap of 100000000", 10**8),
        (["stats", "--kind", "mobius", "--limit", "3e7", "--ladder", "all"],
         "above the cap of 20000000", 10**8),
        (["stats", "--kind", "mobius", "--limit", "1e8", "--ladder", "all"],
         "above the cap of 20000000", 2 * 10**7),
        (["scaling", "--kind", "psi", "--limit", "2e8", "--ladder", "all"],
         "every n is 200000000 checkpoints, above the cap of 100000000", 10**8),
    ], ids=["stats", "sum-all", "sum-all-1e9", "sum-ratio-1e9", "stats-all-3e7", "stats-all-1e8",
            "scaling-all-2e8"])
    def test_past_max_limit_exits_three_before_allocating(self, argv, message, guard, monkeypatch, capsys):
        class GuardedNumpy:
            """numpy, except that arange refuses more than guard entries."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def arange(*args, **kwargs):
                assert len(range(*args)) <= guard, "unguarded arange"
                return np.arange(*args, **kwargs)

        def walk(*args, **kwargs):
            raise AssertionError("started the segment walk")

        monkeypatch.setattr(series_mod, "np", GuardedNumpy())
        monkeypatch.setattr(series_mod, "_ordered_segments", walk)
        assert main(argv) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, message", [
        (["verify", "--limit", "2e9"], 3, "exceeds the configured maximum"),
        (["scaling", "--kind", "liouville", "--limit", "1e9", "--phi", "bogus"], 2, "unknown phi name"),
        (["sieve", "--kind", "mobius", "--hi", "6e7", "--binary"], 2, "--binary needs --output"),
    ], ids=["verify", "scaling", "sieve"])
    def test_inputs_refused_before_the_walk(self, argv, code, message, monkeypatch, capsys):
        def reached(*args, **kwargs):
            raise AssertionError("walked or sieved before checking the inputs")

        monkeypatch.setattr(verify_mod, "sieve_values", reached)
        monkeypatch.setattr(series_mod, "_ordered_segments", reached)
        monkeypatch.setattr(cli_mod, "sieve_values", reached)
        assert main(argv) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["liouville", "psi"])
    @pytest.mark.parametrize("phi", ["const:inf", "pow:inf", "pow:1000"])
    def test_phi_not_positive_and_finite_exits_two(self, phi, kind, capsys):
        """No report, and no numpy overflow warning, which pytest would raise here."""
        assert main(["scaling", "--kind", kind, "--limit", "1000", "--phi", phi]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["stats", "--kind", "mobius", "--limit", "100"],
        ["scaling", "--kind", "mobius", "--limit", "100"],
    ], ids=["stats", "scaling"])
    def test_cache_dir_is_not_an_option_where_no_cache_is_read(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["pow:x", "const:abc"])
    def test_phi_that_is_not_a_number_exits_two(self, phi, capsys):
        assert main(["scaling", "--kind", "liouville", "--limit", "100", "--phi", phi]) == 2
        assert capsys.readouterr().err.startswith("error: bad phi")

    @pytest.mark.parametrize("ladder", ["99999999999999999999,", "5,99999999999999999999"])
    def test_checkpoint_past_int64_exits_two(self, ladder, capsys):
        assert main(["sum", "--kind", "mobius", "--limit", "10", "--ladder", ladder]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_sieve_past_the_base_prime_cap_exits_three_at_once(self, capsys):
        t0 = time.monotonic()
        assert main(["sieve", "--kind", "mobius", "--lo", "1e18", "--hi", "1e18"]) == 3
        assert time.monotonic() - t0 < 1.0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_is_usage_error(self, threads, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--kind", "mobius", "--limit", "100", "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_output_into_missing_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["sum", "--kind", "mobius", "--limit", "100", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.endswith(f": {str(out)!r}\n")  # not its temporary file
        assert not out.exists()

    def test_unwritable_output_refused_before_the_walk(self, tmp_path, monkeypatch, capsys):
        def reached(*args, **kwargs):
            raise AssertionError("walked before opening the output")

        monkeypatch.setattr(series_mod, "_ordered_segments", reached)
        out = tmp_path / "missing" / "x.csv"
        assert main(["sum", "--kind", "mobius", "--limit", "1e9", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_unusable_cache_dir_refused_before_the_walk(self, tmp_path, monkeypatch, capsys):
        def reached(*args, **kwargs):
            raise AssertionError("walked before making the cache directory")

        monkeypatch.setattr(series_mod, "_ordered_segments", reached)
        (tmp_path / "F").write_bytes(b"")
        cache_dir = tmp_path / "F" / "sub"  # under a file: mkdir fails
        assert main(["sum", "--kind", "mobius", "--limit", "2e8", "--cache-dir", str(cache_dir)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 20] Not a directory: {str(cache_dir)!r}\n")

    @pytest.mark.parametrize("fault", ["resource limit", "write error", "any error"])
    def test_failed_command_keeps_the_output_file(self, fault, tmp_path, monkeypatch):
        out = tmp_path / "x.csv"
        out.write_bytes(b"old report\n")
        argv = ["sum", "--kind", "mobius", "--limit", "5000", "--ladder", "all", "--output", str(out)]
        if fault == "resource limit":
            argv[4] = "2e9"
        else:
            real = cli_mod._report_rows
            error = OSError("disk full") if fault == "write error" else RuntimeError("broken")

            def failing(*args):
                yield next(real(*args))  # after the header, part-way through the report
                raise error

            monkeypatch.setattr(cli_mod, "_report_rows", failing)
        if fault == "any error":
            with pytest.raises(RuntimeError, match="broken"):
                main(argv)
        else:
            assert main(argv) == (3 if fault == "resource limit" else 2)
        assert out.read_bytes() == b"old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_report_replaces_the_target_of_a_symlink(self, tmp_path):
        target = tmp_path / "x.csv"
        target.write_bytes(b"old report\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["sum", "--kind", "mobius", "--limit", "4", "--ladder", "all",
                     "--output", str(link)]) == 0
        assert link.is_symlink() and target.read_text() == "n,S\n1,1\n2,0\n3,-1\n4,-1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "x.csv"]

    def test_output_that_is_not_a_regular_file_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["sum", "--kind", "mobius", "--limit", "4", "--ladder", "all",
                     "--output", str(fifo)]) == 0
        reader.join(timeout=10)
        assert got == [b"n,S\n1,1\n2,0\n3,-1\n4,-1\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_binary_table_into_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["sieve", "--kind", "mobius", "--hi", "100", "--binary",
                     "--output", str(fifo)]) == 0
        reader.join(timeout=10)
        assert got == [b"".join(encode(sieve_values(FunctionKind.MOBIUS, 1, 100)))]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_binary_table_through_a_symlink_replaces_its_target(self, tmp_path):
        target = tmp_path / "t.sumf"
        target.write_bytes(b"old table\n")
        link = tmp_path / "link.sumf"
        link.symlink_to(target)
        assert main(["sieve", "--kind", "liouville", "--hi", "100", "--binary",
                     "--output", str(link)]) == 0
        assert link.is_symlink()
        table = load(target)
        assert table.kind is FunctionKind.LIOUVILLE and (table.lo, table.hi) == (1, 100)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.sumf", "t.sumf"]

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestOutputHygiene:
    def test_reports_end_with_single_newline_no_cr(self, tmp_path):
        out = tmp_path / "x.csv"
        run_cli("sum", "--kind", "mobius", "--limit", "50", output=out)
        raw = out.read_bytes()
        assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
        assert b"\r" not in raw

    def test_stdout_when_no_output_given(self, capsys):
        code = main(["sum", "--kind", "mobius", "--limit", "4", "--ladder", "all"])
        assert code == 0
        assert capsys.readouterr().out == "n,S\n1,1\n2,0\n3,-1\n4,-1\n"
