import argparse
import json
import math
import struct
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest

from summatoria import cli as cli_mod
from summatoria import verify as verify_mod
from summatoria.cache import load
from summatoria.cli import fmt12, main, parse_kind, parse_ladder, parse_limit
from summatoria.kernels import FunctionKind, ValueTable, sieve_values
from summatoria.series import accumulate, resolve_checkpoints


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


class TestFmt12:
    def test_negative_zero_normalized(self):
        assert fmt12(-0.0) == "0"
        assert fmt12(0.0) == "0"

    def test_twelve_significant_digits(self):
        assert fmt12(math.pi) == "3.14159265359"
        assert fmt12(-1.0 / 3.0) == "-0.333333333333"
        assert fmt12(1.5) == "1.5"


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
        for fmt in ("csv", "json"):
            out = tmp_path / f"s.{fmt}"
            assert run_cli("sum", "--kind", kind, "--limit", limit, "--ladder", "all",
                           "--format", fmt, output=out)[0] == 0
            if fmt == "csv":
                rows = [f"{n},{cell(s)}" for n, s in series.checkpoints]
                assert out.read_text() == "\n".join(["n,S", *rows]) + "\n"
            else:
                doc = json.loads(out.read_text())
                assert doc["checkpoints"] == [{"n": n, "S": s} for n, s in series.checkpoints]

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
        cached = cache / "liouville-series-1-5000.sumf"
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
        assert load(cached).final_sum == -46


    @pytest.mark.parametrize("kind", ["mobius", "psi"])
    def test_alternating_plans_share_one_series_file(self, kind, tmp_path, monkeypatch):
        plans = ("all", "geometric", "all", "1.5", "geometric")
        expect = {}
        for plan in set(plans):
            out = tmp_path / f"ref-{plan}.csv"
            assert run_cli("sum", "--kind", kind, "--limit", "3000", "--ladder", plan,
                           output=out)[0] == 0
            expect[plan] = out.read_bytes()

        builds = count_builds(monkeypatch)
        cache = tmp_path / "cache"
        for i, plan in enumerate(plans):
            out = tmp_path / f"run-{i}.csv"
            assert run_cli("sum", "--kind", kind, "--limit", "3000", "--ladder", plan,
                           "--cache-dir", cache, output=out)[0] == 0
            assert out.read_bytes() == expect[plan], plan
        # "all" covers every later plan, so only the first run builds
        assert len(builds) == 1
        assert [p.name for p in cache.iterdir()] == [f"{kind}-series-1-3000.sumf"]

    def test_uncovered_plan_stores_the_union(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        builds = count_builds(monkeypatch)
        for plan in ("geometric", "7,11,13", "geometric", "11,7"):
            assert run_cli("sum", "--kind", "liouville", "--limit", "500", "--ladder", plan,
                           "--cache-dir", cache, output=tmp_path / "r.csv")[0] == 0
            assert (tmp_path / "r.csv").read_text().splitlines()[1:] == [
                f"{n},{s}" for n, s in accumulate(FunctionKind.LIOUVILLE, 500, parse_ladder(plan))
                .checkpoints
            ]
        assert len(builds) == 2
        stored = load(cache / "liouville-series-1-500.sumf")
        expect = np.union1d(resolve_checkpoints(500, "geometric"), [7, 11, 13])
        assert np.array_equal(stored.ns, expect)

    def test_version_1_cache_file_is_rebuilt(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out1 = tmp_path / "r1.csv"
        assert run_cli("sum", "--kind", "theta", "--limit", "4000",
                       "--cache-dir", cache, output=out1)[0] == 0
        cached = cache / "theta-series-1-4000.sumf"
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
        assert [p.name for p in cache.iterdir()] == ["mobius-series-1-100.sumf"]


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

    def test_csv_header(self, tmp_path):
        out = tmp_path / "v.csv"
        code, _ = run_cli("verify", "--limit", "1000", output=out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "criterion,name,status,measured"
        assert len(lines) == 11


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

    def test_resource_error_exits_three(self, capsys):
        assert main(["sum", "--kind", "mobius", "--limit", "2e9"]) == 3
        assert "error:" in capsys.readouterr().err

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
        out = tmp_path / "missing" / "report.csv"
        assert main(["sum", "--kind", "mobius", "--limit", "100", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

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
