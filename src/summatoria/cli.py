"""Command-line interface: sieve, sum, stats, scaling, verify.

Exit codes: 0 success, 1 verification failure, 2 configuration or I/O
error, 3 resource limit exceeded.

All CSV output is deterministic byte-for-byte for a fixed command line and
package version: rows end with a single newline, real numbers are printed
with 12 significant digits, and nothing machine- or time-dependent is ever
written to the report stream (timings go to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .cache import ENV_CACHE_DIR, load, save, series_filename
from .errors import DomainError, ResourceError, SummatoriaError
from .kernels import KIND_BY_LABEL, FunctionKind, sieve_values
from .moments import moment_scan, prime_adjacent_joint
from .scaling import (
    SlowGrowthSpec,
    chebyshev_bound_coverage,
    fit_exponent,
    normalized_envelope,
)
from .series import (
    MeanModel,
    SummatorySeries,
    accumulate,
    deviation_series,
    geometric_ladder,
    resolve_checkpoints,
)
from .verify import fmt12

#: Above this limit, scaling reports switch from all-n to ladder checkpoints.
DENSE_SCAN_LIMIT = 10**6
#: Rows of a sum report converted to Python scalars at a time.
_ROWS_PER_STEP = 1 << 12


def parse_limit(text: str) -> int:
    """A positive integer bound, accepting scientific notation like 1e6."""
    try:
        n = int(text, 10)
    except ValueError:
        try:
            v = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not v.is_integer() or abs(v) > 1e18:
            raise argparse.ArgumentTypeError(f"not a usable integer bound: {text!r}")
        n = int(v)
    if n < 1:
        raise argparse.ArgumentTypeError(f"bound must be >= 1, got {text!r}")
    return n


def parse_kind(text: str) -> FunctionKind:
    try:
        return KIND_BY_LABEL[text]
    except KeyError:
        known = ", ".join(sorted(KIND_BY_LABEL))
        raise argparse.ArgumentTypeError(f"unknown kind {text!r} (expected one of: {known})") from None


def parse_ladder(text: str):
    """geometric | all | a ratio like 1.5 | comma-separated checkpoints."""
    if text in ("geometric", "all"):
        return text
    if "," in text:
        try:
            return [parse_limit(part) for part in text.split(",") if part]
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(f"bad checkpoint list {text!r}") from None
    try:
        ratio = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}") from None
    if ratio <= 1.0:
        raise argparse.ArgumentTypeError(f"ladder ratio must exceed 1, got {text!r}")
    return ratio


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="summatoria",
        description="Arithmetic-function summatory series and their growth statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kind_required=True):
        if kind_required:
            p.add_argument("--kind", type=parse_kind, required=True,
                           help="mobius | liouville | prime-indicator | psi | theta")
        p.add_argument("--output", "-o", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--cache-dir", default=os.environ.get(ENV_CACHE_DIR),
                       help=f"artifact cache directory (default: ${ENV_CACHE_DIR} if set)")
        p.add_argument("--threads", type=parse_limit, default=os.cpu_count() or 1,
                       help="sieve worker threads; results never depend on this")

    p = sub.add_parser("sieve", help="pointwise values over an interval")
    p.add_argument("--lo", type=parse_limit, default=1)
    p.add_argument("--hi", type=parse_limit, required=True)
    p.add_argument("--binary", action="store_true",
                   help="write the binary cache format instead of csv/json (needs --output)")
    common(p)

    p = sub.add_parser("sum", help="summatory series at checkpoints")
    p.add_argument("--limit", type=parse_limit, required=True)
    p.add_argument("--ladder", type=parse_ladder, default="geometric",
                   help="geometric | all | ratio | n1,n2,...")
    common(p)

    p = sub.add_parser("stats", help="moment statistics at checkpoints")
    p.add_argument("--limit", type=parse_limit, required=True)
    p.add_argument("--ladder", type=parse_ladder, default="geometric")
    common(p)

    p = sub.add_parser("scaling", help="exponent fit, envelope, and bound coverage")
    p.add_argument("--limit", type=parse_limit, required=True)
    p.add_argument("--ladder", type=parse_ladder, default=None,
                   help=f"default: all n up to {DENSE_SCAN_LIMIT:.0e}, geometric above")
    p.add_argument("--phi", default="log", help="log | log2 | loglog | const[:C] | pow:E")
    common(p)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--limit", type=parse_limit, default=10**6)
    common(p, kind_required=False)
    return parser


def _emit(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="\n")


def _num(kind: FunctionKind, v) -> str:
    return str(int(v)) if kind.is_integer_valued else fmt12(v)


def _json_num(kind: FunctionKind, v):
    return int(v) if kind.is_integer_valued else float(v)


def _try_cached_series(cache_dir, kind, limit, cps, threads):
    """The series at checkpoints cps, through the cache directory if one is set.

    A directory holds one series file per (kind, limit). Any checkpoint set
    that file covers is served from it. Otherwise the union of its
    checkpoints and cps is built and saved, so plans that alternate at one
    limit stop overwriting each other's file.
    """
    if not cache_dir:
        return accumulate(kind, limit, cps, threads=threads)
    path = Path(cache_dir) / series_filename(kind, limit)
    plan = cps
    if path.exists():
        try:
            stored = load(path)
        except SummatoriaError as exc:
            print(f"warning: ignoring cache file {path}: {exc}", file=sys.stderr)
        else:
            if isinstance(stored, SummatorySeries) and stored.kind is kind and stored.limit == limit:
                served = _restrict(stored, cps)
                if served is not None:
                    return served
                plan = np.union1d(stored.ns, cps)
            else:
                print(f"warning: cache file {path} does not match, rebuilding", file=sys.stderr)
    series = accumulate(kind, limit, plan, threads=threads)
    save(path, series)
    return _restrict(series, cps)


def _restrict(series: SummatorySeries, cps) -> SummatorySeries | None:
    """series at exactly the checkpoints cps, or None if it lacks one of them."""
    idx = np.minimum(np.searchsorted(series.ns, cps), len(series.ns) - 1)
    if not np.array_equal(series.ns[idx], cps):
        return None
    if len(idx) == len(series.ns):
        return series
    return SummatorySeries(series.kind, series.limit, series.ns[idx], series.sums[idx])


def cmd_sieve(args) -> int:
    table = sieve_values(args.kind, args.lo, args.hi)
    if args.binary:
        if not args.output:
            raise DomainError("--binary needs --output")
        save(args.output, table)
        return 0
    values = table.values.tolist()
    if args.format == "csv":
        cells = values if table.kind.is_integer_valued else map(fmt12, values)
        rows = "\n".join(map("{},{}".format, range(table.lo, table.hi + 1), cells))
        _emit(f"k,f\n{rows}\n", args.output)
    else:
        doc = {"kind": table.kind.label, "lo": table.lo, "hi": table.hi, "values": values}
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _column_steps(series: SummatorySeries):
    """(ns, sums) as Python lists, _ROWS_PER_STEP rows at a time.

    A step at a time keeps no Python object per row of the whole series.
    """
    for i in range(0, len(series), _ROWS_PER_STEP):
        yield series.ns[i : i + _ROWS_PER_STEP].tolist(), series.sums[i : i + _ROWS_PER_STEP].tolist()


def cmd_sum(args) -> int:
    cps = resolve_checkpoints(args.limit, args.ladder)
    series = _try_cached_series(args.cache_dir, args.kind, args.limit, cps, args.threads)
    integer = series.kind.is_integer_valued
    if args.format == "csv":
        rows = "\n".join(
            "\n".join(map("{},{}".format, ns, sums if integer else map(fmt12, sums)))
            for ns, sums in _column_steps(series)
        )
        _emit(f"n,S\n{rows}\n", args.output)
    else:
        doc = {
            "kind": series.kind.label,
            "limit": series.limit,
            "checkpoints": [
                {"n": n, "S": s} for ns, sums in _column_steps(series) for n, s in zip(ns, sums)
            ],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def cmd_stats(args) -> int:
    reports = moment_scan(args.kind, args.limit, args.ladder)
    adjacent = None
    if args.kind is FunctionKind.PRIME_INDICATOR and args.limit >= 5:
        adjacent = prime_adjacent_joint(args.limit)
    if args.format == "csv":
        lines = ["n,S,Q,grid_ratio,cov_gap,F2,diag,cross"]
        for r in reports:
            gap = "" if r.covariance_gap is None else fmt12(r.covariance_gap)
            f2, diag, cross = r.decomposition
            lines.append(
                f"{r.n},{_num(r.kind, r.sum_S)},{_num(r.kind, r.sum_Q)},"
                f"{fmt12(r.grid_ratio)},{gap},"
                f"{_num(r.kind, f2)},{_num(r.kind, diag)},{_num(r.kind, cross)}"
            )
        if adjacent is not None:
            lines.append(f"# prime_adjacent joint={fmt12(adjacent.joint)} product={fmt12(adjacent.product)}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        doc = {
            "kind": args.kind.label,
            "limit": args.limit,
            "reports": [
                {
                    "n": r.n,
                    "S": _json_num(r.kind, r.sum_S),
                    "Q": _json_num(r.kind, r.sum_Q),
                    "grid_ratio": r.grid_ratio,
                    "cov_gap": r.covariance_gap,
                    "F2": _json_num(r.kind, r.decomposition.f_squared),
                    "diag": _json_num(r.kind, r.decomposition.diag_sum),
                    "cross": _json_num(r.kind, r.decomposition.cross_sum),
                }
                for r in reports
            ],
        }
        if adjacent is not None:
            doc["prime_adjacent"] = {"joint": adjacent.joint, "product": adjacent.product}
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def cmd_scaling(args) -> int:
    plan = args.ladder
    if plan is None:
        plan = "all" if args.limit <= DENSE_SCAN_LIMIT else "geometric"
    series = accumulate(args.kind, args.limit, plan, threads=args.threads)
    dev = deviation_series(series, MeanModel(0.0))
    phi = SlowGrowthSpec.from_name(args.phi)

    # Both end at the limit, so every ladder point has an index in series.ns.
    ladder = geometric_ladder(args.limit)
    idx = np.searchsorted(series.ns, ladder)
    hit = series.ns[idx] == ladder
    samples = [(int(n), abs(float(dev.deviations[i]))) for n, i in zip(ladder[hit], idx[hit])]
    fit = fit_exponent(samples)
    envelope = normalized_envelope(dev)
    coverage = chebyshev_bound_coverage(dev, phi)

    if args.format == "csv":
        lines = [
            "key,value",
            f"kind,{args.kind.label}",
            f"limit,{args.limit}",
            f"phi,{phi.name}",
            f"alpha,{fmt12(fit.alpha)}",
            f"log_c,{fmt12(fit.log_c)}",
            f"r_squared,{fmt12(fit.r_squared)}",
            f"samples_used,{fit.samples_used}",
            f"residual_max,{fmt12(fit.residual_max)}",
            f"max_ratio,{fmt12(envelope.max_ratio)}",
            f"argmax_n,{envelope.argmax_n}",
            f"coverage_fraction,{fmt12(coverage.fraction)}",
            f"coverage_satisfied,{coverage.satisfied}",
            f"coverage_total,{coverage.total}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        doc = {
            "kind": args.kind.label,
            "limit": args.limit,
            "phi": phi.name,
            "alpha": fit.alpha,
            "log_c": fit.log_c,
            "r_squared": fit.r_squared,
            "samples_used": fit.samples_used,
            "residual_max": fit.residual_max,
            "max_ratio": envelope.max_ratio,
            "argmax_n": envelope.argmax_n,
            "coverage_fraction": coverage.fraction,
            "coverage_satisfied": coverage.satisfied,
            "coverage_total": coverage.total,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    outcome = verify_mod.run_suite(
        limit=args.limit,
        threads=args.threads,
        err=sys.stderr,
    )
    if args.format == "csv":
        _emit(verify_mod.render_csv(outcome), args.output)
    else:
        _emit(verify_mod.render_json(outcome), args.output)
    return 0 if outcome.all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sieve": cmd_sieve,
        "sum": cmd_sum,
        "stats": cmd_stats,
        "scaling": cmd_scaling,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
