"""Command-line interface: sieve, sum, stats, scaling, verify.

Exit codes: 0 success, 1 verification failure, 2 configuration or I/O
error, 3 resource limit exceeded.

CSV and JSON reports are deterministic byte-for-byte for a fixed command
line and package version: one final newline, reals with 12 significant
digits in CSV and as their repr in JSON, and nothing machine- or
time-dependent in the report stream (timings go to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .cache import ENV_CACHE_DIR, load, replacing, save, series_filename
from .errors import DomainError, ResourceError, SummatoriaError
from .kernels import KIND_BY_LABEL, FunctionKind, sieve_values
from .moments import MomentTable, moment_scan, prime_adjacent_joint
from .scaling import SlowGrowthSpec, fit_exponent, fold_scaling
from .scaling import chebyshev_bound_coverage, normalized_envelope  # noqa: F401  kept for the benchmark's tracer
from .series import SummatorySeries, accumulate, resolve_checkpoints
from .verify import fmt12

#: Above this limit, scaling reports switch from all-n to ladder checkpoints.
DENSE_SCAN_LIMIT = 10**6
#: Rows of a report converted to Python scalars at a time.
_ROWS_PER_STEP = 1 << 12
#: Rows of an all-integer report rendered as one character matrix at a time.
_INT_ROWS_PER_STEP = 1 << 16
#: Fewest rows for which the character matrix beats the str join: its fixed
#: cost of about 35-45 us breaks even near 200 rows in JSON and 300 in CSV,
#: and short reports, such as a geometric ladder, keep the str join.
_INT_ROWS_MIN = 400
#: The columns of a stats report, one per MomentTable column.
_STATS_FIELDS = MomentTable._fields[1:]
#: The columns of a verify report, one per field of a CriterionResult.
_VERIFY_FIELDS = ("criterion", "name", "status", "measured")


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


def parse_threads(text: str) -> int:
    """A worker-thread count, capped at the machine's CPU count.

    More threads than cores cannot sieve faster, and the walk keeps one
    pending segment table per thread.
    """
    return min(parse_limit(text), os.cpu_count() or 1)


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
        p.add_argument("--threads", type=parse_threads, default=os.cpu_count() or 1,
                       help="sieve worker threads, at most the CPU count; "
                            "results never depend on this")

    p = sub.add_parser("sieve", help="pointwise values over an interval")
    p.add_argument("--lo", type=parse_limit, default=1)
    p.add_argument("--hi", type=parse_limit, required=True)
    p.add_argument("--binary", action="store_true",
                   help="write the binary cache format instead of csv/json (needs --output)")
    p.add_argument("--cache-dir", help="ignored: this command uses no cache directory")
    common(p)

    p = sub.add_parser("sum", help="summatory series at checkpoints")
    p.add_argument("--limit", type=parse_limit, required=True)
    p.add_argument("--ladder", type=parse_ladder, default="geometric",
                   help="geometric | all | ratio | n1,n2,...")
    p.add_argument("--cache-dir",
                   help="series cache directory, one file per kind, limit and ladder, "
                        f"each read only by its own ladder (default: ${ENV_CACHE_DIR} if set)")
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
    p.add_argument("--cache-dir", help="ignored: this command uses no cache directory")
    common(p, kind_required=False)
    return parser


@contextlib.contextmanager
def _report_stream(args):
    """Where the command writes its report: stdout, or --output through cache.replacing.

    replacing opens its file before the command walks, so an output that
    cannot be written exits 2 at once, and a failed command leaves --output
    as it was. sieve --binary writes --output itself, with save.
    """
    if args.output is None or getattr(args, "binary", False):
        yield sys.stdout
    else:
        with replacing(args.output, "x", encoding="utf-8", newline="\n") as fh:
            yield fh


def _digits(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The characters of str(v) for each v of a signed int column, and which of them to keep.

    Row i is a sign column then W digit columns, W the width of the largest
    |v|, right-aligned: a digit is kept while the value left of it is > 0,
    and the last digit always.
    """
    neg = col < 0
    rest = col.astype(np.int64)
    np.negative(rest, out=rest, where=neg)
    rest = rest.view(np.uint64)  # |v|; -2**63 negates to itself, which is 2**63 here
    top = int(rest.max(initial=0))
    if top < 2**31:
        rest = rest.astype(np.int32)
    width = len(str(top))
    chars = np.empty((len(col), width + 1), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    chars[:, 0] = ord("-")
    keep[:, 0] = neg
    # digit = rest - 10 * (rest // 10): numpy divides int32 and uint64 by a
    # scalar several times faster with // than with divmod or %
    q, digit = np.empty_like(rest), np.empty_like(rest)
    for d in range(width, 0, -1):
        np.greater(rest, 0, out=keep[:, d])
        np.floor_divide(rest, 10, out=q)
        np.multiply(q, 10, out=digit)
        np.subtract(rest, digit, out=digit)
        np.add(digit, ord("0"), out=chars[:, d], casting="unsafe")
        rest, q = q, rest
    keep[:, width] = True
    return chars, keep


def _constant(text: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    """text as m rows of characters, all kept."""
    chars = np.frombuffer(text.encode(), dtype=np.uint8)
    return np.broadcast_to(chars, (m, len(chars))), np.ones((m, len(chars)), dtype=bool)


def _int_rows(columns, prefixes, sep: str):
    """_report_rows for signed int columns, as one uint8 character matrix per step.

    The prefixes, the "," between cells and sep after each row are constant
    columns beside the digits of each column; the kept characters, in row
    order, are the step's text with its last sep cut off.
    """
    for i in range(0, len(columns[0]), _INT_ROWS_PER_STEP):
        m = min(_INT_ROWS_PER_STEP, len(columns[0]) - i)
        parts = []
        for j, (prefix, col) in enumerate(zip(prefixes, columns)):
            parts += [_constant(("," if j else "") + prefix, m), _digits(col[i : i + m])]
        mats, keeps = zip(*parts, _constant(sep, m))
        text = np.hstack(mats)[np.hstack(keeps)].tobytes().decode()
        if i:
            yield sep
        yield text[: len(text) - len(sep)]


def _report_rows(columns, csv: bool, prefixes, sep: str):
    """Text of the rows of equal-length columns, _ROWS_PER_STEP rows per step; concatenate them.

    A row joins its cells, each after its column's prefix, with ","; rows
    are joined by sep. Ints and text print with str, floats as fmt12 in CSV
    and as repr in JSON (as json.dumps), a NaN as "" or null. A step at a
    time keeps no Python object per row of the whole report. A report of
    signed int columns only, of at least _INT_ROWS_MIN rows, is rendered in
    numpy by _int_rows instead; both give the same text.
    """
    if len(columns[0]) >= _INT_ROWS_MIN and all(col.dtype.kind == "i" for col in columns):
        yield from _int_rows(columns, prefixes, sep)
        return
    for i in range(0, len(columns[0]), _ROWS_PER_STEP):
        cells = []
        for prefix, col in zip(prefixes, columns):
            col = col[i : i + _ROWS_PER_STEP]
            if col.dtype.kind != "f":
                step = list(map(str, col.tolist()))
            elif csv:  # + 0.0 turns -0.0 into 0.0, as fmt12 does
                step = list(map("{:.12g}".format, (col + 0.0).tolist()))
            else:
                step = list(map(float.__repr__, col.tolist()))
            if col.dtype.kind == "f":
                for j in np.flatnonzero(np.isnan(col)).tolist():
                    step[j] = "" if csv else "null"
            cells.append(list(map(prefix.__add__, step)) if prefix else step)
        if i:
            yield sep
        yield sep.join(map(",".join, zip(*cells)))


def _csv(fields, columns, *footer: str):
    """The pieces of a CSV report: the header, one line per row of the columns, the footer lines."""
    yield ",".join(fields) + "\n"
    yield from _report_rows(columns, True, [""] * len(columns), "\n")
    yield from (f"\n{line}" for line in footer)
    yield "\n"


def _json(doc: dict, key: str, fields, columns):
    """The pieces of json.dumps(doc, indent=2), its placeholder doc[key] = None replaced by the rows.

    A row is an object of the fields, or a bare value when fields is None;
    the braces of one object and the next separate the rows.
    """
    head, tail = json.dumps(doc, indent=2).split(f'"{key}": null')
    prefixes = [f'\n      "{f}": ' for f in fields] if fields else ["\n    "]
    open_, close = ("\n    {", "\n    }") if fields else ("", "")
    yield f'{head}"{key}": [{open_}'
    yield from _report_rows(columns, False, prefixes, f"{close},{open_}")
    yield f"{close}\n  ]{tail}\n"


def _try_cached_series(cache_dir, kind, limit, plan, threads):
    """The series at the checkpoint plan, through the cache directory if one is set.

    A directory holds one series file per kind, limit and plan
    (series_filename). The file is served only if its kind, limit and
    checkpoints equal what the plan resolves to; otherwise, or if it is
    missing or unreadable, the directory is made, so that a bad one exits 2
    before the walk, and accumulate builds the plan and the file is saved.
    """
    if not cache_dir:
        return accumulate(kind, limit, plan, threads=threads)
    path = Path(cache_dir) / series_filename(kind, limit, plan)
    if path.exists():
        try:
            stored = load(path)
        except SummatoriaError as exc:
            print(f"warning: ignoring cache file {path}: {exc}", file=sys.stderr)
        else:
            if (isinstance(stored, SummatorySeries) and stored.kind is kind and stored.limit == limit
                    and np.array_equal(stored.ns, resolve_checkpoints(limit, plan))):
                return stored
            print(f"warning: cache file {path} does not match, rebuilding", file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    series = accumulate(kind, limit, plan, threads=threads)
    save(path, series)
    return series


def cmd_sieve(args, out) -> int:
    if args.binary and not args.output:
        raise DomainError("--binary needs --output")
    table = sieve_values(args.kind, args.lo, args.hi)
    if args.binary:
        save(args.output, table)
        return 0
    if args.format == "csv":
        out.writelines(_csv(("k", "f"), (np.arange(table.lo, table.hi + 1), table.values)))
    else:
        doc = {"kind": table.kind.label, "lo": table.lo, "hi": table.hi, "values": None}
        out.writelines(_json(doc, "values", None, (table.values,)))
    return 0


def cmd_sum(args, out) -> int:
    cache_dir = os.environ.get(ENV_CACHE_DIR) if args.cache_dir is None else args.cache_dir
    series = _try_cached_series(cache_dir, args.kind, args.limit, args.ladder, args.threads)
    columns = (series.ns, series.sums)
    if args.format == "csv":
        out.writelines(_csv(("n", "S"), columns))
    else:
        doc = {"kind": series.kind.label, "limit": series.limit, "checkpoints": None}
        out.writelines(_json(doc, "checkpoints", ("n", "S"), columns))
    return 0


def cmd_stats(args, out) -> int:
    table = moment_scan(args.kind, args.limit, args.ladder, threads=args.threads)
    doc, footer = {"kind": args.kind.label, "limit": args.limit, "reports": None}, []
    if args.kind is FunctionKind.PRIME_INDICATOR and args.limit >= 5:
        adjacent = prime_adjacent_joint(args.limit, threads=args.threads)
        doc["prime_adjacent"] = adjacent._asdict()
        footer.append(f"# prime_adjacent joint={fmt12(adjacent.joint)} product={fmt12(adjacent.product)}")
    if args.format == "csv":
        out.writelines(_csv(_STATS_FIELDS, table[1:], *footer))
    else:
        out.writelines(_json(doc, "reports", _STATS_FIELDS, table[1:]))
    return 0


def cmd_scaling(args, out) -> int:
    phi = SlowGrowthSpec.from_name(args.phi)
    plan = args.ladder
    if plan is None:
        plan = "all" if args.limit <= DENSE_SCAN_LIMIT else "geometric"
    samples, envelope, coverage = fold_scaling(args.kind, args.limit, plan, phi, threads=args.threads)
    fit = fit_exponent(samples)
    coverage = coverage()

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
    if args.format == "csv":
        cells = (fmt12(v) if isinstance(v, float) else v for v in doc.values())
        out.writelines(["key,value\n", *map("{},{}\n".format, doc, cells)])
    else:
        out.writelines([json.dumps(doc, indent=2), "\n"])
    return 0


def cmd_verify(args, out) -> int:
    outcome = verify_mod.run_suite(limit=args.limit, threads=args.threads, err=sys.stderr)
    criteria = outcome.criteria
    if args.format == "csv":
        text = [(c.name, c.status, '"{}"'.format(c.measured.replace('"', '""'))) for c in criteria]
    else:
        text = [tuple(map(json.dumps, (c.name, c.status, c.measured))) for c in criteria]
    columns = (np.array([c.number for c in criteria]), *map(np.array, zip(*text)))
    if args.format == "csv":
        out.writelines(_csv(_VERIFY_FIELDS, columns))
    else:
        doc = {"limit": outcome.limit, "criteria": None, "all_passed": outcome.all_passed}
        out.writelines(_json(doc, "criteria", _VERIFY_FIELDS, columns))
    return 0 if outcome.all_passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "sieve": cmd_sieve,
        "sum": cmd_sum,
        "stats": cmd_stats,
        "scaling": cmd_scaling,
        "verify": cmd_verify,
    }
    try:
        with _report_stream(args) as out:
            return handlers[args.command](args, out)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
