"""The benchmark's workloads and the checks on their reports.

Each workload is a fixed list of ``summatoria`` command lines. The seed
shifts the limits down by less than 1%; seed 0 keeps the base sizes, whose
reports at the seed commit are stored in ``reference.json.gz``.

Why each workload exists:

* ``sieve-sweep``: ``sum`` on the geometric ladder for the three integer
  kinds. ``kernels.factor_profile`` does nearly all the work, on two
  threads, so sieve and thread-scaling changes show here and cache or CLI
  changes should not.
* ``float-reduce``: the float kinds, each command sieving at most one
  segment, with sparse and dense ladders including the quadratic dense
  ``moment_scan`` path. The float reducers dominate, the sieve does not.
* ``cache-io``: a warm pass over one shared ``--cache-dir``. The pure-Python
  checksum dominates; the mobius series file is shared by ``verify``
  (all-n) and ``sum`` (geometric), so each pass rebuilds and rewrites it.
  The ``sum`` limits stay equal to the ``verify`` limit on every seed so
  that this sharing is measured on every seed.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import random
import re
from pathlib import Path

import numpy as np

THREADS = 2
DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference.json.gz"

#: Base sizes, then the tiny sizes of the smoke mode.
SIZES = {
    "full": {
        "sweep": 2**23,
        "float_sum": 2 * 10**6,
        "float_dense": 2000,
        "float_scaling": 10**6,
        "cache": 10**5,
    },
    "tiny": {
        "sweep": 30000,
        "float_sum": 20000,
        "float_dense": 200,
        "float_scaling": 10000,
        "cache": 3000,
    },
}

WHY = {
    "sieve-sweep": "integer kinds on a sparse ladder, two segments of up to 4M entries per kind: "
                   "the segmented sieve on two threads does nearly all the work",
    "float-reduce": "float kinds on sparse and dense ladders, one segment each: "
                    "the float reducers dominate and the sieve is a minority",
    "cache-io": "warm pass over one shared cache directory: checksum, cache reads "
                "and rewrites, CSV formatting and the verify oracle dominate",
}


def _shift(rng: random.Random, base: int, seed: int) -> int:
    """base on the default seed, else base lowered by less than 1%."""
    if seed == DEFAULT_SEED or base < 200:
        return base
    return base - rng.randrange(1, base // 100)


def commands(workload: str, seed: int, size: str = "full") -> list[list[str]]:
    """The workload's command lines, without --threads and --cache-dir."""
    z = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sieve-sweep":
        return [
            ["sum", "--kind", kind, "--limit", str(_shift(rng, z["sweep"], seed))]
            for kind in ("mobius", "liouville", "prime-indicator")
        ]
    if workload == "float-reduce":
        return [
            ["sum", "--kind", "psi", "--limit", str(_shift(rng, z["float_sum"], seed))],
            ["stats", "--kind", "theta", "--limit", str(_shift(rng, z["float_sum"], seed))],
            ["stats", "--kind", "psi", "--limit", str(_shift(rng, z["float_dense"], seed)),
             "--ladder", "all"],
            ["scaling", "--kind", "psi", "--limit", str(_shift(rng, z["float_scaling"], seed))],
        ]
    if workload == "cache-io":
        n = str(z["cache"])
        return [
            ["verify", "--limit", n],
            ["sum", "--kind", "mobius", "--limit", n],
            ["sum", "--kind", "liouville", "--limit", n, "--ladder", "all"],
            ["sieve", "--kind", "mobius", "--hi", str(_shift(rng, z["cache"], seed))],
        ]
    raise KeyError(workload)


def key(argv: list[str]) -> str:
    return " ".join(argv)


# -- reference reports ---------------------------------------------------------

_TOKEN = re.compile(r'[\s,="]+')
#: Reports above this size that hold only integers are stored as a digest.
_INLINE_BYTES = 1 << 16


def _is_int(tok: str) -> bool:
    return re.fullmatch(r"-?\d+", tok) is not None


def reference_entry(text: str) -> dict:
    entry = {"sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text)}
    tokens = [t for t in _TOKEN.split(text) if t]
    if len(text) <= _INLINE_BYTES or not all(_is_int(t) for t in tokens if t[0] in "-0123456789"):
        entry["text"] = text
    return entry


def load_reference() -> dict:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(reports: dict[str, str]) -> None:
    doc = {k: reference_entry(v) for k, v in sorted(reports.items())}
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True).encode())


def _tokens_match(a: str, b: str) -> bool:
    if a == b:
        return True
    if _is_int(a) and _is_int(b):
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= 1e-9 * max(abs(x), abs(y))


def compare_with_reference(text: str, entry: dict) -> str | None:
    """None when the report matches: integers exactly, floats to 1e-9 relative."""
    if hashlib.sha256(text.encode()).hexdigest() == entry["sha256"]:
        return None
    if "text" not in entry:
        return "integer-only report differs from the reference"
    got = [t for t in _TOKEN.split(text) if t]
    want = [t for t in _TOKEN.split(entry["text"]) if t]
    if len(got) != len(want):
        return f"report has {len(got)} fields, reference has {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        if not _tokens_match(a, b):
            return f"field {i}: {a!r} where the reference has {b!r}"
    return None


# -- checks that need no stored reference -------------------------------------

def _rows(text: str) -> list[list[str]]:
    lines = text.rstrip("\n").split("\n")
    return [line.split(",") for line in lines[1:] if not line.startswith("#")]


def _int_columns(text: str, width: int) -> np.ndarray:
    body = text.split("\n", 1)[1].strip().replace("\n", ",")
    return np.array(body.split(","), dtype=np.int64).reshape(-1, width)


def _prime_mask(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def _mobius(n: int) -> np.ndarray:
    """mu(0..n) by sign flips per prime up to sqrt(n) and one for the cofactor."""
    mu = np.ones(n + 1, dtype=np.int8)
    prod = np.ones(n + 1, dtype=np.int64)
    for p in np.nonzero(_prime_mask(math.isqrt(n)))[0]:
        p = int(p)
        mu[p::p] *= -1
        prod[p::p] *= p
        mu[p * p :: p * p] = 0
    mu[prod != np.arange(n + 1)] *= -1
    mu[0] = 0
    return mu


def _chebyshev_sums(kind: str, ns: np.ndarray) -> np.ndarray:
    """theta(n) or psi(n) at each n, summed in float64 from an independent sieve."""
    n = int(ns[-1])
    primes = np.nonzero(_prime_mask(n))[0]
    pos, logs = [primes], [np.log(primes.astype(np.float64))]
    if kind == "psi":
        for p in primes[primes <= math.isqrt(n)]:
            p = int(p)
            powers = [p**k for k in range(2, int(math.log(n, p)) + 2) if p**k <= n]
            pos.append(np.array(powers, dtype=np.int64))
            logs.append(np.full(len(powers), math.log(p)))
    pos = np.concatenate(pos)
    order = np.argsort(pos, kind="stable")
    pos, cum = pos[order], np.cumsum(np.concatenate(logs)[order])
    idx = np.searchsorted(pos, ns, side="right") - 1
    return np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(scale))


def _chebyshev_mismatch(kind: str, rows: list[list[str]]) -> bool:
    want = _chebyshev_sums(kind, np.array([int(r[0]) for r in rows]))
    return not all(_close(float(r[1]), w, w) for r, w in zip(rows, want))


def check_report(argv: list[str], text: str) -> str | None:
    """Checks on one report that hold on any seed; None when all pass."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    kind = opts.get("--kind")
    if command == "verify":
        for row in _rows(text):
            number, status = row[0], row[2]
            frozen = "thresholds-frozen-at-1e6" in ",".join(row[3:])
            if status != "PASS" and not (status == "SKIP" and frozen):
                return f"verify criterion {number} is {status}"
        return None
    if command == "sum":
        table = _int_columns(text, 2) if kind in ("mobius", "liouville", "prime-indicator") else None
        if kind == "liouville" and bool(((table[:, 1] - table[:, 0]) % 2).any()):
            return "liouville S(n) and n differ in parity"
        if kind == "prime-indicator":
            n = int(table[-1, 0])
            pi = np.cumsum(_prime_mask(n))
            if not np.array_equal(table[:, 1], pi[table[:, 0]]):
                return "prime-indicator S(n) differs from an independent prime count"
        if kind == "mobius":
            m = np.cumsum(_mobius(int(table[-1, 0])), dtype=np.int64)
            if not np.array_equal(table[:, 1], m[table[:, 0]]):
                return "mobius S(n) differs from an independent mobius sieve"
        if kind in ("psi", "theta") and _chebyshev_mismatch(kind, _rows(text)):
            return f"{kind} S(n) differs from an independent sum of logs"
        return None
    if command == "stats":
        rows = _rows(text)
        floats = kind in ("psi", "theta")
        for r in rows:
            f2, diag, cross = r[5], r[6], r[7]
            if floats:
                ok = _close(float(f2), float(diag) + float(cross), max(float(f2), float(diag)))
            else:
                ok = int(f2) == int(diag) + int(cross)
            if not ok:
                return f"stats row n={r[0]} breaks F2 = diag + cross"
        if floats and _chebyshev_mismatch(kind, rows):
            return f"{kind} S(n) in stats differs from an independent sum of logs"
        return None
    if command == "scaling":
        fields = dict(r[:2] for r in _rows(text))
        limit = int(opts["--limit"])
        if fields.get("limit") != str(limit) or fields.get("coverage_total") != str(limit - 1):
            return "scaling report does not cover 2..limit"
        return None
    if command == "sieve":
        table = _int_columns(text, 2)
        hi = int(opts["--hi"])
        if not np.array_equal(table[:, 0], np.arange(1, hi + 1)):
            return "sieve rows do not run over 1..hi"
        if not np.array_equal(table[:, 1], _mobius(hi)[1:]):
            return "sieve values differ from an independent mobius sieve"
        return None
    return f"no check for command {command!r}"
