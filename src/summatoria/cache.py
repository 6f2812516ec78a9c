"""Binary persistence for value tables and summatory series.

File layout, all little-endian:

    offset  size  field
    0       4     magic "SUMF"
    4       4     format version, u32 (currently 2)
    8       1     kind tag (FunctionKind value, 0..4)
    9       1     payload tag: 0 = value table, 1 = summatory series
    10      8     lo, u64 (series store 1)
    18      8     hi, u64 (series store the limit)
    26      8     checksum: BLAKE2b-64 of the payload, keyed on bytes 0..25
    34      ...   payload

Value-table payloads are the raw values, i8 for the ±1/0 kinds and f64 for
the Chebyshev kinds. Series payloads are (u64 n, i64 S) or (u64 n, f64 S)
pairs in ascending n. No compression; the bytes of a saved artifact are a
pure function of the artifact.

The format is a pure codec: encode turns an artifact into its header and
payload bytes, and decode turns the bytes of a file back into the artifact.
Decoding re-checks everything: magic, version, tags, checksum (integrity
errors, naming the offending field), then the reconstructed artifact's own
type invariants (corruption errors). Because the checksum covers the header
fields as well as the payload, a changed byte anywhere in the file is an
integrity error. Version 1 files (FNV-1a over the payload only) fail the
version check.

save and load are the codec's file wrappers. save writes through replacing,
which renames a temporary file over the target, so a reader sees either the
old file or the new one, never a partial write; load reads the whole file
and decodes it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptionError, DomainError, IntegrityError
from .kernels import FunctionKind, ValueTable
from .series import SummatorySeries

MAGIC = b"SUMF"
VERSION = 2
HEADER = struct.Struct("<4sIBBQQQ")

PAYLOAD_VALUE_TABLE = 0
PAYLOAD_SERIES = 1

ENV_CACHE_DIR = "SUMMATORIA_CACHE"

#: The checksum slot; the digest is keyed on the header bytes before it.
CHECKSUM_OFFSET = 26


def fnv1a64(data, key: bytes = b"") -> int:
    """BLAKE2b-64 of data, keyed on key, as a little-endian integer.

    This is the format's checksum. It replaced the version 1 FNV-1a hash
    and keeps that function's name, so callers and instrumentation that
    bind ``fnv1a64`` still find it. save and load call it through this
    module global.
    """
    return int.from_bytes(hashlib.blake2b(data, digest_size=8, key=key).digest(), "little")


def _payload_bytes(artifact) -> tuple[int, int, int, bytes]:
    """(kind_tag, payload_tag, (lo, hi), payload) for a supported artifact."""
    if isinstance(artifact, ValueTable):
        code = "<i1" if artifact.kind.is_integer_valued else "<f8"
        payload = artifact.values.astype(code, copy=False).tobytes()
        return artifact.kind.value, PAYLOAD_VALUE_TABLE, (artifact.lo, artifact.hi), payload
    if isinstance(artifact, SummatorySeries):
        s_code = "<i8" if artifact.kind.is_integer_valued else "<f8"
        pairs = np.empty(len(artifact.ns), dtype=[("n", "<u8"), ("s", s_code)])
        pairs["n"] = artifact.ns
        pairs["s"] = artifact.sums
        return artifact.kind.value, PAYLOAD_SERIES, (1, artifact.limit), pairs.tobytes()
    raise DomainError(f"cannot serialize a {type(artifact).__name__}")


def encode(artifact: ValueTable | SummatorySeries) -> tuple[bytes, bytes]:
    """The header and the payload of one artifact; the file is the one after the other."""
    kind_tag, payload_tag, (lo, hi), payload = _payload_bytes(artifact)
    fields = (MAGIC, VERSION, kind_tag, payload_tag, lo, hi)
    checksum = fnv1a64(payload, HEADER.pack(*fields, 0)[:CHECKSUM_OFFSET])
    return HEADER.pack(*fields, checksum), payload


def decode(buffer) -> ValueTable | SummatorySeries:
    """The artifact whose file bytes are buffer, re-validating structure and invariants.

    Raises:
        IntegrityError: short file, bad magic, unknown version or tag,
            or checksum mismatch; the message names the failing field.
        CorruptionError: bytes are structurally sound but the decoded
            artifact violates its own type invariants.
    """
    raw = memoryview(buffer)
    if len(raw) < HEADER.size:
        raise IntegrityError(f"header: file is {len(raw)} bytes, need {HEADER.size}")
    magic, version, kind_tag, payload_tag, lo, hi, checksum = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise IntegrityError(f"magic: expected {MAGIC!r}, found {magic!r}")
    if version != VERSION:
        raise IntegrityError(f"version: expected {VERSION}, found {version}")
    try:
        kind = FunctionKind(kind_tag)
    except ValueError:
        raise IntegrityError(f"kind_tag: unknown value {kind_tag}") from None
    if payload_tag not in (PAYLOAD_VALUE_TABLE, PAYLOAD_SERIES):
        raise IntegrityError(f"payload_tag: unknown value {payload_tag}")
    payload = raw[HEADER.size :]
    actual = fnv1a64(payload, raw[:CHECKSUM_OFFSET])
    if actual != checksum:
        raise IntegrityError(
            f"checksum: header says {checksum:#018x}, header and payload hash to {actual:#018x}"
        )

    if payload_tag == PAYLOAD_VALUE_TABLE:
        code = "<i1" if kind.is_integer_valued else "<f8"
        values = np.frombuffer(payload, dtype=code)
        native = values.astype(np.int8 if kind.is_integer_valued else np.float64)
        try:
            table = ValueTable(kind, lo, hi, native)
        except DomainError as exc:
            raise CorruptionError(f"value table rejected: {exc}") from exc
        table.validate()
        return table

    s_code = "<i8" if kind.is_integer_valued else "<f8"
    pair = np.dtype([("n", "<u8"), ("s", s_code)])
    if len(payload) % pair.itemsize:
        raise CorruptionError(
            f"series payload of {len(payload)} bytes is not a whole number of checkpoints"
        )
    pairs = np.frombuffer(payload, dtype=pair)
    ns = pairs["n"].astype(np.int64)
    sums = pairs["s"].astype(np.int64 if kind.is_integer_valued else np.float64)
    try:
        return SummatorySeries(kind, hi, ns, sums)
    except DomainError as exc:
        raise CorruptionError(f"series rejected: {exc}") from exc


@contextlib.contextmanager
def replacing(path, mode: str = "xb", **open_args):
    """A file open in mode that replaces path when the block ends; every file is written so.

    path is resolved, so a symlink is written through. A target that exists
    but is not a regular file, such as a FIFO, is opened in place, with "x"
    in mode turned into "w". Otherwise a temporary file is created beside
    the target on entry, and a failure to create it names path; it is
    renamed over the target when the block ends, or removed if the block
    raises, leaving the target as it was.
    """
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        with open(target, mode.replace("x", "w"), **open_args) as fh:
            yield fh
        return
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, mode, **open_args)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(path, artifact: ValueTable | SummatorySeries) -> None:
    """Write one artifact to path as encode gives it, the header then the payload.

    The parent directories are made first; the bytes go through replacing.
    """
    header, payload = encode(artifact)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with replacing(path) as fh:
        fh.write(header)
        fh.write(payload)


def load(path) -> ValueTable | SummatorySeries:
    """Read the artifact at path back with decode, which raises on any fault it finds."""
    return decode(Path(path).read_bytes())


def series_filename(kind: FunctionKind, limit: int, plan) -> str:
    """Cache filename of the series of kind up to limit at the checkpoint plan, one per plan.

    "geometric", "all" and a ratio are named as given, without resolving the
    plan; an explicit list by a BLAKE2b-64 digest of its sorted distinct
    positions with the limit, so lists that resolve alike share one file.
    """
    if isinstance(plan, str):
        tag = plan
    elif isinstance(plan, (int, float)):
        tag = f"ratio-{float(plan)!r}"
    else:
        points = ",".join(map(str, sorted({*map(int, plan), limit})))
        tag = "list-" + hashlib.blake2b(points.encode(), digest_size=8).hexdigest()
    return f"{kind.label}-series-1-{limit}-{tag}.sumf"
