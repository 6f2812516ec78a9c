import os
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from summatoria.cache import (
    CHECKSUM_OFFSET,
    HEADER,
    MAGIC,
    VERSION,
    decode,
    encode,
    fnv1a64,
    load,
    save,
    series_filename,
)
from summatoria.errors import CorruptionError, DomainError, IntegrityError
from summatoria.kernels import FunctionKind, ValueTable, sieve_values
from summatoria.series import SummatorySeries, accumulate


class TestChecksum:
    # BLAKE2b with an 8-byte digest; the header slot stores the digest bytes
    # as they come, so the integer is the digest read little-endian
    VECTORS = [
        (b"", b"", 0xB4B2797457A0A6E4),
        (b"a", b"", 0x2F42665B399EF840),
        (b"foobar", b"", 0xF9514A257F2F219D),
        (b"foobar", b"SUMF", 0x88B3B24FB15C2952),
    ]

    def test_known_vectors(self):
        for data, key, expect in self.VECTORS:
            assert fnv1a64(data, key) == expect


class TestByteLayout:
    def test_mobius_table_one_to_eight(self, tmp_path):
        table = sieve_values(FunctionKind.MOBIUS, 1, 8)
        path = tmp_path / "t.sumf"
        save(path, table)
        raw = path.read_bytes()
        payload = bytes([1, 255, 255, 0, 255, 1, 255, 0])
        assert raw[HEADER.size:] == payload
        magic, version, kind_tag, payload_tag, lo, hi, checksum = HEADER.unpack_from(raw)
        assert magic == MAGIC == b"SUMF"
        assert version == VERSION == 2
        assert (kind_tag, payload_tag) == (0, 0)
        assert (lo, hi) == (1, 8)
        assert CHECKSUM_OFFSET == 26
        assert checksum == fnv1a64(payload, raw[:26])
        assert len(raw) == HEADER.size + 8 == 42

    def test_series_payload_is_pairs(self, tmp_path):
        series = accumulate(FunctionKind.LIOUVILLE, 10, "all")
        path = tmp_path / "s.sumf"
        save(path, series)
        raw = path.read_bytes()
        pairs = np.frombuffer(raw[HEADER.size:], dtype=[("n", "<u8"), ("s", "<i8")])
        assert list(pairs["n"]) == list(range(1, 11))
        assert list(pairs["s"]) == [1, 0, -1, 0, -1, 0, -1, -2, -1, 0]

    def test_save_creates_parent_dirs(self, tmp_path):
        table = sieve_values(FunctionKind.MOBIUS, 1, 4)
        path = tmp_path / "deep" / "nested" / "t.sumf"
        save(path, table)
        assert path.exists()


class TestRoundTrip:
    @pytest.mark.parametrize("kind", list(FunctionKind))
    def test_table_round_trip(self, kind, tmp_path):
        table = sieve_values(kind, 5, 200)
        path = tmp_path / "t.sumf"
        save(path, table)
        back = load(path)
        assert isinstance(back, ValueTable)
        assert back.kind is kind
        assert (back.lo, back.hi) == (5, 200)
        assert back.values.dtype == table.values.dtype
        assert np.array_equal(back.values, table.values)  # bitwise, floats included

    @pytest.mark.parametrize("kind", list(FunctionKind))
    def test_series_round_trip(self, kind, tmp_path):
        series = accumulate(kind, 500)
        path = tmp_path / "s.sumf"
        save(path, series)
        back = load(path)
        assert isinstance(back, SummatorySeries)
        assert back.kind is kind
        assert back.limit == 500
        assert np.array_equal(back.ns, series.ns)
        assert np.array_equal(back.sums, series.sums)

    @given(lo=st.integers(min_value=1, max_value=3000),
           width=st.integers(min_value=0, max_value=400),
           kind=st.sampled_from(list(FunctionKind)))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_randomized_table_round_trip(self, lo, width, kind, tmp_path):
        table = sieve_values(kind, lo, lo + width)
        path = tmp_path / f"{lo}-{width}.sumf"
        save(path, table)
        back = load(path)
        assert back.kind is kind and (back.lo, back.hi) == (lo, lo + width)
        assert np.array_equal(back.values, table.values)


def _file_bytes(kind_tag, payload_tag, lo, hi, payload, checksum=None, magic=MAGIC, version=VERSION):
    fields = (magic, version, kind_tag, payload_tag, lo, hi)
    if checksum is None:
        checksum = fnv1a64(payload, HEADER.pack(*fields, 0)[:CHECKSUM_OFFSET])
    return HEADER.pack(*fields, checksum) + payload


def _write_file(path, *args, **kwargs):
    path.write_bytes(_file_bytes(*args, **kwargs))


class TestIntegrity:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.sumf"
        path.write_bytes(b"SUMF\x01")
        with pytest.raises(IntegrityError, match="header"):
            load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.sumf"
        _write_file(path, 0, 0, 1, 2, b"\x01\x00", magic=b"JUNK")
        with pytest.raises(IntegrityError, match="magic"):
            load(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.sumf"
        _write_file(path, 0, 0, 1, 2, b"\x01\x00", version=99)
        with pytest.raises(IntegrityError, match="version"):
            load(path)

    def test_bad_kind_tag(self, tmp_path):
        path = tmp_path / "k.sumf"
        _write_file(path, 9, 0, 1, 2, b"\x01\x00")
        with pytest.raises(IntegrityError, match="kind_tag"):
            load(path)

    def test_bad_payload_tag(self, tmp_path):
        path = tmp_path / "p.sumf"
        _write_file(path, 0, 7, 1, 2, b"\x01\x00")
        with pytest.raises(IntegrityError, match="payload_tag"):
            load(path)

    def test_single_flipped_payload_bit(self, tmp_path):
        series = accumulate(FunctionKind.MOBIUS, 64)
        path = tmp_path / "s.sumf"
        save(path, series)
        raw = bytearray(path.read_bytes())
        raw[HEADER.size + 5] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="checksum"):
            load(path)

    def test_checksum_message_shows_both_hashes(self, tmp_path):
        path = tmp_path / "c.sumf"
        _write_file(path, 0, 0, 1, 2, b"\x01\x00", checksum=0)
        with pytest.raises(IntegrityError, match="header says 0x"):
            load(path)

    def test_any_changed_header_byte_is_detected(self, tmp_path):
        # the checksum is keyed on bytes 0..25, so kind, tag, lo and hi are
        # covered as well as the payload
        path = tmp_path / "h.sumf"
        save(path, sieve_values(FunctionKind.MOBIUS, 1, 64))
        raw = path.read_bytes()
        missed = []
        for offset in range(HEADER.size):
            for mask in (0x01, 0x80, 0xFF):
                buf = bytearray(raw)
                buf[offset] ^= mask
                path.write_bytes(bytes(buf))
                try:
                    load(path)
                except IntegrityError:
                    continue
                except Exception:
                    pass
                missed.append((offset, mask))
        assert HEADER.size == 34
        assert missed == []

    def test_version_1_file_names_version(self, tmp_path):
        payload = sieve_values(FunctionKind.MOBIUS, 1, 8).values.astype("<i1").tobytes()
        path = tmp_path / "v1.sumf"
        path.write_bytes(HEADER.pack(MAGIC, 1, 0, 0, 1, 8, _fnv1a_v1(payload)) + payload)
        with pytest.raises(IntegrityError, match="version"):
            load(path)


def _fnv1a_v1(data: bytes) -> int:
    """The FNV-1a 64-bit payload checksum of format version 1."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _same(a, b) -> bool:
    """Whether two artifacts have the same type, kind, bounds, dtypes and bytes."""
    if type(a) is not type(b) or a.kind is not b.kind:
        return False
    if isinstance(a, ValueTable):
        return ((a.lo, a.hi) == (b.lo, b.hi) and a.values.dtype == b.values.dtype
                and a.values.tobytes() == b.values.tobytes())
    return (a.limit == b.limit and a.ns.dtype == b.ns.dtype and a.sums.dtype == b.sums.dtype
            and a.ns.tobytes() == b.ns.tobytes() and a.sums.tobytes() == b.sums.tobytes())


#: Faulty files: each is refused with its error class and the field it names.
FAULTS = {
    "truncated header": (b"SUMF\x01", IntegrityError, "header"),
    "bad magic": (_file_bytes(0, 0, 1, 2, b"\x01\x00", magic=b"JUNK"), IntegrityError, "magic"),
    "bad version": (_file_bytes(0, 0, 1, 2, b"\x01\x00", version=99), IntegrityError, "version"),
    "bad kind tag": (_file_bytes(9, 0, 1, 2, b"\x01\x00"), IntegrityError, "kind_tag"),
    "bad payload tag": (_file_bytes(0, 7, 1, 2, b"\x01\x00"), IntegrityError, "payload_tag"),
    "zero checksum": (_file_bytes(0, 0, 1, 2, b"\x01\x00", checksum=0), IntegrityError, "header says 0x"),
    "flipped payload bit": (_file_bytes(0, 0, 1, 2, b"\x01\x00")[:-1] + b"\x10", IntegrityError, "checksum"),
    "liouville zero": (_file_bytes(FunctionKind.LIOUVILLE.value, 0, 1, 3, struct.pack("<3b", 1, -1, 0)),
                       CorruptionError, "zero"),
    "odd series length": (_file_bytes(0, 1, 1, 5, b"\x00" * 17), CorruptionError, "whole number"),
}


class TestCodec:
    """encode and decode are the format; save and load only move its bytes."""

    @pytest.mark.parametrize("kind", list(FunctionKind))
    def test_decode_of_encode_is_load_after_save(self, kind, tmp_path):
        path = tmp_path / "a.sumf"
        for artifact in (sieve_values(kind, 5, 200), accumulate(kind, 500), accumulate(kind, 300, "all")):
            header, payload = encode(artifact)
            save(path, artifact)
            assert path.read_bytes() == header + payload
            back = load(path)
            assert _same(back, artifact)
            for buffer in (header + payload, bytearray(header + payload), memoryview(header + payload)):
                assert _same(decode(buffer), back)

    @pytest.mark.parametrize("name", FAULTS)
    def test_decode_refuses_as_load_does(self, name, tmp_path):
        raw, error, text = FAULTS[name]
        path = tmp_path / "f.sumf"
        path.write_bytes(raw)
        with pytest.raises(error, match=text) as from_load:
            load(path)
        with pytest.raises(error) as from_decode:
            decode(raw)
        assert type(from_decode.value) is type(from_load.value)
        assert str(from_decode.value) == str(from_load.value)


class TestAtomicSave:
    def test_failed_replace_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.sumf"
        save(path, sieve_values(FunctionKind.MOBIUS, 1, 100))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            save(path, sieve_values(FunctionKind.LIOUVILLE, 1, 200))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.sumf"]

    def test_save_over_an_existing_file(self, tmp_path):
        path = tmp_path / "t.sumf"
        save(path, sieve_values(FunctionKind.MOBIUS, 1, 100))
        save(path, sieve_values(FunctionKind.LIOUVILLE, 1, 200))
        back = load(path)
        assert back.kind is FunctionKind.LIOUVILLE and back.hi == 200
        assert [p.name for p in tmp_path.iterdir()] == ["t.sumf"]


class TestCorruption:
    def test_liouville_zero_with_valid_checksum(self, tmp_path):
        # structurally sound file whose decoded table breaks a value
        # invariant: liouville never takes the value 0
        payload = struct.pack("<3b", 1, -1, 0)
        path = tmp_path / "lam.sumf"
        _write_file(path, FunctionKind.LIOUVILLE.value, 0, 1, 3, payload)
        with pytest.raises(CorruptionError, match="zero"):
            load(path)

    def test_out_of_range_float(self, tmp_path):
        payload = struct.pack("<2d", 0.5, 1e6)  # far above log(hi)
        path = tmp_path / "psi.sumf"
        _write_file(path, FunctionKind.CHEBYSHEV_PSI_TERM.value, 0, 2, 3, payload)
        with pytest.raises(CorruptionError):
            load(path)

    def test_series_length_not_multiple_of_record(self, tmp_path):
        path = tmp_path / "odd.sumf"
        _write_file(path, 0, 1, 1, 5, b"\x00" * 17)
        with pytest.raises(CorruptionError, match="whole number"):
            load(path)

    def test_series_with_decreasing_checkpoints(self, tmp_path):
        pairs = np.array([(5, 1), (2, 0)], dtype=[("n", "<u8"), ("s", "<i8")])
        path = tmp_path / "dec.sumf"
        _write_file(path, 0, 1, 1, 5, pairs.tobytes())
        with pytest.raises(CorruptionError, match="rejected"):
            load(path)

    def test_table_length_mismatch(self, tmp_path):
        # header claims [1, 10] but only 3 values follow; checksum is fine
        payload = struct.pack("<3b", 1, -1, -1)
        path = tmp_path / "len.sumf"
        _write_file(path, 0, 0, 1, 10, payload)
        with pytest.raises(CorruptionError, match="rejected"):
            load(path)


class TestNamesAndDirs:
    def test_artifact_filenames(self):
        name = "liouville-series-1-100-{}.sumf".format
        assert series_filename(FunctionKind.LIOUVILLE, 100, "geometric") == name("geometric")
        assert series_filename(FunctionKind.LIOUVILLE, 100, "all") == name("all")
        assert series_filename(FunctionKind.LIOUVILLE, 100, 1.5) == name("ratio-1.5")
        assert series_filename(FunctionKind.LIOUVILLE, 100, 2) == name("ratio-2.0")
        # a list is named by its sorted distinct positions with the limit
        listed = series_filename(FunctionKind.LIOUVILLE, 100, [7, 11, 13])
        assert re.fullmatch(r"liouville-series-1-100-list-[0-9a-f]{16}\.sumf", listed)
        assert series_filename(FunctionKind.LIOUVILLE, 100, [13, 100, 11, 7, 7]) == listed
        assert series_filename(FunctionKind.LIOUVILLE, 100, np.array([11, 7, 13])) == listed
        assert series_filename(FunctionKind.LIOUVILLE, 100, [7, 11]) != listed
        # the limit is one of the positions, so the digest changes with it
        other = series_filename(FunctionKind.LIOUVILLE, 200, [7, 11, 13])
        assert other.rsplit("-", 1)[1] != listed.rsplit("-", 1)[1]

    def test_unsupported_artifact_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            save(tmp_path / "x.sumf", [1, 2, 3])
