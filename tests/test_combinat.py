import os
import struct
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

import condbound
from condbound import BellSequence
from condbound import combinat
from condbound.combinat import DEFAULT_QMAX_CAP, _stirling_rows
from condbound.errors import CapacityError, PreconditionError

from conftest import traced_peak
from oracles import (bell_by_binomial_recurrence, enumerate_partitions,
                     partition_counts_by_blocks)


def test_table_qmax_zero():
    assert list(_stirling_rows(0)) == [[1]]


def test_stirling_examples():
    rows = list(_stirling_rows(5))
    # brute force: partitions of a 4-set into 2 blocks
    brute = sum(1 for p in enumerate_partitions(range(4)) if len(p) == 2)
    assert brute == 7
    assert rows[4][2] == 7
    assert rows[5][5] == 1
    assert rows[3][0] == 0


def test_stirling_matches_partition_enumeration():
    rows = list(_stirling_rows(10))
    for q in range(0, 11):
        counts = partition_counts_by_blocks(q)
        for j in range(q + 1):
            assert rows[q][j] == counts[j], (q, j)


def _grown(q: int) -> BellSequence:
    bells = BellSequence()
    bells.bell(q)
    return bells


def test_capacity_cap():
    for build in (lambda q: list(_stirling_rows(q)), _grown):
        with pytest.raises(CapacityError):
            build(5000)
        with pytest.raises(PreconditionError):
            build(-1)


def test_bell_examples(bells16):
    assert bells16.bell(0) == 1
    # enumerate all partitions of a 3-set
    assert sum(1 for _ in enumerate_partitions(range(3))) == 5
    assert bells16.bell(3) == 5
    triangle = bell_by_binomial_recurrence(10)
    assert bells16.bell(10) == triangle[10] == 115975


def test_bell_out_of_range(bells16):
    with pytest.raises(PreconditionError):
        bells16.bell(-1)
    with pytest.raises(CapacityError):
        bells16.bell(DEFAULT_QMAX_CAP + 1)
    assert bells16.built == 16


def test_row_sums_equal_bells(table64, bells64):
    for q in range(65):
        assert sum(table64[q]) == bells64.values[q]


def test_binomial_recurrence_independent_identity(table64):
    ref = bell_by_binomial_recurrence(64)
    for q in range(65):
        assert sum(table64[q]) == ref[q]


def test_streaming_matches_table(table64):
    assert _grown(64).values == [sum(r) for r in table64]


def test_bell_triangle_matches_binomial_recurrence():
    assert _grown(400).values == bell_by_binomial_recurrence(400)


@pytest.mark.parametrize("q", [0, 1, 2, 200])
def test_bell_triangle_matches_stirling_row_sums(q):
    row_sums = [sum(r) for r in _stirling_rows(q)]
    assert _grown(q).values == row_sums


def test_bell_stream_keeps_one_triangle_row():
    q = 1024
    values, peak = traced_peak(lambda: _grown(q).values)
    row = [1]  # the last and largest row of the Bell triangle
    for _ in range(q):
        row = list(accumulate(row, initial=row[-1]))
    row_bytes = sum(map(sys.getsizeof, row))
    # holding two rows at once would exceed this by about half a row
    assert peak < sum(map(sys.getsizeof, values)) + 1.5 * row_bytes


def test_bell_sequence_grows_only_as_far_as_it_is_read():
    bells = BellSequence()
    assert bells.built == 0
    assert bells.bell(10) == 115975
    assert bells.built == 10
    assert bells.bell(3) == 5 and bells.built == 10
    assert bells.bell(400) == bell_by_binomial_recurrence(400)[400]
    assert bells.values == bell_by_binomial_recurrence(400)
    # a read past the built prefix grows it, up to the module-wide cap
    assert bells.bell(401) == _grown(401).values[401]
    assert bells.built == 401


def test_bell_sequence_checks_its_cap_at_once():
    # a read outside 0..DEFAULT_QMAX_CAP raises before it builds anything,
    # and never wraps round to the last value
    bells = BellSequence()
    with pytest.raises(CapacityError):
        bells.bell(DEFAULT_QMAX_CAP + 1)
    assert bells.built == 0
    bells.bell(10)
    with pytest.raises(PreconditionError):
        bells.bell(-1)
    assert bells.built == 10


def test_seeded_bell_prefix_is_kept_and_regrown():
    full = _grown(64).values
    assert BellSequence(full).values == full
    # a seeded prefix holds no triangle row: growing past it starts over
    # from row 0 and agrees with the seed
    bells = BellSequence(full[:21])
    assert bells.built == 20
    assert bells.bell(64) == full[64]
    assert bells.values == full


def _section(seq) -> bytes:
    """One section of a version 1 cache file: a count, then each integer
    as a length and its big-endian bytes."""
    out = struct.pack("<I", len(seq))
    for v in seq:
        blob = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
        out += struct.pack("<I", len(blob)) + blob
    return out


def _cache_file(values, maxima) -> bytes:
    return (BellSequence.MAGIC
            + struct.pack("<II", BellSequence.VERSION, len(values) - 1)
            + _section(values) + _section(maxima))


def test_bell_cache_writes_an_empty_maxima_section(tmp_path, table64):
    path = tmp_path / "bells.bin"
    _grown(64).save(path)
    values = [sum(r) for r in table64]
    # the layout of every cache file the CLI has written: the values,
    # then a maxima section with no entries
    assert path.read_bytes() == _cache_file(values, [])
    assert path.read_bytes()[-4:] == struct.pack("<I", 0)  # no maxima
    loaded = BellSequence.load(path)
    assert loaded.values == values


def test_bell_cache_with_maxima_still_loads(tmp_path, table64, monkeypatch):
    values = [sum(r) for r in table64]
    maxima = [max(r) for r in table64]
    path = tmp_path / "bells.bin"
    path.write_bytes(_cache_file(values, maxima))
    monkeypatch.setattr(combinat, "_stirling_rows", None)  # read, not rebuilt
    loaded = BellSequence.load(path)
    assert loaded.values == values
    # saved again, the file keeps the values and drops the maxima
    loaded.save(path)
    assert path.read_bytes() == _cache_file(values, [])
    # a truncated maxima section is still a truncated file
    path.write_bytes(_cache_file(values, maxima)[:-1])
    with pytest.raises(PreconditionError, match="truncated"):
        BellSequence.load(path)


def test_bell_cache_roundtrip(tmp_path):
    bells = _grown(40)
    path = tmp_path / "bells.bin"
    bells.save(path)
    loaded = BellSequence.load(path)
    assert loaded.values == bells.values
    before = path.read_bytes()
    loaded.save(path)
    assert path.read_bytes() == before


_SAVE_UNDER_FSIZE_LIMIT = """
import resource, sys
from condbound import BellSequence
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
BellSequence([10 ** 100] * 2000).save(sys.argv[1])
"""


def test_failed_save_keeps_the_previous_cache(tmp_path):
    # past the file-size limit a write fails with EFBIG (CPython ignores
    # SIGXFSZ); the cache written before must survive, with no leftovers
    path = tmp_path / "bell_tables.bin"
    _grown(12).save(path)
    before = path.read_bytes()
    src = str(Path(condbound.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _SAVE_UNDER_FSIZE_LIMIT, str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode != 0
    assert "File too large" in proc.stderr
    assert path.read_bytes() == before
    assert BellSequence.load(path).values == _grown(12).values
    assert os.listdir(tmp_path) == ["bell_tables.bin"]


def test_bell_cache_integrity(tmp_path):
    bells = _grown(12)
    path = tmp_path / "bells.bin"
    bells.save(path)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF  # first Bell value byte (after magic/header/lengths)
    path.write_bytes(bytes(blob))
    with pytest.raises(PreconditionError):
        BellSequence.load(path)
