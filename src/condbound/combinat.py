"""Arbitrary-precision Stirling numbers of the second kind and Bell numbers.

Everything here is exact integer arithmetic.  Bell numbers come from the
Bell (Aitken) triangle: row n+1 is the running sum of row n started at
row n's last entry, and B_n is the head of row n.  Each new row consumes
the old one as it grows, so one row is resident.  Stirling numbers come
from one row generator over the two-term recurrence
S(q, j) = j*S(q-1, j) + S(q-1, j-1), which keeps at most two rows alive.
It is the only source of Stirling numbers: a moment reads its last row,
a Bell sequence takes the per-row maxima from it when they are first
read, and ``table`` writes each row as it is built, so no caller holds
the triangle.  Bell numbers come only from ``BellSequence``.
DEFAULT_QMAX_CAP bounds every row, stream and cache file.
"""

from __future__ import annotations

import os
import struct
import tempfile
from collections import deque
from itertools import accumulate, repeat

from .errors import CapacityError, PreconditionError

DEFAULT_QMAX_CAP = 2048


def _check_q_max(q_max: int) -> None:
    if q_max < 0:
        raise PreconditionError("Stirling rows require q_max >= 0")
    if q_max > DEFAULT_QMAX_CAP:
        raise CapacityError(
            f"q_max={q_max} exceeds the table cap {DEFAULT_QMAX_CAP}")


def _stirling_rows(q_max: int):
    """Yield the rows S(q, 0..q) for q = 0..q_max, one at a time."""
    _check_q_max(q_max)
    row = [1]
    yield row
    for q in range(1, q_max + 1):
        new = [0] * (q + 1)
        for j in range(1, q):
            new[j] = j * row[j] + row[j - 1]
        new[q] = 1
        row = new
        yield row


class BellSequence:
    """Bell numbers values[q] = B_q, with per-row Stirling maxima.

    ``row_maxima`` is computed from the Stirling rows on first access
    unless it was passed in or loaded from a cache file.
    """

    MAGIC = b"CBBL"
    VERSION = 1
    _SPOT_CHECKS = {0: 1, 1: 1, 2: 2, 3: 5, 7: 877, 10: 115975}

    def __init__(self, values: list[int], row_maxima: list[int] | None = None):
        self.values = values
        self._row_maxima = row_maxima
        self.q_max = len(values) - 1

    @classmethod
    def stream(cls, q_max: int) -> "BellSequence":
        """Bell triangle construction; one row of big integers resident."""
        _check_q_max(q_max)
        values = [1]
        row = deque([1])
        for _ in range(q_max):
            # the new row pops the old one entry by entry as it grows
            row = deque(accumulate(map(deque.popleft, repeat(row, len(row))),
                                   initial=row[-1]))
            values.append(row[0])
        return cls(values)

    @property
    def row_maxima(self) -> list[int]:
        if self._row_maxima is None:
            self._row_maxima = [max(r) for r in _stirling_rows(self.q_max)]
        return self._row_maxima

    def bell(self, q: int) -> int:
        if not 0 <= q <= self.q_max:
            raise PreconditionError(f"q={q} outside Bell range 0..{self.q_max}")
        return self.values[q]

    def row_max(self, q: int) -> int:
        if not 0 <= q <= self.q_max:
            raise PreconditionError(f"q={q} outside Bell range 0..{self.q_max}")
        return self.row_maxima[q]

    # -- binary cache ------------------------------------------------------

    def save(self, path) -> None:
        """Write a temporary file beside ``path`` and move it into place, so
        a failed save leaves the previous cache file as it was."""
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
        try:
            with open(fd, "wb") as fh:
                self._write(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def _write(self, fh) -> None:
        fh.write(self.MAGIC)
        fh.write(struct.pack("<II", self.VERSION, self.q_max))
        # row maxima are written only when already known
        for seq in (self.values, self._row_maxima or []):
            fh.write(struct.pack("<I", len(seq)))
            for v in seq:
                blob = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
                fh.write(struct.pack("<I", len(blob)))
                fh.write(blob)

    @classmethod
    def load(cls, path) -> "BellSequence":
        with open(path, "rb") as fh:
            def read(n: int) -> bytes:
                data = fh.read(n)
                if len(data) != n:
                    raise PreconditionError("Bell cache file is truncated")
                return data

            if fh.read(4) != cls.MAGIC:
                raise PreconditionError("not a Bell cache file")
            version, q_max = struct.unpack("<II", read(8))
            if version != cls.VERSION:
                raise PreconditionError(f"unsupported Bell cache version {version}")
            if q_max > DEFAULT_QMAX_CAP:
                raise PreconditionError(
                    f"Bell cache q_max={q_max} exceeds the table cap "
                    f"{DEFAULT_QMAX_CAP}")
            seqs = []
            for _ in range(2):
                (count,) = struct.unpack("<I", read(4))
                seq = []
                for _ in range(count):
                    (nbytes,) = struct.unpack("<I", read(4))
                    seq.append(int.from_bytes(read(nbytes), "big"))
                seqs.append(seq)
        values, maxima = seqs
        if len(values) != q_max + 1:
            raise PreconditionError("Bell cache length does not match header")
        for q, expect in cls._SPOT_CHECKS.items():
            if q <= q_max and values[q] != expect:
                raise PreconditionError(f"Bell cache spot check failed at q={q}")
        return cls(values, maxima or None)
