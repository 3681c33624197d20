"""Arbitrary-precision Stirling numbers of the second kind and Bell numbers.

Everything here is exact integer arithmetic.  Bell numbers come from the
Bell (Aitken) triangle: row n+1 is the running sum of row n started at
row n's last entry, and B_n is the head of row n.  Each new row consumes
the old one as it grows, so one row is resident.  Stirling numbers come
from one row generator over the two-term recurrence
S(q, j) = j*S(q-1, j) + S(q-1, j-1), which keeps at most two rows alive.
It is the only source of Stirling numbers: a moment reads its last row,
the Bell sandwich check reads every row once, and ``table`` writes each
row as it is built, so no caller holds the triangle.  Bell numbers come
only from ``BellSequence``, which builds them only as far as they are
read.  DEFAULT_QMAX_CAP bounds every row, Bell number and cache file; how
far a search reads is its caller's choice, not the sequence's.
"""

from __future__ import annotations

import os
import struct
import tempfile
from collections import deque
from collections.abc import Sequence
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
    """Bell numbers B_0..B_DEFAULT_QMAX_CAP, built on demand.

    ``values`` is the built prefix B_0..B_built.  ``bell(q)`` past it
    grows the prefix row by row of the Bell triangle, holding the last row
    until the cap is reached; a read below 0 or past the cap raises.  A
    prefix passed in (from a cache file) carries no triangle row, so
    growing past it rebuilds from row 0.
    """

    MAGIC = b"CBBL"
    VERSION = 1
    _SPOT_CHECKS = {0: 1, 1: 1, 2: 2, 3: 5, 7: 877, 10: 115975}

    def __init__(self, values: Sequence[int] = (1,)):
        self.values = list(values)
        self._row = deque([1]) if self.values == [1] else None

    @property
    def built(self) -> int:
        return len(self.values) - 1

    def _grow(self, q: int) -> None:
        values, row = self.values, self._row
        if row is None:
            values, row = [1], deque([1])
        for _ in range(len(values), q + 1):
            # the new row pops the old one entry by entry as it grows
            row = deque(accumulate(map(deque.popleft, repeat(row, len(row))),
                                   initial=row[-1]))
            values.append(row[0])
        # at the cap the row can never be extended again
        self.values, self._row = values, None if q == DEFAULT_QMAX_CAP else row

    def bell(self, q: int) -> int:
        if not 0 <= q <= DEFAULT_QMAX_CAP:
            error = PreconditionError if q < 0 else CapacityError
            raise error(f"q={q} outside Bell range 0..{DEFAULT_QMAX_CAP}")
        if q > self.built:
            self._grow(q)
        return self.values[q]

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
        """Header (q_max: the highest q built), values, no row maxima."""
        fh.write(self.MAGIC)
        fh.write(struct.pack("<II", self.VERSION, self.built))
        for seq in (self.values, ()):
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
        values, _ = seqs  # older files hold row maxima, which go unused
        if len(values) != q_max + 1:
            raise PreconditionError("Bell cache length does not match header")
        for q, expect in cls._SPOT_CHECKS.items():
            if q <= q_max and values[q] != expect:
                raise PreconditionError(f"Bell cache spot check failed at q={q}")
        return cls(values)
