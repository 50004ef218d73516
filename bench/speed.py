"""Machine speed, measured with a fixed pure-Python kernel.

The shared host this benchmark was built on ran the same code at speeds
that differed by up to 1.8 times, for stretches from a fraction of a
second to whole minutes, with every kind of item slowed alike.  The
benchmark times this kernel between items and scales each item's latency
by REFERENCE_S / (the kernel's time around the item): a latency in
milliseconds at the speed at which the kernel takes REFERENCE_S.  The
kernel imports nothing from persistgrid, so a change to the library does
not move it; it does the same kind of work (Gaussian elimination through
field methods over F_p and Q, tuple-keyed dicts, JSON text), so contention
slows it about as much as it slows the library.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

# the kernel's time on an unloaded 2-core x86 VM (Intel Xeon), Python 3.11
REFERENCE_S = 0.0015


class _Field:
    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def inv(self, a):
        return 1 / Fraction(a) if self.p is None else pow(a, self.p - 2, self.p)


def _rank(f: _Field, rows: list) -> int:
    rows = [list(r) for r in rows]
    n, m = len(rows), len(rows[0])
    pr = 0
    for pc in range(m):
        piv = next((i for i in range(pr, n) if rows[i][pc] != 0), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = f.inv(rows[pr][pc])
        rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        for i in range(n):
            c = rows[i][pc]
            if i != pr and c != 0:
                rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], rows[pr])]
        pr += 1
        if pr == n:
            break
    return pr


_FP = _Field(1009)
_Q = _Field(None)
_MAT_P = [[(7 * i + 13 * j + i * j * j) % 1009 for j in range(11)] for i in range(10)]
_MAT_Q = [[Fraction(i * j + 1, i + j + 2) for j in range(5)] for i in range(5)]


def kernel() -> int:
    """Fixed work of about REFERENCE_S seconds on a quiet host; returns a
    checksum."""
    r = 0
    for _ in range(3):
        r += _rank(_FP, _MAT_P) + _rank(_Q, _MAT_Q)
        d = {(i, j): i * j for i in range(12) for j in range(12)}
        text = json.dumps({"steps": [[f"{i},{j}", v] for (i, j), v in d.items()]})
        r += len(json.loads(text)["steps"])
    return r


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Scale from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
