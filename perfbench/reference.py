"""The reference computation that run.py times between the program's invocations.

A fixed piece of work in a fresh interpreter, with the same kinds of work as
the program: interpreter start and the numpy import, bit arithmetic on ints
with tuples, sets and dicts, a dict of 30,000 tuple keys (tens of MB,
as the family's members are), Fraction sums, json.dumps and small int64
matrix products.  It does not import trifourier, so no change to the program moves
its time; only the speed of the machine does.  run.py divides the time of
each invocation by the mean time of the reference runs just before and just
after it.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import numpy as np


def work() -> int:
    seen: set[tuple[int, int]] = set()
    counts: dict[int, int] = {}
    for x in range(1 << 10):
        for y in range(0, 1 << 10, 41):
            parity = (x & y).bit_count() & 1
            seen.add((x ^ y, parity))
            counts[parity] = counts.get(parity, 0) + 1
    index = {(i % 13, i >> 3, (i, i ^ 5)): [i, i >> 1] for i in range(30_000)}
    spread = sum(len(key[2]) + value[1] for key, value in index.items())
    total = sum((Fraction(k, k + 1) for k in range(1, 600)), Fraction(0))
    text = json.dumps([{"label": f"<{i:x}>", "rows": [i, i >> 1, i >> 2]} for i in range(8000)])
    a = np.arange(128 * 128, dtype=np.int64).reshape(128, 128) % 5
    for _ in range(4):
        a = (a @ a) % 5
    return len(seen) + counts[0] + spread + total.numerator % 7 + len(text) + int(a.sum())


if __name__ == "__main__":
    sys.exit(0 if work() > 0 else 1)
