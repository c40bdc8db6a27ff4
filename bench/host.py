"""Host speed reference.

On a shared 2-core x86-64 virtual machine, the speed of the same Python
code drifts by up to a factor of two over tens of seconds while other
tenants load the cores, and the drift is as large in CPU time as in wall
time.  The benchmark therefore times a fixed piece of pure-Python work just
before and just after every operation and divides the operation's time by
the host's slowdown,

    slowdown = (mean of the two reference times) / REFERENCE_S.

Reported times are then "seconds on the host when the reference work takes
REFERENCE_S".  The reference runs no hnnlab code, so a change to the
library moves the normalized times as it moves the raw ones.  The raw
figures go to the run record beside the normalized ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# reference() on that machine when it is not contended, with CPython 3.11
REFERENCE_S = 0.0015


def reference_work() -> int:
    """Work of the same kinds as hnnlab's hot paths: small Fraction matrix
    products, free reduction of a word held on a list, dictionary counts,
    and suffixes sliced off a long tuple."""
    total = 0
    g = (Fraction(3, 2), Fraction(1, 3), Fraction(-5, 7), Fraction(1, 2))
    word = [1, 2, -2, 3, 4, -4, -3, 2, 1, -1] * 12
    long_word = tuple(word) * 25
    for i in range(0, len(long_word), 15):
        total += len(long_word[i:]) & 1
    for _ in range(4):
        m = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
        for _ in range(12):
            m = (m[0] * g[0] + m[1] * g[2], m[0] * g[1] + m[1] * g[3],
                 m[2] * g[0] + m[3] * g[2], m[2] * g[1] + m[3] * g[3])
        out: list[int] = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        counts: dict[tuple, int] = {}
        for i in range(len(word) - 2):
            key = tuple(word[i:i + 3])
            counts[key] = counts.get(key, 0) + 1
        total += len(out) + len(counts) + m[0].denominator % 7
    return total


def reference() -> float:
    """Seconds taken by one reference_work() call."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0
