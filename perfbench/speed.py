"""Machine-speed normalisation of measured times.

On a machine whose cores are shared with other tenants, the same Python code
can run nearly twice as slowly for stretches of ten seconds or more, which
would swamp any change to the package. The benchmark therefore times a fixed
pure-Python calibration kernel between certificates and scales each measured
time by REFERENCE_S / kernel time: the result is the time the work would
take at the reference speed, the speed at which the kernel takes exactly
REFERENCE_S. The kernel uses no package code, so no change to the package
can move it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.002


def kernel() -> int:
    """Fixed work in two halves: integer and bit arithmetic, then small
    tuple, list and dict allocation. The treewidth search leans on the first
    kind and gonality enumeration on the second; a kernel with both tracks
    the slowdown of each more closely than either half alone."""
    seen: set[int] = set()
    acc = 0
    x = 0x9E3779B97F4A7C15
    for i in range(3000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        m = x >> 40
        acc += (m & -m).bit_length() + m.bit_count()
        if m & 0xFF in seen:
            acc ^= i
        else:
            seen.add(m & 0xFF)
    recent: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for i in range(2300):
        t = (i, i + 1, i & 7, acc & 3)
        lst = list(t)
        lst[0] -= 1
        recent.append(tuple(lst))
        if len(recent) > 512:
            del recent[:256]
        index[t] = i
        if len(index) > 1024:
            index.clear()
        acc += lst[2]
    return acc


def sample() -> float:
    """Wall seconds the kernel takes right now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two kernel samples."""
    return 2 * REFERENCE_S / (before + after)
