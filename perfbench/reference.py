"""A frozen pure-Python kernel that measures how fast the host runs right now.

The benchmark host is shared: identical passes of identical code run up to
1.6 times slower or faster from one ten-second stretch to the next, in
CPU time as much as in wall time. Each pass therefore times this kernel
before, during and after its commands (see client.py), and the pass's
times are scaled to a host on which the kernel takes ``REFERENCE_S``. The
kernel mixes the inner loops chunkkit spends its time in today (n-gram
counting over string prefixes, a Levenshtein row DP, FNV-1a hashing) but
is a copy owned by the benchmark, so no change to chunkkit changes it.
"""

import time

REFERENCE_S = 0.002   # the kernel's time on a quiet host of the kind measured here

_TEXT = "the quick brown fox jumps over the lazy dog and then some " * 8


def _kernel() -> int:
    counts: dict[str, dict[str, int]] = {}
    for t in range(2, len(_TEXT)):
        bucket = counts.setdefault(_TEXT[:t][-2:], {})
        bucket[_TEXT[t]] = bucket.get(_TEXT[t], 0) + 1
    total = 0.0
    for t in range(2, len(_TEXT)):
        bucket = counts[_TEXT[:t][-2:]]
        total += (bucket[_TEXT[t]] + 1) / (sum(bucket.values()) + 30)

    a, b = _TEXT[:60], _TEXT[7:90]
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            if ca == cb:
                cur.append(min(cur[j - 1] + 1, prev[j] + 1, prev[j - 1]))
            else:
                cur.append(min(cur[j - 1], prev[j], prev[j - 1]) + 1)
        prev = cur

    h = 0x811C9DC5
    for byte in _TEXT.encode():
        h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
    return prev[-1] + h + int(total)


def measure(bursts: int = 15) -> float:
    """Median seconds of one kernel run over ``bursts`` runs of two."""
    times = []
    for _ in range(bursts):
        start = time.monotonic()
        _kernel()
        _kernel()
        times.append((time.monotonic() - start) / 2)
    return sorted(times)[len(times) // 2]
