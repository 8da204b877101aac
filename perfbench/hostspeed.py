"""How fast the host runs Python right now, relative to a reference speed.

On a shared host the processor's speed changes under the benchmark: on a
two-core x86-64 virtual machine running CPython 3.11, a fixed piece of
pure-Python work took between 1x and 2x its fastest time, in stretches from
a fraction of a second to over a minute.  Timings taken in a slow stretch
are not comparable with timings taken in a fast one, so the benchmark
measures ``slowness()`` before and after every timed section and divides
the time by the mean of the two.  The reference work is the benchmark's own code, so no change to the
library can move it.

Normalised times are what the section would take on a host where the
reference work takes ``REFERENCE_NS``, which is about its time on that
machine in a fast stretch; there, in a fast stretch, normalised and
wall-clock times agree.
"""

from __future__ import annotations

import time

REFERENCE_NS = 40_000

# Inputs of the reference work, fixed at import.
_CODES = [None] * 256
for _c in range(128, 160):
    _CODES[_c] = b"ac"
_ENCODED = bytes(i * 37 % 160 for i in range(64))
_KEYS = [b"%x" % (i * 2654435761 % 2**32) for i in range(100)]


def _reference_work() -> int:
    # A byte-wise expansion loop, a zip comparison, and grouping, sorting
    # and joining short byte strings: the kinds of work the query path and
    # the index builder spend their time on.  On the machine above, these
    # followed the library's query and load times across slow and fast
    # stretches more closely than pure integer arithmetic did.
    out = bytearray()
    for c in _ENCODED:
        g = _CODES[c]
        if g is not None:
            out += g
        elif c < 128:
            out.append(c)
    diff = sum(1 for x, y in zip(_ENCODED, _ENCODED[1:]) if x != y)
    groups: dict[bytes, list[bytes]] = {}
    for key in _KEYS:
        half = len(key) // 2
        groups.setdefault(key[:half], []).append(key[half:])
    joined = b"".join(sorted(groups, key=len))
    return len(out) + diff + len(joined)


def slowness(repeats: int = 3) -> float:
    """Best of ``repeats`` timings of the reference work, over ``REFERENCE_NS``."""
    clock = time.perf_counter_ns
    best = None
    for _ in range(repeats):
        t0 = clock()
        _reference_work()
        t = clock() - t0
        if best is None or t < best:
            best = t
    return best / REFERENCE_NS
