"""How fast the host runs Python right now, for timing criteria that compare
passes taken at different moments.

On a shared host the processor's speed changes under a timed test, by up to
2x and in stretches from a fraction of a second to over a minute, and
pure-interpreter work slows down more than numpy work.  ``slowness()`` times
a fixed piece of pure-Python work, so a pass divided by the mean slowness
measured before and after it no longer depends on the stretch it fell in.
The reference work and ``REFERENCE_NS`` are a copy of the benchmark's
(``perfbench/hostspeed.py``), which the tests do not import; no change to
the library can move them.
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
    # and joining short byte strings: the kinds of work the query path
    # spends its time on.
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
