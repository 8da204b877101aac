"""String hash functions and a compact chained hash table.

The table holds its buckets back to back in one ``bytes`` arena, ``data``,
with an ``array('I')`` of n + 1 start offsets, ``starts``; bucket ``i`` is
``data[starts[i]:starts[i + 1]]``, in memory as in the file.  Each bucket is
a run of ``[key length u8][key bytes][list length, LEB128][list bytes]``
records, so a key's list sits right after it.  ``lookup_list`` returns where
that list lies in ``data``, and ``records`` walks every record; both raise
``CorruptListError`` for a record, a list length or a list that runs past
its bucket's end, and a list length takes at most ``LENGTH_BYTES`` bytes,
as do the region lengths that open each list (see ``core``).
The table is built once from the final key set and is immutable afterwards.
The bucket count is the smallest power of two with
``key count <= bucket count * max_load_factor``.

All hash functions are seedless (fixed internal constants) and produce
identical output on every platform, in every process, so a saved table can be
probed after a load.  ``crc32`` returns 32-bit values and the others 64-bit
values; a bucket is picked by the low bits, so bucket counts stop at 2**32.
"""
from __future__ import annotations

import logging
import zlib
from array import array
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterator

import numpy as np

from .errors import BuildError, ConfigError, CorruptListError

log = logging.getLogger(__name__)

_MASK64 = 0xFFFFFFFFFFFFFFFF

# xxhash 64-bit variant, fixed seed 0.
_XXP1 = 0x9E3779B185EBCA87
_XXP2 = 0xC2B2AE3D27D4EB4F
_XXP3 = 0x165667B19E3779F9
_XXP4 = 0x85EBCA77C2B2AE63
_XXP5 = 0x27D4EB2F165667C5


# The tail step's byte * _XXP5 products, looked up rather than multiplied.
_XX_BYTE = tuple(b * _XXP5 & _MASK64 for b in range(256))


def xxhash64(data: bytes) -> int:
    """64-bit xxhash of ``data`` with seed 0."""
    # A value that only feeds a multiplication, directly or through an xor
    # with a 64-bit value, is left unmasked: its bits above 64 only add
    # multiples of 2**64 to the product, which the mask after it drops.
    n = len(data)
    i = 0
    if n >= 32:
        v1 = (_XXP1 + _XXP2) & _MASK64
        v2 = _XXP2
        v3 = 0
        v4 = (-_XXP1) & _MASK64
        end = n - 31
        while i < end:
            lane = int.from_bytes(data[i : i + 8], "little")
            v1 = (v1 + lane * _XXP2) & _MASK64
            v1 = (v1 << 31 | v1 >> 33) * _XXP1 & _MASK64
            lane = int.from_bytes(data[i + 8 : i + 16], "little")
            v2 = (v2 + lane * _XXP2) & _MASK64
            v2 = (v2 << 31 | v2 >> 33) * _XXP1 & _MASK64
            lane = int.from_bytes(data[i + 16 : i + 24], "little")
            v3 = (v3 + lane * _XXP2) & _MASK64
            v3 = (v3 << 31 | v3 >> 33) * _XXP1 & _MASK64
            lane = int.from_bytes(data[i + 24 : i + 32], "little")
            v4 = (v4 + lane * _XXP2) & _MASK64
            v4 = (v4 << 31 | v4 >> 33) * _XXP1 & _MASK64
            i += 32
        h = (v1 << 1 | v1 >> 63) + (v2 << 7 | v2 >> 57) + (v3 << 12 | v3 >> 52) + (v4 << 18 | v4 >> 46)
        for v in (v1, v2, v3, v4):
            v = v * _XXP2 & _MASK64
            v = (v << 31 | v >> 33) * _XXP1 & _MASK64
            h = ((h ^ v) * _XXP1 + _XXP4) & _MASK64
    else:
        h = _XXP5
    h = (h + n) & _MASK64
    while i + 8 <= n:
        lane = int.from_bytes(data[i : i + 8], "little") * _XXP2 & _MASK64
        h ^= (lane << 31 | lane >> 33) * _XXP1 & _MASK64
        h = ((h << 27 | h >> 37) * _XXP1 + _XXP4) & _MASK64
        i += 8
    if i + 4 <= n:
        h ^= int.from_bytes(data[i : i + 4], "little") * _XXP1 & _MASK64
        h = ((h << 23 | h >> 41) * _XXP2 + _XXP3) & _MASK64
        i += 4
    for c in data[i:]:
        h ^= _XX_BYTE[c]
        h = (h << 11 | h >> 53) * _XXP1 & _MASK64
    h ^= h >> 33
    h = h * _XXP2 & _MASK64
    h ^= h >> 29
    h = h * _XXP3 & _MASK64
    return h ^ h >> 32


_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1_64(data: bytes) -> int:
    """64-bit FNV-1 (multiply, then xor)."""
    h = _FNV_BASIS
    for b in data:
        h = (h * _FNV_PRIME) & _MASK64 ^ b
    return h


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a (xor, then multiply)."""
    h = _FNV_BASIS
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def sdbm_64(data: bytes) -> int:
    """sdbm hash widened to 64 bits."""
    h = 0
    for b in data:
        h = (b + (h << 6) + (h << 16) - h) & _MASK64
    return h


try:
    # Same algorithm, C implementation; the pure-Python xxhash64 above stays
    # as the reference and fallback.  Identical output is pinned by tests.
    from xxhash import xxh64_intdigest as _xxh64_c
except ImportError:  # pragma: no cover
    _xxh64_c = None

HASH_FUNCTIONS = {
    # zlib.crc32 runs in C on every install, so it is the default; "xxhash"
    # stays for files built with it.
    "crc32": zlib.crc32,
    "xxhash": _xxh64_c or xxhash64,
    "fnv1": fnv1_64,
    "fnv1a": fnv1a_64,
    "sdbm": sdbm_64,
}

DEFAULT_HASH = "crc32"

# The smallest max_load_factor accepted: it keeps the bucket count below eight
# times the key count, so a typo cannot ask for billions of buckets.
MIN_LOAD_FACTOR = 0.25
# The most buckets a table may have: the narrowest hash, crc32, has 32 bits.
MAX_BUCKETS = 2**32

# Set once the first table hashing with the pure-Python xxhash64 has said so.
_slow_hash_warned = False


@dataclass(frozen=True)
class HashConfig:
    """Table tuning knobs: the hash function and the maximum load factor.

    ``max_load_factor`` is keys per bucket, at least ``MIN_LOAD_FACTOR``, and
    may exceed 1.0 because collisions chain; the bucket count is the smallest
    power of two that keeps the load within it.
    """

    function_id: str = DEFAULT_HASH
    max_load_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.function_id not in HASH_FUNCTIONS:
            raise ConfigError(f"unknown hash function {self.function_id!r}; known: {sorted(HASH_FUNCTIONS)}")
        if not self.max_load_factor >= MIN_LOAD_FACTOR:
            raise ConfigError(f"max_load_factor must be >= {MIN_LOAD_FACTOR}, got {self.max_load_factor}")


def _bucket_count(key_count: int, max_load_factor: float) -> int:
    """Smallest power of two holding ``key_count`` keys within the load factor."""
    n = 1
    # n is a power of two, so n * max_load_factor is exact.
    while key_count > n * max_load_factor:
        n *= 2
    if n > MAX_BUCKETS:
        raise BuildError(f"{key_count} keys need {n} buckets, more than the {MAX_BUCKETS} a 32-bit hash addresses")
    return n


# Bucket offsets are u32, so the bucket arena holds fewer bytes than this.
ARENA_LIMIT = 2**32


@dataclass(frozen=True)
class BucketStats:
    bucket_count: int
    key_count: int
    load_factor: float
    mean_chain: float
    max_chain: int
    nonempty_buckets: int
    nonempty_mean_chain: float


# A list or region length takes at most this many LEB128 bytes, 35 bits: both
# lie inside one arena, which holds fewer than ARENA_LIMIT = 2**32 bytes.
LENGTH_BYTES = 5


def _length_bytes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``values`` as LEB128, back to back, and the byte count of each.

    LEB128 stores 7 bits a byte, low bits first, with the high bit set on
    every byte but the last.
    """
    top = int(values.max()) if len(values) else 0
    shifts = np.arange(0, 7 * max(1, -(-top.bit_length() // 7)), 7)
    groups = values[:, None] >> shifts
    sizes = 1 + (groups[:, 1:] > 0).sum(1)
    groups &= 0x7F
    groups |= (shifts < 7 * (sizes[:, None] - 1)) << 7
    return groups[shifts < 7 * sizes[:, None]].astype(np.uint8), sizes


def _gather(data: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The slices ``data[s : s + n]`` for every (s, n), each n at least 1,
    back to back."""
    total = int(sizes.sum())
    # An int32 index takes half the memory of an int64 one, where it fits.
    index = np.ones(total, np.int32 if max(len(data), total) < 2**31 else np.int64)
    # The index steps by one within a slice and jumps where the next begins.
    index[np.cumsum(sizes) - sizes] = starts - np.concatenate(([0], starts[:-1] + sizes[:-1] - 1))
    return data[np.cumsum(index, dtype=index.dtype, out=index)]


def _read_length(data: bytes, o: int, end: int, owner: int | bytes) -> tuple[int, int]:
    """The LEB128 length at ``data[o]`` and the offset after it.

    Raises CorruptListError for a length that crosses ``end`` or takes more
    than ``LENGTH_BYTES`` bytes, naming ``owner``: the bucket of a list
    length, or the key of a region length.
    """
    n = 0
    for shift in range(0, 7 * LENGTH_BYTES, 7):
        if o >= end:
            break
        b = data[o]
        o += 1
        n |= (b & 0x7F) << shift
        if b < 0x80:
            return n, o
    what = f"bucket {owner} holds a list" if isinstance(owner, int) else f"the list for key {owner!r} holds a region"
    raise CorruptListError(f"{what} length that runs past its end" if o >= end else
                           f"{what} length of more than {LENGTH_BYTES} bytes")


class ChainedHashTable:
    """Chained hash table mapping byte keys to the byte lists stored after them.

    Built once by ``build`` from the final key set, or loaded from a file, and
    never changed afterwards, so it is safe to read from many threads.  The
    bucket count is the smallest power of two that holds every key within
    ``max_load_factor`` keys per bucket.
    """

    __slots__ = ("config", "_data", "_starts", "_fn", "_mask")

    def __init__(self, data: bytes, starts: array, config: HashConfig):
        n = len(starts) - 1
        if n < 1 or n & (n - 1):
            raise ConfigError(f"bucket count must be a power of two, got {n}")
        self.config = config
        self._data = data
        self._starts = starts
        self._fn = HASH_FUNCTIONS[config.function_id]
        self._mask = n - 1
        global _slow_hash_warned
        if self._fn is xxhash64 and not _slow_hash_warned:
            _slow_hash_warned = True
            log.warning(
                "the C xxhash extension is not installed; hash id 'xxhash' "
                "falls back to the much slower pure-Python xxhash64"
            )

    @classmethod
    def build(cls, keys: list[bytes], lists, sizes, config: HashConfig | None = None) -> "ChainedHashTable":
        """Lay out a table that stores each key's list right after the key.

        ``lists`` holds the keys' lists back to back, as bytes or a uint8
        array, and ``sizes`` their byte lengths, in the order of ``keys``;
        each bucket holds its keys in that order.  Every key is hashed once,
        one stable sort by bucket orders the records, and numpy copies them
        into the arena part by part.
        """
        config = config or HashConfig()
        count = len(keys)
        n = _bucket_count(count, config.max_load_factor)
        key_sizes = np.fromiter(map(len, keys), np.int64, count)
        if count and key_sizes.max() > 255:
            key = keys[int(np.argmax(key_sizes > 255))]
            raise BuildError(f"key longer than 255 bytes: {key[:16]!r}...")
        fn = HASH_FUNCTIONS[config.function_id]
        bucket = (np.fromiter(map(fn, keys), np.uint64, count) & np.uint64(n - 1)).astype(np.intp)
        list_sizes = np.asarray(sizes, np.int64)
        length_bytes, length_sizes = _length_bytes(list_sizes)
        # A record's four parts, each taken from its own run of ``parts``.
        parts = (key_sizes.astype(np.uint8), np.frombuffer(b"".join(keys), np.uint8),
                 length_bytes, np.frombuffer(lists, np.uint8))
        spans = np.stack((np.ones(count, np.int64), key_sizes, length_sizes, list_sizes))
        base = np.cumsum([0] + [len(p) for p in parts[:-1]])
        starts = np.cumsum(spans, 1) - spans + base[:, None]
        records = spans.sum(0)
        if records.sum() >= ARENA_LIMIT:
            raise BuildError(f"{records.sum()} bytes of buckets, over the {ARENA_LIMIT - 1} their u32 offsets address")
        order = np.argsort(bucket, kind="stable")
        data = _gather(np.concatenate(parts), starts[:, order].T.ravel(), spans[:, order].T.ravel())
        ends = np.cumsum(np.bincount(bucket, records, n).astype(np.int64))
        bucket_starts = array("I", bytes(4))
        bucket_starts.frombytes(ends.astype(np.uint32).tobytes())
        return cls(data.tobytes(), bucket_starts, config)

    @property
    def bucket_count(self) -> int:
        return len(self._starts) - 1

    @property
    def data(self) -> bytes:
        """Every bucket's records, back to back."""
        return self._data

    @property
    def starts(self) -> array:
        """The ``array('I')`` of offsets in ``data`` at which buckets begin,
        the last one ``len(data)``."""
        return self._starts

    def lookup_list(self, key: bytes) -> slice | None:
        """Where the list stored for ``key`` lies in ``data``, or None.

        Raises CorruptListError when a record runs past its bucket's end.
        """
        h = self._fn(key) & self._mask
        starts = self._starts
        data = self._data
        o = starts[h]
        end = starts[h + 1]
        kl = len(key)
        # Offsets here are large ints, each one a new object, so a record
        # costs two sums: p, the offset of its list length's last byte, and
        # the next record's offset.  Most lists are shorter than 128 bytes,
        # so their length is one byte, and nearly all the others shorter
        # than 16384, two bytes; longer ones go to _read_length.
        while o < end:
            el = data[o]
            p = o + (el + 1)
            if p >= end:
                break
            n = data[p]
            if n > 0x7F:
                p += 1
                if p < end and (b := data[p]) < 0x80:
                    n = n & 0x7F | b << 7
                else:
                    n, p = _read_length(data, p - 1, end, h)
                    p -= 1
            if el == kl and data.startswith(key, o + 1):
                p += 1
                n += p
                if n > end:
                    raise CorruptListError(f"the list for key {key!r} runs past the end of bucket {h}")
                return slice(p, n)
            o = p + (n + 1)
        if o != end:
            raise CorruptListError(f"bucket {h} holds a record that runs past its end")
        return None

    def records(self) -> Iterator[tuple[int, bytes, int, int]]:
        """``(bucket, key, begin, end)`` of every record, in arena order;
        the key's list is ``data[begin:end]``.

        Raises CorruptListError naming the bucket for a record that runs
        past its bucket's end.
        """
        data = self._data
        for h, (o, end) in enumerate(pairwise(self._starts)):
            while o < end:
                p = o + 1 + data[o]
                key = data[o + 1 : p]
                n, q = _read_length(data, p, end, h)
                if (o := q + n) > end:
                    raise CorruptListError(f"bucket {h} holds a record that runs past its end")
                yield h, key, q, o

    def bucket_stats(self) -> BucketStats:
        lengths = [0] * self.bucket_count
        for h, _, _, _ in self.records():
            lengths[h] += 1
        buckets = len(lengths)
        keys = sum(lengths)
        nonempty = [c for c in lengths if c]
        return BucketStats(
            bucket_count=buckets,
            key_count=keys,
            load_factor=keys / buckets,
            mean_chain=keys / buckets,
            max_chain=max(lengths) if lengths else 0,
            nonempty_buckets=len(nonempty),
            nonempty_mean_chain=(sum(nonempty) / len(nonempty)) if nonempty else 0.0,
        )
