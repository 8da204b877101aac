"""String hash functions and a compact chained hash table.

The table holds its buckets back to back in one ``bytes`` arena, ``data``,
with an ``array('I')`` of n + 1 start offsets, ``starts``; bucket ``i`` is
``data[starts[i]:starts[i + 1]]``, in memory as in the file.  Each bucket is
a run of ``[key length tag][key bytes][list length, LEB128][list bytes]``
records, so a key's list sits right after it, except that the bucket's last
record is ``[key length tag][key bytes][list bytes]``: its list runs to the
bucket's end.  A tag (see ``_read_tag``) is one byte, the length in its low 7
bits and in its high bit the flag of its bucket's last record, or two bytes
for a length of 128 or more.  ``lookup_list`` returns where a key's list lies
in ``data``, and ``records`` walks every record.  Both are one walk of a
bucket's records, so they raise the same ``CorruptListError`` for a record, a
list length or a list that runs past its bucket's end, and a list length
takes at most ``LENGTH_BYTES`` bytes, as do the region and group lengths
inside each list (see ``core``).  The query path,
``core.SplitIndex._search``, keeps its own inline copy of that walk, which
costs less per probe, with the same checks and errors; ``lookup_list`` is the
public probe and the reference that copy is tested against.
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
from typing import Iterator, Sequence

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


# A list, region or group length takes at most this many LEB128 bytes, 35
# bits: each lies inside one arena, which holds fewer than ARENA_LIMIT = 2**32
# bytes.
LENGTH_BYTES = 5


def _length_bytes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``values`` as LEB128, back to back, and the byte count of each.

    LEB128 stores 7 bits a byte, low bits first, with the high bit set on
    every byte but the last.
    """
    top = int(values.max()) if len(values) else 0
    width = max(1, -(-top.bit_length() // 7))
    # Column by column: numpy reduces a short row slowly.
    sizes = np.ones(len(values), np.int64)
    for j in range(1, width):
        sizes += values >= 1 << 7 * j
    groups = np.empty((len(values), width), np.uint8)
    for j in range(width):
        groups[:, j] = values >> 7 * j & 0x7F | (sizes > j + 1) << 7
    return groups[np.arange(width) < sizes[:, None]], sizes


def _tag_bytes(values: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``values``, 1 to 255, as a tag flagged by ``last``, back to
    back, and the byte count of each; ``_read_tag`` reads them."""
    escape = values > 0x7F
    tags = np.empty((len(values), 2), np.uint8)
    tags[:, 0] = np.where(escape, 0, values) | last << 7
    tags[:, 1] = values
    sizes = 1 + escape
    return tags[np.arange(2) < sizes[:, None]], sizes


def _radix_order(values: np.ndarray) -> np.ndarray:
    """The stable ascending order of ``values``, non-negative and below 2**32,
    as ``np.argsort(values, kind="stable")`` gives it.

    numpy sorts 16-bit integers stably by radix, so the order is one pass
    over the low 16 bits, and a second over the high 16 bits if any value
    has them.
    """
    order = np.argsort(values.astype(np.uint16), kind="stable")  # the cast keeps the low 16 bits
    if len(values) and values.max() >> 16:
        order = order[np.argsort((values[order] >> 16).astype(np.uint16), kind="stable")]
    return order


# The indices ``_take`` hands ``ndarray.take`` at once.  Each index of a block
# costs 9 more bytes while it is taken, its intp cast and its output buffer.
_BLOCK = 1 << 14


def _take(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]``, taken a block at a time: ``take`` casts its whole
    index to 8-byte intp first, and plain indexing runs about 2.5x slower."""
    out = np.empty(index.shape, table.dtype)
    for i in range(0, index.size, _BLOCK):
        table.take(index[i : i + _BLOCK], out=out[i : i + _BLOCK])
    return out


def _gather(parts: Sequence[tuple[np.ndarray, np.ndarray]], order: np.ndarray | None = None) -> np.ndarray:
    """Item i of every part in turn, for each i, or for each i of ``order``,
    a permutation of the items, back to back as a uint8 array.

    Each part is a pair: a uint8 array holding its items back to back, and
    the byte size of each item, which may be 0.  The starts and sizes are
    kept as one row per item, a column per part, so that ``order`` moves
    whole rows and the rows read out in gather order.  The bytes are taken
    by one index of every output byte, with ``_take``.
    """
    data = np.concatenate([items for items, _ in parts])
    # Int32 arrays take half the memory of int64 ones, where the bytes fit.
    dtype = np.int32 if len(data) < 2**31 else np.int64
    sizes = np.stack([size for _, size in parts], axis=1, dtype=dtype)
    starts = np.cumsum(sizes, axis=0, dtype=dtype)
    starts -= sizes
    starts += np.cumsum([0] + [len(items) for items, _ in parts[:-1]], dtype=dtype)  # where each part begins
    if order is not None:
        starts, sizes = starts[order], sizes[order]
    keep = sizes > 0  # an empty item would put two jumps at one index
    starts, sizes = starts[keep], sizes[keep]
    # The index steps by one within a slice and jumps where the next begins:
    # from the byte before it, the last of the slice before.
    starts[1:] -= starts[:-1] + sizes[:-1] - 1
    firsts = np.cumsum(sizes, dtype=dtype)
    firsts -= sizes
    index = np.ones(int(sizes.sum()), dtype)
    del sizes
    index[firsts] = starts
    return _take(data, np.cumsum(index, dtype=dtype, out=index))


def _read_length(data: bytes, o: int, end: int, owner: int | bytes, kind: str = "region") -> tuple[int, int]:
    """The LEB128 length at ``data[o]`` and the offset after it.

    Raises CorruptListError for a length that crosses ``end`` or takes more
    than ``LENGTH_BYTES`` bytes, naming ``owner``: the bucket of a list
    length, or the key of a ``kind`` length, a region's or a group's.
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
    what = f"bucket {owner} holds a list" if isinstance(owner, int) else f"the list for key {owner!r} holds a {kind}"
    raise CorruptListError(f"{what} length that runs past its end" if o >= end else
                           f"{what} length of more than {LENGTH_BYTES} bytes")


def _read_tag(data: bytes, o: int, end: int, owner: int | bytes) -> tuple[int, bool, int]:
    """The length tagged at ``data[o]``, before ``end``; whether its item is
    the last of its bucket or region; and the offset after the tag.

    A tag byte holds a length of 1 to 127 in its low 7 bits and the flag in
    its high bit.  Low bits of 0 are an escape, 0x00 for an item that is not
    the last and 0x80 for the last: the next byte is the length, 128 to 255.
    An escape with no byte after it before ``end`` raises CorruptListError
    naming ``owner``: the bucket of a key length, or the key of a group
    length.
    """
    b = data[o]
    n = b & 0x7F
    o += 1
    if not n:
        if o >= end:
            raise CorruptListError(f"bucket {owner} holds a record that runs past its end" if isinstance(owner, int)
                                   else f"a group of the list for key {owner!r} crosses its region's end")
        n = data[o]
        o += 1
    return n, b > 0x7F, o


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
        array, and ``sizes`` their byte lengths, in the order of ``keys``.
        Every key is hashed once, and one stable radix order by bucket
        (``_radix_order``) orders the records, so each bucket holds its keys
        in the order of ``keys``; one ``_gather`` takes each record's four
        parts, its tag, key, list length and list, in that order.  The last
        record of a bucket gets the flag in its key length tag and no list
        length.
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
        order = _radix_order(bucket)
        last = np.ones(count, bool)
        last[order[:-1]] = np.diff(bucket[order]) != 0
        list_sizes = np.asarray(sizes, np.int64)
        tags, tag_sizes = _tag_bytes(key_sizes, last)
        leb, leb_sizes = _length_bytes(list_sizes[~last])
        length_sizes = np.zeros(count, np.int64)  # a bucket's last record has no list length
        length_sizes[~last] = leb_sizes
        records = tag_sizes + key_sizes + length_sizes + list_sizes
        if records.sum() >= ARENA_LIMIT:
            raise BuildError(f"{records.sum()} bytes of buckets, over the {ARENA_LIMIT - 1} their u32 offsets address")
        data = _gather(((tags, tag_sizes), (np.frombuffer(b"".join(keys), np.uint8), key_sizes),
                        (leb, length_sizes), (np.frombuffer(lists, np.uint8), list_sizes)), order)
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

    def _walk(self, h: int, key: bytes | None = None) -> Iterator[tuple[bytes, int, int]]:
        """``(key, begin, end)`` of each record of bucket ``h``, or only of
        the one holding ``key``; the key's list is ``data[begin:end]``.  The
        record flagged as the bucket's last has no list length: its list
        runs to the bucket's end, and the walk stops there.

        Raises CorruptListError naming the key of a list that runs past the
        bucket's end, or the bucket for a record that does, or a list length
        that runs past it or takes more than ``LENGTH_BYTES`` bytes.
        """
        data = self._data
        o = self._starts[h]
        end = self._starts[h + 1]
        while o < end:
            n, last, p = _read_tag(data, o, end, h)
            q = p + n  # the key's end
            if last:  # the list runs to the bucket's end
                if q > end:
                    break
                begin = q
                o = end
            else:
                if q >= end:
                    break
                n, begin = _read_length(data, q, end, h)
                o = begin + n
            found = data[p:q]
            if key is None or found == key:
                if o > end:
                    raise CorruptListError(f"the list for key {found!r} runs past the end of bucket {h}")
                yield found, begin, o
        if o != end:
            raise CorruptListError(f"bucket {h} holds a record that runs past its end")

    def lookup_list(self, key: bytes) -> slice | None:
        """Where the list stored for ``key`` lies in ``data``, or None.

        Raises CorruptListError for a damaged record of the key's bucket up
        to the key's own: naming the key when its own list runs past the
        bucket's end, and the bucket otherwise.
        """
        for _, begin, end in self._walk(self._fn(key) & self._mask, key):
            return slice(begin, end)
        return None

    def records(self) -> Iterator[tuple[int, bytes, int, int]]:
        """``(bucket, key, begin, end)`` of every record, in arena order;
        the key's list is ``data[begin:end]``.

        Raises CorruptListError for a record, a list length or a list that
        runs past its bucket's end, or a list length of more than
        ``LENGTH_BYTES`` bytes.
        """
        for h in range(self.bucket_count):
            for record in self._walk(h):
                yield h, *record

    def bucket_stats(self) -> BucketStats:
        n = self.bucket_count
        chains = np.bincount(np.fromiter((h for h, _, _, _ in self.records()), np.int64), minlength=n)
        keys = int(chains.sum())
        nonempty = int(np.count_nonzero(chains))
        return BucketStats(
            bucket_count=n,
            key_count=keys,
            load_factor=keys / n,
            mean_chain=keys / n,
            max_chain=int(chains.max()),
            nonempty_buckets=nonempty,
            nonempty_mean_chain=keys / nonempty if nonempty else 0.0,
        )
