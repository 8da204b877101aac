"""Binary serialization of a built index.

Layout (all integers little-endian):

    magic            8 bytes  b"SPLITIDX"
    version          u16      currently 7
    k                u8
    hash id          u8 length + ASCII name
    max load factor  f64
    source stats     u64 total bytes, u64 word count, u16 alphabet size
    side table       section, one blob per word (sorted by length, then bytes)
    substitutions    section, one blob per rule: code byte, then gram,
                     in applied order
    buckets          section, one blob per bucket; its count is the bucket
                     count, and each key's list sits in its bucket record
    checksum         u32 zlib.crc32 of every byte before it

A section is ``u32 n``, then ``n`` u32 blob lengths, then the ``n`` blobs
concatenated.  It loads as (data, starts): one slice of the file for the
blobs, and an ``array('I')`` of their start offsets accumulated from the
lengths.  The bucket arena is kept as loaded and written back unchanged (its records
as ``hashing`` describes, its lists in the region layout that ``core``
describes, the same for every k), so a load/save cycle is byte-identical
and loaded indexes answer queries exactly like the original.

The checksum is verified on every load, after the header and section checks;
files of any other version, versions 1 to 6 included, are rejected.  Records
and lists are not walked at load: the probe and the search check the ones
they read, and raise ``CorruptListError`` for those that are damaged.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from itertools import pairwise

import numpy as np

from .core import DictionaryStats, SplitIndex
from .errors import (
    BadMagicError,
    StorageError,
    TruncatedIndexError,
    VersionMismatchError,
)
from .hashing import ARENA_LIMIT, ChainedHashTable, HashConfig
from .qgrams import SubstitutionList

MAGIC = b"SPLITIDX"
FORMAT_VERSION = 7


def save_index(index: SplitIndex, path) -> None:
    """Write ``index`` to ``path`` in the format described above."""
    with open(path, "wb") as fh:
        fh.write(index_to_bytes(index))


def load_index(path) -> SplitIndex:
    """Read an index written by ``save_index``."""
    with open(path, "rb") as fh:
        return index_from_bytes(fh.read())


def _section(data: bytes, lengths) -> bytes:
    return struct.pack("<I", len(lengths)) + np.asarray(lengths, "<u4").tobytes() + data


def index_to_bytes(index: SplitIndex) -> bytes:
    cfg = index.table.config
    name = cfg.function_id.encode("ascii")
    st = index.source_stats
    side = [w for n in sorted(index.side_table) for w in index.side_table[n]]
    rules = [bytes((s.code,)) + s.gram for s in index.subs or ()]
    body = b"".join((
        MAGIC,
        struct.pack("<HBB", FORMAT_VERSION, index.k, len(name)),
        name,
        struct.pack("<dQQH", cfg.max_load_factor, st.total_bytes, st.word_count, st.alphabet_size),
        _section(b"".join(side), list(map(len, side))),
        _section(b"".join(rules), list(map(len, rules))),
        _section(index.table.data, np.diff(index.table.starts)),
    ))
    return body + struct.pack("<I", zlib.crc32(body))


def _blobs(data: bytes, starts: array) -> list[bytes]:
    return [data[a:b] for a, b in pairwise(starts)]


class _Cursor:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _move(self, end: int) -> int:
        """Advance to ``end``, which must lie within the data; return the old position."""
        if end > len(self.data):
            raise TruncatedIndexError(
                f"file ends at byte {len(self.data)}, needed {end}"
            )
        start, self.pos = self.pos, end
        return start

    def take(self, n: int) -> bytes:
        return self.data[self._move(self.pos + n) : self.pos]

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def section(self) -> tuple[bytes, array]:
        (n,) = self.unpack("<I")
        # Summed in 64 bits: damaged lengths may add up past 2**32.
        ends = np.cumsum(np.frombuffer(self.take(4 * n), dtype="<u4"), dtype=np.uint64)
        size = int(ends[-1]) if n else 0
        data = self.take(size)
        if size >= ARENA_LIMIT:
            raise StorageError(f"a section of {size} bytes, over the {ARENA_LIMIT - 1} its u32 offsets address")
        starts = array("I", bytes(4))
        starts.frombytes(ends.astype(np.uint32).tobytes())
        return data, starts


def index_from_bytes(data: bytes) -> SplitIndex:
    cur = _Cursor(data)
    if cur.take(len(MAGIC)) != MAGIC:
        raise BadMagicError(f"not an index file: expected magic {MAGIC!r}")
    (version,) = cur.unpack("<H")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"file format version {version}, this reader supports {FORMAT_VERSION}"
        )
    k, name_len = cur.unpack("<BB")
    if k < 1:
        raise StorageError(f"mismatch budget k must be >= 1, got {k}")
    name = cur.take(name_len)
    if not name.isascii():
        raise StorageError(f"hash id must be ASCII, got {name!r}")
    max_lf, total_bytes, word_count, alphabet_size = cur.unpack("<dQQH")
    side_words = _blobs(*cur.section())
    rules = _blobs(*cur.section())
    buckets = cur.section()
    end = cur.pos
    (stored,) = cur.unpack("<I")
    if cur.pos != len(data):
        raise StorageError(f"{len(data) - cur.pos} trailing bytes after index data")
    computed = zlib.crc32(memoryview(data)[:end])
    if stored != computed:
        raise StorageError(
            f"checksum mismatch: file stores {stored:#010x}, data gives {computed:#010x}"
        )

    if not all(rules):
        raise StorageError("empty substitution rule")
    subs = SubstitutionList(zip([r[1:] for r in rules], [r[0] for r in rules]))
    side: dict[int, list[bytes]] = {}
    for w in side_words:
        side.setdefault(len(w), []).append(w)
    config = HashConfig(function_id=name.decode("ascii"), max_load_factor=max_lf)
    table = ChainedHashTable(*buckets, config)
    stats = DictionaryStats(total_bytes, word_count, alphabet_size)
    side_sorted = {n: tuple(sorted(group)) for n, group in side.items()}
    return SplitIndex(k, table, side_sorted, subs, stats)
