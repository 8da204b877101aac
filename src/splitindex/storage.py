"""Binary serialization of a built index.

Layout (all integers little-endian):

    magic            8 bytes  b"SPLITIDX"
    version          u16      currently 3
    k                u8
    hash id          u8 length + ASCII name
    max load factor  f64
    source stats     u64 total bytes, u64 word count, u16 alphabet size
    side table       section, one blob per word (sorted by length, then bytes)
    substitutions    section, one blob per rule: code byte, then gram,
                     in applied order
    buckets          section, one blob per bucket; its count is the bucket count
    lists            section, one blob per list in ref order; its count is
                     the table's key count
    checksum         u32 zlib.crc32 of every byte before it

A section is ``u32 n``, then ``n`` u32 blob lengths, then the ``n`` blobs
concatenated.  Bucket and list blobs are stored verbatim (lists in the region
layout that ``core`` describes, the same for every k), so a load/save cycle is
byte-identical and loaded indexes answer queries exactly like the original.
The checksum is verified on every load, after the header and section checks;
files of any other version, versions 1 and 2 included, are rejected.
"""

from __future__ import annotations

import struct
import zlib
from itertools import accumulate, pairwise

from .core import DictionaryStats, SplitIndex
from .errors import (
    BadMagicError,
    StorageError,
    TruncatedIndexError,
    VersionMismatchError,
)
from .hashing import ChainedHashTable, HashConfig
from .qgrams import Substitution, SubstitutionList

MAGIC = b"SPLITIDX"
FORMAT_VERSION = 3


def save_index(index: SplitIndex, path) -> None:
    """Write ``index`` to ``path`` in the format described above."""
    with open(path, "wb") as fh:
        fh.write(index_to_bytes(index))


def load_index(path) -> SplitIndex:
    """Read an index written by ``save_index``."""
    with open(path, "rb") as fh:
        return index_from_bytes(fh.read())


def _section(blobs: list[bytes]) -> bytes:
    return struct.pack(f"<{len(blobs) + 1}I", len(blobs), *map(len, blobs)) + b"".join(blobs)


def index_to_bytes(index: SplitIndex) -> bytes:
    cfg = index.table.config
    name = cfg.function_id.encode("ascii")
    st = index.source_stats
    subs = index.subs or ()
    body = b"".join((
        MAGIC,
        struct.pack("<HBB", FORMAT_VERSION, index.k, len(name)),
        name,
        struct.pack("<dQQH", cfg.max_load_factor, st.total_bytes, st.word_count, st.alphabet_size),
        _section([w for n in sorted(index.side_table) for w in index.side_table[n]]),
        _section([bytes((s.code,)) + s.gram for s in subs]),
        _section(index.table.buckets),
        _section(index.lists),
    ))
    return body + struct.pack("<I", zlib.crc32(body))


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

    def section(self) -> list[bytes]:
        (n,) = self.unpack("<I")
        bounds = list(accumulate(self.unpack(f"<{n}I"), initial=self.pos))
        self._move(bounds[-1])
        data = self.data
        return [data[a:b] for a, b in pairwise(bounds)]


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
    side_words = cur.section()
    rules = cur.section()
    buckets = cur.section()
    lists = cur.section()
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
    subs = SubstitutionList([Substitution(r[1:], r[0]) for r in rules])
    side: dict[int, list[bytes]] = {}
    for w in side_words:
        side.setdefault(len(w), []).append(w)
    config = HashConfig(function_id=name.decode("ascii"), max_load_factor=max_lf)
    table = ChainedHashTable(buckets, config, len(lists))
    stats = DictionaryStats(total_bytes, word_count, alphabet_size)
    side_sorted = {n: tuple(sorted(group)) for n, group in side.items()}
    return SplitIndex(k, table, lists, side_sorted, subs, stats)
