"""Binary serialization of a built index.

Layout (all integers little-endian):

    magic            8 bytes  b"SPLITIDX"
    version          u16      currently 2
    k                u8
    hash id          u8 length + ASCII name
    bucket count     u32
    max load factor  f64
    initial buckets  u32
    key count        u32
    source stats     u64 total bytes, u64 word count, u16 alphabet size
    side table       u32 count, then per word: u8 length + bytes
                     (sorted by length, then bytes)
    substitutions    u16 count, then per rule: u8 code, u8 length + gram,
                     in applied order
    buckets          per bucket: u32 length + blob
    lists            u32 count, then per list: u32 length + blob

Bucket and list blobs are stored verbatim (lists in the region layout that
``core`` describes, the same for every k), so a load/save cycle is
byte-identical and loaded indexes answer queries exactly like the original.
Version 2 introduced that layout for k > 1; version-1 files are rejected.
"""

from __future__ import annotations

import struct

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
FORMAT_VERSION = 2


def save_index(index: SplitIndex, path) -> None:
    """Write ``index`` to ``path`` in the format described above."""
    with open(path, "wb") as fh:
        fh.write(index_to_bytes(index))


def load_index(path) -> SplitIndex:
    """Read an index written by ``save_index``."""
    with open(path, "rb") as fh:
        return index_from_bytes(fh.read())


def index_to_bytes(index: SplitIndex) -> bytes:
    cfg = index.table.config
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HB", FORMAT_VERSION, index.k)
    name = cfg.function_id.encode("ascii")
    out.append(len(name))
    out += name
    out += struct.pack("<I", index.table.bucket_count)
    out += struct.pack("<dII", cfg.max_load_factor, cfg.initial_bucket_count, index.table.key_count)
    st = index.source_stats
    out += struct.pack("<QQH", st.total_bytes, st.word_count, st.alphabet_size)

    side_words = [w for n in sorted(index.side_table) for w in index.side_table[n]]
    out += struct.pack("<I", len(side_words))
    for w in side_words:
        out.append(len(w))
        out += w

    subs = index.subs.entries if index.subs is not None else ()
    out += struct.pack("<H", len(subs))
    for s in subs:
        out += struct.pack("<BB", s.code, len(s.gram))
        out += s.gram

    for blob in index.table.buckets:
        out += struct.pack("<I", len(blob))
        out += blob
    out += struct.pack("<I", len(index.lists))
    for blob in index.lists:
        out += struct.pack("<I", len(blob))
        out += blob
    return bytes(out)


class _Cursor:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise TruncatedIndexError(
                f"file ends at byte {len(self.data)}, needed {end}"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def index_from_bytes(data: bytes) -> SplitIndex:
    cur = _Cursor(data)
    if cur.take(len(MAGIC)) != MAGIC:
        raise BadMagicError(f"not an index file: expected magic {MAGIC!r}")
    (version,) = cur.unpack("<H")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"file format version {version}, this reader supports {FORMAT_VERSION}"
        )
    (k,) = cur.unpack("<B")
    if k < 1:
        raise StorageError(f"mismatch budget k must be >= 1, got {k}")
    (name_len,) = cur.unpack("<B")
    name = cur.take(name_len)
    if not name.isascii():
        raise StorageError(f"hash id must be ASCII, got {name!r}")
    function_id = name.decode("ascii")
    (bucket_count,) = cur.unpack("<I")
    max_lf, initial_buckets, key_count = cur.unpack("<dII")
    config = HashConfig(
        function_id=function_id,
        max_load_factor=max_lf,
        initial_bucket_count=initial_buckets,
    )
    total_bytes, word_count, alphabet_size = cur.unpack("<QQH")

    (side_count,) = cur.unpack("<I")
    side: dict[int, list[bytes]] = {}
    for _ in range(side_count):
        (ln,) = cur.unpack("<B")
        w = cur.take(ln)
        side.setdefault(ln, []).append(w)

    (sub_count,) = cur.unpack("<H")
    entries = []
    for _ in range(sub_count):
        code, gram_len = cur.unpack("<BB")
        entries.append(Substitution(cur.take(gram_len), code))
    subs = SubstitutionList(entries) if entries else None

    buckets = []
    for _ in range(bucket_count):
        (ln,) = cur.unpack("<I")
        buckets.append(cur.take(ln))
    (list_count,) = cur.unpack("<I")
    lists = []
    for _ in range(list_count):
        (ln,) = cur.unpack("<I")
        lists.append(cur.take(ln))
    if cur.pos != len(data):
        raise StorageError(f"{len(data) - cur.pos} trailing bytes after index data")

    table = ChainedHashTable(buckets, config, key_count)
    stats = DictionaryStats(total_bytes, word_count, alphabet_size)
    side_sorted = {n: tuple(sorted(group)) for n, group in side.items()}
    return SplitIndex(k, table, lists, side_sorted, subs, stats)
