"""Split index for dictionary matching under a small mismatch budget.

Every indexed word is cut into ``k + 1`` contiguous pieces.  A query with at
most ``k`` mismatching positions must agree with a stored word on at least
one piece (pigeonhole), so each piece serves as a hash-table key whose list
holds the rest of the word.  Verification then runs a plain Hamming check on
the few surviving candidates.

List layout (one blob per key, the same for every k):
``[byte lengths of regions 1..k, LEB128 each][region 1]...[region k + 1]``.
Entries are grouped into regions by the key's piece position 1..k+1, and
region k + 1 runs to the list's end, which its bucket record gives.  An
entry's payload is the concatenation of the word's other k pieces.  Within a
region, entries are grouped by the length L of their payload, in ascending
L, and each group is ``[L tag][B, LEB128][B bytes]``: its payloads back to
back in byte order, with no length byte each.  The region's last group is
``[L tag | 0x80][bytes]``, with no B: it runs to the region's end.  A tag is
L itself for L of 1 to 127, or an escape byte, 0x00, or 0x80 for the last
group, then L for L of 128 to 255 (``hashing._read_tag``).  Payloads may be
substitution-coded (see ``qgrams``); keys never are.  A plain group's B is a
multiple of L; a coded group is the encoding of the plain group's bytes.
Piece boundaries are recomputed from the total length at query time.

A query walks the group headers of its region to the group whose L is the
length it wants, and verifies that group as a buffer of entries at stride L:
a plain group in the arena, a coded one as one ``decode`` of the group.  A
group of one entry is compared with the pattern's rest by one integer xor.
Otherwise one of two kernels checks each entry of the buffer once, chosen by
the group's entry count alone, at every k.  A group of fewer than
``MATRIX_RUN`` entries is xored, as one little-endian integer, with the rest
repeated once per entry (SWAR, SIMD within a register); the nonzero bytes
become ones, one multiplication sums each entry's ones into its last byte,
and a translate table marks the sums of at most k.  A larger group is
compared with the same repeated rest as one flat uint8 array, viewed as a
matrix of one row per entry, and a float32 matrix-vector product (BLAS
``sgemv``) sums each row's mismatches; a sum of at most ``PAYLOAD_LIMIT`` ones
is exact in float32.  When L <= k every entry matches, and is built without a
kernel.  The threshold, 64, was measured against the matrix on the three
benchmark workloads: 32 made english k = 2 slower at the median, and 128 and
256 its slowest 1% of queries.  A coded group is decoded before either kernel
sees it.

A matched word is its entry with the key put back at the key's offset,
joined from its non-empty parts only: for the first piece it is the key then
the entry, for the last piece the entry then the key, and only for a middle
piece (k >= 2) the entry's head, the key and the entry's tail.  The pattern's
rest, its other pieces, is sliced out the same way, so at k = 1, where every
piece is the first or the last, no empty part is sliced or joined.  When a
matrix group has at least ``BULK_RUN`` matches, or an L <= k group at least
``BULK_RUN`` entries, one numpy pass builds all of its words (``_words``),
copying only the non-empty column blocks; fewer are built one by one in
Python.  The threshold, 16, was measured on the benchmark workloads: 8 made
english k = 1 slower in its slowest 1% of queries, and 16 and 32 read the
same.  A group stores its entries in payload byte order, and each of its
words holds the same key at the same offset, so a group's matches come in
ascending word order.  ``_search`` collects them in an insertion-ordered
dict, and the sort in ``query`` merges those runs.

The build runs in numpy batches, one per key length.  Words of one length
share their piece bounds, so the keys and payloads of one key position are
column slices of them.  The entry rows of one key length are sorted once as
byte strings, which merges equal keys and orders each list's entries into
regions and groups.  A coded build then codes each group of the batch once;
numpy copies the group headers and payloads, and the table its records, into
place.  Python steps once per batch and once per distinct key.  The keys
come out in (key length, key bytes) order and every bucket keeps its records
in that order, so the index depends on the set of words, not on their order.

Each list sits in the hash table's bucket arena, right after its key (see
``hashing``), and ``SplitIndex.lists`` is that arena's ``bytes``.  A query
walks the bucket of each piece itself, as ``ChainedHashTable.lookup_list``
does, and reads the arena at absolute offsets, never past the end of the
bucket or region it walks.  It reads one-byte tags itself and hands an
escape to ``_read_tag``, or a key's to ``lookup_list``:
region lengths that run past their list, group lengths that are zero or do
not rise, a group that would cross its region's end, and a group that does
not hold a whole number of entries raise ``CorruptListError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import BuildError, ConfigError, CorruptListError, WordTooShortError
from .hashing import (HASH_FUNCTIONS, ChainedHashTable, HashConfig, _gather, _length_bytes, _read_length,
                      _read_tag, _tag_bytes)
from .qgrams import SubstitutionList

PAYLOAD_LIMIT = 255  # a group's L is one byte, after an escape from 128, from 1 up
MATRIX_RUN = 64  # the fewest entries in a group verified as one matrix, at every k; fewer are xored
BULK_RUN = 16  # the fewest matched words of a group built in one numpy pass; fewer are built one by one
_ONES = np.ones(PAYLOAD_LIMIT + 1, np.float32)  # sums a matrix row's mismatches by a float32 product
_NONZERO = bytes(1) + b"\x01" * 255  # a translate table: 0 where a byte is 0, else 1
_SPREAD = tuple(int.from_bytes(b"\x01" * n, "little") for n in range(PAYLOAD_LIMIT + 1))  # n one-bytes
# For each k, a translate table: 1 for a sum of at most k mismatches, else 0.
# Made once here rather than per index, so that a loaded index holds nothing
# more than its parts.
_WITHIN = tuple(b"\x01" * (k + 1) + bytes(255 - k) for k in range(256))
_BUDGET = tuple(np.float32(k) for k in range(256))  # k as a float32, like a matrix row sum; an int is cast per compare


@lru_cache(maxsize=1024)  # builds and queries ask for few distinct lengths
def piece_lengths(length: int, k: int) -> tuple[int, ...]:
    """Piece lengths for a word of ``length`` bytes split into k+1 pieces.

    Pieces 1..k share a common length, round-half-up of ``length / (k+1)``;
    the last piece takes the remainder.  When that rounding would leave the
    last piece empty, the common length drops to ``(length - 1) // k`` so
    every piece stays non-empty: a key is never empty, and neither is a
    stored payload, whose group length is at least 1.
    """
    if k < 1:
        raise ConfigError(f"mismatch budget must be >= 1, got {k}")
    if length < k + 1:
        raise WordTooShortError(f"length {length} cannot make {k + 1} non-empty pieces")
    d = k + 1
    base = (2 * length + d) // (2 * d)
    if k * base >= length:
        base = (length - 1) // k
    return (base,) * k + (length - k * base,)


def split_word(word: bytes, k: int) -> tuple[bytes, ...]:
    """Split ``word`` into its k+1 pieces; words shorter than k+1 are rejected."""
    lens = piece_lengths(len(word), k)
    pieces = []
    start = 0
    for n in lens:
        pieces.append(word[start : start + n])
        start += n
    return tuple(pieces)


@lru_cache(maxsize=1024)  # queries ask for few distinct lengths
def _plan(length: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """Search plan for a ``length``-byte pattern, one tuple per piece r >= 0.

    A tuple holds r; the piece's start and end in the pattern; and ``need``,
    the length of the rest of the pattern.
    """
    plan = []
    start = 0
    for r, plen in enumerate(piece_lengths(length, k)):
        plan.append((r, start, start + plen, length - plen))
        start += plen
    return tuple(plan)


def _region(data: bytes, begin: int, end: int, r: int, k: int, key: bytes) -> tuple[int, int]:
    """Start and end offsets of region r + 1 of the list ``data[begin:end]``.

    Raises CorruptListError naming ``key`` when the region lengths that open
    the list run past its end.
    """
    o = begin
    lo = 0
    for j in range(k):
        if o < end and (n := data[o]) < 0x80:  # nearly every region is under 128 bytes
            o += 1
        else:
            n, o = _read_length(data, o, end, key)
        if j < r:
            lo += n
        elif j == r:
            size = n
    lo += o
    hi = lo + size if r < k else end
    if not lo <= hi <= end:
        raise CorruptListError(f"the region lengths of the list for key {key!r} run past its end")
    return lo, hi


class Dictionary:
    """Deduplicated, ordered collection of byte-string words plus stats."""

    __slots__ = ("words", "total_bytes", "alphabet")

    def __init__(self, words: Iterable[bytes]):
        uniq = dict.fromkeys(words)
        for w in uniq:
            if not isinstance(w, bytes):
                raise TypeError(f"words must be bytes, got {type(w).__name__}")
            if not w:
                raise ValueError("empty words are not allowed")
        self.words: tuple[bytes, ...] = tuple(uniq)
        self.total_bytes: int = sum(len(w) for w in self.words)
        self.alphabet: frozenset[int] = frozenset(b"".join(self.words))

    @property
    def word_count(self) -> int:
        return len(self.words)

    @property
    def alphabet_size(self) -> int:
        return len(self.alphabet)

    def alphabet_bytes(self) -> bytes:
        """The distinct symbols, ascending."""
        return bytes(sorted(self.alphabet))

    def stats(self) -> "DictionaryStats":
        return DictionaryStats(self.total_bytes, self.word_count, self.alphabet_size)

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class DictionaryStats:
    total_bytes: int
    word_count: int
    alphabet_size: int


@dataclass(frozen=True)
class ListStats:
    list_count: int
    entry_count: int
    mean_entries: float
    max_entries: int
    payload_bytes: int


class SplitIndex:
    """Immutable index over a dictionary; safe for concurrent read-only queries."""

    __slots__ = (
        "k",
        "table",
        "lists",
        "side_table",
        "subs",
        "source_stats",
        "_decode",
        "_view",
        "_hash",
        "_mask",
        "_starts",
    )

    def __init__(
        self,
        k: int,
        table: ChainedHashTable,
        side_table: dict[int, tuple[bytes, ...]],
        subs: SubstitutionList | None,
        source_stats: DictionaryStats,
    ):
        self.k = k
        self.table = table
        self.lists = table.data  # every list sits in its bucket record
        self.side_table = side_table
        self.subs = subs or None  # no coding is None, never an empty list
        self.source_stats = source_stats
        self._decode = subs.decode if subs else None
        self._view = np.frombuffer(self.lists, dtype=np.uint8)  # the arena, not a copy
        self._hash = HASH_FUNCTIONS[table.config.function_id]  # what the table probes with
        self._mask = table.bucket_count - 1
        self._starts = table.starts

    # -- queries ---------------------------------------------------------

    def query(self, pattern: bytes) -> list[bytes]:
        """All stored words of the pattern's length within k mismatches, sorted."""
        out = {}
        self._search(pattern, out)
        return sorted(out)  # timsort merges the groups' ascending runs

    def _search(self, pattern: bytes, out: dict) -> int:
        """Add the matches of ``pattern`` to ``out``; return candidates verified.

        ``out`` is a dict, and each match becomes one of its keys, with the
        value None.  Its insertion order keeps the matches of one group
        together and ascending.  A verification is a Hamming check of one
        stored word that agrees with the pattern's length and on a whole
        piece.
        """
        if not isinstance(pattern, bytes):
            raise TypeError(f"pattern must be bytes, got {type(pattern).__name__}")
        n = len(pattern)
        if n == 0:
            raise ValueError("pattern must be non-empty")
        k = self.k
        if n <= k:
            # Same length and Hamming <= length <= k: everything matches.
            out.update(dict.fromkeys(self.side_table.get(n, ())))
            return 0
        # Piece r >= 0 of the pattern keys a list whose region r + 1 holds
        # the other pieces of the words that share it.  The piece's bucket is
        # walked here as ``ChainedHashTable.lookup_list`` walks it, with the
        # same checks and errors, and ``_region`` bounds the region.  The walk
        # over the region's group headers then stops at the first group not
        # shorter than the wanted length.  Every entry of the group of that
        # length counts as verified.  One entry is compared through one
        # integer xor; more go to one of the two kernels the module
        # describes, which check each entry once: the big-integer xor over
        # the whole group, or the matrix.
        fn = self._hash
        mask = self._mask
        starts = self._starts
        data = self.lists
        decode = self._decode
        view = self._view
        ifb = int.from_bytes
        verified = 0
        # Offsets into the arena are large ints, a new object each, so every
        # sum is computed once.
        for r, start, end, need in _plan(n, k):
            key = pattern[start:end]
            b = fn(key) & mask
            o = starts[b]
            bend = starts[b + 1]
            kl = end - start
            k0 = key[0]
            # A record costs two sums: p, the offset of its list length's
            # last byte, and the next record's offset.  A list length of
            # one or two bytes is read inline, a longer one by _read_length.
            # The bucket's last record has no list length: its list runs
            # from its key's end to the bucket's end, and its tag is its key
            # length plus 0x80.  A key of the right length has its first
            # byte tested before startswith: keys of one length are common
            # (every DNA key has 10 bytes), and most differ there.
            while o < bend:
                el = data[o]
                if el < 0x80 and el:  # a record before the bucket's last, with a key under 128 bytes
                    p = o + (el + 1)
                    if p >= bend:
                        raise CorruptListError(f"bucket {b} holds a record that runs past its end")
                    size = data[p]
                    if size > 0x7F:
                        p += 1
                        if p < bend and (c := data[p]) < 0x80:
                            size = size & 0x7F | c << 7
                        else:
                            size, p = _read_length(data, p - 1, bend, b)
                            p -= 1
                    if el == kl and data[o + 1] == k0 and data.startswith(key, o + 1):
                        p += 1
                        size += p  # the list's end
                        if size > bend:
                            raise CorruptListError(f"the list for key {key!r} runs past the end of bucket {b}")
                        break
                    o = p + (size + 1)
                elif el > 0x80:  # the bucket's last record, with a key under 128 bytes
                    p = o + (el - 0x7F)  # the list's start
                    if p > bend:
                        raise CorruptListError(f"bucket {b} holds a record that runs past its end")
                    if el == kl + 0x80 and data[o + 1] == k0 and data.startswith(key, o + 1):
                        size = bend
                        break
                    o = bend
                else:  # an escape, which only a key of 128 bytes or more takes: lookup_list walks on
                    at = self.table.lookup_list(key)
                    if at is None:
                        o = bend
                        continue
                    p, size = at.start, at.stop
                    break
            else:
                if o != bend:
                    raise CorruptListError(f"bucket {b} holds a record that runs past its end")
                continue
            o, hi = _region(data, p, size, r, k, key)
            # Group lengths rise strictly from 1.  The region's last group
            # runs to the region's end; another's byte length is read inline
            # when it is one byte, as nearly all are.
            last = 0
            while o < hi:
                ln = data[o]
                o += 1
                if ln > 0x80:  # the region's last group, with L under 128
                    ln -= 0x80
                    size = hi - o
                elif ln < 0x80 and ln:
                    if o < hi and (size := data[o]) < 0x80:
                        o += 1
                    else:
                        size, o = _read_length(data, o, hi, key, "group")
                else:  # an escape, for L of 128 or more
                    ln, final, o = _read_tag(data, o - 1, hi, key)
                    size, o = (hi - o, o) if final else _read_length(data, o, hi, key, "group")
                if ln >= need:
                    break
                if ln <= last:
                    raise CorruptListError(f"the list for key {key!r} holds group lengths that do not rise")
                last = ln
                o += size
            else:
                if o > hi:
                    raise CorruptListError(f"a group of the list for key {key!r} crosses its region's end")
                continue
            if ln != need:
                continue
            stop = o + size
            if stop > hi:
                raise CorruptListError(f"a group of the list for key {key!r} crosses its region's end")
            # The group's entries lie at stride need in buf, from o to stop.
            if decode is None:
                buf = data
            else:
                buf = decode(data[o:stop])
                o = 0
                stop = size = len(buf)
            # The first piece's rest and word have no part before the key, and
            # the last piece's (start == need) none after it.
            rest = pattern[end:] if not start else pattern[:start] if start == need else pattern[:start] + pattern[end:]
            if size == need:  # one entry
                verified += 1
                v = ifb(buf[o:stop], "little") ^ ifb(rest, "little")
                if not v:
                    out[pattern] = None
                elif v.to_bytes(need, "little").count(0) >= need - k:
                    out[key + buf[o:stop] if not start else buf[o:stop] + key if start == need else
                        buf[o : o + start] + key + buf[o + start : stop]] = None
                continue
            count = size // need
            if count * need != size:
                raise CorruptListError(f"a group of the list for key {key!r} holds no whole number of entries")
            verified += count
            if need <= k:  # every word of the pattern's length is a match
                if count >= BULK_RUN:
                    group = (view if buf is data else np.frombuffer(buf, dtype=np.uint8))[o:stop]
                    out.update(dict.fromkeys(_words(group.reshape(count, need), start, key)))
                    continue
                for e in range(o, stop, need):
                    out[key + buf[e : e + need] if not start else buf[e : e + need] + key if start == need else
                        buf[e : e + start] + key + buf[e + start : e + need]] = None
                continue
            rests = rest * count  # the rest once per entry, as both kernels take it
            if count >= MATRIX_RUN:
                # One flat compare of the group with rests, then a float32
                # product sums each row: a row's sum of at most need <=
                # PAYLOAD_LIMIT ones is a small whole number, exact in float32.
                group = (view if buf is data else np.frombuffer(buf, dtype=np.uint8))[o:stop]
                hits = (group != np.frombuffer(rests, dtype=np.uint8)).reshape(count, need) @ _ONES[:need] <= _BUDGET[k]
                hits = hits.nonzero()[0]
                if len(hits) >= BULK_RUN:
                    out.update(dict.fromkeys(_words(group.reshape(count, need).take(hits, 0), start, key)))
                    continue
                for i in hits.tolist():
                    e = o + i * need
                    out[key + buf[e : e + need] if not start else buf[e : e + need] + key if start == need else
                        buf[e : e + start] + key + buf[e + start : e + need]] = None
                continue
            # The xor with rests is nonzero in the bytes where an entry
            # differs.  As ones and zeros, those bytes times need one-bytes
            # sum each entry's mismatches into its last byte; every byte of
            # the product sums at most need <= PAYLOAD_LIMIT ones, so none
            # carries into the next.  hits holds one byte per entry, 1 for a
            # match.
            v = ifb(buf[o:stop], "little") ^ ifb(rests, "little")
            v = ifb(v.to_bytes(size, "little").translate(_NONZERO), "little") * _SPREAD[need]
            hits = v.to_bytes(size + need, "little")[need - 1 : size : need].translate(_WITHIN[k])
            i = hits.find(1)
            while i >= 0:
                e = o + i * need
                out[key + buf[e : e + need] if not start else buf[e : e + need] + key if start == need else
                    buf[e : e + start] + key + buf[e + start : e + need]] = None
                i = hits.find(1, i + 1)
        return verified

    # -- stats and sizes ---------------------------------------------------

    def list_stats(self) -> ListStats:
        """Entry counts and stored payload bytes across all piece lists.

        A plain group holds B / L entries, a coded one its decoded length / L.
        Raises CorruptListError naming the key for group lengths that are
        zero or do not rise, a group that crosses its region's end, or a group
        that holds no whole number of entries.
        """
        count = 0
        total = 0
        payload = 0
        worst = 0
        data = self.lists
        decode = self._decode
        k = self.k
        for _, key, begin, end in self.table.records():
            c = 0
            for r in range(k + 1):
                o, hi = _region(data, begin, end, r, k, key)
                last = 0
                while o < hi:
                    ln, final, p = _read_tag(data, o, hi, key)
                    if ln <= last:
                        raise CorruptListError(f"the list for key {key!r} holds group lengths that do not rise")
                    if final:
                        o = hi
                    else:
                        size, p = _read_length(data, p, hi, key, "group")
                        o = p + size
                        if o > hi:
                            raise CorruptListError(f"a group of the list for key {key!r} crosses its region's end")
                    size = o - p
                    payload += size
                    if decode is not None:
                        size = len(decode(data[p:o]))
                    if size % ln:
                        raise CorruptListError(f"a group of the list for key {key!r} holds no whole number of entries")
                    c += size // ln
                    last = ln
            count += 1
            total += c
            if c > worst:
                worst = c
        return ListStats(
            list_count=count,
            entry_count=total,
            mean_entries=total / count if count else 0.0,
            max_entries=worst,
            payload_bytes=payload,
        )

    def size_bytes(self) -> int:
        """Exact byte size of every stored component: an 8-byte directory
        slot per bucket, the bucket arena (record headers and the lists in
        them), and the side-table words and substitution rules, each with one
        length byte.  Allocator overhead is deliberately excluded."""
        side = sum(1 + len(w) for group in self.side_table.values() for w in group)
        rules = sum(1 + len(s.gram) for s in self.subs or ())
        return 8 * self.table.bucket_count + len(self.lists) + side + rules


def _words(rows: np.ndarray, start: int, key: bytes) -> list[bytes]:
    """The words of payload ``rows`` (one entry each) with ``key`` put in at
    column ``start``, in row order.

    The rows become bytes through a void view, which keeps every byte; a
    bytes ('S') view would drop each word's trailing NUL bytes.
    """
    count, need = rows.shape
    width = need + len(key)
    words = np.empty((count, width), np.uint8)
    if start:
        words[:, :start] = rows[:, :start]
    words[:, start : start + len(key)] = np.frombuffer(key, np.uint8)
    if start < need:
        words[:, start + len(key) :] = rows[:, start:]
    return words.view(f"V{width}").ravel().tolist()


def _runs(values: np.ndarray) -> list[np.ndarray]:
    """Indices of ``values`` grouped by value, ascending; ascending within a group."""
    order = np.argsort(values, kind="stable")
    return [run for run in np.split(order, np.flatnonzero(np.diff(values[order])) + 1) if len(run)]


def build_index(
    dictionary: Dictionary,
    k: int,
    *,
    hash_config: HashConfig | None = None,
    substitutions: SubstitutionList | None = None,
) -> SplitIndex:
    """Build a split index for ``dictionary`` with mismatch budget ``k``.

    Words of length <= k go to a side table keyed by length; every other word
    contributes exactly k+1 list entries, one per piece.  With non-empty
    ``substitutions``, list payloads are stored substitution-coded; None and
    an empty list both mean no coding, and the index's ``subs`` is then None.

    The entries are made in numpy batches, one per key length, each sorted
    once (see ``_lists``); Python steps once per batch and once per distinct
    key, and a coded build codes each group once, after the sort.  Each
    bucket holds its records in (key length, key bytes) order, so the index
    is the same, byte for byte, for every order of the same words.

    Raises BuildError if a word's stored complement would not fit an 8-bit
    length tag, or CodecError if coding is asked for and a word over k holds
    a byte that is not plain, naming the first such word in dictionary order.
    """
    if not isinstance(k, int) or k < 1:
        raise ConfigError(f"mismatch budget must be an integer >= 1, got {k!r}")
    if k > 255:
        raise ConfigError(f"mismatch budget is limited to 255, got {k}")
    words = dictionary.words
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    side = {}
    groups = []  # (indices of the words of one length over k, their piece lengths)
    for run in _runs(lengths):
        n = int(lengths[run[0]])
        if n <= k:
            side[n] = tuple(sorted(map(words.__getitem__, run.tolist())))
        else:
            groups.append((run, piece_lengths(n, k)))
    oversized = [run[0] for run, pieces in groups if sum(pieces) - min(pieces) > PAYLOAD_LIMIT]
    if oversized:
        raise BuildError(f"missing pieces exceed {PAYLOAD_LIMIT} bytes for word {words[min(oversized)][:32]!r}")
    if substitutions:  # side words are stored as they are
        substitutions.check_plain([w for w in words if len(w) > k])
    keys, lists, sizes = _lists(words, lengths, groups, k, substitutions)
    table = ChainedHashTable.build(keys, lists, sizes, hash_config)
    return SplitIndex(k, table, side, substitutions, dictionary.stats())


def _lists(
    words: tuple[bytes, ...],
    lengths: np.ndarray,
    groups: list[tuple[np.ndarray, tuple[int, ...]]],
    k: int,
    substitutions: SubstitutionList | None,
) -> tuple[list[bytes], np.ndarray, np.ndarray]:
    """The distinct keys in (length, bytes) order, their lists back to back
    as a uint8 array, and the byte length of each list.

    Each key length is one batch of entry rows, ``[key][position][payload
    length][payload, padded to the batch's widest]``, sorted once as byte
    strings.  The sort brings equal keys together and puts each key's entries
    in list order: by position, so that they fall into regions, then by
    length, so that they fall into groups, then by bytes.  What follows a
    payload never decides the order: rows that agree up to its end hold the
    same key, position and payload, which make the same word, so no two rows
    do.  The rows are then dropped, and a coded build codes each group's
    payloads as one string.
    """
    if not groups:
        return [], np.zeros(0, np.uint8), np.zeros(0, np.int64)
    flat = np.frombuffer(b"".join(words), np.uint8)
    offsets = np.cumsum(lengths) - lengths
    batches = {}  # key length -> [(word indices, word length, key position, key start)]
    for run, pieces in groups:
        start = 0
        for r, plen in enumerate(pieces):
            batches.setdefault(plen, []).append((run, sum(pieces), r, start))
            start += plen
    keys = []
    payloads = []
    owners = []  # of each group, in list order: its key's index in ``keys``
    positions = []
    group_lengths = []
    group_sizes = []
    for plen, parts in sorted(batches.items()):
        count = sum(len(run) for run, _, _, _ in parts)
        width = max(n for _, n, _, _ in parts) - plen
        rows = np.zeros((count, plen + 2 + width), np.uint8)
        i = 0
        for run, n, r, start in parts:
            j = i + len(run)
            cols = np.r_[start : start + plen, :start, start + plen : n]  # the key, then the rest
            rows[i:j, np.r_[:plen, plen + 2 : plen + 2 + n - plen]] = flat[offsets[run, None] + cols]
            rows[i:j, plen] = r
            rows[i:j, plen + 1] = n - plen
            i = j
        rows = rows[np.lexsort(rows.T[::-1])]  # by the first byte, then the second, ...
        # A key's rows start where the key changes, and a group's where the
        # key, position or length does; compared column by column, since
        # numpy reduces a short row slowly.
        new = np.zeros(count, bool)
        new[0] = True
        for c in range(plen):
            new[1:] |= rows[1:, c] != rows[:-1, c]
        heads = new.copy()
        for c in (plen, plen + 1):
            heads[1:] |= rows[1:, c] != rows[:-1, c]
        heads = np.flatnonzero(heads)
        firsts = np.flatnonzero(new)
        owners.append((np.cumsum(new)[heads] - 1) + len(keys))
        raw = rows[firsts, :plen].tobytes()
        keys += [raw[i : i + plen] for i in range(0, len(raw), plen)]
        positions.append(rows[heads, plen])
        group_lengths.append(rows[heads, plen + 1])
        size = np.diff(heads, append=count) * group_lengths[-1]  # of each group
        payload = rows[:, plen + 2 :][np.arange(width) < rows[:, plen + 1, None]]
        del rows  # dropped before the coding
        if substitutions:
            payload, size = substitutions.encode_groups(payload, size)
        group_sizes.append(size)
        payloads.append(payload)
    owner = np.concatenate(owners)
    position = np.concatenate(positions)
    group_size = np.concatenate(group_sizes)
    group_length = np.concatenate(group_lengths)
    del owners, positions, group_sizes, group_lengths  # not kept through the gather
    # Each group is [L tag][B, LEB128][B bytes of payloads], but a region's
    # last group, flagged in its tag, has no B; each list opens with the
    # byte lengths of its regions 1..k, as LEB128, then holds its groups.
    final = np.ones(len(owner), bool)
    final[:-1] = (owner[1:] != owner[:-1]) | (position[1:] != position[:-1])
    tags, tag_sizes = _tag_bytes(group_length, final)
    leb, leb_sizes = _length_bytes(group_size[~final])
    b_sizes = np.zeros(len(owner), np.int64)
    b_sizes[~final] = leb_sizes
    region = np.bincount(owner * (k + 1) + position, tag_sizes + b_sizes + group_size, len(keys) * (k + 1))
    region = region.astype(np.int64).reshape(-1, k + 1)
    head, head_sizes = _length_bytes(region[:, :k].ravel())
    head_sizes = head_sizes.reshape(-1, k).sum(1)
    # The headers of the groups, back to back: each list's region lengths in
    # front of its first group's tag, then each tag in front of its B, if any
    # (np.insert keeps the order of the values it puts at one index).  One
    # gather then takes each group's header and payloads in turn.
    count = np.bincount(owner, minlength=len(keys))
    first = np.cumsum(count) - count
    tags = np.insert(tags, np.repeat((np.cumsum(tag_sizes) - tag_sizes)[first], head_sizes), head)
    tag_sizes[first] += head_sizes
    headers = np.insert(leb, np.repeat(np.cumsum(b_sizes) - b_sizes, tag_sizes), tags)
    spans = np.stack((tag_sizes + b_sizes, group_size), 1)
    starts = np.cumsum(spans, 0) - spans
    starts[:, 1] += len(headers)
    lists = _gather(np.concatenate((headers, *payloads)), starts.ravel(), spans.ravel())
    return keys, lists, head_sizes + region.sum(1)
