"""Split index for dictionary matching under a small mismatch budget.

Every indexed word is cut into ``k + 1`` contiguous pieces.  A query with at
most ``k`` mismatching positions must agree with a stored word on at least
one piece (pigeonhole), so each piece serves as a hash-table key whose list
holds the rest of the word.  Verification then runs a plain Hamming check on
the few surviving candidates.

List layout (one blob per key, the same for every k):
``[k region markers, u16 LE each][entry ...][0x00]`` where an entry is
``[length u8 >= 1][payload]`` and the payload is the concatenation of the
word's other k pieces.  Entries are grouped into regions by the key's piece
position 1..k+1, and sorted shortest first within a region.  Marker j is the
1-based entry index at which region j+1 begins, 0 when that region is empty;
region 1 starts at the first entry.  A list holds at most
``LIST_ENTRY_LIMIT`` entries.  Piece boundaries are recomputed from the
total length at query time.

A query verifies the run of entries of its wanted length with one of two
kernels.  At k >= 2, a run of at least ``MATRIX_RUN`` entries is compared
with the pattern as one uint8 matrix over a numpy view of the list arena,
each entry once; shorter runs, and every run at k = 1, are searched with
``bytes.find`` for exact sub-pieces of the pattern, and only the aligned hits
are verified.  The threshold, 64, was measured on the english k = 2
benchmark: below it numpy's fixed cost per run outweighs what it saves at
the median query.

Payloads may be substitution-coded (see ``qgrams``); keys never are.

All lists sit back to back in one ``Arena`` (see ``hashing``), and a query
reads them at absolute offsets, never past the end of the list it walks:
a walk, hop or run that would cross a list's terminator raises
``CorruptListError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import BuildError, ConfigError, CorruptListError, WordTooShortError
from .hashing import Arena, ChainedHashTable, HashConfig
from .qgrams import SubstitutionList

PAYLOAD_LIMIT = 255  # entry lengths are single bytes; 0 terminates a list
LIST_ENTRY_LIMIT = 0xFFFF  # region markers are 16-bit entry indexes
MATRIX_RUN = 64  # at k >= 2, the fewest entries in a run verified as one matrix


@lru_cache(maxsize=1024)  # builds and queries ask for few distinct lengths
def piece_lengths(length: int, k: int) -> tuple[int, ...]:
    """Piece lengths for a word of ``length`` bytes split into k+1 pieces.

    Pieces 1..k share a common length, round-half-up of ``length / (k+1)``;
    the last piece takes the remainder.  When that rounding would leave the
    last piece empty, the common length drops to ``(length - 1) // k`` so
    every piece stays non-empty (a zero length byte would read as the list
    terminator).
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
def _plan(length: int, k: int) -> tuple[tuple, ...]:
    """Search plan for a ``length``-byte pattern, one tuple per piece r >= 0.

    A tuple holds the piece's start and end in the pattern; ``need``, the
    length of the rest of the pattern; the (start, end) of each sub-piece to
    search, as offsets into that rest with its length byte in front; the list
    offset of marker r, or -1 for r = 0; and the offsets of the markers after
    it.  The rest is cut into k + 1 sub-pieces at ``need * j // (k + 1)``.
    The first keeps the length byte, and when it holds nothing else
    (need <= k) it is the only one searched.
    """
    plan = []
    start = 0
    for r, plen in enumerate(piece_lengths(length, k)):
        need = length - plen
        cuts = [0] + [1 + need * j // (k + 1) for j in range(1, k + 2)]
        passes = tuple(zip(cuts, cuts[1:])) if cuts[1] > 1 else ((0, 1),)
        plan.append((start, start + plen, need, passes, 2 * r - 2, tuple(range(2 * r, 2 * k, 2))))
        start += plen
    return tuple(plan)


def _find_run(data: bytes, o: int, left: int, need: int, end: int) -> tuple[int, int]:
    """Offset and entry count of the run of ``need``-byte entries in a region.

    The region's remaining entries start at offset ``o``, at most ``left`` of
    them, shortest first, in a list that ends at ``end``; the count is 0 when
    none has that length.  Entries of one length lie at a fixed stride, so a
    run of two or more is counted in C from a strided slice of its length
    bytes, bounded by the region and the list, and skipping shorter entries
    costs one step per distinct length rather than one per entry.  A walk
    or run that reaches the list's end raises IndexError, as a read past the
    whole arena would; the caller reports both as a corrupt list.
    """
    while left and o < end:
        ln = data[o]
        if ln == 0 or ln > need:
            break
        step = ln + 1
        if data[o + step] == ln:
            stop = o + left * step
            lengths = data[o : stop if stop < end else end : step]
            run = len(lengths) - len(lengths.lstrip(lengths[:1]))
        else:
            run = 1
        after = o + run * step
        if ln == need:
            if after >= end:
                raise IndexError("entry run crosses the end of its list")
            return o, run
        o = after
        left -= run
    # The terminator is the list's last byte: only a walk that ran over it
    # (or a hop over earlier regions that did) ends at or past ``end``.  Past
    # it a strided slice would be empty and the walk would stop advancing.
    if o >= end:
        raise IndexError("entry walk crosses the end of its list")
    return o, 0


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
    )

    def __init__(
        self,
        k: int,
        table: ChainedHashTable,
        lists: Arena,
        side_table: dict[int, tuple[bytes, ...]],
        subs: SubstitutionList | None,
        source_stats: DictionaryStats,
    ):
        self.k = k
        self.table = table
        self.lists = lists
        self.side_table = side_table
        self.subs = subs or None  # no coding is None, never an empty list
        self.source_stats = source_stats
        self._decode = subs.decode if subs else None
        self._view = np.frombuffer(lists.data, dtype=np.uint8)  # the list arena, not a copy

    # -- queries ---------------------------------------------------------

    def query(self, pattern: bytes) -> list[bytes]:
        """All stored words of the pattern's length within k mismatches, sorted."""
        out = set()
        self._search(pattern, out)
        return sorted(out)

    def _search(self, pattern: bytes, out: set) -> int:
        """Add the matches of ``pattern`` to ``out``; return candidates verified.

        A verification is a Hamming check of one stored word that agrees with
        the pattern's length and on a whole piece.
        """
        if not isinstance(pattern, bytes):
            raise TypeError(f"pattern must be bytes, got {type(pattern).__name__}")
        n = len(pattern)
        if n == 0:
            raise ValueError("pattern must be non-empty")
        k = self.k
        if n <= k:
            # Same length and Hamming <= length <= k: everything matches.
            out.update(self.side_table.get(n, ()))
            return 0
        # Piece r >= 0 of the pattern keys a list whose region r + 1 holds
        # the other pieces of the words that share it.  ``_find_run`` skips the region's
        # shorter entries a run at a time and counts the run of the wanted
        # length, every entry of which counts as verified.  One of two kernels
        # then checks the run.  At k >= 2, a run of at least MATRIX_RUN
        # entries is viewed as a (count, need + 1) byte matrix over the arena
        # and compared with the pattern's rest in one numpy pass, each entry
        # once; below 64 entries (measured against 8 to 128 on the english
        # k = 2 benchmark) numpy's fixed cost per run outweighs the saving.
        # Otherwise the pigeonhole step applies again: the rest of the pattern
        # is cut into k + 1 sub-pieces, and a word within k mismatches matches
        # one of them exactly, so each sub-piece is searched in C with
        # bytes.find and only its hits are compared, through one integer xor.
        lookup = self.table.lookup_list
        data = self.lists.data
        starts = self.lists.starts
        decode = self._decode
        view = self._view
        matrix = MATRIX_RUN if k > 1 else LIST_ENTRY_LIMIT + 1
        ifb = int.from_bytes
        verified = 0
        # Reading past a list, or a ref past the lists, means a damaged file.
        # The list of ``ref`` spans data[begin:limit], its terminator last.  A
        # hop or walk crosses that only through a damaged length byte; it is
        # checked once, where it stops, and the words it found go with the
        # error.  Offsets into the arena are large ints, a new object each, so
        # every sum is computed once.
        try:
            for start, end, need, passes, mark, nexts in _plan(n, k):
                key = pattern[start:end]
                ref = lookup(key)
                if ref is None:
                    continue
                begin = starts[ref]
                limit = starts[ref + 1]
                # Region r + 1 starts at marker r (at the first entry for r = 0)
                # and holds the entries up to the next region that has any, or up
                # to the terminator, which ends any walk early.
                o = begin + 2 * k
                if mark < 0:
                    first = 1
                else:
                    at = begin + mark
                    first = data[at] | data[at + 1] << 8
                    if not first:
                        continue
                    for _ in range(first - 1):  # hop over the earlier regions
                        o += data[o] + 1
                left = LIST_ENTRY_LIMIT + 1
                for m in nexts:
                    at = begin + m
                    nxt = data[at] | data[at + 1] << 8
                    if nxt:
                        left = nxt - first
                        break
                if left < 0:  # a negative count would never run out
                    raise CorruptListError(f"region markers out of order for key {key!r}")
                if decode is not None:
                    rest = pattern[:start] + pattern[end:]
                    rint = ifb(rest, "little")
                    # Stored lengths are coded, but decoding never shrinks, so
                    # entries longer than the wanted piece cannot decode to it.
                    while left:
                        ln = data[o]
                        if ln == 0 or ln > need:
                            break
                        p = o + 1
                        o = p + ln
                        e = decode(data[p:o])
                        if len(e) == need:
                            verified += 1
                            if (ifb(e, "little") ^ rint).to_bytes(need, "little").count(0) >= need - k:
                                out.add(e[:start] + key + e[start:])
                        left -= 1
                    if o >= limit:
                        raise CorruptListError(f"an entry of the list for key {key!r} crosses its end")
                    continue
                o, count = _find_run(data, o, left, need, limit)
                if not count:
                    continue
                verified += count
                # The run's entries lie at a fixed stride from o to stop, which
                # _find_run has checked lies inside the list.  lrest is the entry
                # the pattern would match exactly, length byte included.
                lrest = data[o : o + 1] + pattern[:start] + pattern[end:]
                step = need + 1
                stop = o + count * step
                if count >= matrix:
                    rows = view[o:stop].reshape(count, step)
                    hits = (rows != np.frombuffer(lrest, dtype=np.uint8)).sum(1) <= k
                    for i in hits.nonzero()[0].tolist():
                        e = o + i * step + 1
                        out.add(data[e : e + start] + key + data[e + start : e + need])
                    continue
                # Each pass searches one of its sub-pieces, the first with the
                # length byte in front, and counts a hit only at its entry's own
                # offset; a misaligned one resumes the search at the next entry.
                # When the first sub-piece is empty (need <= k), every entry is a
                # hit of that pass, the only one then made.
                lint = ifb(lrest, "little")
                least = step - k  # the fewest zero bytes in the xor of a match
                find = data.find
                for x, y in passes:
                    probe = lrest[x:y]
                    base = o + x
                    h = find(probe, base, stop)
                    while h >= 0:
                        off = (h - base) % step
                        if off:
                            h = find(probe, h + step - off, stop)
                            continue
                        e = h - x  # the entry, from its length byte on
                        v = ifb(data[e : e + step], "little") ^ lint
                        if not v:  # the pattern itself
                            out.add(pattern)
                        elif v.to_bytes(step, "little").count(0) >= least:
                            e += 1
                            out.add(data[e : e + start] + key + data[e + start : e + need])
                        h = find(probe, h + step, stop)
        except IndexError:
            raise CorruptListError(f"index data for key {key!r} is corrupt") from None
        return verified

    # -- stats and sizes ---------------------------------------------------

    def list_stats(self) -> ListStats:
        """Entry counts and stored payload bytes across all piece lists."""
        total = 0
        payload = 0
        worst = 0
        data = self.lists.data
        for base in self.lists.starts[:-1]:
            o = base + 2 * self.k
            c = 0
            while ln := data[o]:
                o += ln + 1
                c += 1
                payload += ln
            total += c
            if c > worst:
                worst = c
        count = len(self.lists)
        return ListStats(
            list_count=count,
            entry_count=total,
            mean_entries=total / count if count else 0.0,
            max_entries=worst,
            payload_bytes=payload,
        )

    def size_breakdown(self) -> dict[str, int]:
        """Exact byte sizes of every stored component.

        ``directory`` charges one 8-byte slot per bucket; everything else is
        the literal length of the stored blobs.  Allocator overhead is
        deliberately excluded.
        """
        side = sum(1 + len(w) for group in self.side_table.values() for w in group)
        subs = sum(1 + len(s.gram) for s in self.subs or ())
        parts = {
            "directory": 8 * self.table.bucket_count,
            "buckets": self.table.content_bytes(),
            "lists": len(self.lists.data),
            "side_table": side,
            "substitutions": subs,
        }
        parts["total"] = sum(parts.values())
        return parts

    def size_bytes(self) -> int:
        return self.size_breakdown()["total"]


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

    Raises BuildError when a word's stored complement would not fit an 8-bit
    length tag, or when a list outgrows the 16-bit region markers.
    """
    if not isinstance(k, int) or k < 1:
        raise ConfigError(f"mismatch budget must be an integer >= 1, got {k!r}")
    if k > 255:
        raise ConfigError(f"mismatch budget is limited to 255, got {k}")
    side: dict[int, list[bytes]] = {}
    # Growable per-list (key position, payload length, payload) staging,
    # written out into one arena once every entry of a list is known.
    # A key's ref is the order in which it was first seen.
    refs: dict[bytes, int] = {}
    staged: list[list[tuple[int, int, bytes]]] = []
    for word in dictionary.words:
        n = len(word)
        if n <= k:
            side.setdefault(n, []).append(word)
            continue
        start = 0
        for pos, plen in enumerate(piece_lengths(n, k), 1):
            end = start + plen
            missing = word[:start] + word[end:]
            size = len(missing)
            if size > PAYLOAD_LIMIT:
                raise BuildError(f"missing pieces exceed {PAYLOAD_LIMIT} bytes for word {word[:32]!r}")
            key = word[start:end]
            ref = refs.get(key)
            if ref is None:
                ref = refs[key] = len(staged)
                staged.append([])
            staged[ref].append((pos, size, missing))
            start = end

    if substitutions:
        coded = iter(substitutions.encode_many([e for entries in staged for _, _, e in entries]))
        for entries in staged:
            # zip stops at the end of entries before drawing from coded.
            entries[:] = [(pos, len(c), c) for (pos, _, _), c in zip(entries, coded)]

    # Sorted as staged, entries are grouped into regions by key position and
    # laid out shortest first within a region, so scans can skip ahead to the
    # wanted length and stop as soon as entries get longer.
    keys = list(refs)
    buf = bytearray()
    ends = [0]
    markers = bytes(2 * k)  # the markers of regions left empty stay 0
    for ref, entries in enumerate(staged):
        if len(entries) > LIST_ENTRY_LIMIT:
            raise BuildError(
                f"list for key {keys[ref]!r} holds {len(entries)} entries, over {LIST_ENTRY_LIMIT}; "
                "region markers are 16-bit entry indexes"
            )
        entries.sort()
        at = len(buf)
        buf += markers
        region = 1
        for i, (pos, size, e) in enumerate(entries, 1):
            if pos != region:  # entry i begins region pos
                region = pos
                buf[at + 2 * pos - 4 : at + 2 * pos - 2] = i.to_bytes(2, "little")
            buf.append(size)
            buf += e
        buf.append(0)
        ends.append(len(buf))
    lists = Arena(bytes(buf), ends)

    table = ChainedHashTable.build(keys, hash_config)
    side_sorted = {n: tuple(sorted(group)) for n, group in side.items()}
    return SplitIndex(k, table, lists, side_sorted, substitutions, dictionary.stats())

