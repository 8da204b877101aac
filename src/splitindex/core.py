"""Split index for dictionary matching under a small mismatch budget.

Every indexed word is cut into ``k + 1`` contiguous pieces.  A query with at
most ``k`` mismatching positions must agree with a stored word on at least
one piece (pigeonhole), so each piece serves as a hash-table key whose list
holds the rest of the word.  Verification then runs a plain Hamming check on
the few surviving candidates.

List layout (one blob per key, the same for every k):
``[byte lengths of regions 1..k, LEB128 each][region 1]...[region k + 1]``,
where a region is a run of entries ``[length u8 >= 1][payload]`` and the
payload is the concatenation of the word's other k pieces.  Entries are
grouped into regions by the key's piece position 1..k+1, and sorted
shortest first within a region; region k + 1 runs to the list's end, which
its bucket record gives.  Piece boundaries are recomputed from the total
length at query time.

A query verifies the run of entries of its wanted length with one of two
kernels.  At k >= 2, a run of at least ``MATRIX_RUN`` entries is compared
with the pattern as one uint8 matrix over a numpy view of the bucket arena,
each entry once; shorter runs, and every run at k = 1, are searched with
``bytes.find`` for exact sub-pieces of the pattern, and only the aligned hits
are verified.  The threshold, 64, was measured on the english k = 2
benchmark: below it numpy's fixed cost per run outweighs what it saves at
the median query.

Payloads may be substitution-coded (see ``qgrams``); keys never are.

The build runs in numpy batches, one per key length.  Words of one length
share their piece bounds, so the keys and payloads of one key position are
column slices of them.  The entry rows of one key length are sorted once as
byte strings, which merges equal keys and orders each list's entries, and
each key is ranked by the step at which entering the pieces one at a time in
dictionary order would first meet it; numpy then copies the lists, and the
table its records, into place.  Python steps once per batch and once per
distinct key, and the bytes are those of the one-at-a-time build.

Each list sits in the hash table's bucket arena, right after its key (see
``hashing``), and ``SplitIndex.lists`` is that arena's ``bytes``.  A query
reads it at absolute offsets, never past the end of the region it walks:
region lengths that run past their list, a zero entry length, and a walk or
run that would cross its region's end raise ``CorruptListError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import BuildError, ConfigError, CorruptListError, WordTooShortError
from .hashing import ARENA_LIMIT, ChainedHashTable, HashConfig, _gather, _length_bytes, _read_length
from .qgrams import SubstitutionList

PAYLOAD_LIMIT = 255  # entry lengths are single bytes, from 1 up
MATRIX_RUN = 64  # at k >= 2, the fewest entries in a run verified as one matrix


@lru_cache(maxsize=1024)  # builds and queries ask for few distinct lengths
def piece_lengths(length: int, k: int) -> tuple[int, ...]:
    """Piece lengths for a word of ``length`` bytes split into k+1 pieces.

    Pieces 1..k share a common length, round-half-up of ``length / (k+1)``;
    the last piece takes the remainder.  When that rounding would leave the
    last piece empty, the common length drops to ``(length - 1) // k`` so
    every piece stays non-empty: a key is never empty, and neither is a
    stored payload, whose length byte is at least 1.
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

    A tuple holds r; the piece's start and end in the pattern; ``need``, the
    length of the rest of the pattern; and the (start, end) of each sub-piece
    to search, as offsets into that rest with its length byte in front.  The
    rest is cut into k + 1 sub-pieces at ``need * j // (k + 1)``.  The first
    keeps the length byte, and when it holds nothing else (need <= k) it is
    the only one searched.
    """
    plan = []
    start = 0
    for r, plen in enumerate(piece_lengths(length, k)):
        need = length - plen
        cuts = [0] + [1 + need * j // (k + 1) for j in range(1, k + 2)]
        passes = tuple(zip(cuts, cuts[1:])) if cuts[1] > 1 else ((0, 1),)
        plan.append((r, start, start + plen, need, passes))
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


def _find_run(data: bytes, o: int, stop: int, need: int) -> tuple[int, int]:
    """Offset and entry count of the run of ``need``-byte entries in a region.

    The region's entries lie from offset ``o`` to ``stop``, shortest first;
    the count is 0 when none has that length.  Entries of one length lie at
    a fixed stride, so a run of two or more is counted in C from a strided
    slice of its length bytes, and skipping shorter entries costs one step
    per distinct length rather than one per entry.  A zero entry length, or
    a run that crosses ``stop``, raises IndexError, which the caller reports
    as a corrupt list.
    """
    while o < stop:
        ln = data[o]
        if ln > need:
            break
        if not ln:
            raise IndexError("an entry of length 0")
        step = ln + 1
        if o + step < stop and data[o + step] == ln:
            lengths = data[o:stop:step]
            run = len(lengths) - len(lengths.lstrip(lengths[:1]))
        else:
            run = 1
        after = o + run * step
        if after > stop:
            raise IndexError("entry run crosses the end of its region")
        if ln == need:
            return o, run
        o = after
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
        # the other pieces of the words that share it.  ``_region`` bounds
        # that region, and ``_find_run`` skips its shorter entries a run at a
        # time and counts the run of the wanted length, every entry of which
        # counts as verified.  One of the two kernels the module describes
        # then checks the run: the matrix, or the pigeonhole step again, where
        # a word within k mismatches matches one of the k + 1 sub-pieces of
        # the pattern's rest exactly, so only the hits of bytes.find on them
        # are compared, through one integer xor.
        lookup = self.table.lookup_list
        data = self.lists
        decode = self._decode
        view = self._view
        matrix = MATRIX_RUN if k > 1 else ARENA_LIMIT  # no run holds that many entries
        ifb = int.from_bytes
        verified = 0
        # Reading past a region means a damaged file.  A walk or run crosses
        # its region's end only through a damaged length byte; it is checked
        # once, where it stops, and the words it found go with the error.
        # Offsets into the arena are large ints, a new object each, so every
        # sum is computed once.
        try:
            for r, start, end, need, passes in _plan(n, k):
                key = pattern[start:end]
                span = lookup(key)
                if span is None:
                    continue
                o, hi = _region(data, span.start, span.stop, r, k, key)
                if decode is not None:
                    rint = ifb(pattern[:start] + pattern[end:], "little")
                    # Stored lengths are coded, but decoding never shrinks, so
                    # entries longer than the wanted piece cannot decode to it.
                    while o < hi:
                        ln = data[o]
                        if ln > need:
                            break
                        if not ln:
                            raise IndexError("an entry of length 0")
                        p = o + 1
                        o = p + ln
                        e = decode(data[p:o])
                        if len(e) == need:
                            verified += 1
                            if (ifb(e, "little") ^ rint).to_bytes(need, "little").count(0) >= need - k:
                                out.add(e[:start] + key + e[start:])
                    if o > hi:
                        raise CorruptListError(f"an entry of the list for key {key!r} crosses its region's end")
                    continue
                o, count = _find_run(data, o, hi, need)
                if not count:
                    continue
                verified += count
                # The run's entries lie at a fixed stride from o to stop, which
                # _find_run has checked lies inside the region.  lrest is the
                # entry the pattern would match exactly, length byte included.
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
        """Entry counts and stored payload bytes across all piece lists.

        Raises CorruptListError naming the key for a zero entry length or an
        entry that runs past the end of its list.
        """
        count = 0
        total = 0
        payload = 0
        worst = 0
        data = self.lists
        for _, key, begin, end in self.table.records():
            o = _region(data, begin, end, 0, self.k, key)[0]
            c = 0
            while o < end:
                ln = data[o]
                if not ln:
                    raise CorruptListError(f"the list for key {key!r} holds an entry of length 0")
                o += ln + 1
                c += 1
                payload += ln
            if o > end:
                raise CorruptListError(f"an entry of the list for key {key!r} runs past its end")
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

    def size_breakdown(self) -> dict[str, int]:
        """Exact byte sizes of every stored component.

        ``directory`` charges one 8-byte slot per bucket; ``buckets`` counts
        the record headers (key length byte, key, list length) and ``lists``
        the list bytes after them; everything else is the literal length of
        the stored blobs.  Allocator overhead is deliberately excluded.
        """
        lists = sum(end - begin for _, _, begin, end in self.table.records())
        parts = {"buckets": len(self.lists) - lists, "lists": lists, **self._outside_arena()}
        parts["total"] = sum(parts.values())
        return parts

    def size_bytes(self) -> int:
        """``size_breakdown()["total"]``, without walking the records."""
        return len(self.lists) + sum(self._outside_arena().values())

    def _outside_arena(self) -> dict[str, int]:
        return {
            "directory": 8 * self.table.bucket_count,
            "side_table": sum(1 + len(w) for group in self.side_table.values() for w in group),
            "substitutions": sum(1 + len(s.gram) for s in self.subs or ()),
        }


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
    once (see ``_lists``), and Python steps once per batch and once per
    distinct key; coded builds also hand every payload to ``encode_many``.
    The index is the same, byte for byte, as one built by entering the
    words' pieces one at a time in dictionary order.

    Raises BuildError when a word's stored complement would not fit an 8-bit
    length tag, naming the first such word in dictionary order.
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
    """The distinct keys in the order they are first seen, their lists back
    to back as a uint8 array, and the byte length of each list.

    Each key length is one batch of entry rows, ``[key][position][stored
    length][payload, padded to the batch's widest]``, sorted once as
    byte strings.  The sort brings equal keys together and puts each key's
    entries in list order: by position, so that they fall into regions, then
    shortest first, so that scans can skip to the wanted length and stop as
    soon as entries get longer, then by bytes.  What follows a payload never
    decides the order: rows that agree up to its end hold the same key,
    position and payload, which make the same word, so no two rows do.
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
    seen = []
    regions = []
    entries = []
    for plen, parts in batches.items():
        count = sum(len(run) for run, _, _, _ in parts)
        width = max(n for _, n, _, _ in parts) - plen
        rows = np.zeros((count, plen + 2 + width), np.uint8)
        steps = np.empty(count, np.int64)  # entering piece r of word i is step i * (k + 1) + r
        i = 0
        for run, n, r, start in parts:
            j = i + len(run)
            cols = np.r_[start : start + plen, :start, start + plen : n]  # the key, then the rest
            rows[i:j, np.r_[:plen, plen + 2 : n + 2]] = flat[offsets[run, None] + cols]
            rows[i:j, plen] = r
            rows[i:j, plen + 1] = n - plen
            steps[i:j] = run * (k + 1) + r
            i = j
        if substitutions:  # coding never lengthens a payload, so the coded ones fit over the raw
            raw = rows[:, plen + 2 :].tobytes()
            sizes = rows[:, plen + 1].tolist()
            coded = substitutions.encode_many([raw[a : a + s] for a, s in zip(range(0, len(raw), width), sizes)])
            del raw, sizes
            size = np.fromiter(map(len, coded), np.int64, count)
            rows[:, plen + 1] = size
            rows[:, plen + 2 :][np.arange(width) < size[:, None]] = np.frombuffer(b"".join(coded), np.uint8)
            del coded  # dropped before the sort
        order = np.lexsort(rows.T[::-1])  # by the first byte, then the second, ...
        rows = rows[order]
        new = np.ones(count, bool)
        new[1:] = (rows[1:, :plen] != rows[:-1, :plen]).any(1)
        firsts = np.flatnonzero(new)
        seen.append(np.minimum.reduceat(steps[order], firsts))
        raw = rows[firsts, :plen].tobytes()
        keys += [raw[i : i + plen] for i in range(0, len(raw), plen)]
        size = rows[:, plen + 1].astype(np.int64)
        region = np.bincount((np.cumsum(new) - 1) * (k + 1) + rows[:, plen], size + 1, len(firsts) * (k + 1))
        regions.append(region.astype(np.int64).reshape(-1, k + 1))
        entries.append(rows[:, plen + 1 :][np.arange(width + 1) < size[:, None] + 1])
    region = np.concatenate(regions)
    entries = np.concatenate(entries)
    by_seen = np.argsort(np.concatenate(seen))
    # Each list opens with the byte lengths of its regions 1..k, as LEB128,
    # then holds its key's entries, which lie back to back in ``entries``.
    head, head_sizes = _length_bytes(region[:, :k].ravel())
    spans = np.stack((head_sizes.reshape(-1, k).sum(1), region.sum(1)), 1)
    starts = np.cumsum(spans, 0) - spans
    starts[:, 1] += len(head)
    lists = _gather(np.concatenate((head, entries)), starts[by_seen].ravel(), spans[by_seen].ravel())
    return [keys[i] for i in by_seen.tolist()], lists, spans.sum(1)[by_seen]
