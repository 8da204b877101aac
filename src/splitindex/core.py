"""Split index for dictionary matching under a small mismatch budget.

Every indexed word is cut into ``k + 1`` contiguous pieces.  A query with at
most ``k`` mismatching positions must agree with a stored word on at least
one piece (pigeonhole), so each piece serves as a hash-table key whose list
holds the rest of the word.  Verification then runs a plain Hamming check on
the few surviving candidates.

List layout (one contiguous blob per key):

* ``k == 1`` -- ``[marker u16 LE][entry ...][0x00]`` where an entry is
  ``[length u8 >= 1][payload]``.  Entries whose key was the word's prefix
  come first (their payload is the missing suffix); the marker is the
  1-based entry index where missing prefixes begin, 0 if there are none.
* ``k > 1`` -- ``[entry ...][0x00]`` where an entry is
  ``[key position u8 in 1..k+1][length u8 >= 1][payload]`` and the payload
  is the concatenation of the word's other k pieces.  Piece boundaries are
  recomputed from the total length at query time.

Payloads may be substitution-coded (see ``qgrams``); keys never are.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import BuildError, ConfigError, CorruptListError, WordTooShortError
from .hashing import ChainedHashTable, HashConfig
from .qgrams import SubstitutionList

PAYLOAD_LIMIT = 255  # entry lengths are single bytes; 0 terminates a list
LIST_ENTRY_LIMIT = 0xFFFF  # the k=1 region marker is a 16-bit entry index


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


def hamming_at_most(a: bytes, b: bytes, limit: int) -> bool:
    """True iff equal-length ``a`` and ``b`` differ in at most ``limit`` positions.

    Iterates with an early exit; unequal lengths are a contract violation
    (callers filter by length first).
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if a == b:
        return limit >= 0
    m = 0
    for x, y in zip(a, b):
        if x != y:
            m += 1
            if m > limit:
                return False
    return True


def reconstruct(key: bytes, missing_blob: bytes, key_position: int, k: int, total_length: int) -> bytes:
    """Rebuild a word from a list key and its stored complement (k > 1 layout).

    ``missing_blob`` is the concatenation of the word's pieces other than the
    key; the key sits at 1-based piece ``key_position``.  Any disagreement
    with the piece arithmetic for ``total_length`` signals a corrupt list.
    """
    if k <= 1:
        raise ConfigError(f"positioned entries exist only for k > 1, got k={k}")
    if not 1 <= key_position <= k + 1:
        raise CorruptListError(f"key position {key_position} outside 1..{k + 1}")
    if total_length != len(key) + len(missing_blob):
        raise CorruptListError(
            f"total length {total_length} != key {len(key)} + blob {len(missing_blob)}"
        )
    try:
        lens = piece_lengths(total_length, k)
    except WordTooShortError as exc:
        raise CorruptListError(str(exc)) from None
    if lens[key_position - 1] != len(key):
        raise CorruptListError(
            f"key length {len(key)} does not fit piece {key_position} of a length-{total_length} word"
        )
    cut = sum(lens[: key_position - 1])
    return missing_blob[:cut] + key + missing_blob[cut:]


def _one_byte(x: int) -> bool:
    """Whether ``x``, the xor of two byte strings, has at most one non-zero byte."""
    # Shifted down to its lowest set byte, x must fit in that byte.
    return x < 256 or x >> ((x & -x).bit_length() - 1 & -8) < 256


def _find_run(blob: bytes, o: int, left: int, need: int) -> tuple[int, int]:
    """Offset and entry count of the run of ``need``-byte entries in a k = 1 region.

    The region's remaining entries start at offset ``o``, at most ``left`` of
    them, shortest first; the count is 0 when none has that length.  Entries
    of one length lie at a fixed stride, so a run of two or more is counted
    in C from a strided slice of its length bytes, bounded by the region, and
    skipping shorter entries costs one step per distinct length rather than
    one per entry.
    """
    while left:
        ln = blob[o]
        if ln == 0 or ln > need:
            break
        step = ln + 1
        if blob[o + step] == ln:
            lengths = blob[o : o + left * step : step]
            run = len(lengths) - len(lengths.lstrip(lengths[:1]))
        else:
            run = 1
        if ln == need:
            return o, run
        o += run * step
        left -= run
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
    )

    def __init__(
        self,
        k: int,
        table: ChainedHashTable,
        lists: list[bytes],
        side_table: dict[int, tuple[bytes, ...]],
        subs: SubstitutionList | None,
        source_stats: DictionaryStats,
    ):
        self.k = k
        self.table = table
        self.lists = lists
        self.side_table = side_table
        self.subs = subs
        self.source_stats = source_stats
        self._decode = subs.decode if subs is not None and len(subs) else None

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
        if n <= self.k:
            # Same length and Hamming <= length <= k: everything matches.
            out.update(self.side_table.get(n, ()))
            return 0
        if self.k == 1:
            return self._search_one(pattern, out)
        return self._search_many(pattern, out)

    def _search_one(self, pattern: bytes, out: set) -> int:
        # The pattern's prefix keys the list region of missing suffixes and
        # its suffix keys the region of missing prefixes; both regions are
        # walked alike: ``_find_run`` skips the shorter entries a run at a
        # time and counts the run of the wanted length, every entry of which
        # counts as verified.  Mismatch-1 verification splits the wanted piece
        # in half: a candidate within one mismatch matches one half exactly
        # (pigeonhole again), so only the other half is compared, through one
        # integer xor.
        b = piece_lengths(len(pattern), 1)[0]
        head = pattern[:b]
        tail = pattern[b:]
        lookup = self.table.lookup_list
        lists = self.lists
        decode = self._decode
        ifb = int.from_bytes
        verified = 0
        for key, rest, before, after in ((head, tail, head, b""), (tail, head, b"", tail)):
            ref = lookup(key)
            if ref is None:
                continue
            blob = lists[ref]
            marker = blob[0] | blob[1] << 8
            o = 2
            # The missing-suffix region holds marker - 1 entries, or the whole
            # list without a marker; the terminator ends any walk early.
            left_in_region = marker - 1 if marker else LIST_ENTRY_LIMIT + 1
            if after:  # the key is the pattern's suffix: missing prefixes apply
                if not marker:
                    continue
                for _ in range(left_in_region):  # hop over the suffix region
                    o += blob[o] + 1
                left_in_region = LIST_ENTRY_LIMIT + 1
            need = len(rest)
            if decode is not None:
                # Stored lengths are coded, but decoding never shrinks, so
                # entries longer than the wanted piece cannot decode to it.
                while left_in_region:
                    ln = blob[o]
                    if ln == 0 or ln > need:
                        break
                    e = decode(blob[o + 1 : o + 1 + ln])
                    if len(e) == need:
                        verified += 1
                        if hamming_at_most(e, rest, 1):
                            out.add(before + e + after)
                    o += ln + 1
                    left_in_region -= 1
                continue
            o, count = _find_run(blob, o, left_in_region, need)
            if not count:
                continue
            verified += count
            # The run's entries lie at a fixed stride from o to end and are
            # searched in C with bytes.find, once for the length byte plus the
            # left half and once for the right half.  A hit counts only at its
            # entry's own offset; a misaligned one resumes the search at the
            # next entry.  Whole matches are added by the first pass, and an
            # empty left half (need == 1) makes every entry a first-pass hit.
            step = need + 1
            end = o + count * step
            half = need >> 1
            lpart = rest[:half]
            rpart = rest[half:]
            find = blob.find
            probe = blob[o : o + 1] + lpart
            h = find(probe, o, end)
            while h >= 0:
                off = (h - o) % step
                if off:
                    h = find(probe, h + step - off, end)
                    continue
                p = h + 1
                mid = p + half
                if blob.startswith(rpart, mid):
                    out.add(pattern)
                elif _one_byte(ifb(blob[mid : p + need], "little") ^ ifb(rpart, "little")):
                    out.add(before + blob[p : p + need] + after)
                h = find(probe, h + step, end)
            base = o + 1 + half
            h = find(rpart, base, end)
            while h >= 0:
                off = (h - base) % step
                if off:
                    h = find(rpart, h + step - off, end)
                    continue
                p = h - half
                x = ifb(blob[p:h], "little") ^ ifb(lpart, "little")
                if x and _one_byte(x):
                    out.add(before + blob[p : p + need] + after)
                h = find(rpart, h + step, end)
        return verified

    def _search_many(self, pattern: bytes, out: set) -> int:
        n = len(pattern)
        k = self.k
        lookup = self.table.lookup_list
        lists = self.lists
        decode = self._decode
        verified = 0
        start = 0
        for pos, plen in enumerate(piece_lengths(n, k), 1):
            end = start + plen
            piece = pattern[start:end]
            ref = lookup(piece)
            if ref is not None:
                rest = pattern[:start] + pattern[end:]
                need = n - plen
                blob = lists[ref]
                o = 0
                while True:  # entries are shortest-first; stop once too long
                    p = blob[o]
                    if p == 0:
                        break
                    ln = blob[o + 1]
                    if ln > need:
                        break
                    if p == pos:
                        if decode is None:
                            if ln == need:
                                verified += 1
                                e = blob[o + 2 : o + 2 + ln]
                                if e == rest or hamming_at_most(e, rest, k):
                                    out.add(e[:start] + piece + e[start:])
                        else:
                            e = decode(blob[o + 2 : o + 2 + ln])
                            if len(e) == need:
                                verified += 1
                                if hamming_at_most(e, rest, k):
                                    out.add(e[:start] + piece + e[start:])
                    o += ln + 2
            start = end
        return verified

    # -- stats and sizes ---------------------------------------------------

    def list_stats(self) -> ListStats:
        """Entry counts and stored payload bytes across all piece lists."""
        total = 0
        payload = 0
        worst = 0
        positioned = self.k > 1
        for blob in self.lists:
            o = 0 if positioned else 2
            c = 0
            while True:
                if positioned:
                    if blob[o] == 0:
                        break
                    ln = blob[o + 1]
                    o += ln + 2
                else:
                    ln = blob[o]
                    if ln == 0:
                        break
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
        subs = sum(1 + len(s.gram) for s in self.subs) if self.subs is not None else 0
        parts = {
            "directory": 8 * self.table.bucket_count,
            "buckets": self.table.content_bytes(),
            "lists": sum(len(b) for b in self.lists),
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
    contributes exactly k+1 list entries, one per piece.  With
    ``substitutions`` given, list payloads are stored substitution-coded.

    Raises BuildError when a word's stored complement would not fit an 8-bit
    length tag, or when a k=1 list outgrows the 16-bit region marker.
    """
    if not isinstance(k, int) or k < 1:
        raise ConfigError(f"mismatch budget must be an integer >= 1, got {k!r}")
    if k > 255:
        raise ConfigError(f"mismatch budget is limited to 255, got {k}")
    side: dict[int, list[bytes]] = {}
    # Growable per-list (key position, missing pieces) staging, written out
    # as contiguous blobs once every entry of a list is known.  A key's ref
    # is the order in which it was first seen.
    refs: dict[bytes, int] = {}
    staged: list[list[tuple[int, bytes]]] = []
    for word in dictionary.words:
        n = len(word)
        if n <= k:
            side.setdefault(n, []).append(word)
            continue
        start = 0
        for pos, plen in enumerate(piece_lengths(n, k), 1):
            end = start + plen
            missing = word[:start] + word[end:]
            if len(missing) > PAYLOAD_LIMIT:
                raise BuildError(f"missing pieces exceed {PAYLOAD_LIMIT} bytes for word {word[:32]!r}")
            key = word[start:end]
            ref = refs.get(key)
            if ref is None:
                ref = refs[key] = len(staged)
                staged.append([])
            staged[ref].append((pos, missing))
            start = end

    if substitutions is not None and len(substitutions):
        coded = iter(substitutions.encode_many([e for entries in staged for _, e in entries]))
        for entries in staged:
            entries[:] = [(pos, next(coded)) for pos, _ in entries]

    # Entries within a region are laid out shortest first so scans can skip
    # ahead to the wanted length and stop as soon as entries get longer.
    lists: list[bytes] = []
    for ref, entries in enumerate(staged):
        if k == 1:
            # Missing suffixes (key position 1) form the first region.
            if len(entries) > LIST_ENTRY_LIMIT:
                raise BuildError(
                    f"list for key ref {ref} exceeds {LIST_ENTRY_LIMIT} entries; "
                    "the region marker is a 16-bit index"
                )
            entries.sort(key=_by_region_then_size)
            # Position-first order puts (1, ...) < (2,) <= (2, ...).
            suffixes = bisect_left(entries, (2,))
            marker = suffixes + 1 if suffixes < len(entries) else 0
            buf = bytearray(marker.to_bytes(2, "little"))
            for _, e in entries:
                buf.append(len(e))
                buf += e
        else:
            entries.sort(key=_by_size_then_position)
            buf = bytearray()
            for pos, e in entries:
                buf.append(pos)
                buf.append(len(e))
                buf += e
        buf.append(0)
        lists.append(bytes(buf))

    table = ChainedHashTable.build(list(refs), hash_config)
    side_sorted = {n: tuple(sorted(group)) for n, group in side.items()}
    return SplitIndex(k, table, lists, side_sorted, substitutions, dictionary.stats())


def _by_region_then_size(item: tuple[int, bytes]):
    pos, entry = item
    return pos, len(entry), entry


def _by_size_then_position(item: tuple[int, bytes]):
    pos, entry = item
    return len(entry), pos, entry
