"""Frequent q-gram substitution coding for list payloads.

Short, frequent substrings (q in 2..4) of the indexed words are replaced by
single code bytes.  A byte is *plain* for a list when it is below 128 and not
one of the list's codes.  Codes may be any byte value (mined lists use
128..255); grams and encoding input must be plain.

Encoding applies entries in list order -- longest q-grams first -- each as a
left-to-right non-overlapping replacement.  The round trip holds because
grams are plain: a code byte left by one replacement can be part of no later
gram, so every code in the output stands for exactly its own gram and every
plain byte for itself, and decoding is a single byte-wise table lookup.

Mining is a greedy q-gram substitution: each round picks the gram whose
non-overlapping replacement saves the most bytes.  The windows of the
dictionary are counted once; after each pick only the windows that its
replacements touch leave the counts, so the picks are exactly those of
recounting the residual corpus every round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CodecError, ConfigError, DataError

GRAM_MIN = 2
GRAM_MAX = 4
CODE_FIRST = 128
CODE_SPACE = 128  # codes 128..255

# Joining corpora/payload batches with 0xFF keeps q-grams (all bytes < 128)
# from matching across item boundaries, so mining reserves that one code.
_SEPARATOR = 0xFF

POLICIES = {
    "2gram": (2,),
    "3gram": (3,),
    "4gram": (4,),
    "mixed": (2, 3, 4),
}


@dataclass(frozen=True)
class Substitution:
    """One q-gram -> code-byte rule; ``savings`` is bytes saved when mined."""

    gram: bytes
    code: int
    savings: int = 0


class SubstitutionList:
    """Ordered substitution rules, longest grams first, then highest savings.

    Construction re-sorts the given entries into that canonical order, checks
    that grams are 2..4 plain bytes and that grams and codes are unique.  An
    empty list is valid and encodes as the identity.
    """

    __slots__ = ("entries", "_plain", "_table", "_pairs")

    def __init__(self, entries: Iterable[Substitution | tuple[bytes, int]] = ()):
        normalized = []
        for item in entries:
            sub = item if isinstance(item, Substitution) else Substitution(item[0], item[1])
            if not GRAM_MIN <= len(sub.gram) <= GRAM_MAX:
                raise CodecError(f"q-gram length must be {GRAM_MIN}..{GRAM_MAX}, got {sub.gram!r}")
            if not 0 <= sub.code <= 255:
                raise CodecError(f"code must be a single byte value, got {sub.code}")
            normalized.append(sub)
        if len(normalized) > CODE_SPACE:
            raise CodecError(f"at most {CODE_SPACE} substitutions fit the spare code space")
        if len({s.gram for s in normalized}) != len(normalized):
            raise CodecError("duplicate q-grams in substitution list")
        if len({s.code for s in normalized}) != len(normalized):
            raise CodecError("duplicate codes in substitution list")
        normalized.sort(key=lambda s: (-len(s.gram), -s.savings))
        self.entries: tuple[Substitution, ...] = tuple(normalized)
        self._pairs = tuple((s.gram, bytes((s.code,))) for s in self.entries)
        self._plain = bytes(range(128)).translate(None, bytes(s.code for s in self.entries))
        # What each byte decodes to: a plain byte itself, a code its gram.
        table: list[bytes | None] = [None] * 256
        for c in self._plain:
            table[c] = bytes([c])  # the interpreter's shared one-byte object
        for s in self.entries:
            self.check_plain([s.gram])
            table[s.code] = s.gram
        self._table = table

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Substitution]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubstitutionList):
            return NotImplemented
        return [(s.gram, s.code) for s in self] == [(s.gram, s.code) for s in other]

    def check_plain(self, words: list[bytes]) -> None:
        """Raise CodecError naming the first of ``words`` with a byte that is not plain."""
        if b"".join(words).translate(None, self._plain):
            bad = next(w for w in words if w.translate(None, self._plain))
            raise CodecError(
                f"byte {bad.translate(None, self._plain)[0]} in {bad[:32]!r} is not plain: "
                "grams and input must be below 128 and not a code of the list"
            )

    def encode(self, word: bytes) -> bytes:
        """Replace listed q-grams by their codes; never longer than the input."""
        self.check_plain([word])
        for gram, code in self._pairs:
            word = word.replace(gram, code)
        return word

    def encode_many(self, words: list[bytes]) -> list[bytes]:
        """Encode a batch in one pass over a buffer joined by the separator."""
        if not words or self._table[_SEPARATOR] is not None:  # the separator is a code
            return [self.encode(w) for w in words]
        self.check_plain(words)
        sep = bytes((_SEPARATOR,))
        joined = sep.join(words)
        for gram, code in self._pairs:
            joined = joined.replace(gram, code)
        return joined.split(sep)

    def decode(self, encoded: bytes) -> bytes:
        """Expand code bytes back to their q-grams; unknown codes are corrupt data."""
        table = self._table
        try:
            return b"".join([table[c] for c in encoded])
        except TypeError:  # joined a None: a byte that is neither plain nor a code
            bad = next(c for c in encoded if table[c] is None)
            raise CodecError(f"unknown code byte {bad} in encoded data") from None


def mine_substitutions(dictionary, policy: str = "mixed", limit: int = 100) -> SubstitutionList:
    """Pick up to ``limit`` q-grams that shrink the dictionary most.

    Greedy selection: take the candidate q-gram whose non-overlapping
    replacement in the current residual corpus saves the most bytes, apply
    it, and repeat.  Candidates come from the policy's q sizes; ties prefer
    longer grams, then the lexicographically smallest.  Stops early once no
    replacement saves anything.  Every window is counted once, up front;
    after each pick only the counts of the windows that the replaced bytes
    touch change, so the picks are those of recounting the residual corpus
    every round at the cost of one count plus work in proportion to the
    replaced windows.

    The corpus must be pure ASCII (all bytes < 128); code bytes are assigned
    from 128 upward.  One byte value is reserved internally, so at most 127
    rules can be mined.
    """
    try:
        qs = POLICIES[policy]
    except KeyError:
        raise ConfigError(f"unknown policy {policy!r}; known: {sorted(POLICIES)}") from None
    if limit < 0:
        raise ConfigError(f"limit must be >= 0, got {limit}")
    limit = min(limit, CODE_SPACE - 1)  # 0xFF stays an internal separator

    # Separators around the corpus keep every window inside it.
    sep = bytes((_SEPARATOR,))
    pad = sep * (GRAM_MAX - 1)
    corpus = np.frombuffer(pad + sep.join(dictionary.words) + pad, dtype=np.uint8)
    present = np.bincount(corpus, minlength=256)
    if present[CODE_FIRST:].sum() != corpus.size - dictionary.total_bytes:  # more than the separators
        bad = next(w for w in dictionary.words if not w.isascii())
        raise CodecError(f"compression unavailable: byte >= 128 in word {bad[:32]!r}")
    if not dictionary.words or not limit:
        return SubstitutionList()

    alphabet = np.flatnonzero(present[:CODE_FIRST])
    rank = np.full(256, alphabet.size, dtype=np.uint8)  # the separator's digit is sigma
    rank[alphabet] = np.arange(alphabet.size)
    digits = rank[corpus]
    windows = [_Windows(digits, alphabet, q) for q in qs]
    picked: list[Substitution] = []
    while len(picked) < limit:
        best = _best_gram(windows)
        if best is None:
            break
        (savings, _, _), chosen, gid, starts = best
        picked.append(Substitution(chosen.gram(gid), CODE_FIRST + len(picked), savings))
        for w in windows:
            w.replace(starts, chosen.q)
    return SubstitutionList(picked)


class _Windows:
    """Every q-byte window of the padded corpus, in original coordinates.

    ``values`` holds the digits (alphabet ranks, base sigma + 1) of each gram,
    ascending, so gram ids are in lexicographic order.  Each window holds the
    id of its gram, or the sentinel ``len(values)`` when it spans a separator
    or a byte already replaced: it is then not a window of the residual
    corpus.  ``counts`` counts the windows of each gram.
    """

    def __init__(self, digits, alphabet, q: int):
        base = alphabet.size + 1
        n = digits.size - q + 1
        vals = digits[:n].astype(np.min_scalar_type(base**q - 1))
        for j in range(1, q):
            vals = vals * base + digits[j : j + n]
        if base**q <= n:  # every possible gram fits in one array
            values = np.arange(base**q, dtype=vals.dtype)
        else:
            values, vals = np.unique(vals, return_inverse=True)
        self.q = q
        self.alphabet = alphabet
        self.values = values
        self.sentinel = values.size
        spans = np.any([values // base**j % base == alphabet.size for j in range(q)], axis=0)
        ids = np.arange(values.size, dtype=np.min_scalar_type(values.size))
        ids[spans] = self.sentinel
        self.ids = ids.take(vals)
        self.counts = np.bincount(self.ids, minlength=values.size)[: values.size]

    def gram(self, gid: int) -> bytes:
        v, base = int(self.values[gid]), self.alphabet.size + 1
        return bytes(self.alphabet[v // base ** (self.q - 1 - j) % base] for j in range(self.q))

    def starts(self, gid: int):
        """Where a left-to-right non-overlapping replacement of ``gid`` goes."""
        starts = np.flatnonzero(self.ids == gid)
        gaps = np.diff(starts, prepend=-self.q)
        head = gaps >= self.q
        if not head.all():
            # Windows closer than q form chains.  For q <= 4 every gap in a
            # chain is the gram's smallest period p (Fine and Wilf), so the
            # greedy takes every ceil(q / p)-th window of a chain from its head.
            rank = np.arange(starts.size)
            rank -= np.maximum.accumulate(np.where(head, rank, 0))
            starts = starts[rank % -(-self.q // gaps) == 0]
        return starts

    def replace(self, starts, width: int) -> None:
        """Drop the windows that overlap the spans ``[s, s + width)``."""
        offsets = np.arange(1 - self.q, width)[:, None]
        wins = (offsets + starts).ravel()
        # Each span skips the windows that the previous span already holds.
        keep = (offsets >= width - np.diff(starts, prepend=-width - self.q)).ravel()
        gone = self.ids.take(wins)
        keep &= gone < self.sentinel
        wins, gone = wins.compress(keep), gone.compress(keep)
        self.ids[wins] = self.sentinel
        np.subtract.at(self.counts, gone, 1)


def _best_gram(windows: list[_Windows]):
    """``((savings, q, -digits), windows, gram id, starts)`` of the best
    pick, or None.

    A gram's window count times q - 1 bounds its savings; the bound is exact
    unless the gram overlaps itself.  Grams are counted exactly in
    decreasing ``(bound, q, -digits)`` order, the next one being the largest
    of each window set's ``counts.argmax()`` (the first of the maxima, so
    the smallest digits), whose count is then zeroed for the rest of the
    round.  Counting stops once the next key is below the best exact key,
    so ties go to the longer gram, then to the smaller digits.
    """
    best = None  # ((savings, q, -digits), windows, gram id, starts)
    zeroed = []  # (windows, gram id, count) to restore after the round
    while True:
        heads = [(w, int(w.counts.argmax())) for w in windows]
        key, w, gid = max(
            (((int(w.counts[g]) * (w.q - 1), w.q, -int(w.values[g])), w, g) for w, g in heads),
            key=lambda c: c[0],
        )
        if key[0] < 1 or best is not None and key < best[0]:
            break
        starts = w.starts(gid)
        zeroed.append((w, gid, w.counts[gid]))
        w.counts[gid] = 0
        exact = (starts.size * (w.q - 1), *key[1:])
        if best is None or exact > best[0]:
            best = (exact, w, gid, starts)
    for w, gid, count in zeroed:
        w.counts[gid] = count
    return best


def compression_ratio(dictionary, subs: SubstitutionList) -> float:
    """Plain bytes divided by encoded bytes over the whole dictionary (>= 1)."""
    encoded = sum(len(e) for e in subs.encode_many(list(dictionary.words)))
    if encoded == 0:
        return 1.0
    return dictionary.total_bytes / encoded


def format_substitutions(subs: SubstitutionList) -> bytes:
    """One ``<code decimal> TAB <q-gram>`` line per rule, in applied order."""
    lines = []
    for s in subs:
        if b"\n" in s.gram or b"\r" in s.gram:
            raise CodecError(f"q-gram {s.gram!r} cannot be written to the line format")
        lines.append(b"%d\t%s\n" % (s.code, s.gram))
    return b"".join(lines)


def save_substitutions(subs: SubstitutionList, path) -> None:
    """Write ``format_substitutions(subs)`` to ``path``."""
    data = format_substitutions(subs)
    with open(path, "wb") as fh:
        fh.write(data)


def load_substitutions(path) -> SubstitutionList:
    """Read the line format written by ``save_substitutions``."""
    entries = []
    with open(path, "rb") as fh:
        raw = fh.read()
    for lineno, line in enumerate(raw.split(b"\n"), 1):
        line = line.rstrip(b"\r")
        if not line:
            continue
        code_text, sep, gram = line.partition(b"\t")
        if not sep:
            raise DataError(f"{path}: line {lineno}: expected '<code> TAB <gram>'")
        try:
            code = int(code_text)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad code {code_text!r}") from None
        entries.append(Substitution(gram, code))
    return SubstitutionList(entries)
