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
            self._check_plain(s.gram)
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

    def _check_plain(self, word: bytes) -> None:
        bad = word.translate(None, self._plain)
        if bad:
            raise CodecError(
                f"byte {bad[0]} in {word[:32]!r} is not plain: "
                "grams and input must be below 128 and not a code of the list"
            )

    def encode(self, word: bytes) -> bytes:
        """Replace listed q-grams by their codes; never longer than the input."""
        self._check_plain(word)
        for gram, code in self._pairs:
            word = word.replace(gram, code)
        return word

    def encode_many(self, words: list[bytes]) -> list[bytes]:
        """Encode a batch in one pass over a buffer joined by the separator."""
        if not words or self._table[_SEPARATOR] is not None:  # the separator is a code
            return [self.encode(w) for w in words]
        sep = bytes((_SEPARATOR,))
        joined = sep.join(words)
        if joined.translate(None, self._plain) != sep * (len(words) - 1):
            for w in words:  # name the word that is not plain
                self._check_plain(w)
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

    Greedy selection: count candidate q-grams over the current residual
    corpus, take the one whose non-overlapping replacement saves the most
    bytes, apply it, and repeat.  Candidates come from the policy's q sizes;
    ties prefer longer grams, then the lexicographically smallest.  Stops
    early once no replacement saves anything.

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

    for w in dictionary.words:
        if not w.isascii():
            raise CodecError(f"compression unavailable: byte >= 128 in word {w[:32]!r}")
    if not dictionary.words:
        return SubstitutionList()

    corpus = bytes((_SEPARATOR,)).join(dictionary.words)
    picked: list[Substitution] = []
    next_code = CODE_FIRST
    while len(picked) < limit:
        best = _best_gram(corpus, qs)
        if best is None:
            break
        savings, gram = best
        picked.append(Substitution(gram, next_code, savings))
        corpus = corpus.replace(gram, bytes((next_code,)))
        next_code += 1
    return SubstitutionList(picked)


def _best_gram(corpus: bytes, qs: tuple[int, ...]) -> tuple[int, bytes] | None:
    """Most-saving q-gram of the residual corpus, or None if nothing saves.

    Overlapping window counts give an upper bound on each candidate's
    savings; candidates are then re-counted exactly (non-overlapping) in
    decreasing bound order until the running best cannot be beaten.
    """
    buf = np.frombuffer(corpus, dtype=np.uint8)
    plain = buf < 128
    bound_chunks = []
    val_chunks = []
    q_chunks = []
    for q in qs:
        if buf.size < q:
            continue
        n = buf.size - q + 1
        vals = buf[:n].astype(np.int64)
        ok = plain[:n].copy()
        for j in range(1, q):
            vals = vals << 7 | buf[j : j + n]
            ok &= plain[j : j + n]
        vals = vals[ok]
        if not vals.size:
            continue
        uniq, counts = np.unique(vals, return_counts=True)
        bound_chunks.append(counts * (q - 1))
        val_chunks.append(uniq)
        q_chunks.append(np.full(uniq.size, q, dtype=np.int64))
    if not bound_chunks:
        return None
    bounds = np.concatenate(bound_chunks)
    vals = np.concatenate(val_chunks)
    qlens = np.concatenate(q_chunks)
    order = np.argsort(-bounds, kind="stable")

    best: tuple[int, int, bytes] | None = None  # (savings, qlen, gram)
    for idx in order:
        bound = int(bounds[idx])
        if bound < 1 or (best is not None and bound < best[0]):
            break
        q = int(qlens[idx])
        v = int(vals[idx])
        gram = bytes((v >> 7 * (q - 1 - j)) & 0x7F for j in range(q))
        savings = corpus.count(gram) * (q - 1)
        if savings < 1:
            continue
        if best is None or (savings, q, _inv(gram)) > (best[0], best[1], _inv(best[2])):
            best = (savings, q, gram)
    if best is None:
        return None
    return best[0], best[2]


def _inv(gram: bytes) -> bytes:
    # Lexicographically smaller grams win ties; invert so max() picks them.
    return bytes(255 - b for b in gram)


def compression_ratio(dictionary, subs: SubstitutionList) -> float:
    """Plain bytes divided by encoded bytes over the whole dictionary (>= 1)."""
    encoded = sum(len(e) for e in subs.encode_many(list(dictionary.words)))
    if encoded == 0:
        return 1.0
    return dictionary.total_bytes / encoded


def save_substitutions(subs: SubstitutionList, path) -> None:
    """Write one ``<code decimal> TAB <q-gram>`` line per rule, in applied order."""
    lines = []
    for s in subs:
        if b"\n" in s.gram or b"\r" in s.gram:
            raise CodecError(f"q-gram {s.gram!r} cannot be written to the line format")
        lines.append(str(s.code).encode("ascii") + b"\t" + s.gram)
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + (b"\n" if lines else b""))


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
