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
``encode`` replaces with ``bytes.replace``; ``encode_groups`` makes the same
replacements in a whole batch of groups at once, with numpy.

Mining.  The ``2gram``, ``3gram`` and ``4gram`` policies are a greedy q-gram
substitution: each round picks the gram of that q whose non-overlapping
replacement saves the most bytes.  The ``mixed`` policy mines pair merges, as
Re-Pair (Larsson and Moffat, Proc. IEEE 88(11), 2000) and byte-pair encoding
(Gage, C Users Journal 12(2), 1994) do: each round merges the adjacent pair
of symbols -- plain bytes or earlier codes -- with the most non-overlapping
occurrences, among the pairs that stand for at most ``GRAM_MAX`` bytes.  A
rule stands for the plain bytes its pair expands to, so a mined list is an
ordinary list of 2..4-byte grams, applied longest first like any other.
Each policy's miner counts once and then updates only what a pick touches:
``_Windows`` the windows that the replacements overlap, ``_Pairs`` the pairs
next to the merged ones.  A count that overlapping occurrences inflate only
bounds the exact one, so one selection routine, ``_best``, counts candidates
exactly in decreasing bound until none can beat the best; a miner gives it
only its bounds and its exact key.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import CodecError, ConfigError, DataError
from .hashing import _take

GRAM_MIN = 2
GRAM_MAX = 4
CODE_FIRST = 128
CODE_SPACE = 128  # codes 128..255

# Mining joins the words with 0xFF, which keeps q-grams (all bytes < 128) and
# pairs from running across words, so it reserves that one code.
_SEPARATOR = 0xFF

# The q of each window policy; ``mixed`` mines pair merges.
POLICIES = {"2gram": 2, "3gram": 3, "4gram": 4, "mixed": None}

_ONE_BYTE = [bytes((c,)) for c in range(256)]  # the interpreter's shared one-byte objects
# What each byte decodes to before a list's codes are entered: a plain byte
# itself, a high byte nothing.
_PLAIN_TABLE = _ONE_BYTE[:CODE_FIRST] + [None] * (256 - CODE_FIRST)


class Substitution(NamedTuple):
    """One q-gram -> code-byte rule; ``savings`` is bytes saved when mined."""

    gram: bytes
    code: int
    savings: int = 0


class SubstitutionList:
    """Ordered substitution rules, longest grams first, then highest savings.

    Construction checks, in the order given, that grams are 2..4 plain bytes
    and that grams and codes are unique, then orders the rules stably.  They
    are kept in that order as columns, with no object per rule: ``grams``,
    ``codes`` (one byte each) and their savings; ``entries`` and iteration
    make ``Substitution``s.  An empty list is valid, encoding as the identity.
    """

    __slots__ = ("grams", "codes", "_savings", "_plain", "_table")

    def __init__(self, entries: Iterable[Substitution | tuple[bytes, int]] = ()):
        entries = list(entries)
        grams = [e[0] for e in entries]
        codes = [e[1] for e in entries]
        savings = [e[2] if len(e) > 2 else 0 for e in entries]
        if len(grams) > CODE_SPACE:
            raise CodecError(f"at most {CODE_SPACE} substitutions fit the spare code space")
        if not set(map(len, grams)) <= set(range(GRAM_MIN, GRAM_MAX + 1)):
            bad = next(g for g in grams if not GRAM_MIN <= len(g) <= GRAM_MAX)
            raise CodecError(f"q-gram length must be {GRAM_MIN}..{GRAM_MAX}, got {bad!r}")
        if codes and not 0 <= min(codes) <= max(codes) <= 255:
            bad = next(c for c in codes if not 0 <= c <= 255)
            raise CodecError(f"code must be a single byte value, got {bad}")
        if len(set(grams)) != len(grams):
            raise CodecError("duplicate q-grams in substitution list")
        if len(set(codes)) != len(codes):
            raise CodecError("duplicate codes in substitution list")
        self._plain = bytes(range(CODE_FIRST)).translate(None, bytes(codes))
        self.check_plain(grams)
        # Two stable sorts, the later one deciding first: a reversed sort
        # keeps ties in the order given.  A loaded list is in order already.
        order = sorted(range(len(grams)), key=savings.__getitem__, reverse=True)
        order.sort(key=list(map(len, grams)).__getitem__, reverse=True)
        if order != sorted(order):
            grams, codes, savings = ([x[i] for i in order] for x in (grams, codes, savings))
        self.grams: tuple[bytes, ...] = tuple(grams)
        self.codes = bytes(codes)
        self._savings = tuple(savings)
        table = _PLAIN_TABLE.copy()  # a code below 128 is then overwritten
        for gram, code in zip(self.grams, self.codes):
            table[code] = gram
        self._table = table

    @property
    def entries(self) -> tuple[Substitution, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.grams)

    def __iter__(self) -> Iterator[Substitution]:
        return map(Substitution, self.grams, self.codes, self._savings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubstitutionList):
            return NotImplemented
        return self.grams == other.grams and self.codes == other.codes

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
        for gram, code in zip(self.grams, self.codes):
            word = word.replace(gram, _ONE_BYTE[code])
        return word

    def encode_many(self, words: list[bytes]) -> list[bytes]:
        """``encode`` of each word, made as one batch by ``encode_groups``."""
        self.check_plain(words)
        sizes = np.fromiter(map(len, words), np.int64, len(words))
        coded, sizes = self.encode_groups(np.frombuffer(b"".join(words), np.uint8), sizes)
        raw, ends = coded.tobytes(), np.cumsum(sizes).tolist()
        return [raw[a:b] for a, b in zip([0, *ends], ends)]

    def encode_groups(self, payload: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The groups of ``payload``, of ``sizes`` bytes in turn, each coded
        as ``encode`` codes it, back to back; and the coded sizes.

        The replacements are made in the positions of the plain bytes: every
        byte of a replaced gram takes its code, which is no gram's byte, so
        no later window holding it matches, and all but its first are dropped
        at the end.  A window that runs into the next group matches nothing.
        ``payload`` must be plain (see ``check_plain``); it is not changed.
        """
        out = payload.copy()
        keep = np.ones(out.size, bool)
        ends = np.cumsum(sizes)
        for q in range(GRAM_MAX, GRAM_MIN - 1, -1):
            rules = [(g, c) for g, c in zip(self.grams, self.codes) if len(g) == q]
            if not rules or out.size < q:
                continue
            ids = _gram_ids(out, [g for g, _ in rules])
            for j in range(1, q):
                cross = ends[:-1] - j
                ids[cross[(cross >= 0) & (cross < ids.size)]] = 0
            hits = np.flatnonzero(ids).astype(np.int32)
            ids = ids[hits]
            hits = hits[np.argsort(ids, kind="stable")]  # by rule, ascending within one
            bounds = np.cumsum(np.bincount(ids, minlength=len(rules) + 1)).tolist()
            del ids
            for t, (gram, code) in enumerate(rules, 1):
                at = hits[bounds[t - 1] : bounds[t]]
                if t > 1 and at.size:  # an earlier gram of this q may hold some of these bytes
                    ok = out[at] == gram[0]
                    for j in range(1, q):
                        ok &= out[at + j] == gram[j]
                    at = at[ok]
                at = _leftmost(at, q)
                for j in range(q):
                    out[at + j] = code
                for j in range(1, q):
                    keep[at + j] = False
            del hits
        out = out[keep]
        # kept[i] counts the bytes kept before byte i, in int32 where it fits
        # rather than an int64 copy of keep; a group's coded size is the
        # difference at its bounds, 0 for an empty group.
        kept = np.zeros(keep.size + 1, np.int32 if keep.size < 2**31 else np.int64)
        np.cumsum(keep, dtype=kept.dtype, out=kept[1:])
        return out, np.diff(kept[ends], prepend=0)

    def decode(self, encoded: bytes) -> bytes:
        """Expand code bytes back to their q-grams; unknown codes are corrupt data."""
        table = self._table
        try:
            return b"".join([table[c] for c in encoded])
        except TypeError:  # joined a None: a byte that is neither plain nor a code
            bad = next(c for c in encoded if table[c] is None)
            raise CodecError(f"unknown code byte {bad} in encoded data") from None


def _gram_ids(data: np.ndarray, grams: list[bytes]) -> np.ndarray:
    """For each window of ``q = len(grams[0])`` bytes of ``data``, 1 + the
    index in ``grams`` of the gram it holds, or 0.

    Every window's first two bytes are one uint16 lookup.  A 2-gram is found
    by it alone; for q = 3 and 4 it names a row, the window's other bytes
    name a column, and one small table of rows and columns gives the gram.
    """
    q = len(grams[0])
    pair = data[:-1].astype(np.uint16) << 8
    pair |= data[1:]
    ids = np.arange(1, len(grams) + 1, dtype=np.uint8)
    if q == 2:
        table = np.zeros(1 << 16, np.uint8)
        table[[int.from_bytes(g, "big") for g in grams]] = ids
        return _take(table, pair)
    heads = {h: i for i, h in enumerate(dict.fromkeys(g[:2] for g in grams), 1)}
    tails = {t: i for i, t in enumerate(dict.fromkeys(g[2:] for g in grams), 1)}
    head_of, tail_of = np.zeros(1 << 16, np.uint8), np.zeros(1 << 16, np.uint8)
    head_of[[int.from_bytes(h, "big") for h in heads]] = list(heads.values())
    tail_of[[int.from_bytes(t, "big") for t in tails]] = list(tails.values())
    table = np.zeros((len(heads) + 1, len(tails) + 1), np.uint8)
    table[[heads[g[:2]] for g in grams], [tails[g[2:]] for g in grams]] = ids
    key = _take(head_of, pair[: data.size - q + 1]).astype(np.uint16) * np.uint16(len(tails) + 1)
    key += _take(tail_of, pair[2:] if q == 4 else data[2:])
    del pair
    return _take(table.ravel(), key)


def _leftmost(starts: np.ndarray, q: int) -> np.ndarray:
    """Of the ascending ``starts`` of one q-gram's windows, those that a
    left-to-right non-overlapping replacement takes."""
    gaps = np.diff(starts, prepend=-q)
    head = gaps >= q
    if head.all():
        return starts
    # Windows closer than q form chains.  For q <= 4 every gap in a chain is
    # the gram's smallest period p (Fine and Wilf), so the greedy takes every
    # ceil(q / p)-th window of a chain from its head.
    rank = np.arange(starts.size)
    rank -= np.maximum.accumulate(np.where(head, rank, 0))
    return starts[rank % -(-q // gaps) == 0]


def mine_substitutions(dictionary, policy: str = "mixed", limit: int = 100) -> SubstitutionList:
    """Pick up to ``limit`` rules that shrink the dictionary most.

    ``2gram``, ``3gram`` and ``4gram`` are greedy: take the gram of that q
    whose non-overlapping replacement in the current residual corpus saves
    the most bytes, apply it, and repeat; ties go to the lexicographically
    smallest gram.  A gram's bound is its window count, and its key is
    ``(occurrences, -digits)``; its savings are its occurrences times q - 1.

    ``mixed`` merges pairs: take the adjacent pair of symbols (plain bytes or
    earlier codes) with the most non-overlapping occurrences whose expansion
    is at most ``GRAM_MAX`` bytes and not yet a rule, give it the next code,
    and repeat; ties go to the longer gram, then the smaller gram, then the
    pair of smaller symbols.  A pair's bound is its count of adjacent pairs,
    and its key is ``(occurrences, gram length, -gram, -pair)``; a rule's
    savings are its occurrences.

    Every round is one call of ``_best`` on the miner's bounds and keys,
    then one ``take`` of the pick, which updates only the counts it changes,
    so the picks are those of recounting the residual corpus every round.
    Either stops early once no rule saves anything.  The corpus must be pure
    ASCII (all bytes < 128); code bytes are assigned from 128 upward.  One
    byte value is reserved internally, so at most 127 rules can be mined.
    """
    try:
        q = POLICIES[policy]
    except KeyError:
        raise ConfigError(f"unknown policy {policy!r}; known: {sorted(POLICIES)}") from None
    if limit < 0:
        raise ConfigError(f"limit must be >= 0, got {limit}")
    limit = min(limit, CODE_SPACE - 1)  # 0xFF stays an internal separator

    # Separators around the corpus keep every window and pair inside it.
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
    miner = _Pairs(digits, alphabet, limit) if q is None else _Windows(digits, alphabet, q)
    picked: list[Substitution] = []
    while len(picked) < limit and (best := _best(miner.bounds(), miner.exact)) is not None:
        gram, savings = miner.take(*best)
        picked.append(Substitution(gram, CODE_FIRST + len(picked), savings))
    return SubstitutionList(picked)


def _best(score: np.ndarray, exact):
    """The greatest ``(key, starts)`` that ``exact`` gives a candidate, or None.

    ``score[i]`` bounds candidate i's occurrences, the first item of its key.
    Candidates are visited in decreasing bound, each next one being
    ``score.argmax()``, whose bound is zeroed until the routine returns;
    ``exact(i, bound, best key)`` gives ``(key, starts)``, or None for a
    candidate that cannot be picked or cannot beat the best key.  The visits
    stop once the bound is below the best key's occurrences.
    """
    best = starts = None
    seen: list[tuple[int, int]] = []
    while True:
        i = int(score.argmax())
        bound = int(score[i])
        if bound < 1 or best is not None and bound < best[0]:
            break
        seen.append((i, bound))
        score[i] = 0
        found = exact(i, bound, best)
        if found is not None and (best is None or found[0] > best):
            best, starts = found
    for i, bound in seen:
        score[i] = bound
    return None if best is None else (best, starts)


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

    def bounds(self) -> np.ndarray:
        """``counts``, in place: exact unless the gram overlaps itself."""
        return self.counts

    def exact(self, gid: int, count: int, best):
        """``((occurrences, -digits), starts)`` of gram ``gid``, or None
        without counting it when ``(count, -digits)`` is below ``best``: a
        larger gram with the best count cannot win, so ties go to the
        smaller digits."""
        key = (count, -int(self.values[gid]))
        if best is not None and key < best:
            return None
        starts = _leftmost(np.flatnonzero(self.ids == gid), self.q)
        return (starts.size, key[1]), starts

    def take(self, key, starts) -> tuple[bytes, int]:
        """Replace the gram of ``key`` at ``starts``, dropping the windows
        that overlap the spans ``[s, s + q)``; return ``(gram, savings)``."""
        q = self.q
        offsets = np.arange(1 - q, q)[:, None]
        wins = (offsets + starts).ravel()
        # Each span skips the windows that the previous span already holds.
        keep = (offsets >= q - np.diff(starts, prepend=-2 * q)).ravel()
        gone = self.ids.take(wins)
        keep &= gone < self.sentinel
        wins, gone = wins.compress(keep), gone.compress(keep)
        self.ids[wins] = self.sentinel
        np.subtract.at(self.counts, gone, 1)
        v, base = -key[1], self.alphabet.size + 1
        return bytes(self.alphabet[v // base ** (q - 1 - j) % base] for j in range(q)), key[0] * (q - 1)


class _Pairs:
    """The symbols of the padded corpus, in the positions of its bytes.

    Symbols have dense ids: ``0..sigma - 1`` the alphabet's bytes in order,
    ``sigma`` the separator, and ``sigma + 1 + t`` the code made in round t.
    Every byte holds the id of the symbol that covers it, so a symbol at
    ``i`` is followed by the one at ``i + span[s]`` and preceded by the one
    that ends at ``i - 1``.  The separator's span of ``GRAM_MAX``, and that
    of a code not yet made, put every pair with it over the limit.  A pair
    ``a, b`` has the id ``a * m + b``: ``counts`` counts the adjacent pairs
    of each id, overlapping ones included, and ``where`` lists the positions,
    ascending, of the pairs of each id that may be merged, as they were when
    made.  All pairs of one id are made at once, by one merge (or before the
    first), and later merges may have taken some of them.
    """

    def __init__(self, digits: np.ndarray, alphabet: np.ndarray, limit: int):
        sigma = alphabet.size
        self.m = m = sigma + 1 + limit
        self.sym = digits.copy()
        self.span = np.full(m, GRAM_MAX, np.int64)
        self.span[:sigma] = 1
        self.grams = [bytes((c,)) for c in alphabet.tolist()] + [b""]  # by symbol id
        self.taken: set[bytes] = set()  # the grams of the rules made so far
        self.short = (self.span[:, None] + self.span <= GRAM_MAX).ravel()  # pairs that may be merged
        self.runs: dict[int, tuple[int, np.ndarray]] = {}  # pair of one symbol -> (count, starts)
        pairs = digits[:-1].astype(np.uint16) * m + digits[1:]
        self.counts = np.bincount(pairs, minlength=m * m)
        self.where: dict[int, np.ndarray] = {}
        at = np.flatnonzero(self.short[pairs]).astype(np.int32)
        self._file(pairs[at], at)

    def _file(self, pairs: np.ndarray, at: np.ndarray) -> None:
        """Enter the positions ``at``, ascending, of the pairs with ids ``pairs`` in ``where``."""
        if not at.size:
            return
        order = np.argsort(pairs, kind="stable")
        pairs, at = pairs[order], at[order]
        cuts = np.flatnonzero(pairs[1:] != pairs[:-1]) + 1
        self.where.update(zip(pairs[np.r_[0, cuts]].tolist(), np.split(at, cuts)))

    def starts(self, pair: int) -> np.ndarray:
        """Where a left-to-right merge of ``pair`` goes, ascending."""
        a, b = divmod(pair, self.m)
        at = self.where[pair]
        at = at[(self.sym[at] == a) & (self.sym[at + int(self.span[a])] == b)]
        self.where[pair] = at  # without the pairs that merges have taken
        # Pairs overlap only in a run of one symbol, each one span after the
        # last: the gram's smallest period.
        return _leftmost(at, 2 * int(self.span[a])) if a == b else at

    def bounds(self) -> np.ndarray:
        """``counts`` of the pairs that may be merged, 0 for the others."""
        return np.where(self.short, self.counts, 0)

    def exact(self, pair: int, count: int, best):
        """``((occurrences, gram length, -gram, -pair), starts)`` of ``pair``,
        or None if its gram is a rule already.  ``counts`` is exact for a pair
        of two different symbols, whose ``starts`` is left None.  A pair of
        one symbol is counted, and counted again only once its count changes."""
        a, b = divmod(pair, self.m)
        gram = self.grams[a] + self.grams[b]
        if gram in self.taken:  # never picked again
            self.short[pair] = False
            return None
        starts = None
        if a == b:
            cached = self.runs.get(pair)
            if cached is None or cached[0] != count:
                cached = self.runs[pair] = (count, self.starts(pair))
            count, starts = cached[1].size, cached[1]
        return (count, len(gram), -int.from_bytes(gram, "big"), -pair), starts

    def take(self, key, starts) -> tuple[bytes, int]:
        """Merge the pair of ``key`` at ``starts`` into the next code;
        return ``(gram, occurrences)``."""
        pair = -key[3]
        starts = self.starts(pair) if starts is None else starts
        m, sym, span = self.m, self.sym, self.span
        a, b = divmod(pair, m)
        code = len(self.grams)
        gram = self.grams[a] + self.grams[b]
        r = starts + len(gram)  # where the next symbol starts
        # A merge right behind another has that one's code on its left, and
        # their pair is counted as the other's right-hand pair.
        alone = np.ones(starts.size, bool)
        alone[1:] = starts[1:] != r[:-1]
        starts_alone = starts[alone]
        before = sym[starts_alone - 1].astype(np.uint16)
        after = sym[r].astype(np.uint16)
        gone = np.concatenate((before * m + a, b * m + after))
        after[:-1][~alone[1:]] = code
        made = np.concatenate((before * m + code, code * m + after))
        self.counts -= np.bincount(gone, minlength=m * m)
        self.counts[pair] -= starts.size
        self.counts += np.bincount(made, minlength=m * m)
        for j in range(len(gram)):
            sym[starts + j] = code

        self.grams.append(gram)
        self.taken.add(gram)
        span[code] = len(gram)
        fits = span + span[code] <= GRAM_MAX
        short = self.short.reshape(m, m)
        short[code], short[:, code] = fits, fits
        if fits.any():
            at = np.concatenate((starts_alone - span[before], starts))
            keep = self.short[made]
            self._file(made[keep], at[keep].astype(np.int32))
        return gram, key[0]


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
