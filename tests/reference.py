"""The per-round miners that ``mine_substitutions`` must match.

``reference_mine`` recounts every plain q-byte window of the residual corpus
each round, takes the gram whose non-overlapping replacement saves the most
bytes (ties: lexicographically smaller), and rebuilds the corpus with
``bytes.replace``.  ``reference_pair_merge`` recounts every adjacent pair of
symbols each round, with the corpus held as one byte per symbol, and merges
the most frequent with ``bytes.replace``.  Slow, but obviously the greedy.
"""

from __future__ import annotations

import numpy as np

from splitindex import Substitution, SubstitutionList
from splitindex.qgrams import _SEPARATOR, CODE_FIRST, CODE_SPACE, GRAM_MAX, POLICIES


def reference_mine(dictionary, policy: str, limit: int = 100) -> SubstitutionList:
    """``mine_substitutions`` with a window policy by recounting the residual
    corpus every round; the caller passes ``2gram``, ``3gram`` or ``4gram``,
    ``limit >= 0`` and ASCII words."""
    qs = (POLICIES[policy],)
    limit = min(limit, CODE_SPACE - 1)  # 0xFF stays an internal separator
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


def reference_pair_merge(dictionary, limit: int = 100) -> SubstitutionList:
    """``mine_substitutions(dictionary, "mixed", limit)`` by recounting every
    pair of the residual corpus each round; the caller passes ``limit >= 0``
    and ASCII words.

    Each symbol, plain byte or code, is one byte of the corpus, so
    ``bytes.count`` counts a pair's non-overlapping occurrences and
    ``bytes.replace`` merges them, left to right.  The overlapping counts of
    all pairs bound those; pairs are counted exactly in decreasing bound
    until the bound is below the best count.
    """
    limit = min(limit, CODE_SPACE - 1)  # 0xFF stays an internal separator
    corpus = bytes((_SEPARATOR,)).join(dictionary.words)
    grams = {c: bytes((c,)) for c in range(CODE_FIRST)}
    picked: list[Substitution] = []
    while len(picked) < limit:
        buf = np.frombuffer(corpus, np.uint8).astype(np.int64)
        bounds = np.bincount(buf[:-1] << 8 | buf[1:], minlength=1 << 16)
        taken = {s.gram for s in picked}
        best = None  # (occurrences, gram length, -gram, -pair id)
        for pair in np.argsort(-bounds, kind="stable").tolist():
            if bounds[pair] < 1 or best is not None and bounds[pair] < best[0]:
                break
            a, b = divmod(pair, 256)
            if a not in grams or b not in grams:  # the separator
                continue
            gram = grams[a] + grams[b]
            if len(gram) > GRAM_MAX or gram in taken:
                continue
            key = (corpus.count(bytes((a, b))), len(gram), -int.from_bytes(gram, "big"), -pair)
            best = max(best or key, key)
        if best is None:
            break
        a, b = divmod(-best[3], 256)
        code = CODE_FIRST + len(picked)
        grams[code] = grams[a] + grams[b]
        picked.append(Substitution(grams[code], code, best[0]))
        corpus = corpus.replace(bytes((a, b)), bytes((code,)))
    return SubstitutionList(picked)


def rules(subs: SubstitutionList) -> list[tuple[bytes, int, int]]:
    """What two mined lists must agree on: each rule's gram, code and savings."""
    return [(s.gram, s.code, s.savings) for s in subs]


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
