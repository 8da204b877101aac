"""Dataset ingestion, query generation, and the brute-force reference scan.

``oracle_query`` is the ground truth the index is tested against; it is a
deliberately naive linear scan and shares no code with the index modules.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass

from .core import Dictionary
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

DNA_ALPHABET = b"ACGNT"  # the five symbols k-mer windows may contain
# A maximal run of them; a repeat count of ``length`` could not stand in for the
# window loop, since ``re`` refuses counts of 2**32 - 1 and above.
_DNA_RUN = re.compile(b"[" + DNA_ALPHABET + b"]+")
MAX_ERRORS = 3  # the substitutions gen_noisy_queries tries per pattern
ERROR_PROBABILITY = 0.5  # the chance that each one is made


@dataclass(frozen=True)
class QuerySet:
    """Ordered query patterns plus a note on where they came from."""

    patterns: tuple[bytes, ...]
    provenance: str
    malformed_skipped: int = 0

    def __len__(self) -> int:
        return len(self.patterns)


def _lines(path) -> list[bytes]:
    """The non-blank lines of a file, split at LF, without trailing CRs."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return [line for line in (part.rstrip(b"\r") for part in raw.split(b"\n")) if line]


def load_wordlist(path) -> Dictionary:
    """Newline-separated words -> deduplicated Dictionary.

    Blank lines are skipped and CRLF endings are normalized.
    """
    return Dictionary(_lines(path))


def load_misspellings(path) -> QuerySet:
    """Lines of ``wrong->right``; the left-hand sides become the patterns.

    Splitting happens at the first ``->``.  Lines without one (or with an
    empty left side) are skipped and counted in ``malformed_skipped``.
    """
    patterns = []
    skipped = 0
    for line in _lines(path):
        wrong, sep, _ = line.partition(b"->")
        if not sep or not wrong:
            skipped += 1
            continue
        patterns.append(wrong)
    if skipped:
        log.warning("%s: skipped %d lines without 'wrong->right' form", path, skipped)
    return QuerySet(tuple(patterns), provenance=f"misspellings:{path}", malformed_skipped=skipped)


def extract_kmers(fasta_path, length: int = 20) -> Dictionary:
    """Distinct fixed-length windows from the sequences of a FASTA file.

    Sequence lines of each record are concatenated and uppercased; windows
    slide one position at a time and never span records.  Windows containing
    a byte outside A/C/G/T/N are skipped.
    """
    if length < 1:
        raise DataError(f"window length must be >= 1, got {length}")
    records: list[list[bytes]] = [[]]
    for line in _lines(fasta_path):
        if line.startswith(b">"):
            records.append([])
        else:
            records[-1].append(line)
    kmers: dict[bytes, None] = {}
    for record in records:
        for run in _DNA_RUN.findall(b"".join(record).upper()):
            for i in range(len(run) - length + 1):
                kmers[run[i : i + length]] = None
    if not kmers:
        log.warning("%s: no usable sequence data", fasta_path)
        return Dictionary(())
    return Dictionary(kmers)


def gen_noisy_queries(
    dictionary: Dictionary,
    count: int,
    seed: int,
    alphabet: bytes | None = None,
) -> QuerySet:
    """Patterns made by substituting random positions of sampled words.

    Each pattern starts as a uniformly chosen word; then, ``MAX_ERRORS``
    times, with probability ``ERROR_PROBABILITY`` one uniformly random
    position is overwritten with a uniformly random symbol of ``alphabet``,
    by default the dictionary's (which may equal the original, so the
    realized error count can be lower).  Pattern length always equals the
    source word's length.  Uses a seeded Mersenne Twister, so a fixed seed
    reproduces the set byte for byte.  A negative ``count`` or an empty
    ``alphabet`` raises ConfigError.
    """
    if count < 0:
        raise ConfigError(f"query count must be >= 0, got {count}")
    if alphabet is not None and not alphabet:
        raise ConfigError(f"the query alphabet must hold a symbol, got alphabet={alphabet!r}")
    if dictionary.word_count == 0:
        raise DataError("cannot generate queries from an empty dictionary")
    alpha = alphabet if alphabet is not None else dictionary.alphabet_bytes()
    rng = random.Random(seed)
    words = dictionary.words
    nwords = len(words)
    nalpha = len(alpha)
    patterns = []
    for _ in range(count):
        w = words[rng.randrange(nwords)]
        for _ in range(MAX_ERRORS):
            if rng.random() < ERROR_PROBABILITY:
                pos = rng.randrange(len(w))
                j = rng.randrange(nalpha)
                w = w[:pos] + alpha[j : j + 1] + w[pos + 1 :]
        patterns.append(w)
    prov = f"generated(seed={seed}, max_errors={MAX_ERRORS}, per_error_probability={ERROR_PROBABILITY})"
    return QuerySet(tuple(patterns), provenance=prov)


def oracle_query(dictionary: Dictionary, pattern: bytes, k: int) -> list[bytes]:
    """Ground-truth matches by linear scan: same length, at most k mismatches."""
    n = len(pattern)
    out = []
    for w in dictionary.words:
        if len(w) != n:
            continue
        mismatches = 0
        for x, y in zip(w, pattern):
            if x != y:
                mismatches += 1
                if mismatches > k:
                    break
        else:
            out.append(w)
    return sorted(out)
