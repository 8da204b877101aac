"""Seeded corpora, query sets and workload definitions for the benchmark.

The generators follow ``tests/corpora.py`` byte for byte, and each corpus
uses the seed its acceptance criteria use: 42 for the pseudo-English
dictionary of criteria 4 and 5, 13 for the DNA 20-mers of criterion 7.  The
corpus is the workload's fixed dataset, so the size metrics depend on the
code alone; the benchmark's ``--seed s`` draws the queries, with seed
``7 + s`` (English) or ``29 + s`` (DNA).  Queries are drawn one after the
other, so at seed 0 the first 4000 are those of criterion 5 and the first
1200 those of criteria 4 and 7.  The generators live here rather than being imported from the tests
so that the benchmark depends only on the library and its own files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ENGLISH_BYTES = 800_000
ENGLISH_CORPUS_SEED = 42
ENGLISH_QUERY_SEED = 7
DNA_KMER_BYTES = 1_050_000
DNA_CORPUS_SEED = 13
DNA_QUERY_SEED = 29
DNA_KMER_LENGTH = 20
DNA_QUERY_ALPHABET = b"ACGNT"
QUERY_COUNT = 16_000
SUBSTITUTION_LIMIT = 100


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in ``BENCHMARK.json``."""

    name: str
    corpus: str  # "english" or "dna"
    k: int
    coding: str  # q-gram policy, or "none"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("english-k1", "english", 1, "none"),
        Workload("english-k2", "english", 2, "none"),
        Workload("dna-k1-mixed", "dna", 1, "mixed"),
    )
}


# -- pseudo-English ---------------------------------------------------------

_ONSETS = [
    "b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "v", "w",
    "br", "ch", "cl", "cr", "dr", "fl", "fr", "gr", "pl", "pr", "sh", "sl",
    "sp", "st", "th", "tr",
]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "io", "ou"]
_CODAS = [
    "", "b", "ck", "d", "g", "l", "ll", "m", "n", "nd", "ng", "nt", "p", "r",
    "rd", "rt", "s", "ss", "st", "t",
]
_SUFFIXES = [
    "", "", "", "", "s", "s", "ed", "ing", "er", "ers", "est", "ly", "ness",
    "ment", "tion", "al", "ous", "ive", "ity",
]


def english_words(target_bytes: int, seed: int) -> list[bytes]:
    """Distinct pseudo-English words totalling at least ``target_bytes``.

    Syllable stems share a small pool of endings, so word halves repeat the
    way they do in real dictionaries.
    """
    rng = random.Random(seed)
    words: dict[bytes, None] = {}
    total = 0

    def syllable() -> str:
        return rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)

    while total < target_bytes:
        stem = syllable() if rng.random() < 0.35 else syllable() + syllable()
        w = (stem + rng.choice(_SUFFIXES)).encode()
        if w not in words:
            words[w] = None
            total += len(w)
    return list(words)


# -- DNA ----------------------------------------------------------------------

def dna_sequence(length: int, seed: int) -> bytes:
    """Motif-repetitive DNA: long repeats with occasional point mutations."""
    rng = random.Random(seed)
    motifs = [bytes(rng.choices(b"ACGT", k=rng.randint(40, 160))) for _ in range(16)]
    out = bytearray()
    while len(out) < length:
        if rng.random() < 0.8:
            m = bytearray(rng.choice(motifs))
            for _ in range(1 + len(m) // 60):
                m[rng.randrange(len(m))] = rng.choice(b"ACGT")
            out += m
        else:
            out += bytes(rng.choices(b"ACGT", k=rng.randint(20, 60)))
    return bytes(out[:length])


def dna_fasta(path, min_kmer_bytes: int, seed: int, kmer_length: int = DNA_KMER_LENGTH) -> None:
    """Write a FASTA file whose distinct k-mers total at least ``min_kmer_bytes``."""
    rng = random.Random(seed)
    chunks: list[bytes] = []
    distinct: set[bytes] = set()
    while len(distinct) * kmer_length < min_kmer_bytes:
        seq = dna_sequence(60_000, rng.randrange(1 << 30))
        chunks.append(seq)
        for i in range(len(seq) - kmer_length + 1):
            distinct.add(seq[i : i + kmer_length])
    with open(path, "wb") as fh:
        for i, seq in enumerate(chunks):
            fh.write(b">synthetic_contig_%d\n" % i)
            for j in range(0, len(seq), 70):
                fh.write(seq[j : j + 70] + b"\n")


# -- inputs -------------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    dictionary: object  # splitindex.Dictionary
    patterns: tuple[bytes, ...]
    corpus_seed: int
    query_seed: int


def make_inputs(lib, workload: Workload, seed: int, scale: float, workdir) -> Inputs:
    """Dictionary and query patterns for ``workload`` at ``seed``.

    The corpus does not depend on ``seed``; the queries do.  ``scale``
    multiplies the corpus size and the query count; 1.0 is the benchmark's
    size.  The DNA corpus goes through a FASTA file in
    ``workdir`` and ``extract_kmers``, as real genome input would.
    """
    count = max(8, round(QUERY_COUNT * scale))
    if workload.corpus == "english":
        corpus_seed = ENGLISH_CORPUS_SEED
        query_seed = ENGLISH_QUERY_SEED + seed
        d = lib.Dictionary(english_words(round(ENGLISH_BYTES * scale), corpus_seed))
        queries = lib.gen_noisy_queries(d, count, seed=query_seed)
    else:
        corpus_seed = DNA_CORPUS_SEED
        query_seed = DNA_QUERY_SEED + seed
        path = workdir / "genome.fa"
        dna_fasta(path, round(DNA_KMER_BYTES * scale), corpus_seed)
        d = lib.extract_kmers(path, DNA_KMER_LENGTH)
        queries = lib.gen_noisy_queries(d, count, seed=query_seed, alphabet=DNA_QUERY_ALPHABET)
    return Inputs(d, queries.patterns, corpus_seed, query_seed)
