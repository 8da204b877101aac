"""Wordlist/misspelling/FASTA ingestion, query generation, oracle behavior."""

import logging
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitindex import (
    ConfigError,
    DataError,
    Dictionary,
    extract_kmers,
    gen_noisy_queries,
    load_misspellings,
    load_wordlist,
    oracle_query,
)


def test_load_wordlist_dedups(tmp_path):
    p = tmp_path / "words.txt"
    p.write_bytes(b"a\nb\na\n")
    d = load_wordlist(p)
    assert d.words == (b"a", b"b")
    assert d.total_bytes == 2
    assert d.word_count == 2


def test_load_wordlist_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_bytes(b"")
    assert load_wordlist(p).word_count == 0


def test_load_wordlist_normalizes_crlf(tmp_path):
    p = tmp_path / "crlf.txt"
    p.write_bytes(b"alpha\r\nbeta\r\n\r\ngamma\ndelta\r\r\n")
    d = load_wordlist(p)
    assert d.words == (b"alpha", b"beta", b"gamma", b"delta")
    assert not any(b"\r" in w for w in d.words)


def test_load_wordlist_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_wordlist(tmp_path / "nope.txt")


def test_load_misspellings(tmp_path):
    p = tmp_path / "missp.txt"
    p.write_bytes(b"abandonned->abandoned\njudgement->judgment, judgement\nnoarrow\na->b->c\n")
    qs = load_misspellings(p)
    assert qs.patterns == (b"abandonned", b"judgement", b"a")
    assert qs.malformed_skipped == 1
    assert "missp.txt" in qs.provenance


def test_load_misspellings_empty(tmp_path):
    p = tmp_path / "none.txt"
    p.write_bytes(b"")
    qs = load_misspellings(p)
    assert qs.patterns == ()


def test_extract_kmers_enumerates_windows(tmp_path):
    p = tmp_path / "toy.fa"
    p.write_bytes(b">rec\nACGTACGT\n")
    d = extract_kmers(p, 4)
    assert set(d.words) == {b"ACGT", b"CGTA", b"GTAC", b"TACG"}
    assert d.word_count <= 8 - 4 + 1  # repeated windows collapse


def test_extract_kmers_count_equals_window_count_when_all_distinct(tmp_path):
    p = tmp_path / "distinct.fa"
    p.write_bytes(b">rec\nACGTAC\n")
    assert extract_kmers(p, 4).word_count == 6 - 4 + 1


def test_extract_kmers_short_sequence(tmp_path):
    p = tmp_path / "short.fa"
    p.write_bytes(b">rec\nACG\n")
    assert extract_kmers(p, 4).word_count == 0


def test_extract_kmers_respects_record_boundaries(tmp_path):
    p = tmp_path / "two.fa"
    p.write_bytes(b">a\nAAAA\n>b\nCCCC\n")
    d = extract_kmers(p, 4)
    assert set(d.words) == {b"AAAA", b"CCCC"}  # no window spans the records


def test_extract_kmers_skips_invalid_symbols_and_uppercases(tmp_path):
    p = tmp_path / "mixed.fa"
    p.write_bytes(b">a\nacgXtacgt\n")
    d = extract_kmers(p, 4)
    # windows touching X disappear; lowercase is folded
    assert set(d.words) == {b"TACG", b"ACGT"}


def test_extract_kmers_multiline_record(tmp_path):
    p = tmp_path / "wrap.fa"
    p.write_bytes(b">a\nAC\nGT\n")
    assert set(extract_kmers(p, 4).words) == {b"ACGT"}


def extract_kmers_by_byte_scan(fasta_path, length):
    """The per-byte window scan that ``extract_kmers`` replaced, kept as its reference."""
    with open(fasta_path, "rb") as fh:
        raw = fh.read()
    records: list[bytes] = []
    current: list[bytes] = []
    for line in raw.split(b"\n"):
        line = line.rstrip(b"\r")
        if line.startswith(b">"):
            if current:
                records.append(b"".join(current))
                current = []
        elif line:
            current.append(line)
    if current:
        records.append(b"".join(current))
    valid = frozenset(b"ACGNT")
    kmers: dict[bytes, None] = {}
    for seq in records:
        seq = seq.upper()
        last_bad = -1
        for i, b in enumerate(seq):
            if b not in valid:
                last_bad = i
            if i >= length - 1 and last_bad <= i - length:
                kmers[seq[i - length + 1 : i + 1]] = None
    return tuple(kmers)


# Headers, empty records and blank lines, sequence lines with lowercase bytes
# and bytes outside ACGNT, joined by LF, CRLF and CR CR LF endings.
fasta_lines = st.lists(st.one_of(
    st.sampled_from((b">", b">rec", b"", b"\r")),
    st.lists(st.sampled_from(b"ACGNTacgntXx-* "), max_size=30).map(bytes),
), max_size=25)


@given(fasta_lines, st.lists(st.sampled_from((b"\n", b"\r\n", b"\r\r\n")), min_size=25, max_size=25),
       st.integers(1, 25))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_extract_kmers_equals_the_byte_scan(tmp_path, lines, endings, length):
    p = tmp_path / "drawn.fa"
    p.write_bytes(b"".join(line + end for line, end in zip(lines, endings)))
    assert extract_kmers(p, length).words == extract_kmers_by_byte_scan(p, length)


def test_extract_kmers_longer_than_every_run(tmp_path, caplog):
    p = tmp_path / "toy.fa"
    p.write_bytes(b">rec\nACGTACGT\n")
    caplog.set_level(logging.WARNING, logger="splitindex.datasets")
    assert extract_kmers(p, 2**32).word_count == 0
    assert "no usable sequence data" in caplog.records[0].getMessage()


def test_gen_noisy_queries_deterministic():
    rng = random.Random(1)
    d = Dictionary([bytes(rng.choices(b"ACGT", k=12)) for _ in range(50)])
    a = gen_noisy_queries(d, 200, seed=9)
    b = gen_noisy_queries(d, 200, seed=9)
    assert a.patterns == b.patterns
    assert a.patterns != gen_noisy_queries(d, 200, seed=10).patterns


def test_gen_noisy_queries_zero_probability_returns_words():
    d = Dictionary([b"abcd", b"efgh"])
    qs = gen_noisy_queries(d, 50, seed=1, per_error_probability=0.0)
    assert all(p in (b"abcd", b"efgh") for p in qs.patterns)
    qs2 = gen_noisy_queries(d, 50, seed=1, max_errors=0)
    assert all(p in (b"abcd", b"efgh") for p in qs2.patterns)


def test_gen_noisy_queries_preserves_length_and_alphabet():
    rng = random.Random(2)
    d = Dictionary([bytes(rng.choices(b"ACGT", k=rng.randint(5, 15))) for _ in range(40)])
    qs = gen_noisy_queries(d, 300, seed=3, alphabet=b"ACGNT")
    lengths = {len(w) for w in d.words}
    assert all(len(p) in lengths for p in qs.patterns)
    assert all(set(p) <= set(b"ACGNT") for p in qs.patterns)


def test_gen_noisy_queries_negative_count_names_it():
    with pytest.raises(ConfigError, match="-3"):
        gen_noisy_queries(Dictionary([b"abcd"]), -3, seed=1)
    assert gen_noisy_queries(Dictionary([b"abcd"]), 0, seed=1).patterns == ()


def test_gen_noisy_queries_empty_dictionary():
    with pytest.raises(DataError):
        gen_noisy_queries(Dictionary(()), 5, seed=1)


def test_oracle_examples():
    d = Dictionary([b"table", b"left", b"tablet"])
    assert oracle_query(d, b"tavle", 1) == [b"table"]
    assert oracle_query(d, b"xxxxxxxxxx", 1) == []
    assert oracle_query(d, b"zzzzz", 99) == [b"table"]
    assert oracle_query(d, b"zzzz", 99) == [b"left"]


def test_oracle_sorts_lexicographically():
    d = Dictionary([b"bb", b"ba", b"ab"])
    assert oracle_query(d, b"bb", 2) == [b"ab", b"ba", b"bb"]
