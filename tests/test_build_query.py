"""Index construction and search against the brute-force scan."""

import hashlib
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import english_words, random_words

from splitindex import (
    BuildError,
    ConfigError,
    Dictionary,
    QuerySet,
    SubstitutionList,
    build_index,
    oracle_query,
    run_bench,
    split_word,
)
from splitindex.core import LIST_ENTRY_LIMIT
from splitindex.storage import index_to_bytes


def entries_k1(blob):
    """Parse a k=1 list blob into (marker, [payloads])."""
    marker = blob[0] | blob[1] << 8
    out = []
    o = 2
    while blob[o]:
        out.append(blob[o + 1 : o + 1 + blob[o]])
        o += blob[o] + 1
    return marker, out


def entries_positioned(blob):
    """Parse a k>1 list blob into [(position, payload)]."""
    out = []
    o = 0
    while blob[o]:
        ln = blob[o + 1]
        out.append((blob[o], blob[o + 2 : o + 2 + ln]))
        o += ln + 2
    return out


def test_list_layout_for_three_words():
    d = Dictionary([b"table", b"left", b"tablet"])
    idx = build_index(d, 1)
    marker, entries = entries_k1(idx.lists[idx.table.lookup_list(b"tab")])
    assert marker == 0  # only missing suffixes
    assert set(entries) == {b"le", b"let"}
    marker, entries = entries_k1(idx.lists[idx.table.lookup_list(b"le")])
    assert marker == 2  # one suffix entry, then the prefixes
    assert entries == [b"ft", b"tab"]
    marker, entries = entries_k1(idx.lists[idx.table.lookup_list(b"ft")])
    assert (marker, entries) == (1, [b"le"])


def test_query_examples():
    d = Dictionary([b"table", b"left", b"tablet"])
    idx = build_index(d, 1)
    assert idx.query(b"tavle") == [b"table"]
    assert idx.query(b"table") == [b"table"]  # found via both regions, deduplicated
    assert idx.query(b"tablet") == [b"tablet"]
    assert build_index(Dictionary([b"left"]), 1).query(b"lift") == [b"left"]
    # One half of the unkeyed piece matches exactly; the other differs in one
    # byte, or in two adjacent ones, on either side of the list.
    idx = build_index(Dictionary([b"abcdefghij"]), 1)
    assert idx.query(b"abcdefgxij") == idx.query(b"abcxefghij") == [b"abcdefghij"]
    assert idx.query(b"abcdefgxyj") == idx.query(b"abxyefghij") == []


def test_empty_dictionary():
    idx = build_index(Dictionary(()), 1)
    assert idx.table.key_count == 0
    assert idx.side_table == {}
    assert idx.query(b"anything") == []


def test_short_words_go_to_side_table():
    d = Dictionary([b"aa", b"ab", b"ba"])
    idx = build_index(d, 2)
    assert idx.table.key_count == 0
    assert idx.side_table == {2: (b"aa", b"ab", b"ba")}
    assert idx.query(b"xy") == [b"aa", b"ab", b"ba"]  # Hamming <= 2 always
    assert idx.query(b"z") == []


def test_side_table_only_holds_short_words():
    d = Dictionary([b"a", b"xy", b"abc", b"wxyz"])
    idx = build_index(d, 2)
    assert set(idx.side_table) == {1, 2}
    assert idx.query(b"q") == [b"a"]


def test_query_rejects_empty_pattern():
    idx = build_index(Dictionary([b"ab"]), 1)
    with pytest.raises(ValueError):
        idx.query(b"")


def test_query_rejects_non_bytes_pattern():
    d = Dictionary([b"table", b"left", b"tablet"])
    for k in (1, 2):
        idx = build_index(d, k)
        for pattern in (bytearray(b"table"), bytearray(b"tavle"), memoryview(b"table"), "table", "t", 5):
            with pytest.raises(TypeError, match=type(pattern).__name__):
                idx.query(pattern)


def test_build_rejects_bad_k():
    with pytest.raises(ConfigError):
        build_index(Dictionary([b"ab"]), 0)
    with pytest.raises(ConfigError):
        build_index(Dictionary([b"ab"]), 256)


def test_oversized_missing_piece_names_word():
    with pytest.raises(BuildError) as err:
        build_index(Dictionary([b"x" * 600]), 1)
    assert "xxxx" in str(err.value)


def test_marker_overflow_is_a_build_error():
    # 65536 distinct prefixes all sharing the suffix piece b"zz"
    words = [bytes((a, b, c)) + b"zz" for a in range(64, 104) for b in range(64, 104) for c in range(64, 105)]
    words = words[: LIST_ENTRY_LIMIT + 1]
    assert len(words) == LIST_ENTRY_LIMIT + 1
    with pytest.raises(BuildError):
        build_index(Dictionary(words), 1)


def test_exactly_k_plus_one_entries_per_eligible_word():
    rng = random.Random(5)
    d = Dictionary(random_words(rng, 400, 8))
    for k in (1, 2, 3):
        idx = build_index(d, k)
        eligible = [w for w in d.words if len(w) > k]
        assert idx.list_stats().entry_count == (k + 1) * len(eligible)


def test_space_linearity_exact():
    rng = random.Random(6)
    d = Dictionary(random_words(rng, 500, 26))
    for k in (1, 2, 3):
        idx = build_index(d, k)
        expected = k * sum(len(w) for w in d.words if len(w) > k)
        assert idx.list_stats().payload_bytes == expected


def test_builds_are_byte_identical():
    rng = random.Random(7)
    words = random_words(rng, 600, 26)
    for k in (1, 2):
        a = index_to_bytes(build_index(Dictionary(words), k))
        b = index_to_bytes(build_index(Dictionary(list(words)), k))
        assert a == b


# SHA-256 of index_to_bytes for the dictionary below, with and without
# GOLDEN_SUBS; any change to the list or file layout changes these.
GOLDEN_DIGESTS = {
    (1, False): "4d82f06f838ecad7676b575b4a60f0fd6ab2513d07d7f6edde4a039b7cd23d11",
    (1, True): "c630b7d6f98959c3a07c747b733116e4b1891bf5c9d9773ed69ee2cdbfb6e1be",
    (2, False): "046eef0cf26276e08f83d9efb037710b6645c7f26f9739b080a2ad0ddf5df651",
    (2, True): "c4d2f4b6586707d909ce3274bda0c3ffedc3a2c477070a7d4941cf0ea6ffda5b",
    (3, False): "91b838db7543a7b8135d49ea3ecb4ae422b69a72a1ce2f2508086112f3b134fd",
    (3, True): "a0abdefc53213f709818a8688daf902ec5062367a5440b4820cefd04e9938be4",
}
GOLDEN_SUBS = SubstitutionList([(b"ing", 128), (b"er", 129), (b"st", 130), (b"tion", 131)])


def test_layout_is_pinned():
    d = Dictionary(english_words(6000, seed=5) + [b"a", b"ab", b"abc", b"x"])
    for (k, coded), digest in GOLDEN_DIGESTS.items():
        idx = build_index(d, k, substitutions=GOLDEN_SUBS if coded else None)
        assert hashlib.sha256(index_to_bytes(idx)).hexdigest() == digest, (k, coded)


def test_duplicate_words_do_not_duplicate_entries():
    d = Dictionary([b"table", b"table", b"table"])
    assert d.word_count == 1
    idx = build_index(d, 1)
    assert idx.list_stats().entry_count == 2


def test_region_correctness_matches_full_scan():
    # Interpreting every entry through its own region and fully verifying the
    # rebuilt word must give the same answers as the region-pruned search.
    rng = random.Random(8)
    for trial in range(30):
        d = Dictionary(random_words(rng, rng.randint(1, 200), rng.choice((4, 26)), max_len=16))
        idx = build_index(d, 1)
        for _ in range(25):
            w = d.words[rng.randrange(d.word_count)]
            p = bytearray(w)
            for _ in range(rng.randint(0, 2)):
                p[rng.randrange(len(p))] = rng.choice(b"abcdefghijklmnopqrstuvwxyz")
            p = bytes(p)
            if len(p) < 2:
                continue
            b = len(split_word(p, 1)[0])
            full = set()
            for key in (p[:b], p[b:]):
                ref = idx.table.lookup_list(key)
                if ref is None:
                    continue
                marker, entries = entries_k1(idx.lists[ref])
                for i, e in enumerate(entries, start=1):
                    word = e + key if marker and i >= marker else key + e
                    if len(word) == len(p) and sum(x != y for x, y in zip(word, p)) <= 1:
                        full.add(word)
            assert sorted(full) == idx.query(p)


# Grams over a..d, so coding rewrites payloads at either alphabet size drawn.
SUBS = SubstitutionList([(b"ab", 128), (b"ca", 129), (b"bcd", 130), (b"aaaa", 131)])


def expected_verifications(d, pattern, k):
    """Stored words of the pattern's length agreeing on piece i, summed over i."""
    if len(pattern) <= k:
        return 0
    pieces = split_word(pattern, k)
    return sum(
        split_word(w, k)[i] == piece
        for w in d.words
        if len(w) == len(pattern)
        for i, piece in enumerate(pieces)
    )


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_query_equals_oracle(data):
    sigma = data.draw(st.sampled_from((4, 26)))
    alpha = bytes(range(97, 97 + sigma))
    words = data.draw(
        st.lists(st.binary(min_size=1, max_size=30).map(
            lambda w: bytes(alpha[b % sigma] for b in w)), min_size=1, max_size=80)
    )
    k = data.draw(st.sampled_from((1, 2, 3)))
    subs = data.draw(st.sampled_from((None, SUBS)))
    d = Dictionary(words)
    idx = build_index(d, k, substitutions=subs)
    pattern = data.draw(st.binary(min_size=1, max_size=32).map(
        lambda w: bytes(alpha[b % sigma] for b in w)))
    assert idx.query(pattern) == oracle_query(d, pattern, k)
    report = run_bench(idx, QuerySet((pattern,), "drawn"))
    assert report.verifications == expected_verifications(d, pattern, k)


def test_length_filter_never_drops_matches():
    # Every oracle match must survive the index's length filtering; covered
    # by equivalence, asserted here on a length-diverse dictionary.
    rng = random.Random(9)
    words = [bytes(rng.choices(b"ab", k=n)) for n in range(1, 30) for _ in range(6)]
    d = Dictionary(words)
    for k in (1, 2):
        idx = build_index(d, k)
        for w in d.words:
            assert w in idx.query(w)


def test_any_indexed_word_is_its_own_match():
    rng = random.Random(10)
    d = Dictionary(random_words(rng, 300, 4))
    for k in (1, 2, 3):
        idx = build_index(d, k)
        for w in list(d.words)[::7]:
            assert w in idx.query(w)


def test_arbitrary_byte_values_survive_the_layout():
    # 0x00 only terminates a list at entry boundaries; payload bytes are free.
    rng = random.Random(12)
    words = [bytes(rng.choices(range(256), k=rng.randint(1, 20))) for _ in range(300)]
    d = Dictionary(words)
    for k in (1, 2):
        idx = build_index(d, k)
        for w in list(d.words)[::5]:
            assert w in idx.query(w)
        for _ in range(100):
            p = bytes(rng.choices(range(256), k=rng.randint(1, 22)))
            assert idx.query(p) == oracle_query(d, p, k)


def test_concurrent_readers_match_sequential():
    rng = random.Random(11)
    d = Dictionary(random_words(rng, 800, 8))
    idx = build_index(d, 1)
    patterns = [bytes(rng.choices(b"abcdefgh", k=rng.randint(1, 30))) for _ in range(600)]
    sequential = [idx.query(p) for p in patterns]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(idx.query, patterns))
    assert concurrent == sequential
