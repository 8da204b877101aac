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
    HashConfig,
    QuerySet,
    SubstitutionList,
    build_index,
    oracle_query,
    piece_lengths,
    run_bench,
    split_word,
)
from splitindex.core import LIST_ENTRY_LIMIT
from splitindex.storage import index_to_bytes


def entries(blob, k):
    """Parse a list blob into ([k region markers], [payloads])."""
    markers = [blob[2 * j] | blob[2 * j + 1] << 8 for j in range(k)]
    out = []
    o = 2 * k
    while blob[o]:
        out.append(blob[o + 1 : o + 1 + blob[o]])
        o += blob[o] + 1
    return markers, out


def regions(markers, payloads):
    """The payloads of each of a list's k + 1 regions; a 0 marker is an empty region."""
    starts = [1] + markers
    out = []
    for j, first in enumerate(starts):
        stop = next((m for m in starts[j + 1 :] if m), len(payloads) + 1)
        out.append(payloads[first - 1 : stop - 1] if first else [])
    return out


def test_list_layout_for_three_words():
    d = Dictionary([b"table", b"left", b"tablet"])
    idx = build_index(d, 1)
    markers, payloads = entries(idx.lists[idx.table.lookup_list(b"tab")], 1)
    assert markers == [0]  # only missing suffixes
    assert set(payloads) == {b"le", b"let"}
    markers, payloads = entries(idx.lists[idx.table.lookup_list(b"le")], 1)
    assert markers == [2]  # one suffix entry, then the prefixes
    assert payloads == [b"ft", b"tab"]
    markers, payloads = entries(idx.lists[idx.table.lookup_list(b"ft")], 1)
    assert (markers, payloads) == ([1], [b"le"])


def test_k2_layout_with_an_empty_middle_region():
    # b"ab" is the first piece of one word and the last of another, never
    # the middle one: region 2 is empty and its marker is 0.
    d = Dictionary([b"abcdef", b"ghijab"])
    idx = build_index(d, 2)
    blob = idx.lists[idx.table.lookup_list(b"ab")]
    assert blob == b"\x00\x00\x02\x00" + b"\x04cdef" + b"\x04ghij" + b"\x00"
    assert regions(*entries(blob, 2)) == [[b"cdef"], [], [b"ghij"]]
    # A pattern keyed by b"ab" in the middle finds the empty region; reading
    # region 3 in its place would wrongly rebuild b"ghabij".
    assert idx.query(b"ghabij") == idx.query(b"ghabix") == []
    assert idx.query(b"abcdxf") == [b"abcdef"]
    assert idx.query(b"gxijab") == [b"ghijab"]


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
    # 65536 distinct prefixes all sharing the last piece: b"zz" for k = 1,
    # b"z" for k = 2 (a 5-byte word splits 3 + 2, or 2 + 2 + 1).
    words = [bytes((a, b, c)) + b"zz" for a in range(64, 104) for b in range(64, 104) for c in range(64, 105)]
    words = words[: LIST_ENTRY_LIMIT + 1]
    assert len(words) == LIST_ENTRY_LIMIT + 1
    d = Dictionary(words)
    for k, key in ((1, b"zz"), (2, b"z")):
        with pytest.raises(BuildError) as err:
            build_index(d, k)
        assert repr(key) in str(err.value) and str(LIST_ENTRY_LIMIT + 1) in str(err.value)


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


# SHA-256 digests for the dictionary below, per hash id, with and without
# GOLDEN_SUBS: of index_to_bytes, of the joined list blobs and of the joined
# bucket blobs.  Any change to the file layout changes the first; the other two
# pin the list and bucket layout on their own, so a change to the file format
# alone leaves them as they are.  The hash id moves buckets, never lists.
GOLDEN_DIGESTS = {
    ("xxhash", 1, False): (
        "a5f6073847763f198ffbd5c0891b71347881ef14df99c75b9dc4992c288f3301",
        "0927345e8ad51dfa2bb1393aca744851fca56a748dbd12968eec1f6711fc018f",
        "e62727d5a44f91b11d40f1f45ac1df040f6f144121e8bdc14ce277b3b1b99f35",
    ),
    ("xxhash", 1, True): (
        "04a9c7c94faebe4b0e3e35717ccad12b540991322a4ac09414625048bd25ac05",
        "844747c929a2a3d8ebc33c4173844dd4e4b0bd3838a405fc1011383f0d0a151b",
        "e62727d5a44f91b11d40f1f45ac1df040f6f144121e8bdc14ce277b3b1b99f35",
    ),
    ("xxhash", 2, False): (
        "acc7a431532c4ae1e37a2c3d9efc5d89341357bb8eda4778b941f91821c1fe25",
        "377a154bfdc8e09ba125e2cc8f5c82f63feface80abb9dde2e0a0869d8ac4c37",
        "115c60ae4254bd777cfcf3173d00adf91c0a74b3d3662ca05bc71da7e97d3f0a",
    ),
    ("xxhash", 2, True): (
        "84cb8a7f6001176877cc1e3e1aec8074f4ff5ceb788d043fc65f46ca4ba98014",
        "deacc41caf72025ac92c265e39611460ab6f41d72575ee57e9d209eeae3cc488",
        "115c60ae4254bd777cfcf3173d00adf91c0a74b3d3662ca05bc71da7e97d3f0a",
    ),
    ("xxhash", 3, False): (
        "2ccc9590f357ac09c89bf7e00bcf04f352e466872697a79c0c60c5483d049fc1",
        "b05b56705f460a2ea598af4f60c7abf5abeea806672b2319ce2de9a805a17d42",
        "c8093048556d30cd3336da7db58cf6b6d6acdfe85bdc697c296cd177fe1cd550",
    ),
    ("xxhash", 3, True): (
        "57a557a266ca33c715274502c28cc889b4a8243ccfac286460be3571a207d1b7",
        "c865279ab3b20fe2c9242fa63dafff9035f1806869ac6700017909d53c54fa1d",
        "c8093048556d30cd3336da7db58cf6b6d6acdfe85bdc697c296cd177fe1cd550",
    ),
    ("crc32", 1, False): (
        "484776c241f6add8f7245333365ef7d419ee06f51b511920a02f9fc607e20db9",
        "0927345e8ad51dfa2bb1393aca744851fca56a748dbd12968eec1f6711fc018f",
        "0499971abb820c0620f17a569f27a37ffcc4e3819b7ab1be2f39f19f9408b8fc",
    ),
    ("crc32", 1, True): (
        "72a3149f98223057068c7552fd7c7b0d8e8ff3b84deed6c8208b240311463b94",
        "844747c929a2a3d8ebc33c4173844dd4e4b0bd3838a405fc1011383f0d0a151b",
        "0499971abb820c0620f17a569f27a37ffcc4e3819b7ab1be2f39f19f9408b8fc",
    ),
    ("crc32", 2, False): (
        "89072a1a56c3057f8129c92e3515322031b084b68010eae59abed3996b23ba1a",
        "377a154bfdc8e09ba125e2cc8f5c82f63feface80abb9dde2e0a0869d8ac4c37",
        "bc1083f6a1b07fc0561211ad84bfd21c60cb182f3521bf0524d4460be455a1f2",
    ),
    ("crc32", 2, True): (
        "cea306a978cbcf53d3cb92adbafab8d5168cc682e47bbcf60d21d6f7a3a9dfaa",
        "deacc41caf72025ac92c265e39611460ab6f41d72575ee57e9d209eeae3cc488",
        "bc1083f6a1b07fc0561211ad84bfd21c60cb182f3521bf0524d4460be455a1f2",
    ),
    ("crc32", 3, False): (
        "3517f505fccbb70339a8706da550001a4951ef04094270b0862ed0d52093c98c",
        "b05b56705f460a2ea598af4f60c7abf5abeea806672b2319ce2de9a805a17d42",
        "9c6489b2b3fa6001a75617ff284b292ffdf62f2185111a6098f8568e1226093b",
    ),
    ("crc32", 3, True): (
        "877bdc15cbc814197211b202f70fb74e5f09ed0dea079c783d88af6979eca112",
        "c865279ab3b20fe2c9242fa63dafff9035f1806869ac6700017909d53c54fa1d",
        "9c6489b2b3fa6001a75617ff284b292ffdf62f2185111a6098f8568e1226093b",
    ),
}
GOLDEN_SUBS = SubstitutionList([(b"ing", 128), (b"er", 129), (b"st", 130), (b"tion", 131)])


def test_layout_is_pinned():
    d = Dictionary(english_words(6000, seed=5) + [b"a", b"ab", b"abc", b"x"])
    for (fid, k, coded), digests in GOLDEN_DIGESTS.items():
        idx = build_index(d, k, hash_config=HashConfig(function_id=fid),
                          substitutions=GOLDEN_SUBS if coded else None)
        parts = (index_to_bytes(idx), b"".join(idx.lists), b"".join(idx.table.buckets))
        assert tuple(hashlib.sha256(p).hexdigest() for p in parts) == digests, (fid, k, coded)


def test_duplicate_words_do_not_duplicate_entries():
    d = Dictionary([b"table", b"table", b"table"])
    assert d.word_count == 1
    idx = build_index(d, 1)
    assert idx.list_stats().entry_count == 2


def test_region_correctness_matches_full_scan():
    for k in (1, 2, 3):
        _region_correctness_matches_full_scan(k)


def _region_correctness_matches_full_scan(k):
    # Interpreting every entry through its own region and fully verifying the
    # rebuilt word must give the same answers as the region-pruned search.
    rng = random.Random(8 + k)
    for trial in range(30):
        d = Dictionary(random_words(rng, rng.randint(1, 200), rng.choice((4, 26)), max_len=16))
        idx = build_index(d, k)
        for _ in range(25):
            w = d.words[rng.randrange(d.word_count)]
            p = bytearray(w)
            for _ in range(rng.randint(0, k + 1)):
                p[rng.randrange(len(p))] = rng.choice(b"abcdefghijklmnopqrstuvwxyz")
            p = bytes(p)
            if len(p) <= k:
                continue
            full = set()
            for key in set(split_word(p, k)):
                ref = idx.table.lookup_list(key)
                if ref is None:
                    continue
                for r, payloads in enumerate(regions(*entries(idx.lists[ref], k))):
                    for e in payloads:
                        cut = sum(piece_lengths(len(key) + len(e), k)[:r])
                        word = e[:cut] + key + e[cut:]
                        if len(word) == len(p) and sum(x != y for x, y in zip(word, p)) <= k:
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


def test_long_runs_match_the_oracle():
    for k in (1, 2, 3):
        _long_runs_match_the_oracle(k)


def _long_runs_match_the_oracle(k):
    # The list of b"key" holds runs of over 16 entries in every region, of
    # two lengths each.  Where a region's longer length is also valid in the
    # next region, that region starts with it, so the two runs share one
    # length and stride and only the region bound tells them apart (regions
    # 1 and 2 at every k).  Payloads over an alphabet holding the length bytes make the
    # sub-pieces occur at misaligned offsets, inside one entry or straddling
    # two.  The (k + 1)-byte words keyed by b"e" in their first or last piece
    # leave a missing part of k bytes (need <= k) on either side.
    rng = random.Random(15 + k)
    key = b"key"
    valid = [[n for n in range(len(key) + k, 40) if piece_lengths(n, k)[r] == len(key)] for r in range(k + 1)]
    chosen = []
    for r, lengths in enumerate(valid):
        prev = chosen[-1][-1] if chosen else None
        chosen.append([prev] + [n for n in lengths if n > prev][:1] if prev in lengths else lengths[:2])
    assert chosen[1][0] == chosen[0][-1]
    alpha = b"ab" + bytes(sorted({n - len(key) for lengths in chosen for n in lengths}))

    def with_key(payload, r, piece=key):
        cut = sum(piece_lengths(len(payload) + len(piece), k)[:r])
        return payload[:cut] + piece + payload[cut:]

    def payloads(symbols, n, count=20):
        """``count`` distinct random payloads of ``n`` symbols, sorted."""
        drawn = set()
        while len(drawn) < count:
            drawn.add(bytes(rng.choices(symbols, k=n)))
        return sorted(drawn)

    words = [with_key(e, r) for r, lengths in enumerate(chosen) for n in lengths for e in payloads(alpha, n - len(key))]
    words += [with_key(e, r, b"e") for r in (0, k) for e in payloads(b"abcdefghijklmnopqrst", k)]
    d = Dictionary(words)
    idx = build_index(d, k)
    blob = idx.lists[idx.table.lookup_list(key)]
    markers, payloads = entries(blob, k)
    by_region = regions(markers, payloads)
    runs = [[len(e) for e in by_region[r]].count(n - len(key)) for r, lengths in enumerate(chosen) for n in lengths]
    assert min(runs) > 16
    short = regions(*entries(idx.lists[idx.table.lookup_list(b"e")], k))
    assert min(len(short[0]), len(short[k])) > 16

    patterns = set()
    # Every window of the list as the missing part, aligned or not.
    for r, lengths in enumerate(chosen):
        for n in lengths:
            need = n - len(key)
            patterns.update(with_key(blob[j : j + need], r) for j in range(2 * k, len(blob) - need))
    # Stored words with no mismatch and with 1..k+1 mismatches; the short
    # words also with their first or last byte replaced.
    for w in d.words:
        patterns.add(w)
        for m in range(1, k + 2):
            p = bytearray(w)
            for i in rng.sample(range(len(w)), min(m, len(w))):
                p[i] ^= 1
            patterns.add(bytes(p))
        if len(w) == k + 1:
            patterns.update(w[:-1] + bytes([c]) for c in b"az\x01")
            patterns.update(bytes([c]) + w[1:] for c in b"az\x01")

    patterns = tuple(sorted(patterns))
    for p in patterns:
        assert idx.query(p) == oracle_query(d, p, k), p
    report = run_bench(idx, QuerySet(patterns, "long runs"))
    assert report.verifications == sum(expected_verifications(d, p, k) for p in patterns)


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
