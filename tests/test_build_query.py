"""Index construction and search against the brute-force scan."""

import hashlib
import random
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import patch

import numpy as np
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
from splitindex import core
from splitindex.core import LIST_ENTRY_LIMIT, ListStats
from splitindex.hashing import BucketStats
from splitindex.storage import index_from_bytes, index_to_bytes

# MATRIX_RUN values that send every run at k >= 2 to one kernel: 1 to the
# matrix, LIST_ENTRY_LIMIT + 1 to the bytes.find passes.
BOTH_KERNELS = (1, LIST_ENTRY_LIMIT + 1)


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
# GOLDEN_SUBS: of index_to_bytes, of the list blobs joined in the order their
# keys are first seen, and of the joined bucket blobs.  Any change to the file
# layout changes the first; the other two pin the list and bucket layout on
# their own, so a change to the file format alone leaves them as they are.
# The hash id moves buckets, never lists.
GOLDEN_DIGESTS = {
    ("xxhash", 1, False): (
        "a08c251f1b38eda86ed46cf555629079fd73533d8cbd7fe225989cd592a8b4a0",
        "0927345e8ad51dfa2bb1393aca744851fca56a748dbd12968eec1f6711fc018f",
        "5036b9ad65517290bf91fc81f028864d40e1807e33a6a292995a874f22903f92",
    ),
    ("xxhash", 1, True): (
        "4f26f407f717846de52a593080e7725521ee0f343d86f438e15d76ab9807e4aa",
        "844747c929a2a3d8ebc33c4173844dd4e4b0bd3838a405fc1011383f0d0a151b",
        "c348c0893f2aa633bf33b3a3f4fa0d0af16ac35800e19a80cefd81ded3c44c85",
    ),
    ("xxhash", 2, False): (
        "28dbfc3d5e6ce8a4f85d6720e339f6539ace19276198cdf4b404b5e5052d12d8",
        "377a154bfdc8e09ba125e2cc8f5c82f63feface80abb9dde2e0a0869d8ac4c37",
        "cf1cd4623b3fc55fdc01fccd8389786f7bbda7e149f47ca0fbf2ab780a8cc1c6",
    ),
    ("xxhash", 2, True): (
        "1b745d6f8ffa083ff7e7d1e56a94fec8a28df9740903c92be13673057b593253",
        "deacc41caf72025ac92c265e39611460ab6f41d72575ee57e9d209eeae3cc488",
        "e258f39b49a2e6eb9e2d405cb73da976bcdd5576f25901e2ec79bbe131ee16d4",
    ),
    ("xxhash", 3, False): (
        "88d5d03c35edb4f11630a50ae36c82bcbc47184b490bab60b6e2d8dbc56120d0",
        "b05b56705f460a2ea598af4f60c7abf5abeea806672b2319ce2de9a805a17d42",
        "2248a24ed859ac2cfef8dbb06dc807809c41d3050daa9335d9a87204849934c4",
    ),
    ("xxhash", 3, True): (
        "9fd04ced301c7a2a06e477ff474ae60307a40f26d8edd227286a22fbdd529e0f",
        "c865279ab3b20fe2c9242fa63dafff9035f1806869ac6700017909d53c54fa1d",
        "456d7e783ff3086d00fb0face9f6a492b2850759261a2463f28c970050904103",
    ),
    ("crc32", 1, False): (
        "60303e8855bf0eb7afe0f35a25095958dad02b60b5cfb65da1d6c7246aa67545",
        "0927345e8ad51dfa2bb1393aca744851fca56a748dbd12968eec1f6711fc018f",
        "3688c1c8af232619044fe0d9d64eeaa6d19a85288cf6d40432e0d7bfa2aaeb43",
    ),
    ("crc32", 1, True): (
        "918d9fb0376ce44700b876abd612ddc2fa185ff1c364810c0f283de76081f8f3",
        "844747c929a2a3d8ebc33c4173844dd4e4b0bd3838a405fc1011383f0d0a151b",
        "9153c780c095ed00c06bbb8f59cfa7dc0eff90b40f5f942055ff5e2db293a8ae",
    ),
    ("crc32", 2, False): (
        "56d9f2a2ed48bfed112d31c0a6c76cc8196886ff8af365cdad2d0b960d1e5c97",
        "377a154bfdc8e09ba125e2cc8f5c82f63feface80abb9dde2e0a0869d8ac4c37",
        "25a6f6c6cba4357cdf794267921fcaa04a8bf4525a0a84894eec0ce2d7921b28",
    ),
    ("crc32", 2, True): (
        "c6d8650c6178f80a90ba7f86a0cbdbb5a0c88657141c231ab76db4bddbec9618",
        "deacc41caf72025ac92c265e39611460ab6f41d72575ee57e9d209eeae3cc488",
        "fc4e82d926f354d242aa70e9c3431ba4e82a0adeb6a6222de01ddf3d1b9ed2da",
    ),
    ("crc32", 3, False): (
        "a3c2fbbd10fa612caac776e89f40e9aacfbb073c65c0c626c5d1515f07c30767",
        "b05b56705f460a2ea598af4f60c7abf5abeea806672b2319ce2de9a805a17d42",
        "de1575128d2592d9c914797906b78939fef80fcb61222404576fe93e73a108fc",
    ),
    ("crc32", 3, True): (
        "261008c914423ad41982b119a957cc7609a367fc045e1df325153199932d527a",
        "c865279ab3b20fe2c9242fa63dafff9035f1806869ac6700017909d53c54fa1d",
        "eecd20d4293409dc9d259f2a4e64da018b62b0aa891547eb8d7d5e8860d9fa81",
    ),
}
GOLDEN_SUBS = SubstitutionList([(b"ing", 128), (b"er", 129), (b"st", 130), (b"tion", 131)])


def test_layout_is_pinned():
    d = Dictionary(english_words(6000, seed=5) + [b"a", b"ab", b"abc", b"x"])
    for (fid, k, coded), digests in GOLDEN_DIGESTS.items():
        idx = build_index(d, k, hash_config=HashConfig(function_id=fid),
                          substitutions=GOLDEN_SUBS if coded else None)
        # The lists in the order their keys are first seen, which format
        # version 3 stored them in.
        keys = dict.fromkeys(piece for w in d.words if len(w) > k for piece in split_word(w, k))
        lists = b"".join(idx.lists[idx.table.lookup_list(key)] for key in keys)
        parts = (index_to_bytes(idx), lists, b"".join(idx.table.buckets))
        assert tuple(hashlib.sha256(p).hexdigest() for p in parts) == digests, (fid, k, coded)


# list_stats() and bucket_stats() of the GOLDEN dictionary at k = 1 and 2,
# without coding, as format version 3 gave them: storing the lists inside the
# bucket records moves no list and no key.
GOLDEN_STATS = {
    1: (
        ListStats(list_count=1128, entry_count=1298, mean_entries=1298 / 1128, max_entries=8, payload_bytes=6007),
        BucketStats(bucket_count=1024, key_count=1128, load_factor=1128 / 1024, mean_chain=1128 / 1024,
                    max_chain=5, nonempty_buckets=697, nonempty_mean_chain=1128 / 697),
    ),
    2: (
        ListStats(list_count=1166, entry_count=1938, mean_entries=1938 / 1166, max_entries=20, payload_bytes=12002),
        BucketStats(bucket_count=1024, key_count=1166, load_factor=1166 / 1024, mean_chain=1166 / 1024,
                    max_chain=6, nonempty_buckets=678, nonempty_mean_chain=1166 / 678),
    ),
}


@pytest.mark.parametrize("k", [1, 2])
def test_lists_slice_by_lookup_list_and_stats_are_stable(k):
    # What the benchmark's traced pass reads: index.lists[lookup_list(piece)]
    # is that piece's list, as bytes, and a miss is None.
    d = Dictionary(english_words(6000, seed=5) + [b"a", b"ab", b"abc", b"x"])
    idx = build_index(d, k)
    for w in d.words[:300]:
        if len(w) <= k:
            continue
        pieces = split_word(w, k)
        for r, piece in enumerate(pieces):
            blob = idx.lists[idx.table.lookup_list(piece)]
            markers, payloads = entries(blob, k)
            assert type(blob) is bytes and len(blob) == 2 * k + sum(1 + len(e) for e in payloads) + 1
            assert b"".join(pieces[:r] + pieces[r + 1 :]) in regions(markers, payloads)[r]
    assert idx.table.lookup_list(b"\xff\xfe") is None
    assert (idx.list_stats(), idx.table.bucket_stats()) == GOLDEN_STATS[k]


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


# Grams over a..d, so coding rewrites payloads at either alphabet size drawn;
# ASCII_SUBS codes the same grams with ASCII bytes outside a..z.
SUBS = SubstitutionList([(b"ab", 128), (b"ca", 129), (b"bcd", 130), (b"aaaa", 131)])
ASCII_SUBS = SubstitutionList([(b"ab", ord("#")), (b"ca", ord("0")), (b"bcd", ord("Z")), (b"aaaa", ord("~"))])


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
    subs = data.draw(st.sampled_from((None, SUBS, ASCII_SUBS)))
    d = Dictionary(words)
    idx = build_index(d, k, substitutions=subs)
    pattern = data.draw(st.binary(min_size=1, max_size=32).map(
        lambda w: bytes(alpha[b % sigma] for b in w)))
    for matrix_run in BOTH_KERNELS:
        with patch.object(core, "MATRIX_RUN", matrix_run):
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
    expected = [oracle_query(d, p, k) for p in patterns]
    verifications = sum(expected_verifications(d, p, k) for p in patterns)
    for matrix_run in BOTH_KERNELS:
        with patch.object(core, "MATRIX_RUN", matrix_run):
            for p, want in zip(patterns, expected):
                assert idx.query(p) == want, (matrix_run, p)
            report = run_bench(idx, QuerySet(patterns, "long runs"))
        assert report.verifications == verifications, matrix_run


def test_run_of_the_shipped_threshold_matches_the_oracle():
    # Without patching, a k = 2 run of at least MATRIX_RUN entries goes
    # through the matrix kernel, which reads the bucket arena through a view.
    k = 2
    rng = random.Random(21)
    drawn = set()
    while len(drawn) < 2 * core.MATRIX_RUN:
        drawn.add(bytes(rng.choices(b"abcd", k=6)))
    words = sorted(b"key" + e for e in drawn)
    words += [b"kez" + e for e in sorted(drawn)[:10]]  # keyed elsewhere, one byte off the key
    d = Dictionary(words)
    built = build_index(d, k)
    for idx in (built, index_from_bytes(index_to_bytes(built))):
        assert np.shares_memory(idx._view, np.frombuffer(idx.lists, dtype=np.uint8))
        payloads = regions(*entries(idx.lists[idx.table.lookup_list(b"key")], k))[0]
        assert [len(e) for e in payloads].count(6) >= core.MATRIX_RUN

        patterns = set()
        for w in d.words:
            patterns.add(w)
            for m in (k, k + 1):  # in the key, the rest or both
                for _ in range(4):
                    p = bytearray(w)
                    for i in rng.sample(range(len(w)), m):
                        p[i] ^= rng.choice((1, 2, 3))
                    patterns.add(bytes(p))
        patterns = tuple(sorted(patterns))
        for p in patterns:
            assert idx.query(p) == oracle_query(d, p, k), p
        report = run_bench(idx, QuerySet(patterns, "one long run"))
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
    patterns = [bytes(rng.choices(b"abcdefgh", k=rng.randint(1, 30))) for _ in range(600)]
    # At k = 2 every run goes through the matrix kernel, so the threads share
    # reads of the arena's numpy view.
    for k, matrix_run in ((1, core.MATRIX_RUN), (2, 1)):
        idx = build_index(d, k)
        with patch.object(core, "MATRIX_RUN", matrix_run):
            sequential = [idx.query(p) for p in patterns]
            with ThreadPoolExecutor(max_workers=8) as pool:
                concurrent = list(pool.map(idx.query, patterns))
        assert concurrent == sequential, k
