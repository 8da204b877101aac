"""Index construction and search against the brute-force scan."""

import gc
import hashlib
import random
import tracemalloc
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import english_words, random_words

from splitindex import (
    HASH_FUNCTIONS,
    BuildError,
    ChainedHashTable,
    ConfigError,
    Dictionary,
    HashConfig,
    QuerySet,
    SplitIndex,
    SubstitutionList,
    build_index,
    oracle_query,
    piece_lengths,
    run_bench,
    split_word,
)
from splitindex import core, hashing
from splitindex.core import PAYLOAD_LIMIT, ListStats
from splitindex.hashing import ARENA_LIMIT, BucketStats, _length_bytes, _read_length
from splitindex.storage import index_from_bytes, index_to_bytes

# MATRIX_RUN values that send every run to one kernel: 1 to the matrix,
# ARENA_LIMIT, more entries than an arena holds, to the bytes.find passes.
BOTH_KERNELS = (1, ARENA_LIMIT)


def entries(blob, k):
    """Parse a list blob into ([byte lengths of regions 1..k], [payloads])."""
    sizes = []
    o = 0
    for _ in range(k):
        n, o = _read_length(blob, o, len(blob), b"")
        sizes.append(n)
    out = []
    while o < len(blob):
        out.append(blob[o + 1 : o + 1 + blob[o]])
        o += blob[o] + 1
    return sizes, out


def regions(blob, k):
    """The payloads of each of a list's k + 1 regions."""
    sizes, payloads = entries(blob, k)
    out = [[] for _ in range(k + 1)]
    r = 0
    left = sizes + [len(blob)]  # the last region runs to the list's end
    for e in payloads:
        while left[r] <= 0:
            r += 1
        out[r].append(e)
        left[r] -= 1 + len(e)
    return out


def test_list_layout_for_three_words():
    d = Dictionary([b"table", b"left", b"tablet"])
    idx = build_index(d, 1)
    blob = idx.lists[idx.table.lookup_list(b"tab")]
    assert regions(blob, 1) == [[b"le", b"let"], []]  # only missing suffixes
    assert entries(blob, 1) == ([7], [b"le", b"let"])
    blob = idx.lists[idx.table.lookup_list(b"le")]
    assert entries(blob, 1) == ([3], [b"ft", b"tab"])  # one suffix entry, then the prefixes
    blob = idx.lists[idx.table.lookup_list(b"ft")]
    assert entries(blob, 1) == ([0], [b"le"])


def test_k2_layout_with_an_empty_middle_region():
    # b"ab" is the first piece of one word and the last of another, never
    # the middle one: region 2 is empty and its length is 0.
    d = Dictionary([b"abcdef", b"ghijab"])
    idx = build_index(d, 2)
    blob = idx.lists[idx.table.lookup_list(b"ab")]
    assert blob == b"\x05\x00" + b"\x04cdef" + b"\x04ghij"
    assert regions(blob, 2) == [[b"cdef"], [], [b"ghij"]]
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
    assert idx.table.bucket_stats().key_count == 0
    assert idx.side_table == {}
    assert idx.query(b"anything") == []


def test_short_words_go_to_side_table():
    d = Dictionary([b"aa", b"ab", b"ba"])
    idx = build_index(d, 2)
    assert idx.table.bucket_stats().key_count == 0
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


def test_oversized_missing_piece_names_the_first_such_word():
    # Words of one length are built together, but the error still names the
    # first oversized word in dictionary order, here the longer one.
    longer, shorter = b"L" * 600, b"S" * 520
    with pytest.raises(BuildError, match="b'LLLL"):
        build_index(Dictionary([b"fine", longer, b"also fine", shorter]), 1)
    with pytest.raises(BuildError, match="b'SSSS"):
        build_index(Dictionary([shorter, longer]), 1)


def test_key_over_255_bytes_is_a_build_error():
    # The 256-byte first piece of this word is too long a key, and also the
    # payload stored under its second piece, which is what the error names:
    # a piece over 255 bytes is part of the payload of every other piece.
    assert piece_lengths(511, 1) == (256, 255)
    with pytest.raises(BuildError, match="missing pieces exceed 255 bytes for word b'xxxx"):
        build_index(Dictionary([b"x" * 511]), 1)


def test_one_long_word_barely_moves_the_build_peak():
    # Entries are built per word length, never padded to the longest word,
    # so one 400-byte word adds under 10% to the build's peak memory.
    words = english_words(200_000, seed=3)

    def peak(d):
        gc.collect()
        tracemalloc.start()
        try:
            build_index(d, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    long_word = bytes(random.Random(4).choices(b"abcdefghijklmnopqrstuvwxyz", k=400))
    assert peak(Dictionary(words + [long_word])) < 1.1 * peak(Dictionary(words))


def test_list_of_65536_entries_builds_and_answers():
    # 65536 distinct prefixes all sharing the last piece: b"zz" for k = 1,
    # b"z" for k = 2 (a 5-byte word splits 3 + 2, or 2 + 2 + 1).  A list has
    # no entry limit: its regions are bounded by byte lengths.
    words = [bytes((a, b, c)) + b"zz" for a in range(64, 104) for b in range(64, 104) for c in range(64, 105)]
    d = Dictionary(words[: 0xFFFF + 1])
    rng = random.Random(16)
    patterns = rng.sample(d.words, 10) + [b"@@@zz", b"ABCzq", b"ABCqz", b"xyzzz", b"@@@@@"]
    for k, key in ((1, b"zz"), (2, b"z")):
        idx = build_index(d, k)
        assert len(regions(idx.lists[idx.table.lookup_list(key)], k)[k]) == 0xFFFF + 1
        assert idx.list_stats().max_entries == 0xFFFF + 1
        for p in patterns:
            assert idx.query(p) == oracle_query(d, p, k), (k, p)


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
    # The index depends on the set of words, not on their order.
    rng = random.Random(7)
    words = random_words(rng, 600, 26)
    shuffled = rng.sample(words, len(words))
    for k, fid, subs in product((1, 2), ("crc32", "fnv1"), (None, GOLDEN_SUBS)):
        config = HashConfig(function_id=fid)
        a = index_to_bytes(build_index(Dictionary(words), k, hash_config=config, substitutions=subs))
        b = index_to_bytes(build_index(Dictionary(shuffled), k, hash_config=config, substitutions=subs))
        assert a == b, (k, fid, subs is not None)


# SHA-256 digests for the dictionary below, per hash id, with and without
# GOLDEN_SUBS: of index_to_bytes, of the list blobs joined in the order their
# keys are first seen, and of the joined bucket blobs.  Any change to the file
# layout changes the first; the other two pin the list and bucket layout on
# their own, so a change to the file format alone leaves them as they are.
# The hash id moves buckets, never lists.
GOLDEN_DIGESTS = {
    ("xxhash", 1, False): (
        "d483c6b767b265d962aa53d22eb6fc4068a9a0b9a6b548124741457f2975c0ee",
        "bbd21120fbb015452f56f51e0805a0a41e9d84e5efec137da4f57981ede53ea7",
        "6bf78c5397f50b0549efabb21fdcb5c680a244fba684fe8434ff199821d8a372",
    ),
    ("xxhash", 1, True): (
        "5079babf434d295e829882753c32e49f433171b45597fd143cbbdf0548b9c01e",
        "0e5f998933921c5b16afca3f3e75d92d820dac2acad0c4ba8f1384815b3234d9",
        "44fc148a323a949abde97862898846b1a31e3ad9a85285e8b1acf2852d7b9e90",
    ),
    ("xxhash", 2, False): (
        "6e1304eb5c4b11bc6cfd063dedd14e0605662b9be048fe8315e26f83c20d21a0",
        "8ab7c813fbca36add301124d9799600822ebb2b5d9d5788e657b3892cf36dfa9",
        "3341814905ca176ee024e5ae413b80283910bc8cc11664d18edf33e3b2d0f2c0",
    ),
    ("xxhash", 2, True): (
        "34bb548950727f063deb8ae3d753b894fc103600e677956570a022cccda6eb53",
        "77da74b008eea9d12e0c9a5e62ef02a75730a664c6c4defbee7cee336821e1d7",
        "3dac49e1d8b69ccffec4e8dfbcb06c9d601b2bcac66b046bda1e75035e637f33",
    ),
    ("xxhash", 3, False): (
        "29b375923e32bd6d32747905c6f0a0690639ee930ce54bb4ea54115c558e7b27",
        "631cb43be8b665e8e4bc5666a3854b66d11da9794c896a4b00b6a573e4ccab13",
        "fe653eae75098d4e1035303fd136c20305d870c90a738de9934ce04b1d636f6c",
    ),
    ("xxhash", 3, True): (
        "5ed70bfdd944759fd0f30f8c010857e4c3370b3b731acaa6dd6e03219f58024c",
        "8f8d96f1556496a1bf87bd8b308daba96a6a1d745281ffed8bc5b74b6a01c30b",
        "c5927cde74cb126e187668073283a344f8bbafc261269aeb5ff8aeca855de066",
    ),
    ("crc32", 1, False): (
        "374c75609fff0faa7f3339a80bb32f6891f52094b4bda5abc820ddf5b98faffb",
        "bbd21120fbb015452f56f51e0805a0a41e9d84e5efec137da4f57981ede53ea7",
        "a3ed5a0572182d4a1d36f246a1756527f711d551239b1da3b9c8ca49943181f4",
    ),
    ("crc32", 1, True): (
        "950c0bcdcb819c4858bdb2b3422c8d7b1b024bef1da1ad9c90dfe48691f63827",
        "0e5f998933921c5b16afca3f3e75d92d820dac2acad0c4ba8f1384815b3234d9",
        "8d1d513ed86fd08d931d177539f96a4a472897c48ba852331fa5a0e5ae0acdc2",
    ),
    ("crc32", 2, False): (
        "ed2eb0b56184c08e308a05ec80652968728b217642adb1df1542bb75cea002d3",
        "8ab7c813fbca36add301124d9799600822ebb2b5d9d5788e657b3892cf36dfa9",
        "0943fc177fa64406c768329c82c49e5c6cd160650bc629a5bc006055fc0adcb9",
    ),
    ("crc32", 2, True): (
        "7d3e740644b801d8b1d702fdfe2c148140255c78fdf38a20848cc470d116da92",
        "77da74b008eea9d12e0c9a5e62ef02a75730a664c6c4defbee7cee336821e1d7",
        "0e37ef236047cee40b2d37ceeb7f668f92a6f1cc3d736c0ed1414322d913f499",
    ),
    ("crc32", 3, False): (
        "b9d7a9d0e2741fa2e41941fb8ca27f53020e50b52cc29e8424d29e073a0a0736",
        "631cb43be8b665e8e4bc5666a3854b66d11da9794c896a4b00b6a573e4ccab13",
        "fbe0b0fdff4dd4f6698c077bb1d99fa7fbd23108f3e811e7d14b55c5d942bcee",
    ),
    ("crc32", 3, True): (
        "47fd375938363f44de9a689009f28dfc6d972473a7f87b1c74dbe9961a2fccbe",
        "8f8d96f1556496a1bf87bd8b308daba96a6a1d745281ffed8bc5b74b6a01c30b",
        "cbad726efb2076b505a92446b86fbaa525ff43e7912ec2e4d20641dbad696b60",
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
        parts = (index_to_bytes(idx), lists, idx.table.data)
        assert tuple(hashlib.sha256(p).hexdigest() for p in parts) == digests, (fid, k, coded)


# Digests as in GOLDEN_DIGESTS for edge_words(k), without coding, and for its
# ASCII translation with EDGE_SUBS, whose code 0xFF is the byte encode_many
# joins payloads with, so that coding goes word by word.
EDGE_DIGESTS = {
    ("crc32", 1, False): (
        "2e5a11471e889bac52d9206ec3a10a0bc07fabe5f65a6a518a3831f113ee05d0",
        "04abe669b7254c1ef5af63e1b6a10c5dad24cae56f0c9dd791a2f387c3acb401",
        "77f3e473b90b583074eda0145f75b32078f4d510a501d523a086363f40770193",
    ),
    ("crc32", 2, False): (
        "00a6d0b524029dfd3135d14baa5dad522ef0d7ec54a15b038496ad3b7f0578ad",
        "0378af9d11367d91ac7b67c1e29749f3697f734253c7bb3660f9ab3a47c49238",
        "c7cb71d08c7b8214a2b2f198208e70710a1177db1db8856a9810825e0726374d",
    ),
    ("crc32", 3, False): (
        "778ecee00547ef6846effccd4e26fae48573c9aae806915c8c34d1ed49377513",
        "9de121da2ea6d7f54c236bb0a84affb61ffd34defdc260ebb8f50d7621b390ae",
        "a9f9111ce4e452e951b2e506099817a506d270bff95fcc425fe8ef62876c7c6e",
    ),
    ("fnv1", 1, False): (
        "d56fe70d22d3c511512cb8a88a0c292b21c29a1c36a99157c6752a004e08c25a",
        "04abe669b7254c1ef5af63e1b6a10c5dad24cae56f0c9dd791a2f387c3acb401",
        "26df3f85b6ab091da346b6f1dd670ceebaebee3cff39fe34acccf9469752af66",
    ),
    ("fnv1", 2, False): (
        "eb4c9b43fa9f067a54a16db372c2b32178b86de633c8eb404ac4337d561d1d92",
        "0378af9d11367d91ac7b67c1e29749f3697f734253c7bb3660f9ab3a47c49238",
        "2ba6772080186ec3bf16a52131981cd985bcb4b6814956d3a20708e931090c44",
    ),
    ("fnv1", 3, False): (
        "4eb64b7f07b59b8b0a5fa56ac360096c113c65f61670cebbbb895dbec2e529ea",
        "9de121da2ea6d7f54c236bb0a84affb61ffd34defdc260ebb8f50d7621b390ae",
        "e9ffa88906becf454a1f5e081157097329cd0d6695047574664ab50ffed9f7f8",
    ),
    ("crc32", 2, True): (
        "85ec51be3887d33f5a9a24d7e56e42d843a63888d254db3521392e4d115b52ff",
        "7bb57ec09573d6776db69a649c7d253658d919959f0a591cb76ab5f95fa5c96a",
        "179296ea622d575fe6c9e41066ab415abc92426feb668a53a4510a43d29962ae",
    ),
}
EDGE_SUBS = SubstitutionList([(b"ing", 0xFF), (b"er", 0x80), (b"gi", 0x81)])
EDGE_SYMBOLS = b"\x00\x7f\x80\xffa"
EDGE_ASCII = bytes.maketrans(EDGE_SYMBOLS, b"inger")


def edge_words(k):
    """Words over the bytes 0x00, 0x7F, 0x80, 0xFF and b"a".

    Short random words give side-table words and keys shared by words of
    different lengths at different positions; 2400 words sharing their first
    7 bytes give a list of over 16 kB, and 300 sharing their last 5 a second
    long region; one word has payloads of exactly 255 bytes at this k.
    """
    rng = random.Random(17)
    words = [bytes(rng.choices(EDGE_SYMBOLS, k=rng.randint(1, 12))) for _ in range(1500)]
    words += [EDGE_SYMBOLS + b"a\x00" + bytes(rng.choices(EDGE_SYMBOLS, k=7)) for _ in range(2400)]
    words += [bytes(rng.choices(EDGE_SYMBOLS, k=7)) + EDGE_SYMBOLS[::-1] for _ in range(300)]
    words.append(bytes(rng.choices(EDGE_SYMBOLS, k={1: 510, 2: 382, 3: 340}[k])))
    return words


def test_edge_layout_is_pinned():
    for (fid, k, coded), digests in EDGE_DIGESTS.items():
        words = edge_words(k)
        d = Dictionary([w.translate(EDGE_ASCII) for w in words] if coded else words)
        idx = build_index(d, k, hash_config=HashConfig(function_id=fid), substitutions=EDGE_SUBS if coded else None)
        keys = dict.fromkeys(piece for w in d.words if len(w) > k for piece in split_word(w, k))
        lists = b"".join(idx.lists[idx.table.lookup_list(key)] for key in keys)
        parts = (index_to_bytes(idx), lists, idx.table.data)
        assert tuple(hashlib.sha256(p).hexdigest() for p in parts) == digests, (fid, k, coded)
        # The edges are there: a list length of 3 LEB128 bytes, a region of
        # 128 bytes or more after the first, a 255-byte payload, a key whose
        # entries come from two word lengths in two regions, and side words.
        decode = idx.subs.decode if coded else bytes
        blobs = {key: idx.lists[begin:end] for _, key, begin, end in idx.table.records()}
        split = {key: regions(blob, k) for key, blob in blobs.items()}
        assert max(map(len, blobs.values())) >= 16384
        assert any(sum(1 + len(e) for e in by[r]) >= 128 for by in split.values() for r in range(1, k + 1))
        assert max(len(decode(e)) for by in split.values() for es in by for e in es) == 255
        mixed = [{(r, len(key) + len(decode(e))) for r, es in enumerate(by) for e in es} for key, by in split.items()]
        assert any(r != q and n != m for pairs in mixed for r, n in pairs for q, m in pairs)
        assert idx.side_table


def leb128(n):
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def reference_bytes(d, k, config, subs=None):
    """index_to_bytes of the split index of ``d``, built by entering each
    word's pieces one at a time and laying out the keys in (length, bytes)
    order: the oracle build_index must match."""
    staged = {}
    side = {}
    for word in d.words:
        if len(word) <= k:
            side.setdefault(len(word), []).append(word)
            continue
        start = 0
        for r, plen in enumerate(piece_lengths(len(word), k)):
            rest = word[:start] + word[start + plen :]
            staged.setdefault(word[start : start + plen], []).append((r, subs.encode(rest) if subs else rest))
            start += plen
    buckets = [b""] * hashing._bucket_count(len(staged), config.max_load_factor)
    for key, stored in sorted(staged.items(), key=lambda item: (len(item[0]), item[0])):
        stored.sort(key=lambda entry: (entry[0], len(entry[1]), entry[1]))
        by_region = [b"".join(bytes((len(e),)) + e for r, e in stored if r == j) for j in range(k + 1)]
        blob = b"".join(map(leb128, map(len, by_region[:k]))) + b"".join(by_region)
        buckets[HASH_FUNCTIONS[config.function_id](key) % len(buckets)] += bytes((len(key),)) + key + leb128(len(blob)) + blob
    table = ChainedHashTable(b"".join(buckets), array("I", accumulate(map(len, buckets), initial=0)), config)
    side = {n: tuple(sorted(group)) for n, group in side.items()}
    return index_to_bytes(SplitIndex(k, table, side, subs, d.stats()))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_build_matches_the_reference_builder(data):
    # Arbitrary bytes, or a few symbols so that keys repeat across word
    # lengths and positions; coded words are ASCII, as coding requires.  The
    # zero byte in coded payloads meets the zero padding of the build's rows.
    subs = data.draw(st.sampled_from((None, GOLDEN_SUBS)))
    alphas = (b"ab", b"tioneqrsg", b"\x00\x7fing") + (() if subs else (None, b"\x00\x7f\x80\xff"))
    alpha = data.draw(st.sampled_from(alphas))
    words = data.draw(st.lists(st.binary(min_size=1, max_size=60), max_size=60))
    if alpha:
        words = [bytes(alpha[b % len(alpha)] for b in w) for w in words]
    k = data.draw(st.integers(1, 8))
    config = HashConfig(data.draw(st.sampled_from(("crc32", "fnv1", "xxhash"))), data.draw(st.sampled_from((0.25, 2.0))))
    d = Dictionary(words)
    assert index_to_bytes(build_index(d, k, hash_config=config, substitutions=subs)) == reference_bytes(d, k, config, subs)


# list_stats() and bucket_stats() of the GOLDEN dictionary at k = 1 and 2,
# without coding, as format version 3 gave them: storing the lists inside the
# bucket records (version 4) and bounding regions by byte lengths (version 5)
# move no entry and no key.
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
            sizes, payloads = entries(blob, k)
            head = int(_length_bytes(np.array(sizes))[1].sum())
            assert type(blob) is bytes and len(blob) == head + sum(1 + len(e) for e in payloads)
            assert b"".join(pieces[:r] + pieces[r + 1 :]) in regions(blob, k)[r]
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
                for r, payloads in enumerate(regions(idx.lists[ref], k)):
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
    k = data.draw(st.integers(1, 8))
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
    by_region = regions(blob, k)
    runs = [[len(e) for e in by_region[r]].count(n - len(key)) for r, lengths in enumerate(chosen) for n in lengths]
    assert min(runs) > 16
    short = regions(idx.lists[idx.table.lookup_list(b"e")], k)
    assert min(len(short[0]), len(short[k])) > 16

    patterns = set()
    # Every window of the list as the missing part, aligned or not.
    for r, lengths in enumerate(chosen):
        for n in lengths:
            need = n - len(key)
            patterns.update(with_key(blob[j : j + need], r) for j in range(k, len(blob) - need + 1))
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
    # Without patching, a run of at least MATRIX_RUN entries goes through the
    # matrix kernel at every k, which reads the bucket arena through a view.
    # b"key" is the first piece of words of 3 * (k + 1) bytes, so their rest
    # is 3 * k bytes; 3 bytes take a wider alphabet to make 2 * MATRIX_RUN.
    for k, alphabet in ((1, b"abcdefgh"), (2, b"abcd")):
        _run_of_the_shipped_threshold_matches_the_oracle(k, alphabet)


def _run_of_the_shipped_threshold_matches_the_oracle(k, alphabet):
    rng = random.Random(19 + k)
    need = 3 * k
    drawn = set()
    while len(drawn) < 2 * core.MATRIX_RUN:
        drawn.add(bytes(rng.choices(alphabet, k=need)))
    words = sorted(b"key" + e for e in drawn)
    words += [b"kez" + e for e in sorted(drawn)[:10]]  # keyed elsewhere, one byte off the key
    d = Dictionary(words)
    built = build_index(d, k)
    for idx in (built, index_from_bytes(index_to_bytes(built))):
        assert np.shares_memory(idx._view, np.frombuffer(idx.lists, dtype=np.uint8))
        payloads = regions(idx.lists[idx.table.lookup_list(b"key")], k)[0]
        assert [len(e) for e in payloads].count(need) >= core.MATRIX_RUN

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
            assert idx.query(p) == oracle_query(d, p, k), (k, p)
        report = run_bench(idx, QuerySet(patterns, "one long run"))
        assert report.verifications == sum(expected_verifications(d, p, k) for p in patterns)


def test_matrix_sums_rows_of_255_mismatches_without_wrapping():
    # The matrix counts a row's mismatches in uint8.  Here every payload has
    # PAYLOAD_LIMIT bytes, so a row is its length byte, which always matches,
    # and 255 payload bytes that may all differ from the pattern's rest.
    rng = random.Random(23)
    for k in (1, 2):
        n = next(n for n in range(k + 1, 800) if n - piece_lengths(n, k)[0] == PAYLOAD_LIMIT)
        key = b"k" * piece_lengths(n, k)[0]
        drawn = set()
        while len(drawn) < core.MATRIX_RUN + 6:
            drawn.add(bytes(rng.choices(b"ab", k=PAYLOAD_LIMIT)))
        d = Dictionary(sorted(key + e for e in drawn))
        idx = build_index(d, k)
        payloads = regions(idx.lists[idx.table.lookup_list(key)], k)[0]
        assert [len(e) for e in payloads].count(PAYLOAD_LIMIT) >= core.MATRIX_RUN
        near = bytearray(d.words[5])
        for i in rng.sample(range(len(key), n), k):
            near[i] = ord("c")
        for p, want in ((key + b"c" * PAYLOAD_LIMIT, []), (bytes(near), [d.words[5]])):
            assert idx.query(p) == want == oracle_query(d, p, k), k


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
    # Only entry lengths must be at least 1; payload bytes are free.
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
