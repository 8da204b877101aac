"""Index construction and search against the brute-force scan."""

import gc
import hashlib
import math
import random
import re
import tracemalloc
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import dna_fasta, english_words, random_words

from splitindex import (
    HASH_FUNCTIONS,
    BuildError,
    ChainedHashTable,
    CodecError,
    ConfigError,
    Dictionary,
    HashConfig,
    QuerySet,
    SplitIndex,
    SubstitutionList,
    build_index,
    extract_kmers,
    mine_substitutions,
    oracle_query,
    piece_lengths,
    run_bench,
    split_word,
)
from splitindex import core, hashing
from splitindex.core import PAYLOAD_LIMIT, ListStats
from splitindex.hashing import ARENA_LIMIT, BucketStats, _length_bytes, _read_length, _read_tag
from splitindex.storage import index_from_bytes, index_to_bytes

# MATRIX_RUN values that send every group of two or more entries to one
# kernel: 1 to the matrix, ARENA_LIMIT, more entries than an arena holds, to
# the big-integer xor.  A group of one entry is always compared directly.
# The tests that run both cover plain and coded groups, and groups whose
# entries are no longer than k (need <= k), where every entry matches.
BOTH_KERNELS = (1, ARENA_LIMIT)
# BULK_RUN values that send the matched words of every matrix group, and of
# every group whose entries all match (need <= k), to one builder: 1 to the
# numpy pass, ARENA_LIMIT to the word-by-word build.  Groups of fewer than
# MATRIX_RUN entries with need > k are always built word by word.
BOTH_BUILDERS = (1, ARENA_LIMIT)


def groups(blob, k):
    """Parse a list blob into ([byte lengths of regions 1..k], [[(L, group
    bytes), ...] of each of its k + 1 regions]), checking that the flag in a
    group's tag marks the region's last group, which has no byte length."""
    sizes = []
    o = 0
    for _ in range(k):
        n, o = _read_length(blob, o, len(blob), b"")
        sizes.append(n)
    out = []
    for size in sizes + [len(blob) - o - sum(sizes)]:  # the last region runs to the list's end
        end = o + size
        out.append([])
        while o < end:
            n, last, p = _read_tag(blob, o, end, b"")
            size, p = (end - p, p) if last else _read_length(blob, p, end, b"")
            out[-1].append((n, blob[p : p + size]))
            o = p + size
            assert last == (o == end), "the flag marks the region's last group"
    return sizes, out


def header_size(n, size, last):
    """Bytes of the header of a group of L = ``n`` and ``size`` bytes: its
    tag, one byte or an escape and L, then its byte length as LEB128 unless
    it is its region's last."""
    return (1 if n < 0x80 else 2) + (0 if last else len(leb128(size)))


def regions(blob, k, decode=bytes):
    """The decoded payloads of each of a list's k + 1 regions, in list order."""
    out = []
    for region in groups(blob, k)[1]:
        out.append([])
        for n, group in region:
            group = decode(group)
            out[-1] += [group[i : i + n] for i in range(0, len(group), n)]
    return out


def test_list_layout_for_three_words():
    d = Dictionary([b"table", b"left", b"tablet"])
    idx = build_index(d, 1)
    blob = idx.lists[idx.table.lookup_list(b"tab")]
    assert regions(blob, 1) == [[b"le", b"let"], []]  # only missing suffixes
    # A group per length, [L][B][payloads], but the region's last group is
    # [L | 0x80][payloads]: it runs to the region's end.
    assert blob == b"\x08" + b"\x02\x02le" + b"\x83let"
    assert groups(blob, 1) == ([8], [[(2, b"le"), (3, b"let")], []])
    blob = idx.lists[idx.table.lookup_list(b"le")]
    assert groups(blob, 1) == ([3], [[(2, b"ft")], [(3, b"tab")]])  # one suffix entry, then the prefixes
    blob = idx.lists[idx.table.lookup_list(b"ft")]
    assert groups(blob, 1) == ([0], [[], [(2, b"le")]])
    # Two words of one length under one key share a group, with no length
    # byte each.
    idx = build_index(Dictionary([b"table", b"tabby", b"tablet"]), 1)
    assert idx.lists[idx.table.lookup_list(b"tab")] == b"\x0a" + b"\x02\x04byle" + b"\x83let"


def test_k2_layout_with_an_empty_middle_region():
    # b"ab" is the first piece of one word and the last of another, never
    # the middle one: region 2 is empty and its length is 0.
    d = Dictionary([b"abcdef", b"ghijab"])
    idx = build_index(d, 2)
    blob = idx.lists[idx.table.lookup_list(b"ab")]
    assert blob == b"\x05\x00" + b"\x84cdef" + b"\x84ghij"
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


def test_dictionary_takes_only_non_empty_bytes():
    with pytest.raises(TypeError, match="got str"):
        Dictionary([b"ab", "cd"])
    with pytest.raises(ValueError, match="empty words"):
        Dictionary([b"ab", b""])


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


def test_coded_build_names_the_first_word_that_is_not_plain():
    # The words are checked before the batches, so the error names a word,
    # not a payload or a group of them, and the first such word in
    # dictionary order: b"ca#" is built in an earlier batch than b"tab#le".
    with pytest.raises(CodecError, match=re.escape(r"byte 233 in b'caf\xe9s' is not plain")):
        build_index(Dictionary([b"table", b"caf\xe9s", b"chair"]), 1, substitutions=SubstitutionList([(b"ab", 128)]))
    with pytest.raises(CodecError, match=re.escape("byte 35 in b'tab#le' is not plain")):
        build_index(Dictionary([b"table", b"tab#le", b"ca#"]), 1, substitutions=SubstitutionList([(b"ab", ord("#"))]))
    # Side-table words are stored as they are, never coded.
    idx = build_index(Dictionary([b"table", b"\xe9"]), 1, substitutions=SubstitutionList([(b"ab", 128)]))
    assert idx.query(b"\xe9") == [b"\xe9"] and idx.query(b"tabbe") == [b"table"]


def build_peak(d, k, subs=None):
    """The peak of the memory that tracemalloc sees while ``d`` is built."""
    gc.collect()
    tracemalloc.start()
    try:
        build_index(d, k, substitutions=subs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_long_word_barely_moves_the_build_peak():
    # Entries are built per word length, never padded to the longest word,
    # so one 400-byte word adds under 10% to the build's peak memory.
    words = english_words(200_000, seed=3)
    long_word = bytes(random.Random(4).choices(b"abcdefghijklmnopqrstuvwxyz", k=400))
    assert build_peak(Dictionary(words + [long_word]), 1) < 1.1 * build_peak(Dictionary(words), 1)


@pytest.mark.parametrize("k", [1, 2])
def test_coded_build_peaks_no_higher_than_the_plain_build(k):
    # A batch's groups are coded after its rows are dropped, so coding adds
    # nothing to the peak.  Coding every group in one call after the last
    # batch instead peaked above the plain build at k = 2 (6.85 against
    # 6.72 MB).
    d = Dictionary(english_words(200_000, seed=3))
    subs = mine_substitutions(d, "mixed", 100)
    assert build_peak(d, k, subs) <= build_peak(d, k)


# build_index's traced peak on the 200 kB corpus above, plain and coded with
# its mined mixed/100 rules, by (k, coded), under Python 3.11.7 and numpy
# 2.4.6, with one gather per key length, int32 gather arrays and a blocked
# final take: 6_135_523 to 6_135_582 and 5_557_980 to 5_559_160 at k = 1,
# 5_420_412 to 5_421_297 and 4_260_569 to 4_261_277 at k = 2.  A peak moves by a few kB with what the
# process ran before, so each bound is its peak rounded up by under 0.5%.
# With two gathers per key length and int64 gather arrays they read
# 7_337_388 and 6_842_355 at k = 1, 5_646_007 and 4_651_834 at k = 2; laying
# out every batch's lists after the last sort read 8_490_796 and 8_000_573 at
# k = 1, and 6_433_594 and 5_442_835 at k = 2; the code before format v7 read
# 8_892_584 and 8_402_028 at k = 1.
ENGLISH_BUILD_PEAKS = {(1, False): 6_160_000, (1, True): 5_580_000, (2, False): 5_440_000, (2, True): 4_280_000}


def test_build_peaks_no_higher_than_before_format_7():
    d = Dictionary(english_words(200_000, seed=3))
    subs = mine_substitutions(d, "mixed", 100)
    for (k, coded), peak in ENGLISH_BUILD_PEAKS.items():
        assert build_peak(d, k, subs if coded else None) <= peak, (k, coded)


# build_index's traced peak on 531 kB of DNA 20-mers at k = 1, coded with
# their mined mixed/100 rules, under Python 3.11.7 and numpy 2.4.6: 8_958_306
# to 8_958_424, rounded up as above.  It read 10_265_575 to 10_267_215 while
# ``SubstitutionList.encode_groups`` summed each group's kept bytes by an
# int64 ``reduceat``, 8 bytes a payload byte, and 12_378_779 when
# ``qgrams._gram_ids`` handed ``take`` all its windows at once: ``take``
# casts its uint16 index to intp first, 8 bytes a window.
CODED_DNA_PEAK = 9_000_000


def test_coded_dna_build_peak_is_pinned(tmp_path):
    dna_fasta(tmp_path / "genome.fa", min_kmer_bytes=200_000, seed=13)
    d = extract_kmers(tmp_path / "genome.fa", 20)
    assert build_peak(d, 1, mine_substitutions(d, "mixed", 100)) <= CODED_DNA_PEAK


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
        "c14d1db8daf46c3d55d9e697a61129f008f7b036d76e0c7b3c06635a4f32cb74",
        "027a7587e1a63b0aa25b1164a8fbe37280de0aea897d039235e9d816e6914afa",
        "df7d3ee76f5e60369c482059289f8befb4808f9e928717e20acb6adcb772c7cc",
    ),
    ("xxhash", 1, True): (
        "a1d842fae8badd2262c15522cb886441cfe5985b116b445106db4a6d78a57946",
        "835550d2d3813d893a4db810f18eb8f04d63532987f24aa83ffcb1b951c04180",
        "71edec9adb7d27cb4a387563533f7bf51ae65c56d6f4d22382893fcdd69ae37a",
    ),
    ("xxhash", 2, False): (
        "7693d49ff259ba89cf454019ddf922d8da02ea0b95559a7721ff7e47a0477648",
        "43b4a420e8bba0a59a9ca6ab5caa05c36614ed7498b0072a76f509a5cff76d91",
        "2042431af2850d87d68fcbe3581199ad5a5d928849f2f95cf0ba42283a839759",
    ),
    ("xxhash", 2, True): (
        "5ab78d925ec3b0598774d69790df0faf9c51ca3b8b41f5729bf01575fe4a4e37",
        "0ae07bcc47472f219ebcc8b0ff34c0597e2cf03b86a8989e7d15ba9b030cc4a7",
        "dc99d309cf8073b3e3859be739e32cb39307dbf3cc0d6dab36b06ad814391620",
    ),
    ("xxhash", 3, False): (
        "f109337209820a1a7cfb061c38305b7cc74395dc47dd6238acd9fb28db6e3815",
        "e3d9d6ebb8511d800b1e6efc9d439f2e74770bef18bdc7fe90e8c8d714dd8b3b",
        "d4ddaccb59e9d355b3b20ca6345ef70b51f968fa61e5539ab2eaf502d4bd5f3d",
    ),
    ("xxhash", 3, True): (
        "31986b4481c0505c19b7076b3990791a03a1bbbcf280c558d5ab54067b4c3977",
        "ab0ed7336eb3659b3f209579d50969732ca2232a23c147e6a0265d0920fb3e35",
        "a14fd0e4e16a84d4c53e6099d8fc886e9e994f23aa1e7544fb35beb0676a53e2",
    ),
    ("crc32", 1, False): (
        "e5ca9a1dc248136ff48c92df9668f0acc523df0c23359488a1de681d829ef359",
        "027a7587e1a63b0aa25b1164a8fbe37280de0aea897d039235e9d816e6914afa",
        "8af362af4892541c916632f944cec7008d2119fbecfa815b5b822464807b341b",
    ),
    ("crc32", 1, True): (
        "931ed5ff8b93df8633e2431f08032b5f9e2262c1dcfbdbf76d9e3f6e3b0996ae",
        "835550d2d3813d893a4db810f18eb8f04d63532987f24aa83ffcb1b951c04180",
        "fe446f0da103e972b53f32247d1e4a3f7b1517bbb9f01f02ec1ef48c26b1baed",
    ),
    ("crc32", 2, False): (
        "2366f3793529f200145a995a304712e6d9f7904031f407b04746b89854319974",
        "43b4a420e8bba0a59a9ca6ab5caa05c36614ed7498b0072a76f509a5cff76d91",
        "22668d7e2695a39355c259ab6b8881ad1b7e08006b83611db59552726a56e85e",
    ),
    ("crc32", 2, True): (
        "0b042ae144165dec79bb68c40ada7b202efa7d5687ee6315e192478132286518",
        "0ae07bcc47472f219ebcc8b0ff34c0597e2cf03b86a8989e7d15ba9b030cc4a7",
        "c8ba1148e79e455c20acb77fa0c75a63028aeabf6a617e6e2a5b8c973e048a57",
    ),
    ("crc32", 3, False): (
        "c8401b63cef6c615f15d42fb1db0b51915fc766964e6448ae963a9a9f5f9fdf3",
        "e3d9d6ebb8511d800b1e6efc9d439f2e74770bef18bdc7fe90e8c8d714dd8b3b",
        "89f94afda91ea17c0d615c43f8ecaa3b11f05086ef6f2d67ad5847723eb0817e",
    ),
    ("crc32", 3, True): (
        "dcf6c2c7b76286ee1d192d176e3ab74ffee797e0c01611ae19e890ba6b2b965e",
        "ab0ed7336eb3659b3f209579d50969732ca2232a23c147e6a0265d0920fb3e35",
        "b530efa635bc554856b58d875b0ea3fc994d7bd8a37b1c8959e099e8e30094fe",
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
# ASCII translation with EDGE_SUBS, whose code 0xFF is the byte that mining
# joins words with.
EDGE_DIGESTS = {
    ("crc32", 1, False): (
        "84dda789969f7bb48cddd2b3d5992bfed95784198ee91523bd7153d8d2969578",
        "38d4639610c6cebd700d567d733433ab97ae8f0a512a9a7f1756dd35164eda77",
        "8d43d25b8e31445265164c09856d55e36e05f741f499294caa1f16571d5c5f1b",
    ),
    ("crc32", 2, False): (
        "6fb3b8ad290746ab93d4c996fe763c16df1315c2027ed9db6cc553a28953efff",
        "0fc718d85837957e18a2cf38fac42af1ab4dbe8047343a96ab7e012e022f87d0",
        "1fc2f1c7412819156aeb997ed3e95f153d5f08b36f5c03318de2d2519606d6ee",
    ),
    ("crc32", 3, False): (
        "43efe63f66f12c361f06946bd78ce484c2d4915b3e79afc5c968fa6e2a453b6e",
        "326e3f21b2bc867fe89f94510da6fb73a05a9324c1961509e48db9ee5420a4ec",
        "a67d1369b774ef40b47f61e061f56e09ca8dbfc26fd6b5a8fdf4f6851656d74b",
    ),
    ("fnv1", 1, False): (
        "d00569549831f79662d58a2c3b077597ae80491973071573e9e7594c0eff66f6",
        "38d4639610c6cebd700d567d733433ab97ae8f0a512a9a7f1756dd35164eda77",
        "f0ccb637237f270f4fdf456e4eec64594b00f624217df285d743f19e3537adb4",
    ),
    ("fnv1", 2, False): (
        "9dd0f3198c56a6ce64bf8cdef2a273d08875870442712a929b35ca1295cd4b13",
        "0fc718d85837957e18a2cf38fac42af1ab4dbe8047343a96ab7e012e022f87d0",
        "959482f21c640e8ee76d84c75b35f84c7d1f87a5e188dbbd2e3c5ebe257e2b4a",
    ),
    ("fnv1", 3, False): (
        "718e809662a63f0845ed2868c8c6cf75260e23da0672f3ec88cdc7dd088ac2b2",
        "326e3f21b2bc867fe89f94510da6fb73a05a9324c1961509e48db9ee5420a4ec",
        "338456d04ddad2d958621a80a784fd5ea721fc15876e16a6b856d8b9f649a0c7",
    ),
    ("crc32", 2, True): (
        "02b78167c7bcd637a35753d4b6caa7b3d32ff1929215c1901dbadbad37edbca2",
        "188f25b7805004c684d9a5bd72b352f486cf7d2d9925a72e9caf4928aef1ce58",
        "b29bb54bef25d35f93dbe4e2a3b4b67a7c6ed7486a23bd375bb1ddfb984abe09",
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
    long region; one word has payloads of exactly 255 bytes at this k.  40
    words of 13 bytes with the same first 7 put a group of over 128 bytes,
    at k = 1, in front of the last group of its region.
    """
    rng = random.Random(17)
    words = [bytes(rng.choices(EDGE_SYMBOLS, k=rng.randint(1, 12))) for _ in range(1500)]
    words += [EDGE_SYMBOLS + b"a\x00" + bytes(rng.choices(EDGE_SYMBOLS, k=7)) for _ in range(2400)]
    words += [bytes(rng.choices(EDGE_SYMBOLS, k=7)) + EDGE_SYMBOLS[::-1] for _ in range(300)]
    words.append(bytes(rng.choices(EDGE_SYMBOLS, k={1: 510, 2: 382, 3: 340}[k])))
    words += [EDGE_SYMBOLS + b"a\x00" + bytes(rng.choices(EDGE_SYMBOLS, k=6)) for _ in range(40)]
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
        # 128 bytes or more after the first, a group length of 2 LEB128 bytes
        # (a region's last group has none), a 255-byte payload, whose L
        # takes an escape, a key whose entries come from two word lengths in
        # two regions, and side words.
        decode = idx.subs.decode if coded else bytes
        blobs = {key: idx.lists[begin:end] for _, key, begin, end in idx.table.records()}
        parsed = {key: groups(blob, k) for key, blob in blobs.items()}
        split = {key: regions(blob, k, decode) for key, blob in blobs.items()}
        assert max(map(len, blobs.values())) >= 16384
        assert any(max(sum(header_size(n, len(g), i == len(gs) - 1) + len(g) for i, (n, g) in enumerate(gs))
                       for gs in by[1:]) >= 128
                   for _, by in parsed.values())
        assert max(len(g) for _, by in parsed.values() for gs in by for _, g in gs[:-1]) >= 128
        assert max(len(e) for by in split.values() for es in by for e in es) == 255
        mixed = [{(r, len(key) + len(e)) for r, es in enumerate(by) for e in es} for key, by in split.items()]
        assert any(r != q and n != m for pairs in mixed for r, n in pairs for q, m in pairs)
        assert idx.side_table


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_coded_index_is_the_plain_index_with_each_group_encoded(data):
    # Short ASCII words over few symbols, so that groups hold several
    # entries and grams run across the entries' bounds.
    alpha = data.draw(st.sampled_from((b"inger", b"tionegrs", bytes(range(32, 128)))))
    word = st.lists(st.sampled_from(alpha), min_size=1, max_size=12).map(bytes)
    d = Dictionary(data.draw(st.lists(word, min_size=20, max_size=80)))
    k = data.draw(st.integers(1, 3))
    # None stands for rules mined from the words.
    subs = data.draw(st.sampled_from((GOLDEN_SUBS, EDGE_SUBS, None))) or mine_substitutions(d, "mixed", 30)
    plain, coded = build_index(d, k), build_index(d, k, substitutions=subs)
    records = list(plain.table.records())
    assert [(b, key) for b, key, _, _ in coded.table.records()] == [(b, key) for b, key, _, _ in records]
    for (_, _, begin, end), (_, _, cbegin, cend) in zip(records, coded.table.records()):
        by_region = groups(plain.lists[begin:end], k)[1]
        coded_by_region = groups(coded.lists[cbegin:cend], k)[1]
        assert [[n for n, _ in gs] for gs in coded_by_region] == [[n for n, _ in gs] for gs in by_region]
        for gs, coded_gs in zip(by_region, coded_by_region):
            for (_, group), (_, coded_group) in zip(gs, coded_gs):
                assert coded_group == subs.encode(group) and subs.decode(coded_group) == group


def leb128(n):
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def tag(n, last):
    """The tag of a length ``n`` from 1 to 255: one byte, with 0x80 set on a
    bucket's or a region's last item, or for n of 128 or more an escape
    byte, 0x80 on the last item and 0x00 on another, then n."""
    flag = 0x80 if last else 0
    return bytes((n | flag,)) if n < 0x80 else bytes((flag, n))


def items(parts):
    """``[tag of n][head][body length, LEB128][body]`` of each (n, head, body)
    of ``parts``, but ``[tag of n][head][body]`` for the last."""
    last = len(parts) - 1
    return b"".join(tag(n, i == last) + head + (b"" if i == last else leb128(len(body))) + body
                    for i, (n, head, body) in enumerate(parts))


def reference_bytes(d, k, config, subs=None):
    """index_to_bytes of the split index of ``d``, built by entering each
    word's pieces one at a time and laying out the keys in (length, bytes)
    order, and each region's entries in groups by length, in byte order, each
    group coded as one string with ``subs``: the oracle build_index must
    match."""
    staged = {}
    side = {}
    for word in d.words:
        if len(word) <= k:
            side.setdefault(len(word), []).append(word)
            continue
        start = 0
        for r, plen in enumerate(piece_lengths(len(word), k)):
            rest = word[:start] + word[start + plen :]
            staged.setdefault(word[start : start + plen], []).append((r, len(rest), rest))
            start += plen
    buckets = [[] for _ in range(hashing._bucket_count(len(staged), config.max_load_factor))]
    for key, stored in sorted(staged.items(), key=lambda item: (len(item[0]), item[0])):
        by_group = {}
        for r, n, e in sorted(stored):
            by_group[r, n] = by_group.get((r, n), b"") + e
        if subs:
            by_group = {rn: subs.encode(g) for rn, g in by_group.items()}
        by_region = [items([(n, b"", g) for (r, n), g in by_group.items() if r == j]) for j in range(k + 1)]
        blob = b"".join(map(leb128, map(len, by_region[:k]))) + b"".join(by_region)
        buckets[HASH_FUNCTIONS[config.function_id](key) % len(buckets)].append((len(key), key, blob))
    buckets = list(map(items, buckets))
    table = ChainedHashTable(b"".join(buckets), array("I", accumulate(map(len, buckets), initial=0)), config)
    side = {n: tuple(sorted(group)) for n, group in side.items()}
    return index_to_bytes(SplitIndex(k, table, side, subs, d.stats()))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_build_matches_the_reference_builder(data):
    # Arbitrary bytes, or a few symbols so that keys repeat across word
    # lengths and positions; coded words are ASCII, as coding requires.  The
    # zero byte in coded payloads meets the zero padding of the build's rows.
    # At least 20 words, so that coded groups of several entries, with grams
    # across the entries' bounds, occur.
    coding = data.draw(st.sampled_from((None, "golden", "mined")))
    alphas = (b"ab", b"tioneqrsg", b"\x00\x7fing") + (() if coding else (bytes(range(256)), b"\x00\x7f\x80\xff"))
    alpha = data.draw(st.sampled_from(alphas))
    words = data.draw(st.lists(st.lists(st.sampled_from(alpha), min_size=1, max_size=60).map(bytes), min_size=20, max_size=60))
    k = data.draw(st.integers(1, 8))
    config = HashConfig(data.draw(st.sampled_from(("crc32", "fnv1", "xxhash"))), data.draw(st.sampled_from((0.25, 2.0))))
    d = Dictionary(words)
    subs = mine_substitutions(d, "mixed", 30) if coding == "mined" else GOLDEN_SUBS if coding else None
    assert index_to_bytes(build_index(d, k, hash_config=config, substitutions=subs)) == reference_bytes(d, k, config, subs)


def test_a_table_of_over_65536_buckets_matches_the_reference_builder():
    # 16_385 or more keys at a load of 0.25 take 131_072 buckets, so the
    # stable order by bucket needs its second, high 16-bit radix pass.
    rng = random.Random(35)
    d = Dictionary([bytes(rng.choices(range(64, 128), k=6)) for _ in range(10_000)])
    config = HashConfig(max_load_factor=0.25)
    idx = build_index(d, 1, hash_config=config)
    assert idx.table.bucket_count == 131_072
    assert max(h for h, _, _, _ in idx.table.records()) >= 2**16
    assert index_to_bytes(idx) == reference_bytes(d, 1, config)


def tag_boundary_words():
    """k = 1 words whose keys and group lengths L take one-byte tags and
    escapes.  Words of 2p - 1 and 2p bytes that share a first piece P of p
    bytes put groups of L = p - 1 and L = p, the last, in region 1 of P; for
    p in 127, 128, 129 and 255, L is 127, 128 and 255 as a region's last
    group, and 127 and 128 before it.  No group can follow one of 255 bytes,
    the payload limit.  Their last pieces are keys of p - 1 and p bytes."""
    rng = random.Random(31)
    words = []
    for p in (127, 128, 129, 255):
        first = bytes(rng.choices(b"abc", k=p))
        words += [first + bytes(rng.choices(b"abc", k=n)) for n in (p - 1, p - 1, p, p)]
    return words


@pytest.mark.parametrize("coded", [False, True])
def test_tags_and_escapes_at_127_128_and_255_round_trip_and_answer_as_the_oracle(coded):
    d = Dictionary(tag_boundary_words())
    subs = GOLDEN_SUBS if coded else None
    rng = random.Random(32)
    patterns = []
    for w in d.words:
        for m in range(3):
            p = bytearray(w)
            for i in rng.sample(range(len(w)), m):
                p[i] = ord("d")
            patterns.append(bytes(p))
    keys = set()
    tags = set()
    chain_lengths = set()
    # One bucket puts every record but the last before another; a sparse
    # table leaves most keys alone in their buckets.
    for config in (HashConfig(max_load_factor=1e6), HashConfig(max_load_factor=0.25)):
        idx = build_index(d, 1, hash_config=config, substitutions=subs)
        blob = index_to_bytes(idx)
        assert blob == reference_bytes(d, 1, config, subs)
        loaded = index_from_bytes(blob)
        assert index_to_bytes(loaded) == blob
        assert loaded.list_stats().entry_count == 2 * len(d)
        for p in patterns:
            assert loaded.query(p) == oracle_query(d, p, 1), (config, p[:8])
        ends = set(idx.table.starts)
        chains = Counter(h for h, _, _, _ in idx.table.records())
        for h, key, begin, end in idx.table.records():
            keys.add((len(key), end in ends))
            for region in groups(idx.lists[begin:end], 1)[1]:
                tags.update((n, i == len(region) - 1) for i, (n, _) in enumerate(region))
        assert any(not region for _, _, b, e in idx.table.records() for region in groups(idx.lists[b:e], 1)[1])
        chain_lengths.update(chains.values())
    # Empty regions, buckets of one record and of several, and every tag.
    assert 1 in chain_lengths and max(chain_lengths) > 1
    edges = {(n, last) for n in (127, 128, 255) for last in (False, True)}
    assert edges <= keys
    assert edges - {(255, False)} <= tags


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
            sizes, by_region = groups(blob, k)
            head = int(_length_bytes(np.array(sizes))[1].sum())
            body = sum(header_size(n, len(g), i == len(region) - 1) + len(g)
                       for region in by_region for i, (n, g) in enumerate(region))
            assert type(blob) is bytes and len(blob) == head + body
            assert b"".join(pieces[:r] + pieces[r + 1 :]) in regions(blob, k)[r]
    assert idx.table.lookup_list(b"\xff\xfe") is None
    assert (idx.list_stats(), idx.table.bucket_stats()) == GOLDEN_STATS[k]


# list_stats() of the benchmark corpora as format version 5 gave them, with a
# length byte per entry: grouping entries by decoded length (version 6) moves
# no entry and no stored byte.  Coding each group as one string, rather than
# each entry, moves no entry either; it shrinks the coded DNA payloads from
# 615886 bytes to 610171, and mining pair merges for mixed, rather than
# picking among 2-, 3- and 4-gram windows, to 408318.
BENCHMARK_STATS = {
    ("english", 1): ListStats(list_count=58293, entry_count=165794, mean_entries=165794 / 58293,
                              max_entries=1062, payload_bytes=800009),
    ("english", 2): ListStats(list_count=17485, entry_count=248553, mean_entries=248553 / 17485,
                              max_entries=1724, payload_bytes=1599834),
    ("dna", 1): ListStats(list_count=32580, entry_count=105680, mean_entries=105680 / 32580,
                          max_entries=42, payload_bytes=408318),
}


# The bucket arena (len(index.lists)) of the benchmark corpora.  Format v7,
# which stores no byte length for the last group of a region nor for the
# list of a bucket's last record, took them from 1457081, 1826787 and 962202
# bytes.
BENCHMARK_ARENAS = {("english", 1): 1366324, ("english", 2): 1790465, ("dna", 1): 882921}


def test_list_stats_of_the_benchmark_corpora_are_those_of_version_5(english_dictionary, tmp_path):
    # The English dictionary of criteria 4 and 5, and criterion 7's DNA
    # 20-mers coded with their mined mixed/100 rules, as the benchmark builds.
    dna_fasta(tmp_path / "genome.fa", min_kmer_bytes=1_050_000, seed=13)
    dna = extract_kmers(tmp_path / "genome.fa", 20)
    subs = mine_substitutions(dna, "mixed", 100)
    for (corpus, k), want in BENCHMARK_STATS.items():
        idx = build_index(english_dictionary, k) if corpus == "english" else build_index(dna, k, substitutions=subs)
        assert idx.list_stats() == want, (corpus, k)
        assert len(idx.lists) == BENCHMARK_ARENAS[corpus, k], (corpus, k)


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
    for matrix_run, bulk_run in product(BOTH_KERNELS, BOTH_BUILDERS):
        with patch.object(core, "MATRIX_RUN", matrix_run), patch.object(core, "BULK_RUN", bulk_run):
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
    # 1 and 2 at every k).  Payloads over an alphabet holding the length bytes
    # look like group headers, and the windows probed below match parts of
    # one entry or of two.  The (k + 1)-byte words keyed by b"e" in their
    # first or last piece leave a missing part of k bytes (need <= k) on
    # either side.  Each kernel checks a plain and a coded index.
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
    coded = build_index(d, k, substitutions=SUBS)
    blob = idx.lists[idx.table.lookup_list(key)]
    assert coded.lists[coded.table.lookup_list(key)] != blob
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
    for matrix_run, bulk_run, index in product(BOTH_KERNELS, BOTH_BUILDERS, (idx, coded)):
        with patch.object(core, "MATRIX_RUN", matrix_run), patch.object(core, "BULK_RUN", bulk_run):
            for p, want in zip(patterns, expected):
                assert index.query(p) == want, (matrix_run, bulk_run, index.subs, p)
            report = run_bench(index, QuerySet(patterns, "long runs"))
        assert report.verifications == verifications, (matrix_run, bulk_run, index.subs)


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
    # The matrix counts a row's mismatches in float32, exact only while the
    # sum is a small whole number.  Here every payload has PAYLOAD_LIMIT
    # bytes, so a row is 255 payload bytes that may all differ from the
    # pattern's rest.
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


def test_kernels_count_up_to_255_mismatches_at_k_254():
    # At k = 254 a word of 256 bytes has 254 one-byte pieces and a last piece
    # of two, so b"k" keys a group of 70 rests of PAYLOAD_LIMIT bytes.  Stored
    # words with 253, 254 and 255 rest bytes replaced put a row's sum, and
    # its neighbours', next to 255 and on either side of k.
    k = 254
    rng = random.Random(29)
    drawn = set()
    while len(drawn) < 70:
        drawn.add(bytes(rng.choices(b"ab", k=PAYLOAD_LIMIT)))
    d = Dictionary(sorted(b"k" + e for e in drawn))
    patterns = []
    for w in rng.sample(d.words, 4):
        for m in (253, 254, 255):
            p = bytearray(w)
            for i in rng.sample(range(1, len(w)), m):
                p[i] = ord("c")
            patterns.append(bytes(p))
    expected = [oracle_query(d, p, k) for p in patterns]
    for subs in (None, SUBS):
        idx = build_index(d, k, substitutions=subs)
        payloads = regions(idx.lists[idx.table.lookup_list(b"k")], k, idx.subs.decode if subs else bytes)[0]
        assert [len(e) for e in payloads] == [PAYLOAD_LIMIT] * 70
        for matrix_run in BOTH_KERNELS:
            with patch.object(core, "MATRIX_RUN", matrix_run):
                for p, want in zip(patterns, expected):
                    assert idx.query(p) == want, (subs, matrix_run, p)


def test_xor_kernel_sums_255_mismatches_without_carrying():
    # k = 1 words of 510 bytes have two 255-byte pieces, so every rest is
    # PAYLOAD_LIMIT bytes long.  Each region of the list of b"k" * 255 is a
    # group of 2 to MATRIX_RUN - 1 entries, which the big-integer xor checks,
    # and entries that differ from the patterns' rests in all 255 bytes sit
    # beside an exact entry and a one-mismatch entry: a sum that carried
    # would spill into its neighbour's.
    key = b"k" * PAYLOAD_LIMIT
    rests = [b"a" * 255, b"b" * 255, b"m" * 255, b"m" * 254 + b"n", b"z" * 255]
    d = Dictionary([key + e for e in rests] + [e + key for e in rests])
    patterns = set()
    for e in rests + [b"q" * 255, b"m" * 254 + b"z", b"a" * 254 + b"m", b"m" + b"z" * 254]:
        patterns.update((key + e, e + key, key[1:] + b"j" + e, e + b"j" + key[1:]))
    for subs in (None, SUBS):
        idx = build_index(d, 1, substitutions=subs)
        for region in regions(idx.lists[idx.table.lookup_list(key)], 1, idx.subs.decode if subs else bytes):
            assert region == sorted(rests) and len(region) < core.MATRIX_RUN
        for p in sorted(patterns):
            assert idx.query(p) == oracle_query(d, p, 1), (subs, p)


def test_every_group_count_matches_the_oracle():
    # For each k and each entry length need from k (a rest is never shorter)
    # to 12, one dictionary holds, under keys of their own, a group of c
    # entries of that length for every c from 1 to MATRIX_RUN + 1: the
    # one-entry xor, the big-integer xor and the matrix, and at need = k
    # groups whose every entry matches.  Each group is probed with its last
    # entry at k mismatches in the rest and its first at k + 1, plain and
    # coded, with each builder of the matched words.
    rng = random.Random(25)
    symbols = bytes(range(97, 123)) + bytes(range(33, 97)) + bytes(range(123, 127))
    counts = range(1, core.MATRIX_RUN + 2)

    def mutated(word, at):
        w = bytearray(word)
        for i in at:
            w[i] = rng.choice([c for c in symbols if c != w[i]])
        return bytes(w)

    for k in (1, 2, 3):
        for need in range(k, 13):
            n, r = next((n, r) for n in range(k + 1, 64) for r in range(k + 1) if n - piece_lengths(n, k)[r] == need)
            cut = sum(piece_lengths(n, k)[:r])
            rest = [*range(cut), *range(cut + n - need, n)]
            alpha = symbols[: max(4, math.ceil((2 * len(counts)) ** (1 / need)))]
            keys = set()
            while len(keys) < len(counts):
                keys.add(bytes(rng.choices(symbols, k=n - need)))
            words, patterns = [], []
            for c, key in zip(counts, sorted(keys)):
                drawn = set()
                while len(drawn) < c:
                    drawn.add(bytes(rng.choices(alpha, k=need)))
                group = [e[:cut] + key + e[cut:] for e in sorted(drawn)]
                words += group
                patterns.append(mutated(group[-1], rng.sample(rest, k)))
                patterns.append(mutated(group[0], rng.sample(rest, k + 1) if need > k else rest + [cut]))
            d = Dictionary(words)
            indexes = [build_index(d, k), build_index(d, k, substitutions=SUBS)]
            for c, key in zip(counts, sorted(keys)):
                entries = regions(indexes[0].lists[indexes[0].table.lookup_list(key)], k)[r]
                assert [len(e) for e in entries].count(need) == c
            wants = [oracle_query(d, p, k) for p in patterns]
            for bulk_run, idx in product(BOTH_BUILDERS, indexes):
                with patch.object(core, "BULK_RUN", bulk_run):
                    for p, want in zip(patterns, wants):
                        assert idx.query(p) == want, (k, need, bulk_run, idx.subs, p)


def test_bulk_builder_keeps_trailing_nuls_at_every_key_position():
    # At k = 1, 2 and 3 a word of 3(k + 1) bytes has k + 1 3-byte pieces.
    # The key b"\xffa\x00" is each piece of 80 words: two rests of 3k bytes,
    # one all NUL, with every one-byte variant of each, and more drawn.  So
    # every builder puts the key first, last and, at k >= 2, in the middle.
    # At k >= 2 a pattern made of the key and either rest matches 25 words
    # or more of a group of 80, so the shipped thresholds build its words in
    # bulk from a matrix group; at k = 1 it matches 13, built one by one.
    # The key and many rests end in NUL, so the words end in NUL wherever
    # the key sits: a bytes ('S') view would drop those NULs.  The
    # (k + 1)-byte words over the same symbols have 1-byte pieces and rests
    # of need = k, so each key's region holds a group that matches whole,
    # of 25 entries or more, built in bulk too, at k >= 2.  A word whose key
    # b"one" keys no other word is the one entry of its group.
    # The coded index keeps the NULs and 0x7F.
    keep_nuls = bytes.maketrans(b"\x80\xff", b"bc")
    subs = SubstitutionList([(b"\x00\x00", 0x80), (b"a\x00", 0x81), (b"\x7fb", 0x82)])
    for k in (1, 2, 3):
        rng = random.Random(31)
        key = b"\xffa\x00"
        bases = ((b"\x80a\x00\xff\x7f\x00" * 2)[: 3 * k], bytes(3 * k))
        rests = {base[:i] + bytes([c]) + base[i + 1 :] for base in bases for i in range(3 * k) for c in EDGE_SYMBOLS}
        while len(rests) < 80:
            rests.add(bytes(rng.choices(EDGE_SYMBOLS, k=3 * k)))
        words = [e[: 3 * r] + key + e[3 * r :] for r in range(k + 1) for e in sorted(rests)]
        words += map(bytes, product(EDGE_SYMBOLS, repeat=k + 1))
        patterns = {bytes(p) for p in product(EDGE_SYMBOLS, repeat=k + 1)}
        for r, base in product(range(k + 1), bases):
            word = base[: 3 * r] + key + base[3 * r :]
            patterns.add(word)
            for m in (1, 2, 3):
                p = bytearray(word)
                for i in rng.sample([i for i in range(3 * (k + 1)) if not 3 * r <= i < 3 * r + 3], m):
                    p[i] ^= 1
                patterns.add(bytes(p))
            lone = bases[1][: 3 * r] + b"one" + bases[1][3 * r :]
            words.append(lone)
            patterns.add(lone[:-1] + b"a" if r < k else b"a" + lone[1:])
        patterns = sorted(patterns)
        for coded in (False, True):
            d = Dictionary([w.translate(keep_nuls) for w in words] if coded else words)
            idx = build_index(d, k, substitutions=subs if coded else None)
            queried = [p.translate(keep_nuls) for p in patterns] if coded else patterns
            wants = [oracle_query(d, p, k) for p in queried]
            assert sum(w.endswith(b"\x00") for want in wants for w in want) > 100
            with patch.object(core, "_words", wraps=core._words) as bulk:
                for p, want in zip(queried, wants):
                    assert idx.query(p) == want, (k, coded, p)
            if k > 1:  # at k = 1 no group reaches BULK_RUN
                assert bulk.call_count >= len(patterns)
            for matrix_run, bulk_run in product(BOTH_KERNELS, BOTH_BUILDERS):
                with patch.object(core, "MATRIX_RUN", matrix_run), patch.object(core, "BULK_RUN", bulk_run):
                    for p, want in zip(queried, wants):
                        assert idx.query(p) == want, (k, coded, matrix_run, bulk_run, p)


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
