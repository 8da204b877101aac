"""Index file round trips and malformed-file handling."""

import gc
import logging
import random
import struct
import tracemalloc
import zlib
from collections import Counter
from functools import cache
from itertools import islice, pairwise, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import random_words

from splitindex import (
    HASH_FUNCTIONS,
    BadMagicError,
    CodecError,
    CorruptListError,
    Dictionary,
    HashConfig,
    SplitIndexError,
    StorageError,
    SubstitutionList,
    TruncatedIndexError,
    VersionMismatchError,
    build_index,
    gen_noisy_queries,
    hashing,
    load_index,
    mine_substitutions,
    oracle_query,
    piece_lengths,
    save_index,
    split_word,
)
from splitindex import core
from splitindex.core import ListStats
from splitindex.storage import index_from_bytes, index_to_bytes


@pytest.mark.parametrize("k,compressed", [(1, False), (1, True), (2, False), (3, True)])
def test_save_load_query_equivalence(tmp_path, k, compressed):
    rng = random.Random(20 + k)
    d = Dictionary(random_words(rng, 700, 8))
    subs = mine_substitutions(d, "mixed", 40) if compressed else None
    idx = build_index(d, k, substitutions=subs)
    path = tmp_path / "idx.bin"
    save_index(idx, path)
    loaded = load_index(path)
    patterns = [bytes(rng.choices(b"abcdefgh", k=rng.randint(1, 30))) for _ in range(400)]
    for p in patterns:
        assert loaded.query(p) == idx.query(p)
    assert loaded.size_breakdown() == idx.size_breakdown()
    assert loaded.list_stats() == idx.list_stats()


def test_save_load_save_is_byte_identical(tmp_path):
    rng = random.Random(33)
    d = Dictionary(random_words(rng, 300, 26) + [b"a", b"z"])
    for subs in (mine_substitutions(d, "2gram", 10), SubstitutionList()):
        idx = build_index(d, 2, substitutions=subs)
        blob = index_to_bytes(idx)
        again = index_from_bytes(blob)
        assert index_to_bytes(again) == blob
        if not subs:  # no coding is None on every path
            assert idx.subs is None and again.subs is None


def test_side_table_survives_round_trip():
    d = Dictionary([b"a", b"b", b"xy", b"longword"])
    idx = build_index(d, 2)
    again = index_from_bytes(index_to_bytes(idx))
    assert again.side_table == idx.side_table
    assert again.query(b"c") == [b"a", b"b"]


def test_bad_magic():
    blob = index_to_bytes(build_index(Dictionary([b"ab"]), 1))
    with pytest.raises(BadMagicError):
        index_from_bytes(b"WRONGMAG" + blob[8:])


def test_version_mismatch_names_both_versions():
    blob = index_to_bytes(build_index(Dictionary([b"ab"]), 1))
    bad = blob[:8] + (7).to_bytes(2, "little") + blob[10:]
    with pytest.raises(VersionMismatchError) as err:
        index_from_bytes(bad)
    assert "7" in str(err.value) and "5" in str(err.value)


# A k = 1 index of b"table", b"left", b"tablet" as format version 2 wrote it.
VERSION_2_FILE = bytes.fromhex(
    "53504c4954494458020001067878686173681000000000000000000000401000"
    "0000040000000f00000000000000030000000000000006000000000000000700"
    "0000026c65010000000000000000000000080000000374616200000000000000"
    "0000000000000000000000000007000000026674020000000000000000000000"
    "00000000000000000000000008000000036c6574030000000000000004000000"
    "0a0000000000026c65036c6574000a0000000200026674037461620006000000"
    "0100026c65000700000001000374616200"
)


def test_version_2_file_is_rejected():
    assert VERSION_2_FILE[8:10] == (2).to_bytes(2, "little")
    with pytest.raises(VersionMismatchError, match="version 2, this reader supports 5"):
        index_from_bytes(VERSION_2_FILE)


# The same index as format version 3 wrote it: lists in their own section,
# reached through a u32 ref in each bucket record.
VERSION_3_FILE = bytes.fromhex(
    "53504c495449445803000105637263333200000000000000400f000000000000"
    "0003000000000000000600000000000000000002000000080000001600000003"
    "74616200000000026c650100000002667402000000036c657403000000040000"
    "000a0000000a00000006000000070000000000026c65036c6574000200026674"
    "03746162000100026c6500010003746162006da9e756"
)


def test_version_3_file_is_rejected():
    assert VERSION_3_FILE[8:10] == (3).to_bytes(2, "little")
    with pytest.raises(VersionMismatchError, match="version 3, this reader supports 5"):
        index_from_bytes(VERSION_3_FILE)


# The same index as format version 4 wrote it: each list after its key in the
# bucket record, opening with k u16 region markers and ending in a 0 byte.
VERSION_4_FILE = bytes.fromhex(
    "53504c495449445804000105637263333200000000000000400f000000000000"
    "00030000000000000006000000000000000000020000000f0000002400000003"
    "7461620a0000026c65036c657400026c650a0200026674037461620002667406"
    "0100026c6500036c65740701000374616200e40589d9"
)


def test_version_4_file_is_rejected():
    assert VERSION_4_FILE[8:10] == (4).to_bytes(2, "little")
    with pytest.raises(VersionMismatchError, match="version 4, this reader supports 5"):
        index_from_bytes(VERSION_4_FILE)


def test_truncation_detected_at_every_cut(tmp_path):
    blob = index_to_bytes(build_index(Dictionary([b"table", b"left"]), 1))
    for cut in range(8, len(blob), 7):
        with pytest.raises(TruncatedIndexError):
            index_from_bytes(blob[:cut])
    path = tmp_path / "trunc.bin"
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedIndexError):
        load_index(path)


def test_trailing_garbage_rejected():
    blob = index_to_bytes(build_index(Dictionary([b"table"]), 1))
    with pytest.raises(StorageError):
        index_from_bytes(blob + b"junk")


def test_non_ascii_hash_id_is_storage_error():
    blob = index_to_bytes(build_index(Dictionary([b"table"]), 1))
    at = 8 + 2 + 1 + 1  # magic, version, k, hash id length
    assert blob[at : at + 5] == b"crc32"
    with pytest.raises(StorageError, match=r"\\xc3rc32"):
        index_from_bytes(blob[:at] + b"\xc3" + blob[at + 1 :])


def test_zero_k_is_storage_error():
    blob = index_to_bytes(build_index(Dictionary([b"table"]), 1))
    at = 8 + 2  # magic, version
    assert blob[at] == 1
    with pytest.raises(StorageError, match="got 0"):
        index_from_bytes(blob[:at] + b"\x00" + blob[at + 1 :])


def test_flipped_list_byte_fails_the_checksum():
    idx = build_index(Dictionary([b"table", b"left", b"tablet", b"cable"]), 1)
    blob = bytearray(index_to_bytes(idx))
    longest = max((idx.lists[b:e] for _, _, b, e in idx.table.records()), key=len)
    at = blob.rindex(longest, 0, len(blob) - 4) + len(longest) // 2
    blob[at] ^= 0x20
    with pytest.raises(StorageError, match="checksum"):
        index_from_bytes(bytes(blob))


def with_rules(blob, rules):
    """``blob``, a file without coding and without short words, carrying
    ``rules`` (code byte, then gram) as its rule section, with a valid checksum."""
    id_len = blob[8 + 2 + 1]  # after magic, version, k
    at = 8 + 2 + 1 + 1 + id_len + 8 + 18 + 4  # header, then the empty side-table section
    assert blob[at : at + 4] == struct.pack("<I", 0)  # no substitution rules
    section = struct.pack(f"<{len(rules) + 1}I", len(rules), *map(len, rules)) + b"".join(rules)
    body = blob[:at] + section + blob[at + 4 : -4]
    return body + struct.pack("<I", zlib.crc32(body))


def test_empty_substitution_rule_is_storage_error():
    blob = index_to_bytes(build_index(Dictionary([b"table", b"left"]), 1))
    with pytest.raises(StorageError, match="empty substitution rule"):
        index_from_bytes(with_rules(blob, [b""]))


def test_rule_with_a_code_byte_in_its_gram_fails_at_load():
    # Code 200's gram holds '#', another rule's code: b"abc" would encode to
    # b"\xc8" and decode to b"#c".  Only the rule check can refuse the file.
    blob = index_to_bytes(build_index(Dictionary([b"abcxyz", b"abcxyq"]), 1))
    with pytest.raises(CodecError, match="not plain"):
        index_from_bytes(with_rules(blob, [b"#ab", b"\xc8#c"]))


def test_corrupted_files_fail_at_load():
    rng = random.Random(61)
    blobs = []
    for k in (1, 2):
        for coded in (False, True):
            d = Dictionary(random_words(rng, 250, 8) + [b"a", b"ab"])
            subs = mine_substitutions(d, "mixed", 20) if coded else None
            blobs.append(index_to_bytes(build_index(d, k, substitutions=subs)))
    for case in range(1200):
        blob = bytearray(blobs[case % len(blobs)])
        for at in rng.sample(range(len(blob)), rng.randint(1, 3)):
            blob[at] ^= rng.randrange(1, 256)
        with pytest.raises(SplitIndexError):
            index_from_bytes(bytes(blob))


def lists_by_key(idx):
    """Each key's list, read through the record walker."""
    return {key: idx.lists[b:e] for _, key, b, e in idx.table.records()}


@pytest.mark.parametrize("k", [1, 2])
def test_xxhash_files_still_load_and_answer(tmp_path, monkeypatch, caplog, k):
    # Files written when xxhash was the default keep their hash id; loading one
    # hashes with xxhash (here the pure-Python fallback) and warns for it alone.
    caplog.set_level(logging.WARNING, logger="splitindex.hashing")
    monkeypatch.setitem(HASH_FUNCTIONS, "xxhash", hashing.xxhash64)
    rng = random.Random(30 + k)
    d = Dictionary(random_words(rng, 500, 26) + [b"a", b"ab"])
    xx_path, crc_path = tmp_path / "xx.bin", tmp_path / "crc.bin"
    save_index(build_index(d, k, hash_config=HashConfig(function_id="xxhash")), xx_path)
    save_index(build_index(d, k), crc_path)

    monkeypatch.setattr(hashing, "_slow_hash_warned", False)
    caplog.clear()
    crc = load_index(crc_path)
    assert not caplog.records
    xx = load_index(xx_path)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "xxhash64" in caplog.records[0].getMessage()

    assert (xx.table.config.function_id, crc.table.config.function_id) == ("xxhash", "crc32")
    assert index_to_bytes(xx) == xx_path.read_bytes()
    assert lists_by_key(xx) == lists_by_key(crc) and xx.size_bytes() == crc.size_bytes()
    for p in gen_noisy_queries(d, 150, seed=k).patterns + (b"a", b"zz"):
        assert xx.query(p) == crc.query(p) == oracle_query(d, p, k)


def test_resealed_corrupted_files_raise_only_package_errors():
    # Bytes flipped in the bucket section, lists included, with the checksum
    # recomputed, so the damage gets past the load checks.  Load and queries
    # may then raise only SplitIndexError subclasses; a damaged list that
    # still answers (wrongly) is not caught here.  The uncoded k = 2 index is
    # a case twice, the second time with every run verified as a matrix.
    rng = random.Random(62)
    cases = []
    for k in (1, 2):
        for coded in (False, True):
            d = Dictionary(random_words(rng, 250, 8) + [b"a", b"ab"])
            subs = mine_substitutions(d, "mixed", 20) if coded else None
            idx = build_index(d, k, substitutions=subs)
            blob = index_to_bytes(idx)
            tail = len(idx.lists) + 4 * idx.table.bucket_count + 4
            case = (blob, len(blob) - 4 - tail, d.words + gen_noisy_queries(d, 50, seed=k).patterns)
            cases.append(case + (core.MATRIX_RUN,))
            if k == 2 and not coded:
                cases.append(case + (1,))
    raised = Counter()
    for case in range(1500):
        blob, start, patterns, matrix_run = cases[case % len(cases)]
        body = bytearray(blob[:-4])
        for at in rng.sample(range(start, len(body)), rng.randint(1, 3)):
            body[at] ^= rng.randrange(1, 256)
        data = bytes(body) + struct.pack("<I", zlib.crc32(body))
        try:
            idx = index_from_bytes(data)
            with patch.object(core, "MATRIX_RUN", matrix_run):
                for p in patterns:
                    idx.query(p)
        except SplitIndexError as err:
            raised[type(err)] += 1
    assert raised[CorruptListError] and raised[CodecError] and raised[TruncatedIndexError]


def arena_offset(idx):
    """Offset in ``index_to_bytes(idx)`` of the bucket arena, which holds the lists."""
    return len(index_to_bytes(idx)) - 4 - len(idx.lists)


def resealed(idx, changes):
    """The file of ``idx`` with ``changes[at]`` written at each offset ``at``
    and the checksum recomputed."""
    body = bytearray(index_to_bytes(idx)[:-4])
    for at, value in changes.items():
        body[at : at + len(value)] = value
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def region_length_grown(idx, length_at):
    """``idx`` loaded from its file with the list for b"ab" holding 0x7f at
    region length ``length_at``, far past the list's end."""
    at = idx.table.lookup_list(b"ab")
    return index_from_bytes(resealed(idx, {arena_offset(idx) + at.start + length_at: b"\x7f"}))


def regions_idx():
    d = Dictionary([b"abcdef", b"ghabij", b"gxabij", b"ghijab", b"gyijab"])
    idx = build_index(d, 2)
    # Regions 1 and 2 hold 5 and 10 bytes; region 3 runs to the list's end.
    assert idx.lists[idx.table.lookup_list(b"ab")] == b"\x05\x0a" + b"\x04cdef" + b"\x04ghij\x04gxij" + b"\x04ghij\x04gyij"
    assert idx.query(b"abcdxf") == [b"abcdef"]
    return idx


def test_region_length_past_its_list_is_corrupt():
    idx = regions_idx()
    # A region length grown past the list's end moves the end of its own
    # region out of the list; each query is keyed by b"ab" in that region.
    for length_at, pattern in ((0, b"abcdxf"), (1, b"ghabiz")):
        with pytest.raises(CorruptListError, match="region lengths of the list for key b'ab' run past its end"):
            region_length_grown(idx, length_at).query(pattern)


def test_region_start_far_past_its_list_is_corrupt():
    idx = regions_idx()
    # A region length grown past the list's end moves the start of a later
    # region far out of the list; each query is keyed by b"ab" in region 2 or 3.
    for length_at, pattern in ((0, b"ghabiz"), (0, b"gzijab"), (1, b"gzijab")):
        with pytest.raises(CorruptListError, match="region lengths of the list for key b'ab' run past its end"):
            region_length_grown(idx, length_at).query(pattern)


def test_run_past_its_region_does_not_answer_from_the_next():
    idx = build_index(Dictionary([b"abxy", b"cdab"]), 1)
    a = idx.table.lookup_list(b"ab")
    assert idx.lists[a] == b"\x03\x02xy" + b"\x02cd"
    # Read as a region 1 entry, region 2's b"cd" would rebuild b"abcd".
    assert idx.query(b"abcd") == []
    # Region 1 now ends inside b"cd": the run of 2-byte entries crosses its
    # end, rather than answering from region 2.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + a.start: b"\x04"}))
    with pytest.raises(CorruptListError, match="b'ab'"):
        damaged.query(b"abcd")


@pytest.mark.parametrize("coded", [False, True])
def test_run_past_its_list_is_corrupt(coded):
    subs = SubstitutionList([(b"zz", 200)]) if coded else None
    idx = build_index(Dictionary([b"abcxy", b"pqrst"]), 1, substitutions=subs)
    at = idx.table.lookup_list(b"abc")
    assert idx.lists[at] == b"\x03\x02xy" and at.stop < len(idx.lists)
    # The entry b"xy" grows over the list's end by a byte, which the
    # pattern's last byte matches.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + at.start + 1: b"\x03"}))
    with pytest.raises(CorruptListError, match="b'abc'"):
        damaged.query(b"abcxy" + idx.lists[at.stop : at.stop + 1])


def test_run_past_its_list_is_corrupt_in_the_matrix():
    idx = build_index(Dictionary([b"abcxyz", b"pqrstu"]), 2)
    at = idx.table.lookup_list(b"ab")
    assert idx.lists[at] == b"\x05\x00\x04cxyz" and at.stop < len(idx.lists)
    # The entry b"cxyz" grows over the list's end: as a matrix row it would
    # match the pattern exactly.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + at.start + 2: b"\x05"}))
    with patch.object(core, "MATRIX_RUN", 1), pytest.raises(CorruptListError, match="b'ab'"):
        damaged.query(b"abcxyz" + idx.lists[at.stop : at.stop + 1])


def test_walk_past_its_list_is_corrupt():
    idx = build_index(Dictionary([b"abcde", b"qqqqq"]), 2)
    at = idx.table.lookup_list(b"ab")
    assert idx.lists[at] == b"\x04\x00\x03cde" and at.stop < len(idx.lists)
    # The shorter entry that the walk skips now ends past the list, in the
    # next record.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + at.start + 2: b"\x04"}))
    with pytest.raises(CorruptListError, match="b'ab'"):
        damaged.query(b"abcdexx")


# Two buckets: b"cd" alone in bucket 0, then b"ab" and b"xy" in bucket 1.
TWO_BUCKETS = [b"\x02cd\x04" + b"\x03\x02ab", b"\x02ab\x07" + b"\x03\x02xy\x02cd" + b"\x02xy\x04" + b"\x00\x02ab"]


def two_buckets():
    idx = build_index(Dictionary([b"abxy", b"cdab"]), 1)
    assert [idx.table.data[a:b] for a, b in pairwise(idx.table.starts)] == TWO_BUCKETS
    return idx


def test_bucket_record_past_its_bucket_is_corrupt():
    idx = two_buckets()
    # The key length of b"xy" grows past the end of bucket 1, where the
    # arena ends too: a miss walks over it, and b"ab", before it, still hits.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + 19: b"\x09"}))
    assert damaged.lists[damaged.table.lookup_list(b"ab")] == b"\x03\x02xy\x02cd"
    with pytest.raises(CorruptListError, match="bucket 1"):
        damaged.table.lookup_list(b"zz")
    with pytest.raises(CorruptListError, match="bucket 1"):
        damaged.query(b"zzzz")


def test_list_past_its_bucket_is_corrupt():
    idx = two_buckets()
    # The list of b"cd" grows by a byte, into bucket 1.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + 3: b"\x05"}))
    with pytest.raises(CorruptListError, match="key b'cd' runs past the end of bucket 0"):
        damaged.table.lookup_list(b"cd")
    with pytest.raises(CorruptListError, match="b'cd'"):
        damaged.query(b"cdab")
    # A miss in bucket 0 walks over the grown list to past the bucket's end.
    miss = next(key for key in (b"k%d" % i for i in range(100)) if HASH_FUNCTIONS["crc32"](key) & 1 == 0)
    with pytest.raises(CorruptListError, match="bucket 0 holds a record that runs past its end"):
        damaged.table.lookup_list(miss)


def test_list_length_past_its_bucket_is_corrupt():
    idx = two_buckets()
    # The key of b"cd" grows over its list, so that the list length is the
    # bucket's last byte; it carries on (0x80) into bucket 1.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx): b"\x06", arena_offset(idx) + 7: b"\x80"}))
    with pytest.raises(CorruptListError, match="bucket 0 holds a list length that runs past its end"):
        damaged.table.lookup_list(b"cd")


def test_length_of_more_than_five_bytes_is_corrupt():
    idx = two_buckets()
    at = arena_offset(idx) + 8 + 3  # the list length of b"ab", in bucket 1
    damaged = index_from_bytes(resealed(idx, {at: b"\x80\x80\x80\x80\x80\x01"}))
    with pytest.raises(CorruptListError, match="bucket 1 holds a list length of more than 5 bytes"):
        damaged.table.lookup_list(b"ab")
    # The same for the region length that opens the list of b"ab".
    damaged = index_from_bytes(resealed(idx, {at + 1: b"\x80\x80\x80\x80\x80\x01"}))
    with pytest.raises(CorruptListError, match="list for key b'ab' holds a region length of more than 5 bytes"):
        damaged.query(b"abxy")
    # Five bytes are read: 2**35 - 1 is the longest length stored, more than
    # an arena, under 2**32 bytes, can hold.
    assert hashing._read_length(b"\xff\xff\xff\xff\x7f", 0, 5, 0) == (2**35 - 1, 5)
    assert hashing.LENGTH_BYTES * 7 >= (hashing.ARENA_LIMIT - 1).bit_length()


def first_record(idx):
    """The key, list offset and list end of the arena's first record, the
    first of its bucket."""
    _, key, begin, end = next(idx.table.records())
    return key, begin, end


@pytest.mark.parametrize("k", [1, 2])
def test_list_shorter_than_its_region_lengths_is_corrupt(k):
    idx = build_index(Dictionary([b"abcdef", b"ghijkl"]), k)
    key, begin, end = first_record(idx)
    assert end - begin < 0x80  # its list length is one byte, just before it
    # The list keeps k - 1 bytes, too few for its k region lengths; the
    # bytes after them no longer parse, but the lookup stops at its key.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + begin - 1: bytes((k - 1,))}))
    word = next(w for w in (b"abcdef", b"ghijkl") if key in split_word(w, k))
    with pytest.raises(CorruptListError, match=f"list for key {key!r} holds a region length that runs past its end"):
        damaged.query(word)


def test_zero_entry_length_is_corrupt():
    for coded in (False, True):
        subs = SubstitutionList([(b"zz", 200)]) if coded else None
        idx = build_index(Dictionary([b"abcdef", b"ghijkl"]), 1, substitutions=subs)
        key, begin, end = first_record(idx)
        assert idx.lists[begin + 1] == 3  # the first entry's length, after one region length
        damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + begin + 1: b"\x00"}))
        word = next(w for w in (b"abcdef", b"ghijkl") if key in split_word(w, 1))
        with pytest.raises(CorruptListError, match=f"key {key!r}"):
            damaged.query(word)


def damaged_xy(value):
    """A k = 1 index of b"abcd", b"abce" and b"abxy", loaded from its file
    with ``value`` as the length byte of b"xy", the last entry in the list
    for b"ab"."""
    idx = build_index(Dictionary([b"abcd", b"abce", b"abxy"]), 1)
    at = idx.table.lookup_list(b"ab")
    assert idx.lists[at] == b"\x09" + b"\x02cd\x02ce\x02xy"
    return resealed(idx, {arena_offset(idx) + at.start + 7: value})


def test_list_stats_of_a_damaged_list_is_corrupt():
    assert index_from_bytes(damaged_xy(b"\x02")).list_stats() == ListStats(4, 6, 1.5, 3, 12)
    # A zero length would count the payload's bytes as entries, and a length
    # grown by one would count a byte of the next record as payload.
    for value, what in ((b"\x00", "holds an entry of length 0"), (b"\x03", "runs past its end")):
        with pytest.raises(CorruptListError, match=f"list for key b'ab' {what}"):
            index_from_bytes(damaged_xy(value)).list_stats()


def test_bucket_lengths_adding_up_past_32_bits_are_a_cut_file():
    idx = build_index(Dictionary([b"abcdef", b"ghijkl"]), 1)
    sizes = [b - a for a, b in pairwise(idx.table.starts)]
    assert len(sizes) >= 2
    # The same total modulo 2**32, but 2**32 bytes more than the file holds.
    sizes[0:2] = [2**32 - 1, sizes[0] + sizes[1] + 1]
    at = arena_offset(idx) - 4 * len(sizes)
    with pytest.raises(TruncatedIndexError):
        index_from_bytes(resealed(idx, {at: struct.pack(f"<{len(sizes)}I", *sizes)}))


@pytest.mark.parametrize("k", [1, 2])
def test_loaded_heap_is_close_to_the_file_size(k):
    # The bucket section, which holds the lists, loads as one arena with u32
    # offsets, not as one object per blob.
    data = index_to_bytes(build_index(Dictionary(random_words(random.Random(5), 20_000, 26)), k))
    gc.collect()
    tracemalloc.start()
    try:
        idx = index_from_bytes(data)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert idx.lists and held <= 1.25 * len(data), held / len(data)


@pytest.mark.parametrize(
    "size,length",
    [(127, b"\x7f"), (128, b"\x80\x01"), (16383, b"\xff\x7f"), (16384, b"\x80\x80\x01")],
)
def test_lists_round_trip_at_every_list_length_width(size, length):
    # At k = 1 every word below is keyed by its first piece, b"abcde": a
    # 10-byte word stores a 6-byte entry in that list, a 9-byte one a 5-byte
    # entry, all in region 1, after its length.
    head = next(h for h in (1, 2, 3) if size - h < 128**h)
    fives = next(n for n in range(6) if (size - head - 5 * n) % 6 == 0)
    sixes = (size - head - 5 * fives) // 6
    tails = [bytes(t) for t in islice(product(b"fghijklmnopqrstu", repeat=5), sixes)]
    tails += [bytes(t) for t in islice(product(b"vwxyz", repeat=4), fives)]
    d = Dictionary([b"abcde" + t for t in tails])
    idx = build_index(d, 1)
    at = idx.table.lookup_list(b"abcde")
    assert at.stop - at.start == size
    assert idx.lists[at.start - len(length) - 6 : at.start] == b"\x05abcde" + length
    blob = index_to_bytes(idx)
    loaded = index_from_bytes(blob)
    assert index_to_bytes(loaded) == blob
    assert loaded.lists[loaded.table.lookup_list(b"abcde")] == idx.lists[at]
    rng = random.Random(size)
    patterns = rng.sample(d.words, 20) + list(gen_noisy_queries(d, 150, seed=size).patterns)
    for p in patterns:
        assert loaded.query(p) == oracle_query(d, p, 1)


WIDTH_SUBS = SubstitutionList([(b"fg", 200), (b"hi", 201)])


@cache
def entries_keyed_by(key, r, k, coded):
    """Words that keep ``key`` as their piece r, by the size of the entry each
    stores (length byte and payload, coded with WIDTH_SUBS or not)."""
    out = {}
    for n in range(len(key) + 1, 12):
        lengths = piece_lengths(n, k)
        if lengths[r] != len(key):
            continue
        cut = sum(lengths[:r])
        for t in islice(product(b"fghijklm", repeat=n - len(key)), 20_000):
            t = bytes(t)
            out.setdefault(1 + len(WIDTH_SUBS.encode(t) if coded else t), []).append(t[:cut] + key + t[cut:])
    return out


def region_words(key, r, k, size, coded):
    """Words whose entries fill region r + 1 of the list of ``key`` with
    exactly ``size`` bytes, from entries of two sizes in a row, a and a + 1."""
    pool = entries_keyed_by(key, r, k, coded)
    a = min(a for a in pool if min(len(pool[a]), len(pool.get(a + 1, ()))) > size // a)
    longer = size % a  # size = a * shorter + (a + 1) * longer
    shorter = (size - (a + 1) * longer) // a
    assert shorter >= 0
    return pool[a][:shorter] + pool[a + 1][:longer]


@pytest.mark.parametrize("size", [0, 127, 128, 16383, 16384])
def test_lists_round_trip_at_every_region_length_width(size):
    # Region 1 of the list of ``key`` holds ``size`` bytes, so its length
    # takes 1, 1, 2, 2 and 3 LEB128 bytes; each later region holds one entry,
    # found through that length.
    rng = random.Random(size)
    for k, coded in product((1, 2), (False, True)):
        key = b"keyab" if k == 1 else b"key"
        words = region_words(key, 0, k, size, coded)
        words += [min(entries_keyed_by(key, r, k, coded).items())[1][0] for r in range(1, k + 1)]
        d = Dictionary(words)
        idx = build_index(d, k, substitutions=WIDTH_SUBS if coded else None)
        blob = idx.lists[idx.table.lookup_list(key)]
        assert hashing._read_length(blob, 0, len(blob), key) == (size, hashing._length_bytes(np.array([size]))[1][0])
        assert idx.list_stats().entry_count == (k + 1) * len(d)
        data = index_to_bytes(idx)
        loaded = index_from_bytes(data)
        assert index_to_bytes(loaded) == data
        patterns = rng.sample(d.words, min(20, len(d.words))) + list(gen_noisy_queries(d, 100, seed=size).patterns)
        for p in patterns:
            assert loaded.query(p) == oracle_query(d, p, k), (k, coded, p)


RANDOM_SUBS = SubstitutionList([(b"ab", 128), (b"ca", 129), (b"bcd", 130), (b"aaaa", 131)])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_indexes_round_trip_and_answer_as_the_oracle(data):
    sigma = data.draw(st.sampled_from((2, 4, 26)))
    alpha = bytes(range(97, 97 + sigma))
    spell = lambda w: bytes(alpha[b % sigma] for b in w)  # noqa: E731
    words = data.draw(st.lists(st.binary(min_size=1, max_size=30).map(spell), min_size=1, max_size=120))
    k = data.draw(st.integers(1, 8))
    subs = data.draw(st.sampled_from((None, RANDOM_SUBS)))
    d = Dictionary(words)
    blob = index_to_bytes(build_index(d, k, substitutions=subs))
    loaded = index_from_bytes(blob)
    assert index_to_bytes(loaded) == blob
    patterns = data.draw(st.lists(st.binary(min_size=1, max_size=32).map(spell), max_size=10))
    for p in patterns + list(d.words[:10]):
        assert loaded.query(p) == oracle_query(d, p, k)
