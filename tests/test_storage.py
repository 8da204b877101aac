"""Index file round trips and malformed-file handling."""

import gc
import logging
import random
import re
import struct
import tracemalloc
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache
from itertools import accumulate, islice, pairwise, product
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import random_words

from splitindex import (
    HASH_FUNCTIONS,
    BadMagicError,
    ChainedHashTable,
    CodecError,
    CorruptListError,
    Dictionary,
    HashConfig,
    SplitIndex,
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
from splitindex.storage import FORMAT_VERSION, index_from_bytes, index_to_bytes


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
    side = sum(1 + len(w) for group in loaded.side_table.values() for w in group)
    rules = sum(1 + len(rule.gram) for rule in subs or ())
    expected = 8 * loaded.table.bucket_count + len(loaded.table.data) + side + rules
    assert loaded.size_bytes() == idx.size_bytes() == expected
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
    bad = blob[:8] + (FORMAT_VERSION + 1).to_bytes(2, "little") + blob[10:]
    with pytest.raises(VersionMismatchError) as err:
        index_from_bytes(bad)
    assert f"version {FORMAT_VERSION + 1}, this reader supports {FORMAT_VERSION}" in str(err.value)


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
    with pytest.raises(VersionMismatchError, match="version 2, this reader supports 7"):
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
    with pytest.raises(VersionMismatchError, match="version 3, this reader supports 7"):
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
    with pytest.raises(VersionMismatchError, match="version 4, this reader supports 7"):
        index_from_bytes(VERSION_4_FILE)


# The same index as format version 5 wrote it: each region a run of entries
# with a length byte each, ``[length u8][payload]``.
VERSION_5_FILE = bytes.fromhex(
    "53504c495449445805000105637263333200000000000000400f000000000000"
    "00030000000000000006000000000000000000020000000d0000001e00000003"
    "7461620807026c65036c65740266740400026c65026c65080302667403746162"
    "036c6574050003746162e3cb9ff9"
)


def test_version_5_file_is_rejected():
    assert VERSION_5_FILE[8:10] == (5).to_bytes(2, "little")
    with pytest.raises(VersionMismatchError, match="version 5, this reader supports 7"):
        index_from_bytes(VERSION_5_FILE)


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


def arena_size(idx):
    """Bytes of the records of ``idx``: each a key length tag, one byte or two
    from 128, its key, its list's length as LEB128, and its list, but with no
    list length in a bucket's last record."""
    ends = set(idx.table.starts)
    return sum((1 if len(key) < 0x80 else 2) + len(key) + (0 if end in ends else leb_size(end - begin)) + end - begin
               for _, key, begin, end in idx.table.records())


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
    # The hash id moves records, and so which record of a bucket is its last
    # and stores no list length: the lists are the same, the arenas need not be.
    assert lists_by_key(xx) == lists_by_key(crc) and xx.list_stats() == crc.list_stats()
    assert len(xx.lists) == arena_size(xx) and len(crc.lists) == arena_size(crc)
    for p in gen_noisy_queries(d, 150, seed=k).patterns + (b"a", b"zz"):
        assert xx.query(p) == crc.query(p) == oracle_query(d, p, k)


def damage_corpora(rng):
    """An index of each of four corpora, k = 1 and 2, plain and coded, with
    the patterns probed on it: its words, two short ones and 50 noisy
    queries."""
    corpora = []
    for k in (1, 2):
        for coded in (False, True):
            d = Dictionary(random_words(rng, 250, 8) + [b"a", b"ab"])
            subs = mine_substitutions(d, "mixed", 20) if coded else None
            corpora.append((build_index(d, k, substitutions=subs), d.words + gen_noisy_queries(d, 50, seed=k).patterns))
    return corpora


def test_resealed_corrupted_files_raise_only_package_errors():
    # Bytes flipped in the bucket section, lists included, with the checksum
    # recomputed, so the damage gets past the load checks.  Load, the stats
    # that ``bench`` reports and queries may then raise only SplitIndexError
    # subclasses; a damaged list that still answers (wrongly) is not caught
    # here.  The uncoded indexes are a case twice, the second time with every
    # run verified as a matrix.
    rng = random.Random(62)
    cases = []
    for idx, patterns in damage_corpora(rng):
        blob = index_to_bytes(idx)
        tail = len(idx.lists) + 4 * idx.table.bucket_count + 4
        case = (blob, len(blob) - 4 - tail, patterns)
        cases.append(case + (core.MATRIX_RUN,))
        if idx.subs is None:
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
        except SplitIndexError as err:
            raised[type(err)] += 1
            continue
        with patch.object(core, "MATRIX_RUN", matrix_run):
            for read in (idx.list_stats, idx.table.bucket_stats, lambda: [idx.query(p) for p in patterns]):
                try:
                    read()
                except SplitIndexError as err:
                    raised[type(err)] += 1
    assert raised[CorruptListError] and raised[CodecError] and raised[TruncatedIndexError]


class RegionReached(Exception):
    """Raised in place of ``core._region``, with the bounds of the list found."""


def test_query_walk_answers_as_lookup_list_on_damaged_buckets():
    # Bytes flipped in the bucket arena, about half of them on record
    # headers: each record's key length tag (with its escape byte, if any)
    # and the list length that every record but its bucket's last stores.
    # The checksum is recomputed.  Each piece of a probed pattern is searched
    # alone, and the search stops where it would read the list's regions:
    # its own walk of the piece's bucket must find the list that lookup_list
    # finds, miss where it misses, or raise its error.  The probed patterns
    # are those with a piece keying a damaged bucket, and 20 more.
    rng = random.Random(63)
    whole_plan = core._plan
    plan = []

    def region_reached(data, begin, end, r, k, key):
        raise RegionReached(begin, end)

    seen = Counter()
    with patch.object(core, "_plan", lambda n, k: plan), patch.object(core, "_region", region_reached):
        for idx, patterns in damage_corpora(random.Random(62)):
            k = idx.k
            table = idx.table
            headers = []
            last_tags = set()  # the tag bytes of each bucket's last record
            for h, key, begin, end in table.records():
                last = end == table.starts[h + 1]
                at = begin - (0 if last else leb_size(end - begin)) - len(key)  # the key's start
                tag = range(at - (1 if len(key) < 0x80 else 2), at)
                headers += [*tag, *range(at + len(key), begin)]
                if last:
                    last_tags.update(tag)
            patterns = [p for p in patterns if len(p) > k]
            fn = HASH_FUNCTIONS[table.config.function_id]
            # Each piece's (r, start, end, need) in the plan, and the bucket its key hashes to.
            pieces = {p: [((r, start, end, need), fn(p[start:end]) & table.bucket_count - 1)
                          for r, start, end, need in whole_plan(len(p), k)]
                      for p in patterns}
            for _ in range(150):
                spots = [rng.choice(headers) if rng.random() < 0.5 else rng.randrange(len(idx.lists))
                         for _ in range(rng.randint(1, 3))]
                seen["last tag"] += sum(at in last_tags for at in spots)
                changes = {arena_offset(idx) + at: bytes([idx.lists[at] ^ rng.randrange(1, 256)]) for at in spots}
                damaged = index_from_bytes(resealed(idx, changes))
                hurt = {bisect_right(table.starts, at) - 1 for at in spots}
                probed = [p for p in patterns if any(b in hurt for _, b in pieces[p])] + rng.sample(patterns, 20)
                for p in probed:
                    for piece, _ in pieces[p]:
                        plan[:] = [piece]
                        _, start, end, _ = piece
                        try:
                            damaged._search(p, {})
                            walk = None
                        except RegionReached as reached:
                            walk = slice(*reached.args)
                        except CorruptListError as err:
                            walk = str(err)
                        try:
                            probe = damaged.table.lookup_list(p[start:end])
                        except CorruptListError as err:
                            probe = str(err)
                        assert walk == probe, (p, piece)
                        seen[type(probe).__name__] += 1
    assert seen["slice"] and seen["NoneType"] and seen["str"] and seen["last tag"], seen


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
    # Regions 1 and 2 hold 5 and 9 bytes, one group each, which is their
    # last; region 3 runs to the list's end.
    assert idx.lists[idx.table.lookup_list(b"ab")] == b"\x05\x09" + b"\x84cdef" + b"\x84ghijgxij" + b"\x84ghijgyij"
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
    idx = build_index(Dictionary([b"abcxy", b"abcxyz", b"pqrabc"]), 1)
    a = idx.table.lookup_list(b"abc")
    assert idx.lists[a] == b"\x08" + b"\x02\x02xy\x83xyz" + b"\x83pqr"
    # Read as a region 1 entry, b"qr" of region 2 would rebuild b"abcqr".
    assert idx.query(b"abcqr") == []
    # The group of b"xy", not its region's last, now runs to the end of
    # b"qr": it crosses its region's end, rather than answering from region 2.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + a.start + 2: b"\x0a"}))
    with pytest.raises(CorruptListError, match="a group of the list for key b'abc' crosses its region's end"):
        damaged.query(b"abcqr")


@pytest.mark.parametrize("coded", [False, True])
def test_run_past_its_list_is_corrupt(coded):
    subs = SubstitutionList([(b"zz", 200)]) if coded else None
    idx = build_index(Dictionary([b"xyzabc", b"wxyzabc", b"pqrst"]), 1, substitutions=subs)
    at = idx.table.lookup_list(b"abc")
    assert idx.lists[at] == b"\x00" + b"\x03\x03xyz\x84wxyz" and at.stop < len(idx.lists)
    # The group of b"xyz", the first of the last region, grows to a byte past
    # the list's end, which the pattern's last rest byte matches.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + at.start + 2: b"\x09"}))
    with pytest.raises(CorruptListError, match="a group of the list for key b'abc' crosses its region's end"):
        damaged.query(b"yz" + idx.lists[at.stop : at.stop + 1] + b"abc")


def test_run_past_its_list_is_corrupt_in_the_matrix():
    # The first group of the list's last region grows to a byte past the
    # list's end: as a matrix row its last entry would match the pattern
    # exactly.
    for k, words, key, blob in ((1, [b"xyzabc", b"wxyzabc", b"pqrst"], b"abc", b"\x00" + b"\x03\x03xyz\x84wxyz"),
                                (2, [b"cdefab", b"ghijklab", b"pqrstu"], b"ab", b"\x00\x00" + b"\x04\x04cdef\x86ghijkl")):
        idx = build_index(Dictionary(words), k)
        at = idx.table.lookup_list(key)
        assert idx.lists[at] == blob and at.stop < len(idx.lists)
        # The group's byte length follows the k region lengths and its L.
        need = blob[k]
        grown = at.stop + 1 - (at.start + k + 2)
        assert grown % need == 0
        damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + at.start + k + 1: bytes([grown])}))
        with patch.object(core, "MATRIX_RUN", 1), pytest.raises(CorruptListError, match=repr(key)):
            damaged.query(idx.lists[at.stop + 1 - need : at.stop + 1] + key)


def test_walk_past_its_list_is_corrupt():
    idx = build_index(Dictionary([b"abcde", b"abcdef", b"qqqqq"]), 2)
    at = idx.table.lookup_list(b"ab")
    assert idx.lists[at] == b"\x0a\x00" + b"\x03\x03cde\x84cdef" and at.stop < len(idx.lists)
    # The shorter group that the walk skips now ends past the list, in the
    # next record.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + at.start + 3: b"\x09"}))
    with pytest.raises(CorruptListError, match="a group of the list for key b'ab' crosses its region's end"):
        damaged.query(b"abcdexx")


# Two buckets: b"cd" alone in bucket 0, then b"ab" and b"xy" in bucket 1.
# Each bucket's last record has the flag in its key length and no list
# length, and so has each region's last group in its L.
TWO_BUCKETS = [b"\x82cd" + b"\x03\x82ab",
               b"\x02ab\x07" + b"\x03\x82xy\x82cd" + b"\x82xy" + b"\x00\x82ab"]


def two_buckets():
    idx = build_index(Dictionary([b"abxy", b"cdab"]), 1)
    assert [idx.table.data[a:b] for a, b in pairwise(idx.table.starts)] == TWO_BUCKETS
    return idx


def assert_every_reader_raises(damaged, message, key, pattern):
    """The probe of ``key``, the query of ``pattern``, the record walk and
    both stats each raise CorruptListError with exactly ``message``."""
    for read in (lambda: damaged.table.lookup_list(key), lambda: damaged.query(pattern),
                 lambda: list(damaged.table.records()), damaged.table.bucket_stats, damaged.list_stats):
        with pytest.raises(CorruptListError, match=f"^{re.escape(message)}$"):
            read()


def test_bucket_record_past_its_bucket_is_corrupt():
    idx = two_buckets()
    # The key of b"xy", bucket 1's last record, runs past the bucket's end,
    # where the arena ends too; or it loses its flag and runs to the end,
    # leaving no byte for a list length.  A miss walks over it, and b"ab",
    # before it, still hits.
    for key_length in (b"\x87", b"\x06"):
        damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + 18: key_length}))
        assert damaged.lists[damaged.table.lookup_list(b"ab")] == b"\x03\x82xy\x82cd"
        assert_every_reader_raises(damaged, "bucket 1 holds a record that runs past its end", b"zz", b"zzzz")


def test_list_past_its_bucket_is_corrupt():
    idx = two_buckets()
    # The list of b"ab", the first record of bucket 1, grows past the
    # bucket's end, over b"xy".
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + 10: b"\x0f"}))
    assert_every_reader_raises(damaged, "the list for key b'ab' runs past the end of bucket 1", b"ab", b"abxy")
    # A miss in bucket 1 walks over the grown list to past the bucket's end,
    # in the probe and in the query's own walk, whose pieces are both ``miss``.
    miss = next(key for key in (b"k%d" % i for i in range(100)) if HASH_FUNCTIONS["crc32"](key) & 1 == 1)
    with pytest.raises(CorruptListError, match="bucket 1 holds a record that runs past its end"):
        damaged.table.lookup_list(miss)
    with pytest.raises(CorruptListError, match="bucket 1 holds a record that runs past its end"):
        damaged.query(miss + miss)


def test_list_length_past_its_bucket_is_corrupt():
    idx = two_buckets()
    # The key of b"ab" grows over its list and b"xy", so that its list
    # length is the bucket's last byte; it carries on (0x80) past the arena.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + 7: b"\x10", arena_offset(idx) + 24: b"\x80"}))
    assert_every_reader_raises(damaged, "bucket 1 holds a list length that runs past its end", b"ab", b"abxy")


def test_length_of_more_than_five_bytes_is_corrupt():
    idx = two_buckets()
    at = arena_offset(idx) + 7 + 3  # the list length of b"ab", in bucket 1
    damaged = index_from_bytes(resealed(idx, {at: b"\x80\x80\x80\x80\x80\x01"}))
    assert_every_reader_raises(damaged, "bucket 1 holds a list length of more than 5 bytes", b"ab", b"abxy")
    # The same for the region length that opens the list of b"ab", which
    # the query and the list stats read.
    damaged = index_from_bytes(resealed(idx, {at + 1: b"\x80\x80\x80\x80\x80\x01"}))
    for read in (lambda: damaged.query(b"abxy"), damaged.list_stats):
        with pytest.raises(CorruptListError, match="list for key b'ab' holds a region length of more than 5 bytes"):
            read()
    # Five bytes are read: 2**35 - 1 is the longest length stored, more than
    # an arena, under 2**32 bytes, can hold.
    assert hashing._read_length(b"\xff\xff\xff\xff\x7f", 0, 5, 0) == (2**35 - 1, 5)
    assert hashing.LENGTH_BYTES * 7 >= (hashing.ARENA_LIMIT - 1).bit_length()


def first_record(idx):
    """The key, list offset and list end of the arena's first record, the
    first of its bucket and not its last: a list length precedes its list."""
    _, key, begin, end = next(idx.table.records())
    assert end < idx.table.starts[1]
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
    # An L of 0 can be written only as an escape, 0x80 for a region's last
    # group, and then a 0.
    for coded in (False, True):
        subs = SubstitutionList([(b"zz", 200)]) if coded else None
        idx = build_index(Dictionary([b"abcdef", b"ghijkl"]), 1, substitutions=subs)
        key, begin, end = first_record(idx)
        assert idx.lists[begin + 1] == 0x83  # the first group's L, its region's last, after one region length
        damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + begin + 1: b"\x80\x00"}))
        word = next(w for w in (b"abcdef", b"ghijkl") if key in split_word(w, 1))
        with pytest.raises(CorruptListError, match=f"key {key!r} holds group lengths that do not rise"):
            damaged.query(word)


GROUP_WORDS = [b"abz", b"abcd", b"abce", b"abxy", b"qrsab", b"cdab"]
# The list for b"ab" at k = 1: region 1 holds the groups of lengths 1 and 2,
# region 2 those of lengths 2 and 3, each ``[L][B][payloads]`` but the last
# of its region ``[L | 0x80][payloads]``.
GROUP_LIST = b"\x0a" + b"\x01\x01z" + b"\x82cdcexy" + b"\x02\x02cd" + b"\x83qrs"


def damaged_groups(changes):
    """The k = 1 index of GROUP_WORDS, loaded from its file with ``changes``
    (offset in GROUP_LIST -> bytes) written over the list for b"ab"."""
    idx = build_index(Dictionary(GROUP_WORDS), 1)
    at = idx.table.lookup_list(b"ab")
    assert idx.lists[at] == GROUP_LIST
    return index_from_bytes(resealed(idx, {arena_offset(idx) + at.start + o: v for o, v in changes.items()}))


# Each damage to the list for b"ab", a query whose walk reads it, and what
# the error says; a zero length is test_zero_entry_length_is_corrupt's.  A
# region's last group stores no byte length, so the damage to one lies on a
# group before it.
DAMAGED_GROUPS = {
    "repeated length": ({4: b"\x81"}, b"abcd", "holds group lengths that do not rise"),
    "descending length": ({15: b"\x81"}, b"qrsab", "holds group lengths that do not rise"),
    "group past its region": ({12: b"\x07"}, b"cdab", "a group of the list for key b'ab' crosses its region's end"),
    "skipped group past its region": ({2: b"\x0a"}, b"abcd", "a group of the list for key b'ab' crosses its region's end"),
    "truncated group length": ({15: b"\x03\x83\x80\x80"}, b"qrsab", "holds a group length that runs past its end"),
    "no whole number of entries": ({12: b"\x03"}, b"cdab", "a group of the list for key b'ab' holds no whole number of entries"),
}


@pytest.mark.parametrize("case", DAMAGED_GROUPS)
def test_damaged_group_is_corrupt(case):
    changes, pattern, what = DAMAGED_GROUPS[case]
    assert pattern in build_index(Dictionary(GROUP_WORDS), 1).query(pattern)
    damaged = damaged_groups(changes)
    with pytest.raises(CorruptListError, match=re.escape(what)) as err:
        damaged.query(pattern)
    assert "key b'ab'" in str(err.value)
    with pytest.raises(CorruptListError, match=re.escape(what)):
        damaged.list_stats()


# Damage to the flags and escapes of format v7: where it lies, "list" for
# the list for b"ab" of GROUP_WORDS's index (offsets in GROUP_LIST) and
# "arena" for TWO_BUCKETS; the bytes written; the bounds of the region or
# bucket it damages; and patterns whose walks read it.
FLAG_DAMAGE = {
    "flag set on a group before its region's last": ("list", {1: b"\x81"}, (1, 11), [b"abz", b"abcd"]),
    "flag set on region 2's first group": ("list", {11: b"\x82"}, (11, 19), [b"cdab", b"qrsab"]),
    "flag cleared on region 1's last group": ("list", {4: b"\x02"}, (1, 11), [b"abcd", b"abxy"]),
    "flag cleared on the list's last group": ("list", {15: b"\x03"}, (11, 19), [b"qrsab"]),
    "escape as its region's last byte": ("list", {12: b"\x05", 18: b"\x80"}, (11, 19), [b"qrsab"]),
    "flag set on a record before its bucket's last": ("arena", {7: b"\x82"}, (7, 25), [b"abxy", b"xyab", b"cdab"]),
    "flag cleared on a bucket's last record": ("arena", {18: b"\x02"}, (7, 25), [b"abxy", b"xyab"]),
    "escape as its bucket's last byte": ("arena", {0: b"\x02", 3: b"\x02", 6: b"\x00"}, (0, 7), [b"cdab", b"abcd"]),
}


@pytest.mark.parametrize("case", FLAG_DAMAGE)
def test_damaged_flags_and_escapes_raise_or_answer_from_their_own_bytes(case):
    # Every reader either raises CorruptListError or answers as before, but
    # for words whose rest lies in the bytes of the damaged region or
    # bucket; at least one pattern reads the damage.
    where, changes, (lo, hi), patterns = FLAG_DAMAGE[case]
    if where == "list":
        idx = build_index(Dictionary(GROUP_WORDS), 1)
        base = idx.table.lookup_list(b"ab").start
        assert idx.lists[base : base + len(GROUP_LIST)] == GROUP_LIST
    else:
        idx, base = two_buckets(), 0
        # Misses in bucket 0 and in bucket 1, which walk every record.
        patterns = patterns + [2 * next(key for key in (b"k%d" % i for i in range(100))
                                        if HASH_FUNCTIONS["crc32"](key) & 1 == h) for h in (0, 1)]
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + base + o: v for o, v in changes.items()}))
    own = damaged.lists[base + lo : base + hi]
    read = 0
    for p in patterns:
        try:
            got = damaged.query(p)
        except CorruptListError:
            read += 1
            continue
        read += got != idx.query(p)
        for w in set(got) - set(idx.query(p)):
            assert any(piece in own for piece in split_word(w, 1)), (p, w)
    assert read
    for stats in (damaged.list_stats, damaged.table.bucket_stats):
        try:
            stats()
        except CorruptListError:
            pass


def test_coded_group_of_no_whole_number_of_entries_is_corrupt():
    idx = build_index(Dictionary([b"abczz", b"pqrst"]), 1, substitutions=SubstitutionList([(b"zz", 200)]))
    at = idx.table.lookup_list(b"abc")
    assert idx.lists[at] == b"\x02" + b"\x82\xc8"  # b"zz" coded as one byte
    # The code becomes a plain byte: the group decodes to 1 byte, not 2.
    damaged = index_from_bytes(resealed(idx, {arena_offset(idx) + at.start + 2: b"x"}))
    what = "a group of the list for key b'abc' holds no whole number of entries"
    with pytest.raises(CorruptListError, match=re.escape(what)):
        damaged.query(b"abczz")
    with pytest.raises(CorruptListError, match=re.escape(what)):
        damaged.list_stats()


def test_list_stats_of_a_damaged_list_is_corrupt():
    assert damaged_groups({}).list_stats() == ListStats(6, 12, 2.0, 6, 24)
    # A zero length, an escape and a 0, would divide by zero, and a grown
    # group would count bytes of the next group or record as payload.
    for changes, what in (({1: b"\x00\x00"}, "holds group lengths that do not rise"),
                          ({12: b"\x07"}, "crosses its region's end")):
        with pytest.raises(CorruptListError, match=f"list for key b'ab' {what}"):
            damaged_groups(changes).list_stats()


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


def leb_size(n):
    """Bytes of ``n`` as LEB128."""
    return max(1, -(-n.bit_length() // 7))


def group_size(n, last):
    """Bytes of a group of ``n`` payload bytes, L under 128: its L, its byte
    length as LEB128 unless it is its region's ``last``, and the payloads; no
    group for none."""
    return 1 + (0 if last else leb_size(n)) + n if n else 0


@pytest.mark.parametrize(
    "size,length",
    [(127, b"\x7f"), (128, b"\x80\x01"), (16383, b"\xff\x7f"), (16384, b"\x80\x80\x01")],
)
def test_lists_round_trip_at_every_list_length_width(size, length):
    # At k = 1 every word below is keyed by its first piece, b"abcde": a
    # 10-byte word stores a 5-byte payload in that list, a 9-byte one a
    # 4-byte payload, in two groups of region 1, after its length.  The
    # record of b"abcde" is not its bucket's last, so it stores the length.
    fours, fives = next((f, s) for f in range(8) for s in range(size // 5 + 1)
                        if (region := group_size(4 * f, s == 0) + group_size(5 * s, True)) + leb_size(region) == size)
    tails = [bytes(t) for t in islice(product(b"fghijklmnopqrstu", repeat=5), fives)]
    tails += [bytes(t) for t in islice(product(b"vwxyz", repeat=4), fours)]
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
def entries_keyed_by(key, r, k):
    """Words that keep ``key`` as their piece r, as (payload, word) pairs, by
    payload length, in byte order of their payloads: a group's list order."""
    out = {}
    for n in range(len(key) + 1, 12):
        lengths = piece_lengths(n, k)
        if lengths[r] != len(key):
            continue
        cut = sum(lengths[:r])
        for t in islice(product(b"fghijklm", repeat=n - len(key)), 20_000):
            t = bytes(t)
            out.setdefault(len(t), []).append((t, t[:cut] + key + t[cut:]))
    return out


def stored_size(entries, x, coded):
    """Bytes of the group of the first ``x`` of ``entries``, coded as one
    string with WIDTH_SUBS or not."""
    group = b"".join(t for t, _ in entries[:x])
    return len(WIDTH_SUBS.encode(group) if coded else group)


def region_words(key, r, k, size, coded):
    """Words whose entries fill region r + 1 of the list of ``key`` with
    exactly ``size`` bytes, in two groups of lengths in a row, the second the
    region's last, with no byte length.  A group's coded size never falls as
    entries are added, so the first group's count is found by bisection."""
    pool = entries_keyed_by(key, r, k)
    for n in sorted(pool):
        if n + 1 not in pool:
            continue
        first, second = pool[n], pool[n + 1]
        for y in range(1, len(second) + 1):
            left = size - group_size(stored_size(second, y, coded), True)
            for w in (1, 2, 3):  # the LEB128 bytes of the first group's length
                want = left - 1 - w
                x = bisect_left(range(len(first) + 1), want, key=lambda x: stored_size(first, x, coded))
                if 0 < x <= len(first) and stored_size(first, x, coded) == want and leb_size(want) == w:
                    return [word for _, word in first[:x] + second[:y]]
    raise AssertionError(f"no two groups of {size} bytes")


@pytest.mark.parametrize("size", [0, 127, 128, 16383, 16384])
def test_lists_round_trip_at_every_region_length_width(size):
    # Region 1 of the list of ``key`` holds ``size`` bytes, so its length
    # takes 1, 1, 2, 2 and 3 LEB128 bytes; each later region holds one entry,
    # found through that length.
    rng = random.Random(size)
    for k, coded in product((1, 2), (False, True)):
        key = b"keyab" if k == 1 else b"key"
        words = region_words(key, 0, k, size, coded) if size else []
        words += [min(entries_keyed_by(key, r, k).items())[1][0][1] for r in range(1, k + 1)]
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


def record(key, blob, last):
    """The bucket record of ``key`` and its list ``blob``: ``[key length]
    [key][list length, LEB128][list]``, or ``[key length | 0x80][key][list]``
    for its bucket's ``last``; keys are under 128 bytes."""
    assert len(key) < 0x80
    return bytes((len(key) | 0x80 * last,)) + key + (b"" if last else hashing._length_bytes(np.array([len(blob)]))[0].tobytes()) + blob


def test_buckets_with_their_records_in_another_order_load_answer_and_resave():
    # A build lays each bucket's records out in (key length, key bytes)
    # order, but no reader depends on it: earlier format-v5 builds kept them
    # in the order the keys were first met.  Here every bucket holds its
    # records reversed.
    rng = random.Random(44)
    d = Dictionary(random_words(rng, 500, 4) + [b"a"])
    patterns = list(d.words[:40]) + list(gen_noisy_queries(d, 200, seed=44).patterns)
    for k, subs in product((1, 2), (None, RANDOM_SUBS)):
        idx = build_index(d, k, substitutions=subs)
        table = idx.table
        buckets = [[] for _ in range(table.bucket_count)]
        for h, key, begin, end in table.records():
            buckets[h].append((key, table.data[begin:end]))
        relaid = [b"".join(record(key, blob, i == len(b) - 1) for i, (key, blob) in enumerate(b[::-1])) for b in buckets]
        arena = b"".join(relaid)
        # A bucket's last record stores no list length, so reversing a bucket
        # adds the length of its old last list and drops that of its new one.
        assert arena != table.data
        assert len(arena) - len(table.data) == sum(leb_size(len(b[-1][1])) - leb_size(len(b[0][1])) for b in buckets if b)
        flipped = ChainedHashTable(arena, array("I", accumulate(map(len, relaid), initial=0)), table.config)
        blob = index_to_bytes(SplitIndex(k, flipped, idx.side_table, subs, idx.source_stats))
        loaded = index_from_bytes(blob)
        assert index_to_bytes(loaded) == blob
        assert loaded.list_stats() == idx.list_stats()
        for p in patterns:
            assert loaded.query(p) == oracle_query(d, p, k), (k, subs is not None, p)


@pytest.mark.parametrize("k", [1, 2])
def test_version_6_file_is_rejected(k):
    # Format version 6 files, written by index_to_bytes at commit 5fba327
    # from 37 words with crc32 and their mined mixed/20 rules: every group
    # and every record stored its byte length.
    blob = (Path(__file__).parent / "data" / f"entry_coded_k{k}.bin").read_bytes()
    assert blob[8:10] == (6).to_bytes(2, "little")
    with pytest.raises(VersionMismatchError, match="version 6, this reader supports 7"):
        index_from_bytes(blob)
