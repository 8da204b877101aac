"""Index file round trips and malformed-file handling."""

import gc
import logging
import random
import struct
import tracemalloc
import zlib
from collections import Counter
from unittest.mock import patch

import pytest

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
    save_index,
)
from splitindex import core
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
    assert "7" in str(err.value) and "3" in str(err.value)


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
    with pytest.raises(VersionMismatchError, match="version 2, this reader supports 3"):
        index_from_bytes(VERSION_2_FILE)


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
    longest = max(idx.lists, key=len)
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
    assert xx.lists == crc.lists and xx.size_bytes() == crc.size_bytes()
    for p in gen_noisy_queries(d, 150, seed=k).patterns + (b"a", b"zz"):
        assert xx.query(p) == crc.query(p) == oracle_query(d, p, k)


def test_resealed_corrupted_files_raise_only_package_errors():
    # Bytes flipped in the bucket and list sections, with the checksum
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
            tail = sum(len(b) + 4 for b in (*idx.table.buckets, *idx.lists)) + 8
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


def arena_offsets(idx):
    """Offsets in ``index_to_bytes(idx)`` of the bucket arena and the list arena."""
    lists = len(index_to_bytes(idx)) - 4 - len(idx.lists.data)
    return lists - 4 * len(idx.lists) - 4 - len(idx.table.buckets.data), lists


def resealed(idx, changes):
    """The file of ``idx`` with ``changes[at]`` written at each offset ``at``
    and the checksum recomputed."""
    body = bytearray(index_to_bytes(idx)[:-4])
    for at, value in changes.items():
        body[at : at + len(value)] = value
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def test_region_markers_out_of_order_are_corrupt():
    d = Dictionary([b"abcdef", b"ghabij", b"gxabij", b"ghijab", b"gyijab"])
    idx = build_index(d, 2)
    ref = idx.table.lookup_list(b"ab")
    blob = bytearray(idx.lists[ref])
    assert blob[:4] == b"\x02\x00\x04\x00"  # region 2 starts at entry 2, region 3 at 4
    # Region 3 before region 2: a negative entry count.
    idx = index_from_bytes(resealed(idx, {arena_offsets(idx)[1] + idx.lists.starts[ref] + 2: b"\x01"}))
    with pytest.raises(CorruptListError, match="b'ab'"):
        idx.query(b"ghabiz")


def test_hop_past_its_list_does_not_answer_from_the_next():
    idx = build_index(Dictionary([b"abxy", b"cdab"]), 1)
    a, b = idx.table.lookup_list(b"ab"), idx.table.lookup_list(b"xy")
    assert (a + 1, idx.lists[a], idx.lists[b]) == (b, b"\x02\x00\x02xy\x02cd\x00", b"\x01\x00\x02ab\x00")
    assert idx.query(b"xbab") == []
    # The hop over region 1 of "ab" lands in the next list: on its entry
    # b"ab", which would read as b"abab", one mismatch from the pattern, or
    # on a zero marker byte, which would end the walk without a word.
    at = arena_offsets(idx)[1] + idx.lists.starts[a] + 2
    for length in (9, 8):
        damaged = index_from_bytes(resealed(idx, {at: bytes((length,))}))
        with pytest.raises(CorruptListError, match="b'ab'"):
            damaged.query(b"xbab")


def test_hop_far_past_its_list_is_corrupt():
    idx = build_index(Dictionary([b"pqrs", b"uvpq", b"xya", b"xyb"]), 1)
    a, c = idx.table.lookup_list(b"pq"), idx.table.lookup_list(b"xy")
    assert idx.lists[a] == b"\x02\x00\x02rs\x02uv\x00" and idx.lists[c] == b"\x00\x00\x01a\x01b\x00"
    # The hop lands two lists on, on two 1-byte entries in a row, where a
    # strided slice bounded by the end of "pq" is empty.
    length = idx.lists.starts[c] + 2 - (idx.lists.starts[a] + 3)
    damaged = index_from_bytes(resealed(idx, {arena_offsets(idx)[1] + idx.lists.starts[a] + 2: bytes((length,))}))
    with pytest.raises(CorruptListError, match="b'pq'"):
        damaged.query(b"xxpq")


@pytest.mark.parametrize("coded", [False, True])
def test_run_past_its_list_is_corrupt(coded):
    subs = SubstitutionList([(b"zz", 200)]) if coded else None
    idx = build_index(Dictionary([b"abcxy", b"pqrst"]), 1, substitutions=subs)
    ref = idx.table.lookup_list(b"abc")
    assert idx.lists[ref] == b"\x00\x00\x02xy\x00"
    # The entry b"xy" grows over the terminator: b"abcxy\x00" would match.
    at = arena_offsets(idx)[1] + idx.lists.starts[ref] + 2
    damaged = index_from_bytes(resealed(idx, {at: b"\x03"}))
    with pytest.raises(CorruptListError, match="b'abc'"):
        damaged.query(b"abcxy\x00")


def test_run_past_its_list_is_corrupt_in_the_matrix():
    idx = build_index(Dictionary([b"abcxyz", b"pqrstu"]), 2)
    ref = idx.table.lookup_list(b"ab")
    assert idx.lists[ref] == b"\x00\x00\x00\x00\x04cxyz\x00" and ref + 1 < len(idx.lists)
    # The entry b"cxyz" grows over the terminator: as a matrix row it would
    # match b"abcxyz\x00" exactly.
    at = arena_offsets(idx)[1] + idx.lists.starts[ref] + 4
    damaged = index_from_bytes(resealed(idx, {at: b"\x05"}))
    with patch.object(core, "MATRIX_RUN", 1), pytest.raises(CorruptListError, match="b'ab'"):
        damaged.query(b"abcxyz\x00")


def test_walk_past_its_list_is_corrupt():
    idx = build_index(Dictionary([b"abcde"]), 2)
    ref = idx.table.lookup_list(b"ab")
    assert idx.lists[ref] == b"\x00\x00\x00\x00\x03cde\x00"
    # The shorter entry that the walk skips now ends on the terminator, so
    # the walk goes on into the next list and finds no 5-byte entry there.
    at = arena_offsets(idx)[1] + idx.lists.starts[ref] + 4
    damaged = index_from_bytes(resealed(idx, {at: b"\x04"}))
    with pytest.raises(CorruptListError, match="b'ab'"):
        damaged.query(b"abcdexx")


def test_bucket_record_past_its_bucket_is_corrupt():
    idx = build_index(Dictionary([b"abxy"]), 1)
    assert len(idx.table.buckets) == 1 and idx.table.buckets[0] == b"\x02ab\x00\x00\x00\x00\x02xy\x01\x00\x00\x00"
    damaged = index_from_bytes(resealed(idx, {arena_offsets(idx)[0] + 7: b"\x03"}))
    assert damaged.table.lookup_list(b"ab") == 0
    # A miss walks over the grown record to past the bucket's end; the key
    # b"xy\x01", which the damage made, has its ref past that end.
    for key in (b"zz", b"xy\x01"):
        with pytest.raises(CorruptListError, match="bucket 0"):
            damaged.table.lookup_list(key)
    with pytest.raises(CorruptListError):
        damaged.query(b"zzzz")


def test_ref_past_the_last_list_is_corrupt():
    idx = build_index(Dictionary([b"abxy"]), 1)
    at = arena_offsets(idx)[0] + 3  # the ref of b"ab"
    damaged = index_from_bytes(resealed(idx, {at: bytes((len(idx.lists),))}))
    with pytest.raises(CorruptListError, match="b'ab'"):
        damaged.query(b"abxy")


def list_lengths(idx, lengths):
    """Changes that rewrite the list section's length array to ``lengths``."""
    at = arena_offsets(idx)[1] - 4 * len(idx.lists)
    return {at: struct.pack(f"<{len(lengths)}I", *lengths)}


@pytest.mark.parametrize("k", [1, 2])
def test_list_shorter_than_markers_and_terminator_fails_at_load(k):
    idx = build_index(Dictionary([b"abcdef", b"ghijkl"]), k)
    sizes = [len(b) for b in idx.lists]
    # List 1 gives its bytes but 2k to list 2; the arena stays as it was.
    sizes[1:3] = [2 * k, sizes[1] + sizes[2] - 2 * k]
    with pytest.raises(StorageError, match=f"list 1 holds {2 * k} bytes, fewer than {2 * k + 1}"):
        index_from_bytes(resealed(idx, list_lengths(idx, sizes)))


def test_list_lengths_adding_up_past_32_bits_are_a_cut_file():
    idx = build_index(Dictionary([b"abcdef", b"ghijkl"]), 1)
    sizes = [len(b) for b in idx.lists]
    # The same total modulo 2**32, but 2**32 bytes more than the file holds.
    sizes[1:3] = [2**32 - 1, sizes[1] + sizes[2] + 1]
    with pytest.raises(TruncatedIndexError):
        index_from_bytes(resealed(idx, list_lengths(idx, sizes)))


def test_list_without_its_terminator_fails_at_load():
    idx = build_index(Dictionary([b"abcdef", b"ghijkl"]), 1)
    sizes = [len(b) for b in idx.lists]
    sizes[1:3] = [sizes[1] - 1, sizes[2] + 1]  # list 1 now ends in a payload byte
    with pytest.raises(StorageError, match="list 1 does not end with the terminator"):
        index_from_bytes(resealed(idx, list_lengths(idx, sizes)))


@pytest.mark.parametrize("k", [1, 2])
def test_loaded_heap_is_close_to_the_file_size(k):
    # The bucket and list sections load as two arenas with u32 offsets, not
    # as one object per blob.
    data = index_to_bytes(build_index(Dictionary(random_words(random.Random(5), 20_000, 26)), k))
    gc.collect()
    tracemalloc.start()
    try:
        idx = index_from_bytes(data)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert idx.lists.data and held <= 1.25 * len(data), held / len(data)
