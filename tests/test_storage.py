"""Index file round trips and malformed-file handling."""

import logging
import random
import struct
import zlib
from collections import Counter

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
    # still answers (wrongly) is not caught here.
    rng = random.Random(62)
    cases = []
    for k in (1, 2):
        for coded in (False, True):
            d = Dictionary(random_words(rng, 250, 8) + [b"a", b"ab"])
            subs = mine_substitutions(d, "mixed", 20) if coded else None
            idx = build_index(d, k, substitutions=subs)
            blob = index_to_bytes(idx)
            tail = sum(len(b) + 4 for b in idx.table.buckets + idx.lists) + 8
            cases.append((blob, len(blob) - 4 - tail, d.words + gen_noisy_queries(d, 50, seed=k).patterns))
    raised = Counter()
    for case in range(1500):
        blob, start, patterns = cases[case % len(cases)]
        body = bytearray(blob[:-4])
        for at in rng.sample(range(start, len(body)), rng.randint(1, 3)):
            body[at] ^= rng.randrange(1, 256)
        data = bytes(body) + struct.pack("<I", zlib.crc32(body))
        try:
            idx = index_from_bytes(data)
            for p in patterns:
                idx.query(p)
        except SplitIndexError as err:
            raised[type(err)] += 1
    assert raised[CorruptListError] and raised[CodecError] and raised[TruncatedIndexError]


def test_region_markers_out_of_order_are_corrupt():
    d = Dictionary([b"abcdef", b"ghabij", b"gxabij", b"ghijab", b"gyijab"])
    idx = build_index(d, 2)
    ref = idx.table.lookup_list(b"ab")
    blob = bytearray(idx.lists[ref])
    assert blob[:4] == b"\x02\x00\x04\x00"  # region 2 starts at entry 2, region 3 at 4
    blob[2] = 1  # region 3 before region 2: a negative entry count
    idx.lists[ref] = bytes(blob)
    with pytest.raises(CorruptListError, match="b'ab'"):
        idx.query(b"ghabiz")
