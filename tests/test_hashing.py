"""Hash function vectors and the compact chained table."""

import logging
import random
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitindex import (
    HASH_FUNCTIONS,
    BuildError,
    ChainedHashTable,
    ConfigError,
    Dictionary,
    HashConfig,
    build_index,
    hashing,
)
from splitindex.hashing import fnv1_64, fnv1a_64, sdbm_64, xxhash64
from splitindex.storage import index_from_bytes, index_to_bytes

def table(keys, config=None):
    """A table storing a list of its own bytes after each of ``keys``."""
    lists = [b"list of " + key for key in keys]
    return ChainedHashTable.build(keys, b"".join(lists), list(map(len, lists)), config)


def chain_lengths(t, keys):
    """The number of ``keys`` that hash to each bucket of ``t``."""
    lengths = [0] * t.bucket_count
    for key in keys:
        lengths[HASH_FUNCTIONS[t.config.function_id](key) % t.bucket_count] += 1
    return lengths


# Frozen against the canonical C implementation (xxh64, seed 0).
XXH64_VECTORS = [
    (b"", 0xEF46DB3751D8E999),
    (b"a", 0xD24EC4F1A98C6E5B),
    (b"ab", 0x65F708CA92D04A61),
    (b"tab", 0x5C57ED5BADAB57C3),
    (b"abc", 0x44BC2CF5AD770999),
    (b"abcd", 0xDE0327B0D25D92CC),
    (b"le", 0x9920649D4E123860),
    (b"0123456", 0x97EE4FE4A0FF4DFA),
    (b"01234567", 0xE4BA22A49AD89D3F),
    (b"0123456789abcde", 0x4BB51A30968E6A4D),
    (b"0123456789abcdef", 0x5C5B90C34E376D0B),
    (bytes(range(31)), 0xC346D2B59B4D8EE1),
    (bytes(range(32)), 0xCBF59C5116FF32B4),
    (bytes(range(33)), 0x0C535D1ACAFB8EAD),
    (b"x" * 100, 0x92F0DE5A88A3C094),
    (bytes([0, 255, 128, 7]), 0xECD878687C954F35),
]


# Published CRC-32 (IEEE 802.3) values; "123456789" is the standard check.
CRC32_VECTORS = [
    (b"", 0x00000000),
    (b"a", 0xE8B7BE43),
    (b"tab", 0x73E3430C),
    (b"123456789", 0xCBF43926),
]

XXHASH = HashConfig(function_id="xxhash")


@pytest.mark.parametrize("data,expected", CRC32_VECTORS)
def test_crc32_vectors(data, expected):
    assert HASH_FUNCTIONS["crc32"](data) == expected


def test_crc32_is_the_default():
    assert hashing.DEFAULT_HASH == "crc32" == HashConfig().function_id
    assert table([b"tab"]).config.function_id == "crc32"


@pytest.mark.parametrize("data,expected", XXH64_VECTORS)
def test_xxhash64_vectors(data, expected):
    assert xxhash64(data) == expected
    # the registered function may be the C implementation; must agree
    assert HASH_FUNCTIONS["xxhash"](data) == expected


def test_fnv1a_published_vector():
    # offset basis 14695981039346656037, prime 1099511628211
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8
    assert fnv1a_64(b"") == 0xCBF29CE484222325


def test_fnv1_and_sdbm_definitions():
    # recomputed from the definitions byte by byte
    m = (1 << 64) - 1
    h = 0xCBF29CE484222325
    for b in b"tab":
        h = (h * 0x100000001B3) & m
        h ^= b
    assert fnv1_64(b"tab") == h
    h = 0
    for b in b"tab":
        h = (b + (h << 6) + (h << 16) - h) & m
    assert sdbm_64(b"tab") == h


def test_hash_determinism_and_empty():
    for fid in ("crc32", "xxhash", "fnv1", "fnv1a", "sdbm"):
        fn = HASH_FUNCTIONS[fid]
        assert fn(b"tab") == fn(b"tab")
        fn(b"")  # boundary input hashes without error


def test_unknown_function_id():
    for name in ("md5", "crc64"):
        with pytest.raises(ConfigError, match=name):
            HashConfig(function_id=name)


def test_config_validation():
    for lf in (0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            HashConfig(max_load_factor=lf)


def test_tiny_load_factor_and_huge_bucket_count_are_rejected():
    # Both checks run before a single bucket is allocated.
    for lf in (1e-6, 0.2499):
        with pytest.raises(ConfigError, match=str(lf)):
            HashConfig(max_load_factor=lf)
    assert HashConfig(max_load_factor=hashing.MIN_LOAD_FACTOR).max_load_factor == 0.25
    assert hashing._bucket_count(2**30, 0.25) == 2**32
    with pytest.raises(BuildError, match=str(2**33)):
        hashing._bucket_count(2**30 + 1, 0.25)


def test_buckets_over_the_arena_limit_are_a_build_error(monkeypatch):
    # The arena's u32 offsets address ARENA_LIMIT - 1 bytes.  The limit is
    # lowered to a small table's arena: a build that reaches it fails and
    # names the size that broke it, and one byte more lets it through.
    keys = [b"tab", b"le", b"tablet"]
    size = len(table(keys).data)
    monkeypatch.setattr(hashing, "ARENA_LIMIT", size)
    with pytest.raises(BuildError, match=f"^{size} bytes of buckets, over the {size - 1} "):
        table(keys)
    monkeypatch.setattr(hashing, "ARENA_LIMIT", size + 1)
    assert len(table(keys).data) == size


def test_build_and_lookup():
    t = table([b"tab", b"le"])
    for key in (b"tab", b"le"):
        assert t.data[t.lookup_list(key)] == b"list of " + key
    assert t.bucket_stats().key_count == 2
    assert t.lookup_list(b"zzz") is None
    assert table([]).lookup_list(b"tab") is None
    with pytest.raises(BuildError, match="255"):
        table([b"x" * 256])


def test_bucket_count_at_load_factor_boundary():
    cfg = HashConfig(max_load_factor=2.0)
    keys = [b"k%d" % i for i in range(5)]
    assert table([], cfg).bucket_count == 1
    assert table(keys[:2], cfg).bucket_count == 1  # 2 keys / 1 bucket = max LF exactly
    assert table(keys[:3], cfg).bucket_count == 2
    assert table(keys[:4], cfg).bucket_count == 2  # 4 keys / 2 buckets = max LF exactly
    t = table(keys, cfg)  # 5/2 would exceed 2.0
    assert t.bucket_count == 4
    assert t.bucket_stats().key_count == 5


@given(st.integers(0, 3000), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
@settings(max_examples=40, deadline=None)
def test_bucket_count_is_smallest_power_of_two_multiple(n, lf):
    cfg = HashConfig(max_load_factor=lf)
    b = table([b"%d" % i for i in range(n)], cfg).bucket_count
    assert b >= 1 and b & (b - 1) == 0
    assert n <= b * lf
    assert b == 1 or n > b // 2 * lf


def test_lookup_of_many_keys():
    keys = [b"key-%d" % i for i in range(100)]
    t = table(keys)
    assert t.bucket_count == 64
    for key in keys:
        assert t.data[t.lookup_list(key)] == b"list of " + key
    assert t.bucket_stats().key_count == len(keys)
    assert t.lookup_list(b"key-100") is None


def test_load_factor_never_exceeds_max():
    keys = [b"%d" % i for i in range(200)]
    for lf in (0.5, 1.0, 2.0, 3.0):
        for n in range(0, 201, 5):
            t = table(keys[:n], HashConfig(max_load_factor=lf))
            assert t.bucket_stats().key_count / t.bucket_count <= lf


def test_bucket_stats():
    s = table([]).bucket_stats()
    assert s.mean_chain == 0 and s.max_chain == 0
    cfg = HashConfig(max_load_factor=10.0)
    t2 = table([b"x%d" % i for i in range(4)], cfg)
    assert t2.bucket_count == 1 and t2.bucket_stats().mean_chain == 4.0


@given(st.integers(0, 3000), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_bucket_stats_mean_is_exact(n, seed):
    rng = random.Random(seed)
    keys = {bytes(rng.choices(b"abcdef", k=rng.randint(1, 12))) for _ in range(n)}
    t = table(list(keys))
    s = t.bucket_stats()
    lengths = chain_lengths(t, keys)
    assert s.key_count == len(keys) == sum(lengths)
    assert s.mean_chain == len(keys) / s.bucket_count
    assert s.max_chain == max(lengths)
    assert s.nonempty_buckets == sum(map(bool, lengths))


def test_bucket_stats_mean_exact_at_ten_thousand_keys():
    keys = [b"key-%d" % i for i in range(10_000)]
    t = table(keys)
    s = t.bucket_stats()
    assert s.key_count == 10_000 == sum(chain_lengths(t, keys))
    assert s.mean_chain == 10_000 / s.bucket_count


def test_buckets_are_bytes_after_build_and_load():
    idx = build_index(Dictionary([b"table", b"left", b"a"]), 1)
    loaded = index_from_bytes(index_to_bytes(idx))
    for t in (table([b"a", b"b"]), idx.table, loaded.table):
        assert type(t.data) is bytes and t.data
        assert t.starts.typecode == "I" and t.starts[0] == 0 and t.starts[-1] == len(t.data)
    assert loaded.table.lookup_list(b"tab") == idx.table.lookup_list(b"tab") is not None


def test_table_holds_its_buckets_as_data_and_starts():
    keys = [b"a", b"bc", b"def", b"g"]
    t = table(keys, HashConfig(max_load_factor=1.0))
    assert len(t.starts) == t.bucket_count + 1 == 5
    # Each record is [key length][key][list length][list], but a bucket's
    # last is [key length | 0x80][key][list]: its list runs to the bucket's end.
    buckets = [[key for key in keys if HASH_FUNCTIONS["crc32"](key) & 3 == h] for h in range(4)]
    expected = [b"".join(bytes((len(key) | 0x80 * (key == bucket[-1]),)) + key
                         + (b"" if key == bucket[-1] else bytes((8 + len(key),))) + b"list of " + key for key in bucket)
                for bucket in buckets]
    assert [t.data[a:b] for a, b in pairwise(t.starts)] == expected
    with pytest.raises(AttributeError):
        t.data = b""


@given(st.integers(0, 12).flatmap(lambda count: st.tuples(
    st.lists(st.lists(st.binary(max_size=4), min_size=count, max_size=count), min_size=1, max_size=4),
    st.none() | st.permutations(range(count)))))
@example(([[b"ab", b"", b"c"], [b"", b"", b""], [b"", b"de", b"f"]], [2, 0, 1]))  # a part with no bytes at all
@settings(max_examples=200, deadline=None)
def test_gather_takes_item_i_of_every_part_in_turn(case):
    items, order = case
    parts = [(np.frombuffer(b"".join(part), np.uint8), np.fromiter(map(len, part), np.int64)) for part in items]
    want = b"".join(part[i] for i in (range(len(items[0])) if order is None else order) for part in items)
    got = hashing._gather(parts, None if order is None else np.array(order, np.intp))
    assert got.dtype == np.uint8
    assert got.tobytes() == want


@given(st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 2**16 + 3) | st.integers(0, 5), max_size=300))
@example([2**16, 1, 2**16, 0, 2**32 - 1, 1, 2**16 + 1, 2**32 - 1])  # ties on both sides of 2**16
@settings(max_examples=300, deadline=None)
def test_radix_order_is_the_stable_argsort(values):
    # Small draws tie often; large ones reach the second, high 16-bit pass.
    for dtype in (np.int64, np.uint32):  # as the build passes them, and unsigned
        a = np.array(values, dtype)
        assert hashing._radix_order(a).tolist() == np.argsort(a, kind="stable").tolist()


def test_pure_python_xxhash_warns_once(monkeypatch, caplog):
    caplog.set_level(logging.WARNING, logger="splitindex.hashing")
    monkeypatch.setattr(hashing, "_slow_hash_warned", False)
    monkeypatch.setitem(HASH_FUNCTIONS, "xxhash", lambda data: xxhash64(data))
    table([b"a"], XXHASH)  # a C-backed stand-in says nothing
    table([b"a"], HashConfig(function_id="fnv1"))
    table([b"a"])
    assert not caplog.records

    monkeypatch.setitem(HASH_FUNCTIONS, "xxhash", xxhash64)
    blob = index_to_bytes(build_index(Dictionary([b"table"]), 1, hash_config=XXHASH))
    table([b"b"], XXHASH)
    assert len(caplog.records) == 1
    record = caplog.records[0]
    assert record.name == "splitindex.hashing" and record.levelno == logging.WARNING
    assert "xxhash64" in record.getMessage()

    monkeypatch.setattr(hashing, "_slow_hash_warned", False)
    index_from_bytes(blob)
    assert len(caplog.records) == 2
