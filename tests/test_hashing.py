"""Hash function vectors and the compact chained table."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitindex import HASH_FUNCTIONS, ChainedHashTable, ConfigError, HashConfig
from splitindex.hashing import fnv1_64, fnv1a_64, sdbm_64, xxhash64

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
    for fid in ("xxhash", "fnv1", "fnv1a", "sdbm"):
        fn = HASH_FUNCTIONS[fid]
        assert fn(b"tab") == fn(b"tab")
        fn(b"")  # boundary input hashes without error


def test_unknown_function_id():
    for name in ("md5", "crc32"):
        with pytest.raises(ConfigError, match=name):
            HashConfig(function_id=name)


def test_config_validation():
    with pytest.raises(ConfigError):
        HashConfig(max_load_factor=0)
    with pytest.raises(ConfigError):
        HashConfig(initial_bucket_count=12)


def test_find_or_create_and_lookup():
    t = ChainedHashTable()
    ref, created = t.find_or_create_list(b"tab")
    assert created and t.lookup_list(b"tab") == ref
    ref2, created2 = t.find_or_create_list(b"tab")
    assert ref2 == ref and not created2
    assert t.lookup_list(b"zzz") is None


def test_growth_triggers_before_insertion_completes():
    t = ChainedHashTable(HashConfig(initial_bucket_count=2, max_load_factor=2.0))
    for i in range(4):
        t.find_or_create_list(b"k%d" % i)
    assert t.bucket_count == 2  # 4 keys / 2 buckets = max LF exactly
    t.find_or_create_list(b"k4")  # 5/2 would exceed 2.0
    assert t.bucket_count == 4
    assert t.key_count == 5


def test_lookup_survives_growth():
    t = ChainedHashTable(HashConfig(initial_bucket_count=2))
    keys = [b"key-%d" % i for i in range(100)]
    refs = {}
    for key in keys:
        refs[key], created = t.find_or_create_list(key)
        assert created
    assert t.bucket_count >= 32
    for key in keys:
        assert t.lookup_list(key) == refs[key]
    assert t.key_count == len(keys)
    assert sorted(refs.values()) == list(range(len(keys)))
    assert t.lookup_list(b"key-100") is None


def test_load_factor_never_exceeds_max():
    for lf in (0.5, 1.0, 2.0, 3.0):
        t = ChainedHashTable(HashConfig(max_load_factor=lf, initial_bucket_count=2))
        for i in range(200):
            t.find_or_create_list(b"%d" % i)
            assert t.key_count / t.bucket_count <= lf + 1e-9


def test_bucket_stats():
    t = ChainedHashTable()
    s = t.bucket_stats()
    assert s.mean_chain == 0 and s.max_chain == 0
    t2 = ChainedHashTable(HashConfig(initial_bucket_count=2, max_load_factor=10.0))
    for i in range(4):
        t2.find_or_create_list(b"x%d" % i)
    assert t2.bucket_stats().mean_chain == 2.0


@given(st.integers(0, 3000), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_bucket_stats_mean_is_exact(n, seed):
    rng = random.Random(seed)
    t = ChainedHashTable()
    keys = {bytes(rng.choices(b"abcdef", k=rng.randint(1, 12))) for _ in range(n)}
    for key in keys:
        t.find_or_create_list(key)
    s = t.bucket_stats()
    lengths = t.chain_lengths()
    assert s.key_count == len(keys) == sum(lengths)
    assert s.mean_chain == len(keys) / s.bucket_count
    assert s.max_chain == (max(lengths) if lengths else 0)


def test_bucket_stats_mean_exact_at_ten_thousand_keys():
    t = ChainedHashTable()
    for i in range(10_000):
        t.find_or_create_list(b"key-%d" % i)
    s = t.bucket_stats()
    assert s.key_count == 10_000 == sum(t.chain_lengths())
    assert s.mean_chain == 10_000 / s.bucket_count


def test_frozen_table_rejects_insertion():
    from splitindex import BuildError

    t = ChainedHashTable()
    t.find_or_create_list(b"a")
    t.freeze()
    assert t.lookup_list(b"a") == 0
    with pytest.raises(BuildError):
        t.find_or_create_list(b"b")
