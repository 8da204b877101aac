"""String hash functions and a compact chained hash table.

The table keeps each bucket as one contiguous byte blob of
``[key length u8][key bytes][list ref u32 LE]`` records, so a key and the
reference to its piece list always sit next to each other.  List references
are dense integers handed out in creation order; the caller owns whatever
storage they index.

All hash functions are seedless (fixed internal constants), return 64-bit
values, and produce identical output on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BuildError, ConfigError

_MASK64 = 0xFFFFFFFFFFFFFFFF

# xxhash 64-bit variant, fixed seed 0.
_XXP1 = 0x9E3779B185EBCA87
_XXP2 = 0xC2B2AE3D27D4EB4F
_XXP3 = 0x165667B19E3779F9
_XXP4 = 0x85EBCA77C2B2AE63
_XXP5 = 0x27D4EB2F165667C5


def xxhash64(data: bytes) -> int:
    """64-bit xxhash of ``data`` with seed 0."""
    n = len(data)
    i = 0
    if n >= 32:
        v1 = (_XXP1 + _XXP2) & _MASK64
        v2 = _XXP2
        v3 = 0
        v4 = (-_XXP1) & _MASK64
        end = n - 31
        while i < end:
            lane = int.from_bytes(data[i : i + 8], "little")
            v1 = (v1 + lane * _XXP2) & _MASK64
            v1 = ((v1 << 31 | v1 >> 33) & _MASK64) * _XXP1 & _MASK64
            lane = int.from_bytes(data[i + 8 : i + 16], "little")
            v2 = (v2 + lane * _XXP2) & _MASK64
            v2 = ((v2 << 31 | v2 >> 33) & _MASK64) * _XXP1 & _MASK64
            lane = int.from_bytes(data[i + 16 : i + 24], "little")
            v3 = (v3 + lane * _XXP2) & _MASK64
            v3 = ((v3 << 31 | v3 >> 33) & _MASK64) * _XXP1 & _MASK64
            lane = int.from_bytes(data[i + 24 : i + 32], "little")
            v4 = (v4 + lane * _XXP2) & _MASK64
            v4 = ((v4 << 31 | v4 >> 33) & _MASK64) * _XXP1 & _MASK64
            i += 32
        h = (
            (v1 << 1 | v1 >> 63) + (v2 << 7 | v2 >> 57) + (v3 << 12 | v3 >> 52) + (v4 << 18 | v4 >> 46)
        ) & _MASK64
        for v in (v1, v2, v3, v4):
            v = (v * _XXP2) & _MASK64
            v = ((v << 31 | v >> 33) & _MASK64) * _XXP1 & _MASK64
            h = ((h ^ v) * _XXP1 + _XXP4) & _MASK64
    else:
        h = _XXP5
    h = (h + n) & _MASK64
    while i + 8 <= n:
        lane = (int.from_bytes(data[i : i + 8], "little") * _XXP2) & _MASK64
        lane = ((lane << 31 | lane >> 33) & _MASK64) * _XXP1 & _MASK64
        h ^= lane
        h = ((h << 27 | h >> 37) & _MASK64) * _XXP1 + _XXP4 & _MASK64
        i += 8
    if i + 4 <= n:
        h ^= (int.from_bytes(data[i : i + 4], "little") * _XXP1) & _MASK64
        h = ((h << 23 | h >> 41) & _MASK64) * _XXP2 + _XXP3 & _MASK64
        i += 4
    while i < n:
        h ^= (data[i] * _XXP5) & _MASK64
        h = ((h << 11 | h >> 53) & _MASK64) * _XXP1 & _MASK64
        i += 1
    h ^= h >> 33
    h = (h * _XXP2) & _MASK64
    h ^= h >> 29
    h = (h * _XXP3) & _MASK64
    h ^= h >> 32
    return h


_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1_64(data: bytes) -> int:
    """64-bit FNV-1 (multiply, then xor)."""
    h = _FNV_BASIS
    for b in data:
        h = (h * _FNV_PRIME) & _MASK64 ^ b
    return h


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a (xor, then multiply)."""
    h = _FNV_BASIS
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def sdbm_64(data: bytes) -> int:
    """sdbm hash widened to 64 bits."""
    h = 0
    for b in data:
        h = (b + (h << 6) + (h << 16) - h) & _MASK64
    return h


try:
    # Same algorithm, C implementation; the pure-Python xxhash64 above stays
    # as the reference and fallback.  Identical output is pinned by tests.
    from xxhash import xxh64_intdigest as _xxh64_c
except ImportError:  # pragma: no cover
    _xxh64_c = None

HASH_FUNCTIONS = {
    "xxhash": _xxh64_c or xxhash64,
    "fnv1": fnv1_64,
    "fnv1a": fnv1a_64,
    "sdbm": sdbm_64,
}

DEFAULT_HASH = "xxhash"


@dataclass(frozen=True)
class HashConfig:
    """Table tuning knobs.

    ``max_load_factor`` is keys per bucket and may exceed 1.0 because
    collisions chain; the bucket count is always a power of two.
    """

    function_id: str = DEFAULT_HASH
    max_load_factor: float = 2.0
    initial_bucket_count: int = 16

    def __post_init__(self) -> None:
        if self.function_id not in HASH_FUNCTIONS:
            raise ConfigError(f"unknown hash function {self.function_id!r}; known: {sorted(HASH_FUNCTIONS)}")
        if not self.max_load_factor > 0:
            raise ConfigError(f"max_load_factor must be > 0, got {self.max_load_factor}")
        n = self.initial_bucket_count
        if n < 1 or n & (n - 1):
            raise ConfigError(f"initial_bucket_count must be a power of two, got {n}")


@dataclass(frozen=True)
class BucketStats:
    bucket_count: int
    key_count: int
    load_factor: float
    mean_chain: float
    max_chain: int
    nonempty_buckets: int
    nonempty_mean_chain: float


class ChainedHashTable:
    """Chained hash table mapping byte keys to dense integer list references.

    Mutable only while building; ``freeze()`` makes the buckets immutable so
    the table can be read from multiple threads.
    """

    __slots__ = ("config", "_fn", "_buckets", "_mask", "_count", "_frozen", "_refs")

    def __init__(self, config: HashConfig | None = None):
        self.config = config or HashConfig()
        self._fn = HASH_FUNCTIONS[self.config.function_id]
        self._buckets: list = [bytearray() for _ in range(self.config.initial_bucket_count)]
        self._mask = self.config.initial_bucket_count - 1
        self._count = 0
        self._frozen = False
        # Build-phase copy of the key -> ref records, so a repeated key costs
        # no hash and no bucket walk; dropped by freeze().
        self._refs: dict[bytes, int] | None = {}

    @classmethod
    def from_frozen(cls, buckets: list[bytes], config: HashConfig, key_count: int) -> "ChainedHashTable":
        """Rebuild a read-only table around bucket blobs loaded from a file."""
        n = len(buckets)
        if n < 1 or n & (n - 1):
            raise ConfigError(f"bucket count must be a power of two, got {n}")
        table = cls.__new__(cls)
        table.config = config
        table._fn = HASH_FUNCTIONS[config.function_id]
        table._buckets = buckets
        table._mask = n - 1
        table._count = key_count
        table._frozen = True
        table._refs = None
        return table

    @property
    def key_count(self) -> int:
        return self._count

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def buckets(self) -> list:
        return self._buckets

    def lookup_list(self, key: bytes) -> int | None:
        """Reference of the list installed for ``key``, or None."""
        blob = self._buckets[self._fn(key) & self._mask]
        kl = len(key)
        o = 0
        n = len(blob)
        while o < n:
            el = blob[o]
            if el == kl and blob[o + 1 : o + 1 + kl] == key:
                p = o + 1 + kl
                return int.from_bytes(blob[p : p + 4], "little")
            o += el + 5
        return None

    def find_or_create_list(self, key: bytes) -> tuple[int, bool]:
        """Return (ref, created) for ``key``, installing a fresh ref if absent.

        Growth happens before a new key is recorded, so the load factor never
        exceeds the configured maximum.  Build phase only.
        """
        if self._frozen:
            raise BuildError("table is frozen; no insertions after build")
        ref = self._refs.get(key)
        if ref is not None:
            return ref, False
        if len(key) > 255:
            raise BuildError(f"key longer than 255 bytes: {key[:16]!r}...")
        if (self._count + 1) / len(self._buckets) > self.config.max_load_factor:
            self._grow()
        ref = self._count
        bucket = self._buckets[self._fn(key) & self._mask]
        bucket.append(len(key))
        bucket += key
        bucket += ref.to_bytes(4, "little")
        self._count += 1
        self._refs[key] = ref
        return ref, True

    def _grow(self) -> None:
        need = len(self._buckets) * 2
        while (self._count + 1) / need > self.config.max_load_factor:
            need *= 2
        fresh = [bytearray() for _ in range(need)]
        mask = need - 1
        fn = self._fn
        for blob in self._buckets:
            o = 0
            n = len(blob)
            while o < n:
                kl = blob[o]
                end = o + 5 + kl
                key = bytes(blob[o + 1 : o + 1 + kl])
                bucket = fresh[fn(key) & mask]
                bucket += blob[o:end]
                o = end
        self._buckets = fresh
        self._mask = mask

    def freeze(self) -> None:
        """Make the buckets immutable bytes; reads stay valid, writes raise."""
        if not self._frozen:
            self._buckets = [bytes(b) for b in self._buckets]
            self._frozen = True
            self._refs = None

    def chain_lengths(self) -> list[int]:
        """Number of keys stored in each bucket, in bucket order."""
        out = []
        for blob in self._buckets:
            o = 0
            n = len(blob)
            c = 0
            while o < n:
                o += blob[o] + 5
                c += 1
            out.append(c)
        return out

    def bucket_stats(self) -> BucketStats:
        lengths = self.chain_lengths()
        buckets = len(lengths)
        nonempty = [c for c in lengths if c]
        return BucketStats(
            bucket_count=buckets,
            key_count=self._count,
            load_factor=self._count / buckets,
            mean_chain=self._count / buckets,
            max_chain=max(lengths) if lengths else 0,
            nonempty_buckets=len(nonempty),
            nonempty_mean_chain=(sum(nonempty) / len(nonempty)) if nonempty else 0.0,
        )

    def content_bytes(self) -> int:
        """Total bytes held in bucket blobs (keys, length tags, references)."""
        return sum(len(b) for b in self._buckets)
