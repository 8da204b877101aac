"""Dictionary matching with few mismatches via a compact split index.

Words are partitioned into k+1 pieces; any query within k mismatches must
match at least one piece exactly, so pieces key a chained hash table whose
compact lists hold the rest of each word.  Optional q-gram substitution
coding shrinks the stored lists.
"""

from .bench import BenchReport, run_bench, sweep
from .core import (
    Dictionary,
    DictionaryStats,
    ListStats,
    SplitIndex,
    build_index,
    piece_lengths,
    split_word,
)
from .datasets import (
    QuerySet,
    extract_kmers,
    gen_noisy_queries,
    load_misspellings,
    load_wordlist,
    oracle_query,
)
from .errors import (
    BadMagicError,
    BuildError,
    CodecError,
    ConfigError,
    CorruptListError,
    DataError,
    SplitIndexError,
    StorageError,
    TruncatedIndexError,
    VersionMismatchError,
    WordTooShortError,
)
from .hashing import (
    HASH_FUNCTIONS,
    BucketStats,
    ChainedHashTable,
    HashConfig,
)
from .qgrams import (
    Substitution,
    SubstitutionList,
    compression_ratio,
    load_substitutions,
    mine_substitutions,
    save_substitutions,
)
from .storage import load_index, save_index

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "BenchReport",
    "BucketStats",
    "BuildError",
    "ChainedHashTable",
    "CodecError",
    "ConfigError",
    "CorruptListError",
    "DataError",
    "Dictionary",
    "DictionaryStats",
    "HASH_FUNCTIONS",
    "HashConfig",
    "ListStats",
    "QuerySet",
    "SplitIndex",
    "SplitIndexError",
    "StorageError",
    "Substitution",
    "SubstitutionList",
    "TruncatedIndexError",
    "VersionMismatchError",
    "WordTooShortError",
    "build_index",
    "compression_ratio",
    "extract_kmers",
    "gen_noisy_queries",
    "load_index",
    "load_misspellings",
    "load_substitutions",
    "load_wordlist",
    "mine_substitutions",
    "oracle_query",
    "piece_lengths",
    "run_bench",
    "save_index",
    "save_substitutions",
    "split_word",
    "sweep",
]
