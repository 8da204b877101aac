"""Exception hierarchy shared across the package."""


class SplitIndexError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SplitIndexError):
    """Invalid configuration: unknown hash id, bad load factor, bad grid value."""


class BuildError(SplitIndexError):
    """Index construction rejected the input (oversized piece, marker overflow)."""


class WordTooShortError(SplitIndexError):
    """A word cannot be split into k+1 non-empty pieces; route it to the side table."""


class CorruptListError(SplitIndexError):
    """A query ran past a list or its bucket named no list: the loaded data is damaged."""


class CodecError(SplitIndexError):
    """Substitution coding failure: invalid input byte, unknown code, bad entry."""


class DataError(SplitIndexError):
    """Dataset problem: empty dictionary where words are required, empty query set."""


class StorageError(SplitIndexError):
    """Base class for index (de)serialization failures."""


class BadMagicError(StorageError):
    """The file does not start with the expected magic bytes."""


class VersionMismatchError(StorageError):
    """The file's format version is not supported by this reader."""


class TruncatedIndexError(StorageError):
    """The file ended before the declared structures were complete."""
