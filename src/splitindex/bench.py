"""Query-latency and index-size measurements, single runs and grid sweeps."""

from __future__ import annotations

import gc
import json
import time
from dataclasses import asdict, dataclass, fields, replace as dc_replace
from functools import cache, partial
from typing import Sequence

from .core import Dictionary, SplitIndex, build_index
from .datasets import QuerySet
from .errors import ConfigError, DataError
from .hashing import HashConfig
from .qgrams import mine_substitutions

SWEEP_DIMENSIONS = ("hash", "load_factor", "k", "compression")

@dataclass(frozen=True)
class BenchReport:
    """One benchmark run: timing, exact sizes, and structure statistics."""

    mean_query_seconds: float
    p50_query_seconds: float
    p99_query_seconds: float
    queries_run: int
    matches_found: int
    verifications: int
    index_bytes: int
    raw_dictionary_bytes: int
    repetitions: int
    k: int
    hash_function: str
    max_load_factor: float
    compression: str
    bucket_count: int
    bucket_load_factor: float
    bucket_mean_chain: float
    bucket_max_chain: int
    list_count: int
    list_mean_entries: float
    list_max_entries: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def tsv_row(self) -> str:
        return "\t".join(str(v) for v in self.to_dict().values())

    @staticmethod
    def tsv_header() -> str:
        return "\t".join(REPORT_FIELDS)


# Keys of the JSON report and TSV columns, in output order.
REPORT_FIELDS = tuple(f.name for f in fields(BenchReport))


def run_bench(
    index: SplitIndex,
    queries: QuerySet,
    repetitions: int = 1,
    compression: str = "none",
) -> BenchReport:
    """Time the full query set ``repetitions`` times on a built index.

    The mean is wall-clock time over all runs divided by query executions;
    every result is consumed so the work cannot be skipped.  The p50 and p99
    are nearest-rank percentiles of one extra pass that times each query on
    its own, with the garbage collector paused and then restored to its
    earlier state, and verification counts come from another, untimed pass of
    the same search.
    """
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    patterns = queries.patterns
    if not patterns:
        raise DataError("empty query set")

    query = index.query
    matches = 0
    start = time.perf_counter()
    for _ in range(repetitions):
        found = 0
        for p in patterns:
            found += len(query(p))
        matches = found
    elapsed = time.perf_counter() - start

    # A collection would land in one query's time, so the collector runs
    # before this pass and is paused during it.
    clock = time.perf_counter_ns
    each = []
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for p in patterns:
            t = clock()
            query(p)
            each.append(clock() - t)
    finally:
        if enabled:
            gc.enable()
    each.sort()

    search = index._search
    verifications = sum(search(p, {}) for p in patterns)

    bucket = index.table.bucket_stats()
    lists = index.list_stats()
    return BenchReport(
        mean_query_seconds=elapsed / (len(patterns) * repetitions),
        p50_query_seconds=_nearest_rank(each, 50) / 1e9,
        p99_query_seconds=_nearest_rank(each, 99) / 1e9,
        queries_run=len(patterns),
        matches_found=matches,
        verifications=verifications,
        index_bytes=index.size_bytes(),
        raw_dictionary_bytes=index.source_stats.total_bytes,
        repetitions=repetitions,
        k=index.k,
        hash_function=index.table.config.function_id,
        max_load_factor=index.table.config.max_load_factor,
        compression=compression,
        bucket_count=bucket.bucket_count,
        bucket_load_factor=bucket.load_factor,
        bucket_mean_chain=bucket.mean_chain,
        bucket_max_chain=bucket.max_chain,
        list_count=lists.list_count,
        list_mean_entries=lists.mean_entries,
        list_max_entries=lists.max_entries,
    )


def _nearest_rank(ordered: list[int], percent: int) -> int:
    """The smallest value with at least ``percent``% of ``ordered`` at or below it."""
    return ordered[-(-len(ordered) * percent // 100) - 1]


def sweep(
    dimension: str,
    grid: Sequence,
    dictionary: Dictionary,
    queries: QuerySet,
    *,
    k: int = 1,
    hash_config: HashConfig | None = None,
    compression: str = "none",
    repetitions: int = 1,
    substitution_limit: int = 100,
) -> list[BenchReport]:
    """Rebuild and benchmark once per grid value of the chosen dimension.

    ``dimension`` is one of hash, load_factor, k, or compression; the other
    settings stay fixed and the same query set is reused throughout.
    """
    if dimension not in SWEEP_DIMENSIONS:
        raise ConfigError(f"unknown sweep dimension {dimension!r}; known: {SWEEP_DIMENSIONS}")
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    base = hash_config or HashConfig()
    mined = cache(partial(mine_substitutions, dictionary, limit=substitution_limit))  # each policy once
    reports = []
    for value in grid:
        cfg = base
        point_k = k
        point_policy = compression
        if dimension == "hash":
            cfg = dc_replace(base, function_id=value)
        elif dimension == "load_factor":
            cfg = dc_replace(base, max_load_factor=float(value))
        elif dimension == "k":
            point_k = value
        else:
            point_policy = value
        subs = mined(point_policy) if point_policy != "none" else None
        index = build_index(dictionary, point_k, hash_config=cfg, substitutions=subs)
        reports.append(run_bench(index, queries, repetitions, compression=point_policy))
    return reports
