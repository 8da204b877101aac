"""Benchmark reports and parameter sweeps."""

import gc
import json
import random
import re
from pathlib import Path
from unittest.mock import patch

import pytest

from corpora import random_words

from splitindex import (
    ConfigError,
    DataError,
    Dictionary,
    QuerySet,
    SplitIndex,
    build_index,
    gen_noisy_queries,
    mine_substitutions,
    oracle_query,
    run_bench,
    sweep,
)
from splitindex.bench import REPORT_FIELDS


@pytest.fixture(scope="module")
def small_world():
    rng = random.Random(17)
    d = Dictionary(random_words(rng, 800, 8, max_len=16))
    queries = gen_noisy_queries(d, 300, seed=4)
    return d, queries


def test_single_query_counts():
    d = Dictionary([b"table"])
    idx = build_index(d, 1)
    report = run_bench(idx, QuerySet((b"table",), "unit"), repetitions=1)
    assert report.queries_run == 1
    assert report.matches_found == 1
    assert report.repetitions == 1
    assert report.mean_query_seconds > 0


def test_matches_found_equals_oracle_totals(small_world):
    d, queries = small_world
    idx = build_index(d, 1)
    report = run_bench(idx, queries)
    expected = sum(len(oracle_query(d, p, 1)) for p in queries.patterns)
    assert report.matches_found == expected


def test_query_percentiles_are_ordered(small_world):
    d, queries = small_world
    for k, qs in ((1, queries), (2, QuerySet((b"table",), "one"))):
        report = run_bench(build_index(d, k), qs)
        assert 0 < report.p50_query_seconds <= report.p99_query_seconds


def test_percentile_pass_pauses_the_collector_and_restores_it(small_world):
    # The mean pass runs with the collector as the caller left it; the
    # per-query pass runs with it paused, and it is restored either way.
    d, queries = small_world
    idx = build_index(d, 1)
    query = SplitIndex.query
    seen = []

    def watched(self, pattern):
        seen.append(gc.isenabled())
        return query(self, pattern)

    n = len(queries.patterns)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        seen.clear()
        try:
            with patch.object(SplitIndex, "query", watched):
                run_bench(idx, queries, repetitions=2)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert seen == [enabled] * (2 * n) + [False] * n


def test_repetitions_self_consistency(small_world):
    d, queries = small_world
    idx = build_index(d, 1)
    r1 = run_bench(idx, queries, repetitions=2)
    r2 = run_bench(idx, queries, repetitions=4)
    assert r1.matches_found == r2.matches_found
    # timing means stay in the same ballpark when repetitions double
    assert r2.mean_query_seconds < r1.mean_query_seconds * 1.5 + 1e-4
    assert r1.mean_query_seconds < r2.mean_query_seconds * 1.5 + 1e-4


def test_bench_rejects_bad_inputs(small_world):
    d, queries = small_world
    idx = build_index(d, 1)
    with pytest.raises(DataError):
        run_bench(idx, QuerySet((), "empty"))
    with pytest.raises(ConfigError):
        run_bench(idx, queries, repetitions=0)


def test_report_serializes_with_fixed_keys(small_world):
    d, queries = small_world
    report = run_bench(build_index(d, 1), queries)
    payload = json.loads(report.to_json())
    assert tuple(payload) == REPORT_FIELDS
    assert payload["index_bytes"] == build_index(d, 1).size_bytes()
    tsv = report.tsv_row().split("\t")
    assert len(tsv) == len(REPORT_FIELDS)


def test_report_fields_are_the_readme_keys():
    # REPORT_FIELDS comes from BenchReport's fields; the README lists the keys
    # users rely on, so the two orders must agree.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("## Benchmark report keys", 1)[1].split("\n\n")[1]
    assert tuple(re.findall(r"`(\w+)`", listed)) == REPORT_FIELDS


def test_index_bytes_is_recomputable(small_world):
    # An 8-byte directory slot per bucket, the bucket arena, and the side
    # words and substitution rules, each with a length byte.
    d, queries = small_world
    for subs in (None, mine_substitutions(d, "mixed", 20)):
        idx = build_index(d, 2, substitutions=subs)
        side = sum(1 + len(w) for group in idx.side_table.values() for w in group)
        rules = sum(1 + len(rule.gram) for rule in subs or ())
        expected = 8 * idx.table.bucket_count + len(idx.table.data) + side + rules
        assert side and (rules or subs is None)
        assert idx.size_bytes() == expected
        assert run_bench(idx, queries).index_bytes == expected


def test_k_sweep_sizes_strictly_increase(small_world):
    d, queries = small_world
    reports = sweep("k", [1, 2, 3], d, queries)
    sizes = [r.index_bytes for r in reports]
    assert sizes[0] < sizes[1] < sizes[2]
    assert [r.k for r in reports] == [1, 2, 3]


def test_hash_sweep_results_identical(small_world):
    d, queries = small_world
    reports = sweep("hash", ["xxhash", "fnv1", "fnv1a", "sdbm"], d, queries)
    assert len({r.matches_found for r in reports}) == 1
    assert [r.hash_function for r in reports] == ["xxhash", "fnv1", "fnv1a", "sdbm"]


def test_load_factor_sweep(small_world):
    d, queries = small_world
    reports = sweep("load_factor", [0.5, 2.0, 5.0], d, queries)
    assert len({r.matches_found for r in reports}) == 1
    assert all(r.bucket_load_factor <= lf for r, lf in zip(reports, [0.5, 2.0, 5.0]))


def test_compression_sweep_shrinks_dna_index():
    rng = random.Random(23)
    d = Dictionary([bytes(rng.choices(b"ACGT", k=20)) for _ in range(4000)])
    queries = gen_noisy_queries(d, 150, seed=5)
    none, mixed = sweep("compression", ["none", "mixed"], d, queries)
    assert mixed.index_bytes < none.index_bytes
    assert mixed.matches_found == none.matches_found
    assert none.compression == "none" and mixed.compression == "mixed"


def test_sweep_rejects_bad_grids(small_world):
    d, queries = small_world
    with pytest.raises(ConfigError):
        sweep("hash", ["xxhash", "md5"], d, queries)
    for lf in (0.0, 1e-6):  # 1e-6 would ask for billions of buckets
        with pytest.raises(ConfigError, match=str(lf)):
            sweep("load_factor", [lf], d, queries)
    with pytest.raises(ConfigError):
        sweep("k", [0], d, queries)
    with pytest.raises(ConfigError):
        sweep("compression", ["zstd"], d, queries)
    with pytest.raises(ConfigError):
        sweep("threads", [1], d, queries)
    with pytest.raises(ConfigError):
        sweep("k", [], d, queries)
