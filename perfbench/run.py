#!/usr/bin/env python3
"""Benchmark of the split index, end to end and layer by layer.

    python3 perfbench/run.py --workload english-k1 --seed 0 --seconds 10 --trace 0

Each run generates its workload's corpus and queries (see ``workloads.py``;
``--seed`` picks the queries), sets up the index several times, saves and
loads it, checks answers, and then times ``SplitIndex.query`` for
``--seconds`` in a closed loop: one process, one thread, each query sent when
the previous one has returned.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` does the same
work, then makes three more passes over the first 4000 queries with spans
around the calls the benchmark makes into each layer (``hashing``, ``core``,
``qgrams``, ``storage``) and reports the per-layer metrics derived from
them.  A readable report with the environment and the workload's provenance
is printed first; the last line of standard output is one JSON object.  The
report and the spans are also written to ``.perfbench_out/`` at the root of
the checkout.

How the timings are summarised.  On a shared host the processor's speed
changes under the benchmark, by up to 2x and for stretches of up to a
minute (see ``hostspeed.py``).  Every timed section therefore sits between
two measurements of the host's slowness, and its time is divided by their
mean: the times reported are normalised to the reference speed.  Not every
operation slows down exactly as the reference work does, so where a chunk
of queries, a load or a set-up was timed several times, only the times
taken in a fast stretch (both measurements at most ``FAST``) count, if
there are any.  The report gives the slowness seen.

The timed loop cycles through all the queries, in fixed chunks of
``CHUNK``, for the whole run.  ``query_p50_us`` and ``query_p99_us`` are
percentiles over the distinct queries of each query's median latency;
``query_qps`` is the query count divided by the sum of each chunk's median
time.  The index is loaded ``LOAD_REPEATS`` times at evenly spaced moments
of the timed loop, between chunks, and ``load_s`` is the median load;
``setup_s`` is the median of ``SETUP_REPEATS`` set-ups.  The garbage
collector runs a full collection before, and is paused during, every timed
section, so that collections triggered by the benchmark's own objects do
not land in the numbers.

Answers are checked against ``oracle_query`` on a seeded sample, and every
timed answer against the built index; the loaded index must agree with the
built one on every query.  The exit code is 0 when every check passed, 1
when a query raised or gave a wrong answer, and 2 when the library sources
are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from hostspeed import REFERENCE_NS, slowness
from spans import Tracer
from workloads import SUBSTITUTION_LIMIT, WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
LOAD_REPEATS = 21
ORACLE_SAMPLE = 100
CHUNK = 200
TRACE_PASSES = 3
TRACE_QUERIES = 4000
FAST = 1.3

END_TO_END_UNITS = {
    "query_p50_us": "us",
    "query_p99_us": "us",
    "query_qps": "1/s",
    "setup_s": "s",
    "load_s": "s",
    "index_bytes_per_raw_byte": "B/B",
    "heap_bytes_per_raw_byte": "B/B",
}
PER_LAYER_UNITS = {
    "hashing.hash_ns": "ns",
    "hashing.probe_ns": "ns",
    "hashing.probes_per_query": "count",
    "hashing.probe_hit_ratio": "ratio",
    "hashing.bucket_mean_chain": "count",
    "hashing.bucket_max_chain": "count",
    "core.query_self_us": "us",
    "core.candidates_per_query": "count",
    "core.matches_per_query": "count",
    "core.match_ratio": "ratio",
    "core.match_ratio_base": "count",
    "core.list_bytes_per_query": "B",
    "core.list_max_entries": "count",
    "core.build_s": "s",
    "qgrams.mine_s": "s",
    "qgrams.encode_s": "s",
    "qgrams.decode_ns_per_byte": "ns/B",
    "qgrams.compression_ratio": "ratio",
    "storage.save_s": "s",
    "storage.file_bytes": "B",
    "storage.parse_s": "s",
    "trace.overhead_ratio": "ratio",
}

log = logging.getLogger("perfbench")
_RAISED = object()  # stands for the answer of a query that raised


def import_library():
    """Import ``splitindex`` from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "splitindex" / "__init__.py").is_file():
        log.error("no library sources under src/; run from the root of a full checkout")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import splitindex

    if Path(splitindex.__file__).resolve().parent != SRC / "splitindex":
        log.error("imported splitindex from %s, not from this checkout", splitindex.__file__)
        raise SystemExit(2)
    return splitindex


@contextmanager
def gc_paused():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def environment(lib) -> dict:
    import numpy

    from splitindex import hashing

    commit = None  # the checkout may not be a git repository
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=False,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError) as exc:
            log.warning("cannot read the git commit: %s", exc)
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "xxhash_c_extension": lib.HASH_FUNCTIONS["xxhash"] is not hashing.xxhash64,
        "src_lines": src_lines,
        "platform": platform.platform(),
    }


class Checks:
    """Query calls made and those that raised or answered wrongly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def answers(self, query, patterns) -> list:
        """Answer every pattern once; a call that raises is a failure."""
        out = []
        for p in patterns:
            try:
                out.append(query(p))
            except Exception as exc:  # any exception is a failed query
                self.fail(f"query {p!r} raised {exc!r}")
                out.append(_RAISED)
        self.attempted += len(patterns)
        return out

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if self.first_error is None:
            self.first_error = what
            log.error("%s", what)


def set_up(lib, workload, dictionary, tracer):
    """Mine (if the workload codes) and build ``SETUP_REPEATS`` times."""
    index = None
    for _ in range(SETUP_REPEATS):
        index = None
        trace = tracer.new_trace()
        with gc_paused():
            before = slowness()
            root = tracer.start("setup", trace)
            subs = None
            if workload.coding != "none":
                span = tracer.start("qgrams.mine", trace, root[0])
                subs = lib.mine_substitutions(dictionary, workload.coding, SUBSTITUTION_LIMIT)
                tracer.end(span)
            span = tracer.start("core.build", trace, root[0])
            index = lib.build_index(dictionary, workload.k, substitutions=subs)
            tracer.end(span)
            tracer.end(root)
            tracer.set_slowness(trace, before, slowness())
    return index


def timed(tracer, name, fn, *args):
    """Call ``fn`` once inside a span of its own, with the collector paused."""
    with gc_paused():
        trace = tracer.new_trace()
        before = slowness()
        span = tracer.start(name, trace)
        result = fn(*args)
        tracer.end(span)
        tracer.set_slowness(trace, before, slowness())
    return result


def load_heap_bytes(lib, path):
    """Load once under tracemalloc; return the index and the bytes it holds."""
    gc.collect()
    tracemalloc.start()
    try:
        index = lib.load_index(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return index, held


def timed_pass(query, patterns, ref, seconds, checks, interlude, interludes):
    """Closed loop over ``patterns`` for ``seconds`` and at least one whole pass.

    Patterns are sent in fixed chunks of ``CHUNK``, each chunk between two
    measurements of the host's slowness.  Returns one record per chunk
    sent, ``(chunk index, worse slowness, mean slowness, wall ns,
    [latency ns of each query])``, and the number of query calls.  ``interlude`` runs ``interludes`` times
    between chunks at evenly spaced moments.
    """
    clock = time.perf_counter_ns
    n = len(patterns)
    chunks = [range(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]
    records = []
    calls = wrong = 0
    with gc_paused():
        start = clock()
        span = int(seconds * 1e9)
        due = [start + (2 * j + 1) * span // (2 * interludes) for j in range(interludes)]
        before = slowness()
        while len(records) < len(chunks) or clock() < start + span:
            c = len(records) % len(chunks)
            lat = []
            c0 = clock()
            for i in chunks[c]:
                p = patterns[i]
                t0 = clock()
                try:
                    r = query(p)
                except Exception:  # any exception is a failed query
                    r = _RAISED
                lat.append(clock() - t0)
                if r is _RAISED or r != ref[i]:
                    wrong += 1
            wall = clock() - c0
            after = slowness()
            records.append((c, max(before, after), (before + after) / 2, wall, lat))
            calls += len(lat)
            before = after
            while due and clock() >= due[0]:
                due.pop(0)
                interlude()
                before = slowness()
        for _ in due:  # a pass that overran its deadline still makes every interlude
            interlude()
    checks.attempted += calls
    if wrong:
        checks.fail(f"{wrong} timed queries raised or differed from the built index's answers", wrong)
    return records, calls


def fast_or_all(samples):
    """The ``(worse slowness, ...)`` samples taken in a fast stretch, or all if none was."""
    return [x for x in samples if x[0] <= FAST] or samples


def query_times(records):
    """Median normalised ns of each query (in pattern order) and of each chunk."""
    by_chunk = defaultdict(list)
    for c, worse, mean, wall, lat in records:
        by_chunk[c].append((worse, mean, wall, lat))
    query_ns = []
    chunk_ns = []
    for c in sorted(by_chunk):
        sent = fast_or_all(by_chunk[c])
        chunk_ns.append(statistics.median(wall / f for _, f, wall, _ in sent))
        for j in range(len(sent[0][3])):
            query_ns.append(statistics.median(lat[j] / f for _, f, _, lat in sent))
    return query_ns, chunk_ns


def traced_pass(lib, index, patterns, ref, tracer, checks):
    """One pass over ``patterns`` with spans around each query and its probes.

    The probes happen inside ``SplitIndex.query``, so the benchmark re-runs
    each one after the query returns: ``ChainedHashTable.lookup_list`` on
    every piece (span ``hashing.probe``, a child of ``core.query``), then the
    table's hash function on the same piece (``hashing.hash``, a child of the
    probe).  Each request is timed between two measurements of the host's
    slowness.  Returns each request's normalised duration in ns.
    """
    k = index.k
    query = index.query
    lookup = index.table.lookup_list
    hash_fn = lib.HASH_FUNCTIONS[index.table.config.function_id]
    lists = index.lists
    split_word = lib.split_word
    start, end = tracer.start, tracer.end
    probes = hits = list_bytes = wrong = 0
    durations = []
    with gc_paused():
        before = slowness()
        for i, p in enumerate(patterns):
            trace = tracer.new_trace()
            req = start("request", trace)
            q = start("core.query", trace, req[0])
            try:
                r = query(p)
            except Exception:  # any exception is a failed query
                r = _RAISED
            end(q)
            if len(p) > k:
                for piece in split_word(p, k):
                    pr = start("hashing.probe", trace, q[0])
                    ref_id = lookup(piece)
                    end(pr)
                    h = start("hashing.hash", trace, pr[0])
                    hash_fn(piece)
                    end(h)
                    probes += 1
                    if ref_id is not None:
                        hits += 1
                        list_bytes += len(lists[ref_id])
            end(req)
            after = slowness()
            tracer.set_slowness(trace, before, after)
            before = after
            durations.append((req[5] - req[4]) / tracer.slowness[trace][1])
            if r is _RAISED or r != ref[i]:
                wrong += 1
    tracer.count("hashing.probes", probes)
    tracer.count("hashing.probe_hits", hits)
    tracer.count("core.list_bytes", list_bytes)
    checks.attempted += len(patterns)
    if wrong:
        checks.fail(f"{wrong} traced queries raised or differed from the built index's answers", wrong)
    return durations


def count_candidates(lib, dictionary, patterns, k) -> int:
    """Stored words of each pattern's length agreeing with it on a whole piece.

    Computed from the dictionary with ``split_word``, independently of the
    index.  A pattern of length at most k has no pieces; every word of its
    length is a candidate.
    """
    split_word = lib.split_word
    keys = [
        [(len(p), i, piece) for i, piece in enumerate(split_word(p, k))] if len(p) > k else None
        for p in patterns
    ]
    wanted = {key for ks in keys if ks for key in ks}
    lengths = {key[0] for key in wanted}
    members = defaultdict(list)
    for wid, w in enumerate(dictionary.words):
        n = len(w)
        if n in lengths:
            for i, piece in enumerate(split_word(w, k)):
                if (n, i, piece) in wanted:
                    members[n, i, piece].append(wid)
    by_length = Counter(len(w) for w in dictionary.words)
    total = 0
    for p, ks in zip(patterns, keys):
        if ks is None:
            total += by_length[len(p)]
        else:
            total += len(set().union(*(members.get(key, ()) for key in ks)))
    return total


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def median_ns(tracer, name, self_time=False) -> float:
    """Median normalised ns of the spans called ``name``, fast stretches preferred."""
    return statistics.median(ns for _, ns in fast_or_all(tracer.samples(name, self_time)))


def median_s(tracer, name) -> float:
    return median_ns(tracer, name) / 1e9


def run(lib, workload, seed, seconds, trace, scale, workdir) -> dict:
    inputs = make_inputs(lib, workload, seed, scale, workdir)
    d = inputs.dictionary
    patterns = inputs.patterns
    raw = d.total_bytes
    tracer = Tracer()
    checks = Checks()

    index = set_up(lib, workload, d, tracer)
    path = workdir / "index.sidx"
    timed(tracer, "storage.save", lib.save_index, index, path)
    loaded, heap = load_heap_bytes(lib, path)

    ref = checks.answers(index.query, patterns)
    again = checks.answers(loaded.query, patterns)
    differ = sum(1 for a, b in zip(ref, again) if a is not _RAISED and a != b)
    if differ:
        checks.fail(f"loaded index differs from the built one on {differ} of {len(patterns)} queries", differ)
    sample = random.Random(seed).sample(range(len(patterns)), min(ORACLE_SAMPLE, len(patterns)))
    wrong = [i for i in sample if ref[i] is not _RAISED and ref[i] != lib.oracle_query(d, patterns[i], workload.k)]
    if wrong:
        checks.fail(f"{len(wrong)} of {len(sample)} sampled answers differ from oracle_query, "
                    f"first {patterns[wrong[0]]!r}", len(wrong))
    del loaded, again

    records, calls = timed_pass(
        index.query, patterns, ref, seconds, checks,
        lambda: timed(tracer, "storage.load", lib.load_index, path), LOAD_REPEATS,
    )
    slow = [r[2] for r in records]
    query_ns, chunk_ns = query_times(records)
    lat = sorted(query_ns)
    end_to_end = {
        "query_p50_us": statistics.median(lat) / 1e3,
        "query_p99_us": percentile(lat, 0.99) / 1e3,
        "query_qps": len(patterns) / (sum(chunk_ns) / 1e9),
        "setup_s": median_s(tracer, "setup"),
        "load_s": median_s(tracer, "storage.load"),
        "index_bytes_per_raw_byte": index.size_bytes() / raw,
        "heap_bytes_per_raw_byte": heap / raw,
    }
    report = {
        "workload": workload.name,
        "provenance": {
            "seed": seed,
            "corpus": workload.corpus,
            "corpus_seed": inputs.corpus_seed,
            "query_seed": inputs.query_seed,
            "corpus_bytes": raw,
            "word_count": d.word_count,
            "query_count": len(patterns),
            "k": workload.k,
            "coding": workload.coding,
            "scale": scale,
        },
        "timed_calls": calls,
        "host_slowness": {
            "min": min(slow), "median": statistics.median(slow), "max": max(slow),
            "reference_ns": REFERENCE_NS,
        },
        "oracle_checked": len(sample),
        "end_to_end": end_to_end,
    }
    if trace:
        report["per_layer"] = per_layer(lib, d, patterns, index, ref, tracer, checks, path, query_ns)
        spans_path = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["attempted"] = checks.attempted
    report["failed"] = checks.failed
    report["failed_ratio"] = checks.failed / checks.attempted
    report["first_error"] = checks.first_error
    return report


def per_layer(lib, d, patterns, index, ref, tracer, checks, path, untraced_ns) -> dict:
    """Per-layer metrics over the first ``TRACE_QUERIES`` queries."""
    from splitindex.storage import index_from_bytes

    patterns = patterns[:TRACE_QUERIES]
    ref = ref[: len(patterns)]
    untraced_ns = untraced_ns[: len(patterns)]
    passes = [traced_pass(lib, index, patterns, ref, tracer, checks) for _ in range(TRACE_PASSES)]
    traced_ns = [statistics.median(v) for v in zip(*passes)]
    data = path.read_bytes()
    for _ in range(LOAD_REPEATS):
        timed(tracer, "storage.parse", index_from_bytes, data)

    subs = index.subs
    mine_s = encode_s = decode_ns_per_byte = 0.0
    ratio = 1.0  # no coding: payloads are stored as they are
    if subs is not None:
        mine_s = median_s(tracer, "qgrams.mine")
        encoded = timed(tracer, "qgrams.encode", subs.encode_many, list(d.words))
        encode_s = median_s(tracer, "qgrams.encode")
        decode = subs.decode
        timed(tracer, "qgrams.decode", lambda: [decode(e) for e in encoded])
        decode_ns_per_byte = median_ns(tracer, "qgrams.decode") / d.total_bytes
        ratio = lib.compression_ratio(d, subs)

    requests = len(patterns) * TRACE_PASSES
    counts = tracer.counts
    probes = counts["hashing.probes"]
    buckets = index.table.bucket_stats()
    candidates = count_candidates(lib, d, patterns, index.k)
    matches = sum(len(r) for r in ref if r is not _RAISED)
    return {
        "hashing.hash_ns": median_ns(tracer, "hashing.hash") if probes else 0.0,
        "hashing.probe_ns": median_ns(tracer, "hashing.probe") if probes else 0.0,
        "hashing.probes_per_query": probes / requests,
        "hashing.probe_hit_ratio": counts["hashing.probe_hits"] / probes if probes else 0.0,
        "hashing.bucket_mean_chain": buckets.mean_chain,
        "hashing.bucket_max_chain": buckets.max_chain,
        "core.query_self_us": median_ns(tracer, "core.query", self_time=True) / 1e3,
        "core.candidates_per_query": candidates / len(patterns),
        "core.matches_per_query": matches / len(patterns),
        "core.match_ratio": matches / candidates if candidates else 0.0,
        "core.match_ratio_base": candidates,
        "core.list_bytes_per_query": counts["core.list_bytes"] / requests,
        "core.list_max_entries": index.list_stats().max_entries,
        "core.build_s": median_s(tracer, "core.build"),
        "qgrams.mine_s": mine_s,
        "qgrams.encode_s": encode_s,
        "qgrams.decode_ns_per_byte": decode_ns_per_byte,
        "qgrams.compression_ratio": ratio,
        "storage.save_s": median_s(tracer, "storage.save"),
        "storage.file_bytes": os.path.getsize(path),
        "storage.parse_s": median_s(tracer, "storage.parse"),
        "trace.overhead_ratio": sum(traced_ns) / sum(untraced_ns),
    }


def print_report(report, env, trace) -> None:
    prov = report["provenance"]
    print(f"workload {report['workload']}")
    print("inputs   " + " ".join(f"{key}={value}" for key, value in prov.items()))
    print("env      " + " ".join(f"{key}={value}" for key, value in env.items()))
    slow = report["host_slowness"]
    print(f"load     closed loop, 1 process, 1 thread; {report['timed_calls']} timed calls over "
          f"{prov['query_count']} patterns (one sample per pattern: the median of its calls); "
          f"{report['oracle_checked']} answers checked against oracle_query")
    print(f"host     slowness min {slow['min']:.3f} median {slow['median']:.3f} max {slow['max']:.3f}; "
          f"times are normalised to slowness 1 (reference work in {slow['reference_ns']} ns)")
    sections = [("end_to_end", END_TO_END_UNITS)]
    if trace:
        sections.append(("per_layer", PER_LAYER_UNITS))
    for section, units in sections:
        for name, unit in units.items():
            print(f"  {name:28s} {report[section][name]:>16.6g} {unit}")
    print(f"  {'failed_ratio':28s} {report['failed_ratio']:>16.6g} ratio "
          f"({report['failed']} of {report['attempted']} query calls)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed query pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus and query-set size relative to the benchmark's (smoke test only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0 or not 0 < args.scale <= 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --scale in (0, 1]")
    logging.basicConfig(format="perfbench: %(levelname)s: %(message)s", stream=sys.stderr)
    lib = import_library()

    env = environment(lib)
    if not env["xxhash_c_extension"]:
        log.warning("the C xxhash extension is not loaded: queries hash with the pure-Python "
                    "xxhash64, so latencies are not comparable with runs that have it")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report = run(lib, workload, args.seed, args.seconds, args.trace, args.scale, Path(tmp))
    report["environment"] = env
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))

    print_report(report, env, args.trace)
    section, units = ("per_layer", PER_LAYER_UNITS) if args.trace else ("end_to_end", END_TO_END_UNITS)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report[section][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
