"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (lines also bypass capture).
Timing-sensitive checks use a warm-up pass and keep the best of three runs,
the usual guard against scheduler noise on shared machines.
"""

import contextlib
import random
import sys
import time

from corpora import dna_fasta, random_words
from hostspeed import slowness
from reference import reference_pair_merge, rules

from splitindex import (
    Dictionary,
    HashConfig,
    SubstitutionList,
    build_index,
    compression_ratio,
    extract_kmers,
    gen_noisy_queries,
    mine_substitutions,
    oracle_query,
    run_bench,
    split_word,
    sweep,
)
from splitindex.storage import index_from_bytes, index_to_bytes


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        _announce(f"criterion {num} [{label}]: FAIL")
        raise
    _announce(f"criterion {num} [{label}]: PASS")


def _announce(line):
    print(line)
    if sys.stdout is not sys.__stdout__:  # also show under pytest capture
        print(line, file=sys.__stdout__, flush=True)


def _best_mean_seconds(index, queries, attempts=3):
    for p in queries.patterns:  # warm-up pass
        index.query(p)
    return min(run_bench(index, queries).mean_query_seconds for _ in range(attempts))


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence on randomized dictionaries"):
        rng = random.Random(20260811)
        started = time.perf_counter()
        checked = 0
        for _ in range(200):
            sigma = rng.choice((4, 26))
            alpha = bytes(range(97, 97 + sigma))
            size = 1 + int(4999 * rng.random() ** 2.2)
            d = Dictionary(random_words(rng, size, sigma))
            indexes = {k: build_index(d, k) for k in (1, 2, 3)}
            for _ in range(100):
                if rng.random() < 0.7:
                    p = bytearray(d.words[rng.randrange(d.word_count)])
                    for _ in range(rng.randint(0, 3)):
                        p[rng.randrange(len(p))] = alpha[rng.randrange(sigma)]
                    p = bytes(p)
                else:
                    p = bytes(rng.choices(alpha, k=rng.randint(1, 32)))
                for k in (1, 2, 3):
                    assert indexes[k].query(p) == oracle_query(d, p, k), (k, p)
                    checked += 1
        elapsed = time.perf_counter() - started
        print(f"  {checked} query/oracle pairs in {elapsed:.1f}s")
        assert elapsed < 120


def test_criterion_2_worked_examples():
    with criterion(2, "worked examples"):
        assert split_word(b"table", 1) == (b"tab", b"le")

        subs = SubstitutionList(
            [(b"com", ord("#")), (b"re", ord("*")), (b"co", ord("$")),
             (b"om", ord("&")), (b"sion", ord("\\"))]
        )
        assert subs.encode(b"compression") == b"#p*s\\"

        idx = build_index(Dictionary([b"table", b"left", b"tablet"]), 1)

        def entries(key):
            """The byte length of the list's region 1, and its payloads.

            Each region holds groups ``[L][B][payloads of L bytes]``, but
            its last group is ``[L | 0x80][payloads]``, which runs to the
            region's end; every group and list here is under 128 bytes, so
            L and B are one byte each.
            """
            blob = idx.lists[idx.table.lookup_list(key)]
            out, o = [], 1  # after the one-byte length of region 1
            for end in (1 + blob[0], len(blob)):  # the ends of regions 1 and 2
                while o < end:
                    n = blob[o]
                    if n & 0x80:
                        n, size, o = n & 0x7F, end - o - 1, o + 1
                    else:
                        size, o = blob[o + 1], o + 2
                    out += [blob[i : i + n] for i in range(o, o + size, n)]
                    o += size
            return blob[0], out

        size, payloads = entries(b"tab")  # only region 1 entries, one group each
        assert size == sum(2 + len(e) for e in payloads) - 1 and set(payloads) >= {b"le"}
        size, payloads = entries(b"le")  # one region 1 entry, then the prefixes
        assert set(payloads) == {b"tab", b"ft"} and size == 1 + len(payloads[0])


def test_criterion_3_space_linearity():
    with criterion(3, "list payload bytes = k * eligible word bytes, exactly"):
        rng = random.Random(3)
        dictionaries = [
            Dictionary(random_words(rng, 1200, 26)),
            Dictionary(random_words(rng, 800, 4, max_len=12)),
            Dictionary([b"a", b"bc", b"def", b"ghij", b"klmno"]),
        ]
        for d in dictionaries:
            for k in (1, 2, 3):
                expected = k * sum(len(w) for w in d.words if len(w) > k)
                assert build_index(d, k).list_stats().payload_bytes == expected


def test_criterion_4_k_growth(english_dictionary, english_queries):
    with criterion(4, "index size and query time grow with k"):
        assert english_dictionary.total_bytes >= 500_000
        subset = english_queries.patterns[:1200]
        indexes = {k: build_index(english_dictionary, k) for k in (1, 2, 3)}
        sizes = {k: idx.size_bytes() for k, idx in indexes.items()}
        for idx in indexes.values():
            for p in subset:  # warm-up
                idx.query(p)
        # Each round times one pass per k.  Pure-Python k = 1 queries slow
        # down more than numpy-heavy k >= 2 ones in a slow stretch of the
        # host, and rotating the k's does not cancel that, so a pass is
        # timed in chunks of 200 queries, each divided by the host's
        # slowness measured just before and after it; one measurement
        # around a whole pass was too brief to stand for it.  A k keeps its
        # best pass, raw and normalised.
        raw = dict.fromkeys(indexes, 1e9)
        means = dict.fromkeys(indexes, 1e9)
        for _ in range(5):
            for k, idx in indexes.items():
                total = norm = 0.0
                before = slowness()
                for c in range(0, len(subset), 200):
                    t0 = time.perf_counter()
                    for p in subset[c : c + 200]:
                        idx.query(p)
                    t = time.perf_counter() - t0
                    after = slowness()
                    total += t
                    norm += t / ((before + after) / 2)
                    before = after
                raw[k] = min(raw[k], total / len(subset))
                means[k] = min(means[k], norm / len(subset))
        print(f"  sizes {sizes}")
        print(f"  means us {[round(raw[k] * 1e6, 2) for k in (1, 2, 3)]}, "
              f"normalised {[round(means[k] * 1e6, 2) for k in (1, 2, 3)]}")
        print(f"  ratios k2/k1 {means[2] / means[1]:.2f}, k3/k2 {means[3] / means[2]:.2f} "
              f"(raw {raw[2] / raw[1]:.2f}, {raw[3] / raw[2]:.2f})")
        assert sizes[1] < sizes[2] < sizes[3]
        assert means[2] >= 3 * means[1]
        assert means[3] >= 2 * means[2]


def test_criterion_5_latency_and_oracle_gap(english_dictionary, english_index, english_queries):
    with criterion(5, "k=1 mean query <= 20us; brute force >= 50x slower"):
        mean = _best_mean_seconds(english_index, english_queries)
        print(f"  index mean {mean * 1e6:.2f} us")
        assert mean <= 20e-6

        subset = english_queries.patterns[:30]  # oracle at full scale is slow
        t0 = time.perf_counter()
        for p in subset:
            oracle_query(english_dictionary, p, 1)
        oracle_mean = (time.perf_counter() - t0) / len(subset)
        print(f"  oracle mean {oracle_mean * 1e3:.2f} ms ({oracle_mean / mean:.0f}x)")
        assert oracle_mean >= 50 * mean


def test_criterion_6_size_ratio(english_dictionary, english_index):
    with criterion(6, "uncompressed k=1 index <= 3.0x raw dictionary"):
        ratio = english_index.size_bytes() / english_dictionary.total_bytes
        print(f"  ratio {ratio:.3f}")
        assert ratio <= 3.0


def test_criterion_7_compression_effect(tmp_path_factory):
    with criterion(7, "mixed-policy coding on DNA 20-mers"):
        path = tmp_path_factory.mktemp("dna") / "genome.fa"
        dna_fasta(path, min_kmer_bytes=1_050_000, seed=13)
        d = extract_kmers(path, 20)
        assert d.total_bytes >= 1_000_000
        assert all(len(w) == 20 for w in d.words)

        subs = mine_substitutions(d, "mixed", 100)
        assert rules(subs) == rules(reference_pair_merge(d, 100))  # the per-round pair merges
        plain = build_index(d, 1)
        coded = build_index(d, 1, substitutions=subs)
        shrink = 1 - coded.size_bytes() / plain.size_bytes()
        print(
            f"  kmers {d.word_count}, ratio {compression_ratio(d, subs):.2f}, "
            f"index shrink {shrink * 100:.1f}%"
        )
        assert shrink >= 0.20

        queries = gen_noisy_queries(d, 1200, seed=29, alphabet=b"ACGNT")
        for p in queries.patterns:
            assert coded.query(p) == plain.query(p)
        t_plain = _best_mean_seconds(plain, queries)
        t_coded = _best_mean_seconds(coded, queries)
        print(f"  plain {t_plain * 1e6:.1f} us, coded {t_coded * 1e6:.1f} us")
        assert t_coded <= 10 * t_plain


def test_criterion_8_hash_invariance(english_dictionary, english_queries):
    with criterion(8, "hash choice changes speed only"):
        queries = type(english_queries)(english_queries.patterns[:800], "subset")
        reports = sweep("hash", ["crc32", "xxhash", "fnv1", "fnv1a", "sdbm"], english_dictionary, queries)
        assert len({r.matches_found for r in reports}) == 1
        means = [r.bucket_mean_chain for r in reports]
        assert max(means) <= min(means) * 1.05
        nonempty = []
        for fid in ("crc32", "xxhash", "fnv1", "fnv1a", "sdbm"):
            idx = build_index(english_dictionary, 1, hash_config=HashConfig(function_id=fid))
            nonempty.append(idx.table.bucket_stats().nonempty_mean_chain)
        print(f"  nonempty mean chains {[round(v, 4) for v in nonempty]}")
        assert max(nonempty) <= min(nonempty) * 1.05


def test_criterion_9_round_trips():
    with criterion(9, "codec identity and index save/load equivalence"):
        rng = random.Random(91)
        lists = [
            mine_substitutions(Dictionary(random_words(rng, 300, 26)), "mixed", 60),
            mine_substitutions(Dictionary(random_words(rng, 300, 4, max_len=20)), "2gram", 25),
            mine_substitutions(Dictionary(random_words(rng, 300, 26)), "4gram", 40),
            SubstitutionList(),
        ]
        for total in range(100_000):
            subs = lists[total % len(lists)]
            w = bytes(rng.choices(range(128), k=rng.randrange(0, 40)))
            assert subs.decode(subs.encode(w)) == w

        d = Dictionary(random_words(rng, 2500, 26))
        idx = build_index(d, 1, substitutions=mine_substitutions(d, "mixed", 50))
        again = index_from_bytes(index_to_bytes(idx))
        for _ in range(1000):
            p = bytes(rng.choices(range(97, 123), k=rng.randint(1, 30)))
            assert again.query(p) == idx.query(p)
