"""End-to-end runs of the command-line front end."""

import json
import os
import struct
import zlib

import pytest

from splitindex import Dictionary, build_index
from splitindex.cli import main
from splitindex.storage import index_to_bytes


@pytest.fixture()
def wordfile(tmp_path):
    p = tmp_path / "words.txt"
    p.write_bytes(b"table\nleft\ntablet\nstone\nstole\n")
    return p


@pytest.fixture()
def misspellings(tmp_path):
    p = tmp_path / "missp.txt"
    p.write_bytes(b"tavle->table\nlefd->left\nstome->stone\n")
    return p


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_then_query(tmp_path, wordfile, capsys):
    idx = tmp_path / "idx.bin"
    code, out, _ = run(capsys, "build", "--dict", str(wordfile), "--k", "1", "--out", str(idx))
    assert code == 0 and idx.exists()
    assert "5 words" in out

    code, out, _ = run(capsys, "query", "--index", str(idx), "tavle")
    assert code == 0
    assert out.splitlines() == ["table"]


def test_build_hash_and_load_factor_flags(tmp_path, wordfile, capsys):
    idx = tmp_path / "idx.bin"
    for fid in ("crc32", "xxhash"):
        code, _, _ = run(capsys, "build", "--dict", str(wordfile), "--hash", fid, "--out", str(idx))
        assert code == 0
        code, out, _ = run(capsys, "query", "--index", str(idx), "tavle")
        assert (code, out.splitlines()) == (0, ["table"])
    code, _, err = run(capsys, "build", "--dict", str(wordfile), "--max-lf", "1e-6", "--out", str(idx))
    assert code == 2 and "1e-06" in err


def test_query_builds_on_the_fly(wordfile, capsys):
    code, out, _ = run(capsys, "query", "--dict", str(wordfile), "--k", "1", "stome")
    assert code == 0
    assert out.splitlines() == ["stole", "stone"]


def test_query_multiple_patterns_one_line_per_match(wordfile, capsys):
    code, out, _ = run(capsys, "query", "--dict", str(wordfile), "tavle", "stole")
    assert code == 0
    assert out.splitlines() == ["table", "stole", "stone"]


def test_query_passes_pattern_bytes_through(tmp_path, capsysbinary):
    # A word that is not UTF-8 reaches the query as the command line's own
    # bytes, which Python hands over as surrogate escapes.
    words = tmp_path / "words.txt"
    words.write_bytes(b"caf\xe9\ncafe\n")
    code = main(["query", "--dict", str(words), "--k", "1", os.fsdecode(b"caf\xe9")])
    assert (code, capsysbinary.readouterr().out.splitlines()) == (0, [b"cafe", b"caf\xe9"])


def test_query_needs_exactly_one_source(wordfile, capsys):
    code, _, err = run(capsys, "query", "tavle")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "query", "--dict", str(wordfile), "--index", "x.bin", "tavle")
    assert code == 1


def test_build_flags_with_a_loaded_index_are_usage_errors(tmp_path, misspellings, capsys):
    # A loaded index keeps the k, hash, load factor and coding it was built
    # with, so a build flag next to --index would be ignored.
    words = tmp_path / "words3.txt"
    words.write_bytes(b"table\nleft\ntablet\n")
    idx = tmp_path / "words.idx"
    assert run(capsys, "build", "--dict", str(words), "--k", "1", "--out", str(idx))[0] == 0
    assert run(capsys, "query", "--dict", str(words), "--k", "2", "taxxe")[:2] == (0, "table\n")
    flags = [("--k", "2"), ("--hash", "fnv1"), ("--max-lf", "0.5"), ("--compress", "mixed"), ("--limit", "5")]
    for flag, value in flags:
        code, out, err = run(capsys, "query", "--index", str(idx), flag, value, "taxxe")
        assert (code, out) == (1, "") and flag in err, flag
        code, out, err = run(capsys, "bench", "--index", str(idx), "--queries", str(misspellings), flag, value)
        assert (code, out) == (1, "") and flag in err, flag
    code, _, err = run(capsys, "query", "--index", str(idx), "--k", "1", "--comp", "none", "taxxe")
    assert code == 1 and "--k" in err


def test_usage_error_exits_one(capsys):
    assert main(["build", "--dict"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "query", "--dict", str(tmp_path / "absent.txt"), "x")
    assert code == 2 and "error" in err


def test_corrupt_index_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTANIDX" + b"\x00" * 20)
    code, _, err = run(capsys, "query", "--index", str(bad), "x")
    assert code == 2


def test_bench_of_a_damaged_list_is_data_error(tmp_path, capsys):
    # The group length of b"cd", the group in region 2 of the list for
    # b"ab", is 0 (an escape, then 0), in a file whose checksum is
    # recomputed.  The query's search reads only region 1, and the report's
    # walk over every list does not stop there.
    idx = build_index(Dictionary([b"abcd", b"abce", b"abxy", b"cdab"]), 1)
    at = idx.table.lookup_list(b"ab")
    body = bytearray(index_to_bytes(idx)[:-4])
    cd = len(body) - len(idx.lists) + at.start + 8
    assert body[cd - 8 : cd + 3] == b"\x07\x82cdcexy" + b"\x82cd"
    body[cd : cd + 2] = b"\x80\x00"
    damaged = tmp_path / "damaged.bin"
    damaged.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    queries = tmp_path / "queries.txt"
    queries.write_bytes(b"abcx->abcd\n")
    code, out, err = run(capsys, "bench", "--index", str(damaged), "--queries", str(queries))
    assert code == 2 and out == "" and "b'ab'" in err


def test_bench_json_report(wordfile, misspellings, capsys):
    code, out, _ = run(
        capsys, "bench", "--dict", str(wordfile), "--queries", str(misspellings), "--reps", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["queries_run"] == 3
    assert report["matches_found"] == 4  # stome matches both stole and stone
    assert report["repetitions"] == 2
    assert report["k"] == 1


def test_bench_generated_queries_tsv(wordfile, tmp_path, capsys):
    out_path = tmp_path / "report.tsv"
    code, _, _ = run(
        capsys, "bench", "--dict", str(wordfile), "--gen-queries", "20",
        "--seed", "3", "--format", "tsv", "--out", str(out_path),
    )
    assert code == 0
    header, row = out_path.read_text().strip().splitlines()
    assert header.split("\t")[0] == "mean_query_seconds"
    assert len(row.split("\t")) == len(header.split("\t"))


def test_bench_requires_query_source(wordfile, capsys):
    code, _, err = run(capsys, "bench", "--dict", str(wordfile))
    assert code == 1


def test_query_sources_are_checked(wordfile, misspellings, tmp_path, capsys):
    both = ("--queries", str(misspellings), "--gen-queries", "5")
    code, _, err = run(capsys, "bench", "--dict", str(wordfile), *both)
    assert code == 1 and "not allowed with" in err
    code, _, err = run(capsys, "sweep", "k", "--grid", "1", "--dict", str(wordfile))
    assert code == 1 and "--queries" in err
    idx = tmp_path / "idx.bin"
    assert run(capsys, "build", "--dict", str(wordfile), "--out", str(idx))[0] == 0
    code, _, err = run(capsys, "bench", "--index", str(idx), "--gen-queries", "5")
    assert code == 1 and "--gen-queries needs --dict" in err
    code, _, err = run(capsys, "bench", "--dict", str(wordfile), "--gen-queries", "-3")
    assert code == 2 and "-3" in err
    code, out, _ = run(capsys, "bench", "--index", str(idx), "--queries", str(misspellings))
    assert code == 0 and json.loads(out)["compression"] == "none"


def test_sweep_k_reports(wordfile, misspellings, capsys):
    code, out, _ = run(
        capsys, "sweep", "k", "--grid", "1,2", "--dict", str(wordfile),
        "--queries", str(misspellings),
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["k"] for r in reports] == [1, 2]
    assert reports[0]["index_bytes"] < reports[1]["index_bytes"]


def test_sweep_load_factor_reports(wordfile, misspellings, capsys):
    code, out, _ = run(
        capsys, "sweep", "load_factor", "--grid", "1,2", "--dict", str(wordfile),
        "--queries", str(misspellings),
    )
    assert code == 0
    assert [r["max_load_factor"] for r in json.loads(out)] == [1.0, 2.0]


def test_flags_a_command_would_drop_are_usage_errors(tmp_path, wordfile, misspellings, capsys):
    # A swept dimension takes its values from --grid, and --limit only bounds
    # mined rules, so either flag would otherwise be silently ignored.
    source = ["--dict", str(wordfile), "--queries", str(misspellings)]
    swept = [("k", "1", "--k", "3"), ("hash", "crc32", "--hash", "fnv1"),
             ("load_factor", "1.0", "--max-lf", "2.0"), ("compression", "none", "--compress", "mixed")]
    for dimension, grid, flag, value in swept:
        code, out, err = run(capsys, "sweep", dimension, "--grid", grid, *source, flag, value)
        assert (code, out) == (1, "") and flag in err, flag
    idx = tmp_path / "idx.bin"
    uncoded = [
        ["build", "--dict", str(wordfile), "--out", str(idx)],
        ["build", "--dict", str(wordfile), "--compress", "none", "--out", str(idx)],
        ["query", "--dict", str(wordfile), "tavle"],
        ["bench", *source],
        ["sweep", "k", "--grid", "1", *source],
        ["sweep", "compression", "--grid", "none", *source],
    ]
    for argv in uncoded:
        code, out, err = run(capsys, *argv, "--limit", "-5")
        assert (code, out) == (1, "") and "--limit" in err, argv
    assert not idx.exists()
    code, _, _ = run(capsys, "build", "--dict", str(wordfile), "--compress", "2gram", "--limit", "1", "--out", str(idx))
    assert code == 0
    code, out, _ = run(capsys, "sweep", "compression", "--grid", "none,2gram", "--limit", "1", *source)
    assert code == 0 and [r["compression"] for r in json.loads(out)] == ["none", "2gram"]


def test_sweep_bad_grid_is_data_error(wordfile, misspellings, capsys):
    code, _, err = run(
        capsys, "sweep", "hash", "--grid", "xxhash,md5", "--dict", str(wordfile),
        "--queries", str(misspellings),
    )
    assert code == 2


def test_mine_qgrams_stdout_and_file(tmp_path, capsys):
    words = tmp_path / "dna.txt"
    words.write_bytes(b"\n".join([b"ACACACAC", b"ACACAC", b"ACACGT"]) + b"\n")
    code, out, _ = run(capsys, "mine-qgrams", "--dict", str(words), "--compress", "2gram")
    assert code == 0
    first = out.splitlines()[0].split("\t")
    assert first[1] == "AC" and int(first[0]) >= 128

    out_path = tmp_path / "subs.tsv"
    code, _, _ = run(
        capsys, "mine-qgrams", "--dict", str(words), "--compress", "2gram",
        "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_bytes().startswith(b"128\tAC")


def test_mine_qgrams_prints_the_bytes_out_writes(tmp_path, capsysbinary):
    words = tmp_path / "words.txt"
    words.write_bytes(b"compression\ncompress\nimpression\nrecompose\n")
    out_path = tmp_path / "subs.tsv"
    argv = ["mine-qgrams", "--dict", str(words), "--compress", "mixed"]
    assert main(argv + ["--out", str(out_path)]) == 0
    capsysbinary.readouterr()
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    assert printed.count(b"\n") > 1
    assert printed == out_path.read_bytes()


def test_build_with_compression_roundtrips(tmp_path, capsys):
    words = tmp_path / "dna.txt"
    words.write_bytes(b"\n".join(b"ACGTACGTACGTACGTACGT" for _ in range(1)) + b"\nACGTACGTAAAATTTTCCCC\n")
    idx = tmp_path / "dna.idx"
    code, _, _ = run(capsys, "build", "--dict", str(words), "--compress", "mixed", "--out", str(idx))
    assert code == 0
    code, out, _ = run(capsys, "query", "--index", str(idx), "ACGTACGTACGTACGTACGA")
    assert code == 0
    assert out.splitlines() == ["ACGTACGTACGTACGTACGT"]
