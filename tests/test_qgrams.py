"""Substitution coding: worked example, mining, ordering, round trips."""

import gc
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import dna_fasta, english_words, random_words
from reference import reference_mine, reference_pair_merge, rules

from splitindex import (
    CodecError,
    ConfigError,
    DataError,
    Dictionary,
    SubstitutionList,
    build_index,
    compression_ratio,
    extract_kmers,
    load_substitutions,
    mine_substitutions,
    oracle_query,
    save_substitutions,
)
from splitindex.qgrams import POLICIES, _Pairs

WORKED_EXAMPLE_LIST = [
    (b"com", ord("#")),
    (b"re", ord("*")),
    (b"co", ord("$")),
    (b"om", ord("&")),
    (b"sion", ord("\\")),
]


def test_worked_example():
    subs = SubstitutionList(WORKED_EXAMPLE_LIST)
    assert subs.encode(b"compression") == b"#p*s\\"
    assert subs.decode(b"#p*s\\") == b"compression"


def test_longer_grams_apply_first():
    subs = SubstitutionList(WORKED_EXAMPLE_LIST)
    assert [s.gram for s in subs][0] == b"sion"
    lengths = [len(s.gram) for s in subs]
    assert lengths == sorted(lengths, reverse=True)


def test_word_without_listed_grams_unchanged():
    subs = SubstitutionList(WORKED_EXAMPLE_LIST)
    assert subs.encode(b"table") == b"table"
    assert subs.decode(b"table") == b"table"


def test_greedy_is_nonoverlapping():
    subs = SubstitutionList([(b"com", ord("#"))])
    assert subs.encode(b"comcom") == b"##"
    assert subs.decode(b"##") == b"comcom"


def test_three_gram_beats_contained_two_gram():
    subs = SubstitutionList([(b"ab", 128), (b"abc", 129)])
    assert subs.encode(b"abcabc") == bytes((129, 129))


def test_encode_rejects_high_bytes_and_code_collisions():
    subs = SubstitutionList(WORKED_EXAMPLE_LIST)
    with pytest.raises(CodecError):
        subs.encode(b"caf\xe9")
    with pytest.raises(CodecError):
        subs.encode(b"a#b")  # '#' is claimed as a code byte by this list
    for bad in (b"a#b", b"caf\xe9", b"x\xff"):  # a batch names its bad word
        with pytest.raises(CodecError, match=re.escape(repr(bad))):
            subs.encode_many([b"table", bad, b"chair"])


def test_decode_rejects_unknown_codes():
    subs = SubstitutionList([(b"ab", 128)])
    with pytest.raises(CodecError):
        subs.decode(bytes((129,)))


def test_substitution_list_validation():
    with pytest.raises(CodecError):
        SubstitutionList([(b"a", 128)])  # too short
    with pytest.raises(CodecError):
        SubstitutionList([(b"abcde", 128)])  # too long
    with pytest.raises(CodecError):
        SubstitutionList([(b"ab", 128), (b"ab", 129)])  # duplicate gram
    with pytest.raises(CodecError):
        SubstitutionList([(b"ab", 128), (b"cd", 128)])  # duplicate code
    with pytest.raises(CodecError):
        SubstitutionList([(b"\xc3\xa9", 128)])  # gram bytes must be < 128


def test_substitution_list_holds_at_most_128_rules():
    grams = [bytes((97 + i // 26, 97 + i % 26)) for i in range(129)]
    codes = [*range(128, 256), 1]
    assert len(SubstitutionList(zip(grams, codes[:128]))) == 128
    with pytest.raises(CodecError, match="at most 128"):
        SubstitutionList(zip(grams, codes))


@pytest.mark.parametrize("code", [256, -1])
def test_code_beyond_a_byte_is_named(code):
    with pytest.raises(CodecError, match=f"got {code}$"):
        SubstitutionList([(b"ab", 128), (b"cd", code)])


def test_entries_sort_stably_by_length_then_savings():
    # Validation runs in input order, so an error names the first bad rule
    # given; the rules are then kept longest first, then by savings, ties in
    # input order.
    listed = [(b"ab", 130, 5), (b"abc", 131, 1), (b"cd", 132, 5), (b"ef", 133, 9), (b"xyz", 134, 1)]
    subs = SubstitutionList(listed)
    assert [tuple(e) for e in subs.entries] == [listed[1], listed[4], listed[3], listed[0], listed[2]]
    assert subs.grams == (b"abc", b"xyz", b"ef", b"ab", b"cd") and subs.codes == bytes((131, 134, 133, 130, 132))
    with pytest.raises(CodecError, match=re.escape("got b'abcde'")):
        SubstitutionList([(b"ab", 128), (b"abcde", 129), (b"a", 130)])
    with pytest.raises(CodecError, match=re.escape("in b'#b'")):
        SubstitutionList([(b"ab", ord("#")), (b"xyz", 129), (b"#b", 130), (b"#bc", 131)])


def test_gram_containing_a_code_byte_is_rejected():
    # b"abc" would encode to code 200, which decodes to b"#c": the round trip
    # breaks and coded indexes miss matches, so such a list cannot be made.
    for rules in ([(b"ab", ord("#")), (b"#c", 200)], [(b"ab", ord("a"))]):
        with pytest.raises(CodecError, match="not plain"):
            SubstitutionList(rules)


def test_separator_as_a_code_still_encodes_each_word():
    subs = SubstitutionList([(b"ab", 0xFF), (b"cd", ord("#"))])
    assert subs.encode_many([b"abcd", b"xab"]) == [b"\xff#", b"x\xff"]
    assert subs.encode_many([]) == []
    with pytest.raises(CodecError):
        subs.encode_many([b"ok", b"x#"])


def test_mine_first_pick_on_repetitive_corpus():
    d = Dictionary([b"tatatatata", b"tatata", b"tatatata"])
    subs = mine_substitutions(d, "2gram", 100)
    assert subs.entries[0].gram == b"ta"
    assert subs.entries[0].code == 128


def test_a_self_overlapping_gram_loses_on_its_exact_count():
    # b"aa" has the most windows (6) but replaces only 3 times in b"aaaaaaa";
    # b"bc" has 4 windows and saves 4.  b"aa" must still be picked next.
    d = Dictionary([b"aaaaaaa", b"bcd", b"bce", b"bcf", b"bcg"])
    subs = mine_substitutions(d, "2gram", 100)
    assert rules(subs)[:2] == [(b"bc", 128, 4), (b"aa", 129, 3)]
    assert rules(subs) == rules(reference_mine(d, "2gram", 100))


def test_savings_ties_go_to_the_longer_then_the_smaller_gram():
    # b"xy" occurs four times and is merged first; then b"xy" + b"z",
    # b"ab" and b"cd" occur twice each.
    d = Dictionary([b"xyzp", b"xyzq", b"xyr", b"xys", b"abt", b"abu", b"cdt", b"cdu"])
    subs = mine_substitutions(d, "mixed", 100)
    assert sorted(rules(subs), key=lambda r: r[1])[:4] == [(b"xy", 128, 4), (b"xyz", 129, 2), (b"ab", 130, 2), (b"cd", 131, 2)]
    assert rules(subs) == rules(reference_pair_merge(d, 100))


def test_pair_merge_counts_a_run_without_overlaps():
    # b"aaaaaaa" holds six overlapping b"aa" pairs, but a merge takes three;
    # b"bc" occurs four times and goes first.  Then the run holds b"aa" +
    # b"aa" once, and every other pair occurs once too: the longest gram wins.
    d = Dictionary([b"aaaaaaa", b"bcd", b"bce", b"bcf", b"bcg"])
    subs = mine_substitutions(d, "mixed", 3)
    assert sorted(rules(subs), key=lambda r: r[1]) == [(b"bc", 128, 4), (b"aa", 129, 3), (b"aaaa", 130, 1)]
    assert rules(subs) == rules(reference_pair_merge(d, 3))


def test_a_pair_whose_gram_is_taken_is_never_picked():
    # No mined corpus is known to reach this guard (CHANGES.md records a
    # random search), but a second rule with a taken gram would make
    # SubstitutionList raise.  Symbols 0 and 1 are b"a" and b"b", 2 the
    # separator; m = 3 + limit.
    pairs = _Pairs(np.array([2, 2, 2, 0, 1, 0, 1, 2, 2, 2], np.uint8), np.frombuffer(b"ab", np.uint8), 3)
    ab = 0 * pairs.m + 1
    assert pairs.bounds()[ab] == 2
    key, starts = pairs.exact(ab, 2, None)
    assert key == (2, 2, -int.from_bytes(b"ab", "big"), -ab) and starts is None
    pairs.taken.add(b"ab")
    assert pairs.exact(ab, 2, None) is None
    assert not pairs.short[ab] and pairs.bounds()[ab] == 0


def test_mine_empty_dictionary():
    assert len(mine_substitutions(Dictionary(()), "mixed", 100)) == 0


def test_mine_unknown_policy():
    with pytest.raises(ConfigError):
        mine_substitutions(Dictionary([b"ab"]), "5gram", 10)


def test_mine_rejects_a_negative_limit():
    with pytest.raises(ConfigError, match="got -1"):
        mine_substitutions(Dictionary([b"ab"]), "2gram", -1)


def test_mine_rejects_non_ascii():
    with pytest.raises(CodecError):
        mine_substitutions(Dictionary([b"ab\xff"]), "2gram", 10)


def test_dna_two_gram_space_is_bounded():
    rng = random.Random(2)
    d = Dictionary([bytes(rng.choices(b"ACGTN", k=20)) for _ in range(3000)])
    subs = mine_substitutions(d, "2gram", 1000)
    assert len(subs) <= 25


# With few symbols every possible gram of a q is numbered in one array; with
# more, and with the 120 symbols at every q, only the grams present are.
ALPHABETS = [bytes(range(97, 97 + n)) for n in range(1, 27)] + [bytes(range(1, 121))]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mining_matches_the_per_round_greedy(data):
    alpha = data.draw(st.sampled_from(ALPHABETS))
    words = data.draw(st.lists(st.binary(min_size=1, max_size=40), max_size=50))
    words = [bytes(alpha[b % len(alpha)] for b in w) for w in words]
    # Self-overlapping words chain their windows; short ones fit no 4-gram.
    words += data.draw(st.lists(st.sampled_from((b"aaaa", b"abab", b"abcabc", b"aaaaaaa", b"a", b"ab", b"abc")), max_size=8))
    d = Dictionary(words)
    policy = data.draw(st.sampled_from(sorted(POLICIES)))
    limit = data.draw(st.integers(0, 130))
    want = reference_pair_merge(d, limit) if policy == "mixed" else reference_mine(d, policy, limit)
    assert rules(mine_substitutions(d, policy, limit)) == rules(want)


def test_mining_limit_respected():
    rng = random.Random(3)
    d = Dictionary(random_words(rng, 500, 26))
    assert len(mine_substitutions(d, "mixed", 7)) <= 7


def test_compression_ratio_empty_list_is_one():
    d = Dictionary([b"table", b"chair"])
    assert compression_ratio(d, SubstitutionList()) == 1.0


def test_compression_ratio_of_an_empty_dictionary_is_one():
    assert compression_ratio(Dictionary(()), SubstitutionList([(b"ab", 128)])) == 1.0


def test_compression_ratio_halves_repeats():
    d = Dictionary([b"tatatata"])
    subs = mine_substitutions(d, "2gram", 1)
    assert compression_ratio(d, subs) == 2.0


def test_mined_ratio_never_below_one():
    rng = random.Random(4)
    for sigma in (4, 26):
        d = Dictionary(random_words(rng, 300, sigma))
        for policy in ("2gram", "3gram", "4gram", "mixed"):
            assert compression_ratio(d, mine_substitutions(d, policy, 50)) >= 1.0


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_round_trip_against_mined_lists(data):
    seed = data.draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    corpus = Dictionary(random_words(rng, 60, 26, max_len=20))
    subs = mine_substitutions(corpus, data.draw(st.sampled_from(("2gram", "3gram", "4gram", "mixed"))), 40)
    word = bytes(data.draw(st.lists(st.integers(97, 122), max_size=40)))
    assert subs.decode(subs.encode(word)) == word


def test_encode_many_matches_encode():
    rng = random.Random(5)
    d = Dictionary(random_words(rng, 400, 26))
    subs = mine_substitutions(d, "mixed", 60)
    batch = subs.encode_many(list(d.words))
    assert batch == [subs.encode(w) for w in d.words]


# Grams that overlap themselves (b"aaaa", b"abab", b"aa") or each other, and
# codes below 128 or at 0xFF, the byte mining joins words with.
ENCODER_LISTS = [
    SubstitutionList([(b"aaaa", 128), (b"abab", 129), (b"aba", 130), (b"aa", 131), (b"ab", 132), (b"ba", 133)]),
    SubstitutionList([(b"ing", 0xFF), (b"er", 0x80), (b"gi", 0x81), (b"ab", ord("#"))]),
]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_group_encoder_codes_each_group_as_encode_does(data):
    alpha = data.draw(st.sampled_from((b"ab", b"abc", b"ingera")))
    groups = data.draw(st.lists(st.lists(st.sampled_from(alpha), max_size=16).map(bytes), max_size=30))
    # None stands for rules mined from the groups.
    subs = data.draw(st.sampled_from(ENCODER_LISTS + [None])) or mine_substitutions(Dictionary(filter(None, groups)), "mixed", 40)
    sizes = np.fromiter(map(len, groups), np.int64, len(groups))
    coded, coded_sizes = subs.encode_groups(np.frombuffer(b"".join(groups), np.uint8), sizes)
    want = [subs.encode(g) for g in groups]
    assert coded.tobytes() == b"".join(want) and coded_sizes.tolist() == list(map(len, want))
    assert subs.encode_many(groups) == want


def test_group_encoder_matches_no_gram_across_groups():
    subs = ENCODER_LISTS[0]
    assert subs.encode_many([b"a", b"b", b"aaa", b"abaa"]) == [b"a", b"b", b"\x83a", b"\x82a"]
    assert subs.encode_many([b"ab", b"ab", b"aa", b"aa"]) == [b"\x84", b"\x84", b"\x83", b"\x83"]
    assert subs.encode_many([b"", b"aaaa", b""]) == [b"", b"\x80", b""]
    coded, sizes = subs.encode_groups(np.zeros(0, np.uint8), np.zeros(0, np.int64))
    assert coded.size == 0 and sizes.size == 0


def test_mixed_uses_every_code(tmp_path, english_dictionary):
    # The DNA 20-mers of criterion 7 and the English dictionary of criteria 4
    # and 5.  Pair merges make rules of 2 to 4 bytes, and every one of the
    # 100 codes occurs in the coded words; on DNA a window miner picking
    # among 2-, 3- and 4-grams took the 16 2-grams and left the rest unused.
    dna_fasta(tmp_path / "genome.fa", min_kmer_bytes=1_050_000, seed=13)
    for d in (extract_kmers(tmp_path / "genome.fa", 20), english_dictionary):
        subs = mine_substitutions(d, "mixed", 100)
        assert len(subs) == 100
        used = set(b"".join(subs.encode_many(list(d.words))))
        assert all(s.code in used for s in subs)
        assert {len(s.gram) for s in subs} == {2, 3, 4}


# mine_substitutions' traced peak at limit 100 under Python 3.11.7 and numpy
# 2.4.6: mixed on 531 kB of DNA 20-mers, 12_985_254 to 12_985_819, and 4gram
# on the 200 kB English corpus of the build-peak tests, 8_718_957 to
# 8_719_597.  Each bound is its peak rounded up by under 0.5%.
MINING_PEAKS = {"mixed": 13_040_000, "4gram": 8_750_000}


@pytest.mark.parametrize("policy", sorted(MINING_PEAKS))
def test_mining_peak_is_pinned(tmp_path, policy):
    if policy == "mixed":
        dna_fasta(tmp_path / "genome.fa", min_kmer_bytes=200_000, seed=13)
        d = extract_kmers(tmp_path / "genome.fa", 20)
    else:
        d = Dictionary(english_words(200_000, seed=3))
    gc.collect()
    tracemalloc.start()
    try:
        mine_substitutions(d, policy, 100)
        assert tracemalloc.get_traced_memory()[1] <= MINING_PEAKS[policy]
    finally:
        tracemalloc.stop()


def test_compressed_index_transparent_to_queries():
    rng = random.Random(6)
    for sigma in (4, 26):
        d = Dictionary(random_words(rng, 250, sigma, max_len=24))
        subs = mine_substitutions(d, "mixed", 50)
        for k in (1, 2):
            plain = build_index(d, k)
            coded = build_index(d, k, substitutions=subs)
            assert coded.size_bytes() <= plain.size_bytes()
            for _ in range(120):
                w = bytearray(d.words[rng.randrange(d.word_count)])
                for _ in range(rng.randint(0, k + 1)):
                    w[rng.randrange(len(w))] = 97 + rng.randrange(sigma)
                p = bytes(w)
                assert coded.query(p) == plain.query(p) == oracle_query(d, p, k)


def test_substitution_file_round_trip(tmp_path):
    subs = SubstitutionList(WORKED_EXAMPLE_LIST)
    path = tmp_path / "subs.tsv"
    save_substitutions(subs, path)
    text = path.read_bytes()
    assert text.splitlines()[0] == b"92\tsion"  # applied order, code TAB gram
    again = load_substitutions(path)
    assert again == subs
    assert (SubstitutionList() == object()) is False  # __eq__ defers, and Python falls back to identity
    assert again.encode(b"compression") == b"#p*s\\"


def test_substitution_file_refuses_a_gram_with_a_line_break(tmp_path):
    subs = SubstitutionList([(b"a\nb", 128)])
    assert subs.decode(subs.encode(b"xa\nb")) == b"xa\nb"
    with pytest.raises(CodecError, match="line format"):
        save_substitutions(subs, tmp_path / "subs.tsv")
    assert not (tmp_path / "subs.tsv").exists()


@pytest.mark.parametrize("line,message", [(b"128 ab", "line 2: expected '<code> TAB <gram>'"), (b"x80\tab", "line 2: bad code b'x80'")])
def test_malformed_substitution_file_is_data_error(tmp_path, line, message):
    path = tmp_path / "subs.tsv"
    path.write_bytes(b"129\tcd\n" + line + b"\n")
    with pytest.raises(DataError, match=re.escape(message)):
        load_substitutions(path)


def test_build_with_compression_rejects_non_ascii_dictionary():
    d = Dictionary([b"abcd", b"ab\xffz"])
    subs = SubstitutionList([(b"ab", 128)])
    with pytest.raises(CodecError):
        build_index(d, 1, substitutions=subs)
