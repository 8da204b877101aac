"""Substitution coding: worked example, mining, ordering, round trips."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import random_words

from splitindex import (
    CodecError,
    ConfigError,
    Dictionary,
    SubstitutionList,
    build_index,
    compression_ratio,
    load_substitutions,
    mine_substitutions,
    oracle_query,
    save_substitutions,
)

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


def test_mine_empty_dictionary():
    assert len(mine_substitutions(Dictionary(()), "mixed", 100)) == 0


def test_mine_unknown_policy():
    with pytest.raises(ConfigError):
        mine_substitutions(Dictionary([b"ab"]), "5gram", 10)


def test_mine_rejects_non_ascii():
    with pytest.raises(CodecError):
        mine_substitutions(Dictionary([b"ab\xff"]), "2gram", 10)


def test_dna_two_gram_space_is_bounded():
    rng = random.Random(2)
    d = Dictionary([bytes(rng.choices(b"ACGTN", k=20)) for _ in range(3000)])
    subs = mine_substitutions(d, "2gram", 1000)
    assert len(subs) <= 25


def test_mining_limit_respected():
    rng = random.Random(3)
    d = Dictionary(random_words(rng, 500, 26))
    assert len(mine_substitutions(d, "mixed", 7)) <= 7


def test_compression_ratio_empty_list_is_one():
    d = Dictionary([b"table", b"chair"])
    assert compression_ratio(d, SubstitutionList()) == 1.0


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
    assert again.encode(b"compression") == b"#p*s\\"


def test_build_with_compression_rejects_non_ascii_dictionary():
    d = Dictionary([b"abcd", b"ab\xffz"])
    subs = SubstitutionList([(b"ab", 128)])
    with pytest.raises(CodecError):
        build_index(d, 1, substitutions=subs)
