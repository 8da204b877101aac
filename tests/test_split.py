"""Piece arithmetic and word splitting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitindex import (
    ConfigError,
    WordTooShortError,
    piece_lengths,
    split_word,
)


def test_split_table():
    assert split_word(b"table", 1) == (b"tab", b"le")


def test_length_five_splits_three_two():
    assert piece_lengths(5, 1) == (3, 2)


def test_clamp_keeps_last_piece_nonempty():
    # round-half-up would give piece length 2 and leave the 4th piece empty
    assert piece_lengths(6, 3) == (1, 1, 1, 3)
    assert split_word(b"abcdef", 3) == (b"a", b"b", b"c", b"def")


def test_minimal_split():
    assert split_word(b"ab", 1) == (b"a", b"b")


def test_short_word_rejected():
    with pytest.raises(WordTooShortError):
        split_word(b"ab", 2)
    with pytest.raises(WordTooShortError):
        piece_lengths(0, 1)


def test_bad_budget_rejected():
    with pytest.raises(ConfigError):
        piece_lengths(10, 0)


@given(st.integers(1, 400), st.integers(1, 8))
@settings(max_examples=300)
def test_piece_lengths_total_and_positive(length, k):
    if length < k + 1:
        with pytest.raises(WordTooShortError):
            piece_lengths(length, k)
        return
    lens = piece_lengths(length, k)
    assert len(lens) == k + 1
    assert all(n >= 1 for n in lens)
    assert sum(lens) == length
    assert len(set(lens[:k])) <= 1  # first k pieces share a common length


@given(st.binary(min_size=1, max_size=60), st.integers(1, 4))
@settings(max_examples=300)
def test_split_concatenates_back(word, k):
    if len(word) < k + 1:
        return
    pieces = split_word(word, k)
    assert b"".join(pieces) == word
    assert all(pieces)
