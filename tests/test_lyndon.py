import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraudsig.lyndon import LyndonBasis, lyndon_dim, lyndon_words, witt_count

from oracles import brute_lyndon_words


def test_witt_counts_small_alphabets():
    assert [witt_count(2, m) for m in (1, 2, 3, 4)] == [2, 1, 2, 3]
    assert [witt_count(3, m) for m in (1, 2, 3)] == [3, 3, 8]
    assert [witt_count(7, m) for m in (1, 2, 3, 4)] == [7, 21, 112, 588]


def test_total_dims():
    assert lyndon_dim(2, 4) == 8
    assert lyndon_dim(5, 4) == 205
    assert lyndon_dim(7, 4) == 728
    assert lyndon_dim(9, 4) == 1905


@given(st.integers(1, 4), st.integers(1, 5))
def test_witt_matches_brute_enumeration(dim, m):
    brute = [w for w in brute_lyndon_words(dim, m) if len(w) == m]
    assert witt_count(dim, m) == len(brute)


@pytest.mark.parametrize("dim,degree", [(1, 4), (2, 4), (3, 3), (7, 2)])
def test_duval_matches_rotation_definition(dim, degree):
    assert list(lyndon_words(dim, degree)) == brute_lyndon_words(dim, degree)


def test_words_sorted_by_length_then_lexicographic():
    words = list(lyndon_words(3, 4))
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_basis_layout():
    basis = LyndonBasis.build(3, 3)
    assert basis.dim == 3 + 3 + 8
    assert basis.index.shape == (basis.dim,)
    # index = base-dim digits of the word, after the 3 + 9 coefficients of
    # the shorter levels: level 2 starts at 3, level 3 at 3 + 9 = 12
    offsets = {1: 0, 2: 3, 3: 12}
    for w, flat in zip(basis.words, basis.index):
        digits = 0
        for letter in w:
            digits = digits * 3 + letter
        assert flat == offsets[len(w)] + digits
    assert [sum(len(w) == m for w in basis.words) for m in (1, 2, 3)] == [3, 3, 8]
    # the length-2 words are output coordinates 3..5
    assert [len(w) for w in basis.words[3:6]] == [2, 2, 2]


def test_letter_class_counts():
    basis = LyndonBasis.build(4, 3)
    assert basis.letter_counts.shape == (basis.dim, 4)
    for ci, w in enumerate(basis.words):
        for letter in range(4):
            assert basis.letter_counts[ci, letter] == w.count(letter)
    # class counts are column sums over the class's letters
    a = basis.letter_counts[:, [0, 2]].sum(axis=1)
    b = basis.letter_counts[:, [1]].sum(axis=1)
    for ci, w in enumerate(basis.words):
        assert a[ci] == sum(1 for letter in w if letter in (0, 2))
        assert b[ci] == sum(1 for letter in w if letter == 1)


@pytest.mark.parametrize("dim,degree", [(3, 3), (7, 4), (7, 1)])
def test_top_positions_are_the_longest_words_split_every_way(dim, degree):
    basis = LyndonBasis.build(dim, degree)
    top = basis.top
    longest = [w for w in basis.words if len(w) == degree]
    assert top.size == len(longest) == witt_count(dim, degree)
    assert not top.is_full or degree == 1
    for k, w in enumerate(longest):
        assert top.positions[k] == sum(c * dim ** (degree - 1 - j) for j, c in enumerate(w))
        for i in range(degree):
            assert top.prefix[i][k] == sum(c * dim ** (i - 1 - j) for j, c in enumerate(w[:i]))
            assert top.suffix[i][k] == sum(
                c * dim ** (degree - i - 1 - j) for j, c in enumerate(w[i:])
            )


def test_basis_tables_are_read_only_and_out_of_equality():
    basis = LyndonBasis.build(3, 2)
    with pytest.raises(ValueError):
        basis.index[0] = 1
    with pytest.raises(ValueError):
        basis.letter_counts[0, 0] = 2.0
    for table in (basis.top.positions, *basis.top.prefix, *basis.top.suffix):
        with pytest.raises(ValueError):
            table[0] = 1
    assert basis == LyndonBasis.build(3, 2)
    assert hash(basis) == hash(LyndonBasis.build(3, 2))
