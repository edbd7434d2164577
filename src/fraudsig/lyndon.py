"""Lyndon words over an integer alphabet.

A Lyndon word is a non-empty word that is strictly smaller, in lexicographic
order, than every one of its proper rotations.  The Lyndon words of length
<= M over a D-letter alphabet index a linear basis of the free Lie algebra
truncated at degree M, which is the coordinate system used for log-signature
vectors: the coefficients of the tensor logarithm at Lyndon-word positions
determine all remaining coefficients through a unitriangular change of basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["lyndon_words", "witt_count", "lyndon_dim", "LyndonBasis"]


def _mobius(n: int) -> int:
    """Moebius function by trial factorisation (small arguments only)."""
    if n < 1:
        raise ValueError(f"Moebius function undefined for {n}")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_count(alphabet_size: int, length: int) -> int:
    """Number of Lyndon words of exactly `length` letters: the Witt formula

        (1/k) * sum_{e | k} mu(e) * D**(k/e)
    """
    if alphabet_size < 1 or length < 1:
        raise ValueError("alphabet_size and length must be positive")
    total = 0
    for e in range(1, length + 1):
        if length % e == 0:
            total += _mobius(e) * alphabet_size ** (length // e)
    assert total % length == 0
    return total // length


def lyndon_dim(alphabet_size: int, degree: int) -> int:
    """Total number of Lyndon words of length <= degree."""
    return sum(witt_count(alphabet_size, k) for k in range(1, degree + 1))


def _duval_generate(alphabet_size: int, max_len: int):
    """Yield all Lyndon words of length <= max_len (Duval's algorithm).

    Words come out in lexicographic order of the words themselves; callers
    wanting a by-length ordering must sort.
    """
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < max_len:
            w.append(w[-m])
        while w and w[-1] == alphabet_size - 1:
            w.pop()


def lyndon_words(alphabet_size: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All Lyndon words of length <= degree, lengths ascending and
    lexicographic within each length."""
    if alphabet_size < 1:
        raise ValueError(f"alphabet_size must be >= 1, got {alphabet_size}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    words = list(_duval_generate(alphabet_size, degree))
    words.sort(key=lambda w: (len(w), w))
    return tuple(words)


@dataclass(frozen=True)
class LyndonBasis:
    """Lyndon-word coordinate layout for log-signature vectors.

    Attributes:
        alphabet_size: number of path channels D.
        degree: truncation degree M.
        words: all Lyndon words of length <= M, lengths ascending then
            lexicographic; the i-th output coordinate is the tensor-log
            coefficient of ``words[i]``.
        index: (dim,) intp; position of ``words[i]`` in levels 1..M of a
            tensor series laid end to end (base-D value of the word plus the
            sizes D + ... + D**(len-1) of all shorter levels).
        letter_counts: (dim, D) float64; entry [i, c] counts the occurrences
            of letter c in ``words[i]``.  Scaling path channel c by s
            multiplies coordinate i by s**letter_counts[i, c].
    """

    alphabet_size: int
    degree: int
    words: tuple[tuple[int, ...], ...] = field(repr=False)
    index: np.ndarray = field(repr=False, compare=False)
    letter_counts: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def build(cls, alphabet_size: int, degree: int) -> "LyndonBasis":
        words = lyndon_words(alphabet_size, degree)
        index = np.empty(len(words), dtype=np.intp)
        letter_counts = np.zeros((len(words), alphabet_size))
        for i, w in enumerate(words):
            k = 0
            for letter in w:
                k = k * alphabet_size + letter
                letter_counts[i, letter] += 1.0
            index[i] = k + sum(alphabet_size**m for m in range(1, len(w)))
        index.flags.writeable = False
        letter_counts.flags.writeable = False
        return cls(alphabet_size, degree, words, index, letter_counts)

    @property
    def dim(self) -> int:
        return len(self.words)
