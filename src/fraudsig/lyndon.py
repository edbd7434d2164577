"""Lyndon words over an integer alphabet.

A Lyndon word is a non-empty word that is strictly smaller, in lexicographic
order, than every one of its proper rotations.  The Lyndon words of length
<= M over a D-letter alphabet index a linear basis of the free Lie algebra
truncated at degree M, which is the coordinate system used for log-signature
vectors: the coefficients of the tensor logarithm at Lyndon-word positions
determine all remaining coefficients through a unitriangular change of basis.

No level above M reads the top level M of a truncated series, so a caller
that only wants Lyndon coordinates can hold level M at the length-M Lyndon
positions alone (588 of 2,401 at D = 7, M = 4).  :class:`TopPositions` is the
table of kept level-M positions and their prefix/suffix splits that the
tensor-algebra code gathers its level-M products through;
``LyndonBasis.top`` is the Lyndon one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["lyndon_words", "witt_count", "lyndon_dim", "LyndonBasis", "TopPositions"]


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


@dataclass(frozen=True, eq=False)
class TopPositions:
    """The flat positions held in the top level M of a truncated tensor series
    over D letters, split for the products that form them.

    Attributes:
        alphabet_size: letter count D.
        degree: the top level M.
        positions: (K,) intp; flat positions (base-D value of the word) kept
            in level M, in the order the level stores them.
        prefix, suffix: M read-only (K,) intp arrays each.  Cutting the words
            after their first i letters, ``prefix[i]`` is the flat position
            of that prefix in level i and ``suffix[i]`` that of the remaining
            M - i letters in level M - i (``divmod`` by D**(M-i)), so entry k
            of the level-M product of a level-i and a level-(M-i) block is
            ``left[prefix[i][k]] * right[suffix[i][k]]``.
    """

    alphabet_size: int
    degree: int
    positions: np.ndarray = field(repr=False)
    prefix: tuple[np.ndarray, ...] = field(repr=False)
    suffix: tuple[np.ndarray, ...] = field(repr=False)

    @classmethod
    def build(cls, alphabet_size: int, degree: int, positions) -> "TopPositions":
        positions = np.array(positions, dtype=np.intp)
        prefix = tuple(positions // alphabet_size ** (degree - i) for i in range(degree))
        suffix = tuple(positions % alphabet_size ** (degree - i) for i in range(degree))
        for table in (positions, *prefix, *suffix):
            table.flags.writeable = False
        return cls(alphabet_size, degree, positions, prefix, suffix)

    @classmethod
    def full(cls, alphabet_size: int, degree: int) -> "TopPositions":
        """All D**M positions in flat order: the untruncated top level."""
        return _full_top(alphabet_size, degree)

    @property
    def size(self) -> int:
        return self.positions.size

    @property
    def is_full(self) -> bool:
        return self.matches(TopPositions.full(self.alphabet_size, self.degree))

    def matches(self, other: "TopPositions") -> bool:
        return self is other or (
            self.alphabet_size == other.alphabet_size
            and self.degree == other.degree
            and np.array_equal(self.positions, other.positions)
        )


@functools.lru_cache(maxsize=None)
def _full_top(alphabet_size: int, degree: int) -> TopPositions:
    return TopPositions.build(alphabet_size, degree, np.arange(alphabet_size**degree))


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
        top: the level-M positions of the length-M words, in basis order
            (the last ``top.size`` words), with their prefix/suffix splits; a
            series restricted to them holds every coefficient this basis
            reads.
    """

    alphabet_size: int
    degree: int
    words: tuple[tuple[int, ...], ...] = field(repr=False)
    index: np.ndarray = field(repr=False, compare=False)
    letter_counts: np.ndarray = field(repr=False, compare=False)
    top: TopPositions = field(repr=False, compare=False)

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
        # Words are sorted by length, so the length-M ones come last.
        n_top = sum(len(w) == degree for w in words)
        below = sum(alphabet_size**m for m in range(1, degree))
        top = TopPositions.build(alphabet_size, degree, index[len(index) - n_top :] - below)
        return cls(alphabet_size, degree, words, index, letter_counts, top)

    @property
    def dim(self) -> int:
        return len(self.words)
