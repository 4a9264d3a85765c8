"""Exact enumerative ranking of binary words (0 < 1, lexicographic).

Ranking reads any sequence of 0/1 symbols, an engine ``bytes`` word or a
tuple; unranking gives ``bytes``, the engine's word.

Words of one Hamming weight are ranked lexicographically; words drawn from
several weight classes are ranked class by class, lighter classes first.

Every binomial is stepped, not recomputed.  Ranking walks the word once
with ``c = comb(m, ones)``, the number of ways to finish the last m
positions with the ones still to place.  Of those, ``c * (m - ones) // m``
put a 0 next and the rest put a 1 (Pascal's rule), so each symbol costs one
small-integer multiply and one exact division.  Class sizes step the same
way across consecutive weights, ``comb(n, w) = comb(n, w - 1) * (n - w + 1)
// w``.  All of it is exact integer arithmetic.

:func:`ranking_by_weight` is the one entry point: it tabulates the class
offsets of an (n, weights) pair once and returns the (rank, unrank) pair bound
to them; rank looks a word's class up and unrank bisects the offsets (``ab``'s
light set has 112 classes at n = 256 and 480 at n = 1024).  Coders count first,
with :func:`count_by_weight`, and take the pair on first use: the table grows
as n**2 (10 MiB at ``ab:n=10000``, near 1 GiB at n = 100000), which neither
``check`` nor a spec its count refuses should pay for.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import RankOutOfRange


def weight_class_sizes(n: int, weights: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Yield (w, comb(n, w)) for each w in ``weights``, in the order given.

    A weight one above the previous steps the binomial; ``comb`` runs only
    where the weights jump (the first weight, or a gap).
    """
    last, size = None, 0
    for w in weights:
        size = size * (n - last) // w if last is not None and w == last + 1 else comb(n, w)
        last = w
        yield w, size


def count_by_weight(n: int, weights: Iterable[int]) -> int:
    """Number of binary n-words whose weight is in ``weights``, exactly."""
    return sum(size for _, size in weight_class_sizes(n, weights))


def _lex_rank(word: Sequence[int], ones: int, c: int) -> int:
    # c = comb(len(word), ones); once no choice is left (all zeros or all
    # ones remain) every later zero block is empty, so the walk stops
    m, rank = len(word), 0
    for symbol in word:
        if ones == 0 or ones == m:
            break
        zero_block = c * (m - ones) // m  # words with 0 here come first
        if symbol:
            rank += zero_block
            c -= zero_block
            ones -= 1
        else:
            c = zero_block
        m -= 1
    return rank


def _lex_unrank(rank: int, n: int, ones: int, c: int) -> bytes:
    # inverse of _lex_rank with c = comb(n, ones) and 0 <= rank < c
    symbols = bytearray()
    m = n
    while 0 < ones < m:
        zero_block = c * (m - ones) // m
        if rank < zero_block:
            symbols.append(0)
            c = zero_block
        else:
            symbols.append(1)
            rank -= zero_block
            c -= zero_block
            ones -= 1
        m -= 1
    return bytes(symbols + (b"\x01" if ones else b"\x00") * m)


def lex_rank_fixed_weight(word: Sequence[int]) -> int:
    """Rank of a binary word among all words of its length and Hamming weight."""
    ones = sum(word)
    return _lex_rank(word, ones, comb(len(word), ones))


def lex_unrank_fixed_weight(rank: int, n: int, weight: int) -> bytes:
    size = comb(n, weight)
    if not 0 <= rank < size:
        raise RankOutOfRange(f"rank {rank} out of range for {n} choose {weight}")
    return _lex_unrank(rank, n, weight, size)


@lru_cache(maxsize=64)
def ranking_by_weight(n: int, weights: tuple[int, ...] | range):
    """The (rank, unrank) pair on n-words whose weight is in ``weights`` (a
    tuple or range), ordered by class in the order given, then lexicographically;
    ``rank(word, weight)`` takes the word's Hamming weight from the caller."""
    # weight -> (offset, size) for rank (the first class of a repeated
    # weight wins, as in a walk), and the ascending class offsets, the
    # total last, with each class's (weight, size) for unrank
    by_weight: dict[int, tuple[int, int]] = {}
    offsets, classes, offset = [], [], 0
    for w, size in weight_class_sizes(n, weights):
        by_weight.setdefault(w, (offset, size))
        offsets.append(offset)
        classes.append((w, size))
        offset += size
    offsets.append(offset)

    def rank(word: Sequence[int], weight: int) -> int:
        entry = by_weight.get(weight)
        if entry is None:
            raise RankOutOfRange(f"word weight {weight} is not among the ranked weights")
        class_offset, size = entry
        return class_offset + _lex_rank(word, weight, size)

    def unrank(value: int) -> bytes:
        if not 0 <= value < offset:
            raise RankOutOfRange(f"rank {value} out of range for the ranked weights, n = {n}")
        # the last class starting at or before the rank; empty classes share
        # the next class's offset, so they are never picked
        idx = bisect_right(offsets, value) - 1
        weight, size = classes[idx]
        return _lex_unrank(value - offsets[idx], n, weight, size)

    return rank, unrank
