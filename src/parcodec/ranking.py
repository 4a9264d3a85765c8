"""Exact enumerative ranking of binary words (0 < 1, lexicographic).

Words of one Hamming weight are ranked lexicographically; words drawn from
several weight classes are ranked class by class, lighter classes first.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from .errors import RankOutOfRange
from .words import Word


def lex_rank_fixed_weight(word: Word) -> int:
    """Rank of a binary word among all words of its length and Hamming weight."""
    n = len(word)
    ones = sum(word)
    rank = 0
    for i, symbol in enumerate(word):
        if symbol:
            # every word with 0 here and the same suffix budget comes first
            rank += comb(n - i - 1, ones)
            ones -= 1
    return rank


def lex_unrank_fixed_weight(rank: int, n: int, weight: int) -> Word:
    if not 0 <= rank < comb(n, weight):
        raise RankOutOfRange(f"rank {rank} out of range for {n} choose {weight}")
    symbols = []
    ones = weight
    for i in range(n):
        zero_block = comb(n - i - 1, ones)
        if rank < zero_block:
            symbols.append(0)
        else:
            rank -= zero_block
            symbols.append(1)
            ones -= 1
    return tuple(symbols)


def rank_by_weight(word: Word, weights: Iterable[int]) -> int:
    """Rank of a binary word among all words of its length whose weight is in
    ``weights``, ordered by weight class (in the order given, ascending in
    every caller) and then lexicographically."""
    n, weight = len(word), sum(word)
    offset = 0
    for w in weights:
        if w == weight:
            return offset + lex_rank_fixed_weight(word)
        offset += comb(n, w)
    raise RankOutOfRange(f"word weight {weight} is not among the ranked weights")


def unrank_by_weight(rank: int, n: int, weights: Iterable[int]) -> Word:
    """Inverse of :func:`rank_by_weight` for words of length n."""
    remaining = rank
    if rank >= 0:
        for weight in weights:
            block = comb(n, weight)
            if remaining < block:
                return lex_unrank_fixed_weight(remaining, n, weight)
            remaining -= block
    raise RankOutOfRange(f"rank {rank} out of range for the ranked weights, n = {n}")
