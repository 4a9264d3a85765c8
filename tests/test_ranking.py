"""Enumerative ranking against the independent references in ``oracles``.

Small lengths are checked on every word against the position in
``itertools.product`` order filtered by weight; n = 1024 against the
one-binomial-per-1 formula, on seeded words that include the extreme
weights and words ending in long runs.
"""

import random
from collections import Counter
from math import comb

import pytest

from parcodec import ParameterViolation, RankOutOfRange, build_codec, encode, parse_spec
from parcodec.ranking import (
    count_by_weight,
    lex_rank_fixed_weight,
    lex_unrank_fixed_weight,
    ranking_by_weight,
    weight_class_sizes,
)

from oracles import lex_rank_ref, rank_by_weight_ref, weight_class_table


def _weight_sets(n):
    """Contiguous sets, and gapped ones shaped like lab's forbidden weights
    (both ends of [0, n]), each weight in [0, n] once."""
    sets = {
        "all": range(n + 1),
        "light": range(n // 2),
        "band": range(n // 3, n - n // 3 + 1),
        "lab-gapped": (0, 1, n - 1, n),
        "lab-wide-gap": (*range(n // 4), *range(n - n // 4 + 1, n + 1)),
    }
    return {name: tuple(dict.fromkeys(w for w in ws if 0 <= w <= n)) for name, ws in sets.items()}


@pytest.mark.parametrize("n", range(15))
def test_fixed_weight_rank_every_word(n):
    position = Counter()  # words of each weight seen so far, in lex order
    for word in weight_class_table(n, range(n + 1)):
        weight = sum(word)
        rank = lex_rank_fixed_weight(word)
        assert rank == position[weight]
        assert tuple(lex_unrank_fixed_weight(rank, n, weight)) == word
        position[weight] += 1
    assert all(position[w] == comb(n, w) for w in range(n + 1))


@pytest.mark.parametrize("n", range(15))
def test_rank_by_weight_every_word(n):
    for name, weights in _weight_sets(n).items():
        table = weight_class_table(n, weights)
        assert count_by_weight(n, weights) == len(table), name
        rank_word, unrank = ranking_by_weight(n, weights)
        for rank, word in enumerate(table):
            assert rank_word(word, sum(word)) == rank, (name, word)
            assert tuple(unrank(rank)) == word, (name, rank)


def _seeded_words(n, count, seed):
    rng = random.Random(seed)
    words = [(0,) * n, (1,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)]
    for _ in range(count):
        density = rng.random()
        body = tuple(int(rng.random() < density) for _ in range(n))
        run = rng.randrange(n // 2)
        words.append(body)
        words.append(body[: n - run] + (1,) * run)
        words.append(body[: n - run] + (0,) * run)
    return words


def test_fixed_weight_rank_seeded_n1024():
    n = 1024
    for word in _seeded_words(n, 20, seed=1024):
        rank = lex_rank_fixed_weight(word)
        assert rank == lex_rank_ref(word)
        assert tuple(lex_unrank_fixed_weight(rank, n, sum(word))) == word


def test_rank_by_weight_seeded_n1024():
    n = 1024
    for word in _seeded_words(n, 10, seed=7):
        weight = sum(word)
        weight_sets = [tuple(range(weight + 1)), tuple(range(weight, n + 1))]
        if 2 < weight < n - 1:
            weight_sets.append((0, 1, 2, weight, n - 1, n))  # gapped, like lab's
        for weights in weight_sets:
            rank = ranking_by_weight(n, weights)[0](word, weight)
            assert rank == rank_by_weight_ref(word, weights)
            assert tuple(ranking_by_weight(n, weights)[1](rank)) == word


def test_weight_class_sizes_step_across_gaps_and_past_n():
    weights = (3, 4, 5, 9, 10, 0, 11, 12, 13)
    assert list(weight_class_sizes(10, weights)) == [(w, comb(10, w)) for w in weights]
    assert count_by_weight(10, ()) == 0


def test_fixed_weight_unrank_rejections():
    with pytest.raises(RankOutOfRange, match=r"rank 10 out of range for 5 choose 2"):
        lex_unrank_fixed_weight(10, 5, 2)
    with pytest.raises(RankOutOfRange, match=r"rank -1 out of range for 5 choose 2"):
        lex_unrank_fixed_weight(-1, 5, 2)
    with pytest.raises(RankOutOfRange, match=r"rank 0 out of range for 5 choose 6"):
        lex_unrank_fixed_weight(0, 5, 6)


def test_rank_by_weight_rejections():
    with pytest.raises(RankOutOfRange, match="word weight 3 is not among the ranked weights"):
        ranking_by_weight(4, (0, 1, 4))[0]((1, 1, 1, 0), 3)
    total = count_by_weight(8, (0, 1, 7, 8))
    unrank = ranking_by_weight(8, (0, 1, 7, 8))[1]
    assert tuple(unrank(total - 1)) == (1,) * 8
    for rank in (-1, total):
        with pytest.raises(RankOutOfRange, match=rf"rank {rank} out of range for the ranked weights, n = 8"):
            unrank(rank)


def test_rank_table_is_built_on_first_use():
    # count first, table on first use: ab:n=4096 ranks 1984 weight classes
    ranking_by_weight.cache_clear()
    codec = build_codec(parse_spec("ab:n=4096"))
    assert not codec.satisfies(bytes(codec.n))  # all that check asks of a codec
    with pytest.raises(ParameterViolation, match="forbidden-window count 1588 exceeds"):
        build_codec(parse_spec("lab:n=64,l=12,wmin=5,wmax=7"))
    assert ranking_by_weight.cache_info().misses == 0
    _, stats = encode(codec, bytes(codec.k))
    assert stats.iterations == 10
    assert ranking_by_weight.cache_info().misses == 1
