"""Repeat-free, reverse-complement, and almost-balanced constructions."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from parcodec import (
    DNA_COMPLEMENT,
    NotACodeword,
    ParameterViolation,
    RankOutOfRange,
    almost_balanced_shrink_pair,
    build_almost_balanced,
    build_secondary_structure,
    count_weight_at_most,
    decode,
    encode,
    min_balanced_weight,
    rank_weight_at_most,
    repeat_free_shrink,
    reverse_complement,
    reverse_complement_shrink,
    unrank_weight_at_most,
)

from oracles import (
    all_binary_words,
    mapped_repeat_free_ok,
    minimal_repeat_pair,
    rc_pair_free,
    repeat_free_ok,
    weight_in,
)


def bits(text):
    return tuple(int(c) for c in text)


# --- repeat-free shrink -------------------------------------------------------

def test_repeat_free_shrink_all_zero():
    shrink = repeat_free_shrink(8, 7)
    # first repeated pair is windows 0 and 1; 3-bit indices 000 and 001
    assert shrink.shrink((0,) * 8) == bits("0000001")


def test_repeat_free_unshrink_overlap_branch():
    shrink = repeat_free_shrink(8, 7)
    assert shrink.unshrink(bits("0000001")) == (0,) * 8


def test_repeat_free_length_at_minimal_window():
    shrink = repeat_free_shrink(8, 7)
    assert shrink.target_len == 7  # n - ell + 2*ceil_log(n) = n - 1


def test_repeat_free_bounds():
    with pytest.raises(ParameterViolation):
        repeat_free_shrink(8, 6)
    with pytest.raises(ParameterViolation):
        repeat_free_shrink(16, 8)


def test_repeat_free_unshrink_copy_branch():
    # n=16, ell=9: word with identical windows at 0 and 7 (no overlap)
    shrink = repeat_free_shrink(16, 9)
    word = bits("1101101") + bits("110110111")  # windows 0 and 7 both 110110111
    assert word[0:9] == word[7:16]
    image = shrink.shrink(word)
    assert shrink.unshrink(image) == word


def test_repeat_free_overlap_reconstruction_exhaustive_n8():
    shrink = repeat_free_shrink(8, 7)
    violating = 0
    for word in all_binary_words(8):
        if shrink.satisfies(word):
            assert repeat_free_ok(word, 7)
            continue
        violating += 1
        i, j = minimal_repeat_pair(word, 7)
        assert j < i + 7  # length 8 admits only overlapping repeats
        assert shrink.unshrink(shrink.shrink(word)) == word
    assert violating == 2  # only 0^8 and 1^8 repeat a 7-window


def test_repeat_free_satisfies_matches_scan_n16():
    shrink = repeat_free_shrink(16, 9)
    for word in [(0,) * 16, (1,) * 16, bits("0110100110010110"), bits("0000000011111111")]:
        assert shrink.satisfies(word) == repeat_free_ok(word, 9)


def test_repeat_free_unshrink_rejects_bad_pair():
    shrink = repeat_free_shrink(8, 7)
    with pytest.raises(NotACodeword):
        shrink.unshrink(bits("0001000"))  # i == j == 1
    with pytest.raises(NotACodeword):
        shrink.unshrink(bits("0010000"))  # i=2 > j=0


def test_symbolwise_repeat_free_flip_map():
    # beta flips bits at every position: forbid a window followed by its complement
    table = (1, 0)
    shrink = repeat_free_shrink(16, 9, symbol_map=table)
    word = bits("0000000001111111") + ()
    # window at 0 is 0^9; its flip 1^9 never occurs, but window 7 = 0,1^8?
    assert shrink.satisfies(word) == mapped_repeat_free_ok(word, 9, [table] * 9)
    violating = bits("0000000001111111")
    # construct an explicit violation: 0^9 then 1^7 gives flip(w0)=1^9 vs w7=001111111? scan decides
    for candidate in [violating, bits("0101010101010101"), (0,) * 16]:
        assert shrink.satisfies(candidate) == mapped_repeat_free_ok(candidate, 9, [table] * 9)


def test_symbolwise_repeat_free_roundtrip_on_violations():
    table = (1, 0)
    shrink = repeat_free_shrink(12, 9, symbol_map=table)
    checked = 0
    for word in all_binary_words(12):
        if not shrink.satisfies(word):
            checked += 1
            assert shrink.unshrink(shrink.shrink(word)) == word
    assert checked > 0


# per-position tables: flip the symbol at every third position, keep the rest
_PER_POSITION = [(1, 0) if t % 3 == 0 else (0, 1) for t in range(9)]


def test_per_position_repeat_free_roundtrip_exhaustive_n12():
    # at n = 12 every mapped repeat of a 9-window overlaps, so this exercises
    # the regrow branch with a different table at each position
    shrink = repeat_free_shrink(12, 9, symbol_map=_PER_POSITION)
    checked = 0
    for word in all_binary_words(12):
        if shrink.satisfies(word):
            assert mapped_repeat_free_ok(word, 9, _PER_POSITION)
            continue
        checked += 1
        assert shrink.unshrink(shrink.shrink(word)) == word
    assert checked > 0


@pytest.mark.parametrize("per_position", [False, True], ids=["one-table", "per-position"])
def test_mapped_repeat_free_roundtrip_copy_branch(per_position):
    # a mapped copy of the window at i planted at j >= i + ell: the removed
    # window is rebuilt from the surviving one through the transform
    ell = 11  # the smallest window at n = 24
    tables = [(1, 0) if t % 3 == 0 or not per_position else (0, 1) for t in range(ell)]
    shrink = repeat_free_shrink(24, ell, symbol_map=tables)
    copied = 0
    for seed in range(200):
        word = list(bits(format(seed * 2654435761 % (1 << 24), "024b")))
        i = seed % 3
        j = i + ell + seed % (3 - i)
        word[j : j + ell] = [t[s] for t, s in zip(tables, word[i : i + ell])]
        word = tuple(word)
        i, j = shrink.first_violation(word)
        copied += j >= i + ell
        assert shrink.unshrink(shrink.shrink(word)) == word
    assert copied > 0


# --- reverse complement -------------------------------------------------------

def test_reverse_complement_involution():
    for length in range(0, 7):
        for word in product(range(4), repeat=length):
            assert reverse_complement(reverse_complement(word)) == word


def test_reverse_complement_value():
    # ACGT maps to itself; AACG maps to CGTT
    assert reverse_complement((0, 0, 1, 2)) == (1, 2, 3, 3)
    assert reverse_complement((0, 1, 2, 3)) == (0, 1, 2, 3)


def test_rc_shrink_minimal_window_arithmetic():
    shrink = reverse_complement_shrink(8, 5)
    assert shrink.target_len == 7  # 2*ceil_log4(8) + 1 = 5 exactly


def test_rc_shrink_rejects_below_bound():
    with pytest.raises(ParameterViolation):
        reverse_complement_shrink(8, 4)


def test_rc_shrink_detects_nonoverlapping_pair():
    # n=12, ell=5: window at 0 and its reverse complement at 7
    shrink = reverse_complement_shrink(12, 5)
    head = (0, 0, 1, 2, 3)
    word = head + (0, 0) + reverse_complement(head)
    assert not shrink.satisfies(word)
    image = shrink.shrink(word)
    assert len(image) == 11
    assert shrink.unshrink(image) == word


def test_rc_shrink_unshrink_rejects_bad_pair():
    # n=12, ell=5, q=4: 7 surviving symbols, then i and j in two base-4 digits each
    shrink = reverse_complement_shrink(12, 5)
    rest = (0, 1, 2, 3, 0, 1, 2)
    assert len(shrink.unshrink(rest + (0, 0, 1, 1))) == 12  # (0, 5) is a valid pair
    for fields in [
        (0, 0, 0, 2),  # i=0, j=2 overlaps: i < j < i + ell
        (0, 1, 1, 1),  # i=1, j=5 overlaps at the last symbol
        (0, 0, 2, 0),  # j=8 > n - ell = 7
        (1, 0, 0, 0),  # i=4 > j=0
    ]:
        with pytest.raises(NotACodeword):
            shrink.unshrink(rest + fields)


def test_rc_shrink_ignores_overlapping_pairs():
    shrink = reverse_complement_shrink(12, 5)
    for word in [(0,) * 12, (0, 3) * 6, (1, 2, 1, 2) * 3]:
        assert shrink.satisfies(word) == rc_pair_free(word, 5, require_gap=True)


def test_rc_shrink_roundtrip_exhaustive_n8_ell5():
    # at n=8 no non-overlapping pair fits, so the constraint is vacuous
    shrink = reverse_complement_shrink(8, 5)
    assert all(shrink.satisfies(w) for w in product(range(4), repeat=8))


def test_rc_shrink_roundtrip_sampled_n10():
    shrink = reverse_complement_shrink(10, 5)
    checked = 0
    for word in product(range(4), repeat=10):
        if word[0] or word[1]:  # deterministic 1/16 slice of the space
            continue
        if not shrink.satisfies(word):
            checked += 1
            assert shrink.unshrink(shrink.shrink(word)) == word
    assert checked > 0


# --- secondary structure (all offsets) ----------------------------------------

def test_secondary_structure_parameters():
    codec = build_secondary_structure(8)
    assert (codec.q, codec.n, codec.k) == (4, 8, 7)


def test_secondary_structure_outputs_rc_pair_free_at_all_offsets():
    codec = build_secondary_structure(8)
    for payload in [(0,) * 7, (0, 1, 2, 3, 0, 1, 2), (3, 3, 3, 3, 3, 3, 3)]:
        word, _ = encode(codec, payload)
        assert rc_pair_free(word, 6, require_gap=False)
        assert decode(codec, word) == payload


def test_overlapping_rc_pair_forces_contained_rc_palindrome():
    # offset-2 overlap makes the 8-symbol union its own reverse complement
    head = (0, 1, 2, 3, 1, 1)
    word = head[:2] + reverse_complement(head) + (0, 0, 0, 0)
    union = word[0:8]
    if reverse_complement(word[0:6]) == word[2:8]:
        assert reverse_complement(union) == union


# --- almost balanced -----------------------------------------------------------

def test_count_weight_at_most():
    assert count_weight_at_most(16, 3) == 1 + 16 + 120 + 560 == 697


def test_count_weight_at_most_matches_binomial_sum():
    def reference(n, wmax):
        return sum(comb(n, w) for w in range(0, min(wmax, n) + 1))

    for n in range(65):
        for wmax in range(-1, n + 2):
            assert count_weight_at_most(n, wmax) == reference(n, wmax)
    running = 0
    assert count_weight_at_most(1024, -1) == 0
    for wmax in range(1025):
        running += comb(1024, wmax)
        assert count_weight_at_most(1024, wmax) == running
    assert count_weight_at_most(1024, 1025) == running == 2**1024


def test_min_balanced_weight_exact_threshold():
    assert min_balanced_weight(16) == 4  # [16/2 - 4, ...]
    # cross-check against a direct sqrt-free scan
    for n in range(1, 200):
        expected = min(w for w in range(n + 1) if (n - 2 * w) <= 0 or (n - 2 * w) ** 2 <= 4 * n)
        assert min_balanced_weight(n) == expected


def test_rank_of_all_zero_word_is_zero():
    assert rank_weight_at_most((0,) * 16, 3) == 0


def test_rank_unrank_bijection_exhaustive():
    members = sorted(
        (w for w in all_binary_words(16) if sum(w) <= 3),
        key=lambda w: (sum(w), w),
    )
    assert len(members) == 697
    for rank, word in enumerate(members):
        assert rank_weight_at_most(word, 3) == rank
        assert unrank_weight_at_most(rank, 16, 3) == word


def test_rank_rejects_overweight_word():
    with pytest.raises(RankOutOfRange):
        rank_weight_at_most((1,) * 8, 3)


def test_unrank_rejects_out_of_range():
    with pytest.raises(RankOutOfRange):
        unrank_weight_at_most(697, 16, 3)


@given(st.integers(0, comb(20, 0) + comb(20, 1) + comb(20, 2) + comb(20, 3) - 1))
def test_unrank_then_rank_is_identity(rank):
    word = unrank_weight_at_most(rank, 20, 3)
    assert sum(word) <= 3
    assert rank_weight_at_most(word, 3) == rank


def test_almost_balanced_members():
    floor_member, ceiling_member = almost_balanced_shrink_pair(16)
    assert floor_member.target_len == ceiling_member.target_len == 14
    # too-light word violates the floor member and packs to rank 0
    assert not floor_member.satisfies((0,) * 16)
    assert floor_member.shrink((0,) * 16) == (0,) * 14
    # too-heavy word violates the ceiling member
    assert not ceiling_member.satisfies((1,) * 16)
    assert ceiling_member.satisfies((0,) * 16)
    assert ceiling_member.unshrink(ceiling_member.shrink((1,) * 16)) == (1,) * 16


def test_almost_balanced_members_match_exact_square_test():
    # too light: w < n/2 - sqrt(n), i.e. n - 2w > 0 and (n - 2w)^2 > 4n;
    # too heavy: the same for the complement
    for n in range(5, 301):
        floor_member, ceiling_member = almost_balanced_shrink_pair(n)
        for w in range(n + 1):
            word = (1,) * w + (0,) * (n - w)
            light, heavy = n - 2 * w, 2 * w - n
            assert floor_member.satisfies(word) == (light <= 0 or light * light <= 4 * n)
            assert ceiling_member.satisfies(word) == (heavy <= 0 or heavy * heavy <= 4 * n)


def test_almost_balanced_rejects_tiny_n():
    with pytest.raises(ParameterViolation):
        build_almost_balanced(4)
    build_almost_balanced(5)  # smallest admissible


def test_almost_balanced_encode_lands_in_window():
    codec = build_almost_balanced(16)
    word, _ = encode(codec, (0,) * 15)
    assert weight_in(word, 4, 12)
    assert decode(codec, word) == (0,) * 15


@settings(max_examples=60)
@given(st.lists(st.integers(0, 1), min_size=15, max_size=15))
def test_almost_balanced_roundtrip_random(payload):
    codec = build_almost_balanced(16)
    word, _ = encode(codec, tuple(payload))
    assert weight_in(word, 4, 12)
    assert decode(codec, word) == tuple(payload)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=31, max_size=31))
def test_repeat_free_roundtrip_random_n32(payload):
    from parcodec import build_codec, parse_spec

    codec = build_codec(parse_spec("rf:n=32,l=11"))
    word, _ = encode(codec, tuple(payload))
    assert repeat_free_ok(word, 11)
    assert decode(codec, word) == tuple(payload)
