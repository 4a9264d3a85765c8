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
    build_codec,
    count_weight_at_most,
    decode,
    encode,
    min_balanced_weight,
    rank_weight_at_most,
    parse_spec,
    repeat_free_shrink,
    reverse_complement_shrink,
    unrank_weight_at_most,
)
from parcodec.global_codes import almost_balanced_member

from oracles import (
    all_binary_words,
    mapped_repeat_free_ok,
    minimal_repeat_pair,
    rc,
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
    assert tuple(shrink.shrink(bytes((0,) * 8))) == bits("0000001")


def test_repeat_free_unshrink_overlap_branch():
    shrink = repeat_free_shrink(8, 7)
    assert tuple(shrink.unshrink(bytes(bits("0000001")))) == (0,) * 8


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
    image = shrink.shrink(bytes(word))
    assert tuple(shrink.unshrink(image)) == word


def test_repeat_free_overlap_reconstruction_exhaustive_n8():
    shrink = repeat_free_shrink(8, 7)
    violating = 0
    for word in all_binary_words(8):
        if shrink.satisfies(bytes(word)):
            assert repeat_free_ok(word, 7)
            continue
        violating += 1
        i, j = minimal_repeat_pair(word, 7)
        assert j < i + 7  # length 8 admits only overlapping repeats
        assert tuple(shrink.unshrink(shrink.shrink(bytes(word)))) == word
    assert violating == 2  # only 0^8 and 1^8 repeat a 7-window


def test_repeat_free_satisfies_matches_scan_n16():
    shrink = repeat_free_shrink(16, 9)
    for word in [(0,) * 16, (1,) * 16, bits("0110100110010110"), bits("0000000011111111")]:
        assert shrink.satisfies(bytes(word)) == repeat_free_ok(word, 9)


def test_repeat_free_unshrink_rejects_bad_pair():
    shrink = repeat_free_shrink(8, 7)
    with pytest.raises(NotACodeword):
        shrink.unshrink(bytes(bits("0001000")))  # i == j == 1
    with pytest.raises(NotACodeword):
        shrink.unshrink(bytes(bits("0010000")))  # i=2 > j=0


def test_symbolwise_repeat_free_flip_map():
    # beta flips bits at every position: forbid a window followed by its complement
    table = (1, 0)
    shrink = repeat_free_shrink(16, 9, symbol_map=table)
    word = bits("0000000001111111") + ()
    # window at 0 is 0^9; its flip 1^9 never occurs, but window 7 = 0,1^8?
    assert shrink.satisfies(bytes(word)) == mapped_repeat_free_ok(word, 9, [table] * 9)
    violating = bits("0000000001111111")
    # construct an explicit violation: 0^9 then 1^7 gives flip(w0)=1^9 vs w7=001111111? scan decides
    for candidate in [violating, bits("0101010101010101"), (0,) * 16]:
        assert shrink.satisfies(bytes(candidate)) == mapped_repeat_free_ok(candidate, 9, [table] * 9)


def test_per_position_map_needs_one_table_per_window_position():
    with pytest.raises(ParameterViolation, match=r"^need one symbol table per window position \(9\), got 8$"):
        repeat_free_shrink(12, 9, symbol_map=[(1, 0)] * 8)


def test_symbolwise_repeat_free_roundtrip_on_violations():
    table = (1, 0)
    shrink = repeat_free_shrink(12, 9, symbol_map=table)
    checked = 0
    for word in all_binary_words(12):
        if not shrink.satisfies(bytes(word)):
            checked += 1
            assert tuple(shrink.unshrink(shrink.shrink(bytes(word)))) == word
    assert checked > 0


# per-position tables: flip the symbol at every third position, keep the rest
_PER_POSITION = [(1, 0) if t % 3 == 0 else (0, 1) for t in range(9)]


@pytest.mark.parametrize(
    "symbol_map, tables",
    [(None, [(0, 1)] * 9), ((1, 0), [(1, 0)] * 9), (_PER_POSITION, _PER_POSITION)],
    ids=["identity", "flat", "per-position"],
)
def test_per_position_repeat_free_roundtrip_exhaustive_n12(symbol_map, tables):
    # at n = 12 every (mapped) repeat of a 9-window overlaps, so this exercises
    # the regrow of a periodic repeat, of one table and of a table per position
    shrink = repeat_free_shrink(12, 9, symbol_map=symbol_map)
    checked = 0
    for word in all_binary_words(12):
        if shrink.satisfies(bytes(word)):
            assert mapped_repeat_free_ok(word, 9, tables)
            continue
        checked += 1
        assert tuple(shrink.unshrink(shrink.shrink(bytes(word)))) == word
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
        word = bytes(word)
        i, j = shrink.first_violation(word)
        copied += j >= i + ell
        assert shrink.unshrink(shrink.shrink(word)) == word
    assert copied > 0


# --- reverse complement -------------------------------------------------------

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
    word = head + (0, 0) + rc(head)
    assert not shrink.satisfies(bytes(word))
    image = shrink.shrink(bytes(word))
    assert len(image) == 11
    assert tuple(shrink.unshrink(image)) == word


def test_rc_shrink_unshrink_rejects_bad_pair():
    # n=12, ell=5, q=4: 7 surviving symbols, then i and j in two base-4 digits each
    shrink = reverse_complement_shrink(12, 5)
    rest = (0, 1, 2, 3, 0, 1, 2)
    assert len(shrink.unshrink(bytes(rest + (0, 0, 1, 1)))) == 12  # (0, 5) is a valid pair
    for fields in [
        (0, 0, 0, 2),  # i=0, j=2 overlaps: i < j < i + ell
        (0, 1, 1, 1),  # i=1, j=5 overlaps at the last symbol
        (0, 0, 2, 0),  # j=8 > n - ell = 7
        (1, 0, 0, 0),  # i=4 > j=0
    ]:
        with pytest.raises(NotACodeword):
            shrink.unshrink(bytes(rest + fields))


def test_rc_shrink_ignores_overlapping_pairs():
    shrink = reverse_complement_shrink(12, 5)
    for word in [(0,) * 12, (0, 3) * 6, (1, 2, 1, 2) * 3]:
        assert shrink.satisfies(bytes(word)) == rc_pair_free(word, 5, require_gap=True)


def test_rc_shrink_roundtrip_exhaustive_n8_ell5():
    # at n=8 no non-overlapping pair fits, so the constraint is vacuous
    shrink = reverse_complement_shrink(8, 5)
    assert all(shrink.satisfies(bytes(w)) for w in product(range(4), repeat=8))


def test_rc_shrink_roundtrip_sampled_n10():
    shrink = reverse_complement_shrink(10, 5)
    checked = 0
    for word in product(range(4), repeat=10):
        if word[0] or word[1]:  # deterministic 1/16 slice of the space
            continue
        if not shrink.satisfies(bytes(word)):
            checked += 1
            assert tuple(shrink.unshrink(shrink.shrink(bytes(word)))) == word
    assert checked > 0


# --- secondary structure (all offsets) ----------------------------------------

def test_secondary_structure_parameters():
    codec = build_codec(parse_spec("ss:n=8"), 4)
    assert (codec.q, codec.n, codec.k) == (4, 8, 7)


def test_secondary_structure_outputs_rc_pair_free_at_all_offsets():
    codec = build_codec(parse_spec("ss:n=8"), 4)
    for payload in [(0,) * 7, (0, 1, 2, 3, 0, 1, 2), (3, 3, 3, 3, 3, 3, 3)]:
        word, _ = encode(codec, payload)
        assert rc_pair_free(word, 6, require_gap=False)
        assert decode(codec, word) == payload


def test_overlapping_rc_pair_forces_contained_rc_palindrome():
    # offset-2 overlap makes the 8-symbol union its own reverse complement
    head = (0, 1, 2, 3, 1, 1)
    word = head[:2] + rc(head) + (0, 0, 0, 0)
    union = word[0:8]
    if rc(word[0:6]) == word[2:8]:
        assert rc(union) == union


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
        assert tuple(unrank_weight_at_most(rank, 16, 3)) == word


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
    floor_member, ceiling_member = (almost_balanced_member(16, heavy, 1) for heavy in (False, True))
    assert floor_member.target_len == ceiling_member.target_len == 14
    # too-light word violates the floor member and packs to rank 0
    assert not floor_member.satisfies(bytes((0,) * 16))
    assert tuple(floor_member.shrink(bytes((0,) * 16))) == (0,) * 14
    # too-heavy word violates the ceiling member
    assert not ceiling_member.satisfies(bytes((1,) * 16))
    assert ceiling_member.satisfies(bytes((0,) * 16))
    assert tuple(ceiling_member.unshrink(ceiling_member.shrink(bytes((1,) * 16)))) == (1,) * 16


def test_almost_balanced_members_match_exact_square_test():
    # too light: w < n/2 - sqrt(n), i.e. n - 2w > 0 and (n - 2w)^2 > 4n;
    # too heavy: the same for the complement
    for n in range(5, 301):
        floor_member, ceiling_member = (almost_balanced_member(n, heavy, 1) for heavy in (False, True))
        for w in range(n + 1):
            word = bytes((1,) * w + (0,) * (n - w))
            light, heavy = n - 2 * w, 2 * w - n
            assert floor_member.satisfies(word) == (light <= 0 or light * light <= 4 * n)
            assert ceiling_member.satisfies(word) == (heavy <= 0 or heavy * heavy <= 4 * n)


def test_almost_balanced_refuses_ranks_wider_than_its_field():
    # 1 + 16 + 120 + 560 light words of n = 16 need more than the 9 bits that slack 6 leaves
    with pytest.raises(ParameterViolation, match=r"^697 words of weight <= 3 exceed 2\*\*9 = 512$"):
        almost_balanced_member(16, False, 6)


def test_almost_balanced_rejects_tiny_n():
    with pytest.raises(ParameterViolation, match="needs n > 4, got 4"):
        build_codec(parse_spec("ab:n=4"))
    build_codec(parse_spec("ab:n=5"))  # smallest admissible


def test_almost_balanced_encode_lands_in_window():
    codec = build_codec(parse_spec("ab:n=16"))
    word, _ = encode(codec, (0,) * 15)
    assert weight_in(word, 4, 12)
    assert decode(codec, word) == (0,) * 15


@settings(max_examples=60)
@given(st.lists(st.integers(0, 1), min_size=15, max_size=15))
def test_almost_balanced_roundtrip_random(payload):
    codec = build_codec(parse_spec("ab:n=16"))
    word, _ = encode(codec, tuple(payload))
    assert weight_in(word, 4, 12)
    assert decode(codec, word) == tuple(payload)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=31, max_size=31))
def test_repeat_free_roundtrip_random_n32(payload):
    codec = build_codec(parse_spec("rf:n=32,l=11"))
    word, _ = encode(codec, tuple(payload))
    assert repeat_free_ok(word, 11)
    assert decode(codec, word) == tuple(payload)
