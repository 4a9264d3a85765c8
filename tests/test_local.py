"""Window coders, the forbidden-window shrink, and the palindrome-free codec."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from parcodec import (
    NotACodeword,
    ParameterViolation,
    build_codec,
    decode,
    encode,
    first_forbidden_window,
    forbidden_window_shrink,
    listed_window_coder,
    min_period_coder,
    min_weight_coder,
    minimal_period,
    no_palindrome_coder,
    parse_spec,
    weight_window_coder,
)

from oracles import (
    all_binary_words,
    has_period,
    is_palindrome,
    kmp_minimal_period,
    no_palindrome_of_length_at_least,
)


def bits(text):
    return tuple(int(c) for c in text)


# --- minimum-weight coder ----------------------------------------------------

def test_min_weight_pack_single_one():
    coder = min_weight_coder(16, 9, 2)
    assert tuple(coder.pack(bytes(bits("000010000")))) == bits("0100")


def test_min_weight_pack_dummy_for_all_zero():
    coder = min_weight_coder(16, 9, 2)
    assert tuple(coder.pack(bytes(bits("000000000")))) == bits("1001")  # dummy position 9


def test_min_weight_unpack():
    coder = min_weight_coder(16, 9, 2)
    assert tuple(coder.unpack(bytes(bits("0100")))) == bits("000010000")
    assert tuple(coder.unpack(bytes(bits("1001")))) == bits("000000000")


def test_min_weight_unpack_rejects_position_past_dummy():
    coder = min_weight_coder(16, 9, 2)
    with pytest.raises(NotACodeword):
        coder.unpack(bytes(bits("1010")))  # 10 > dummy 9


def test_min_weight_accepts_exact_bound():
    # ceil_log(16) + 1*ceil_log(10) + 1 = 4 + 4 + 1 = 9
    coder = min_weight_coder(16, 9, 2)
    assert coder.packed_len == 4


def test_min_weight_rejects_one_below_bound():
    with pytest.raises(ParameterViolation):
        min_weight_coder(16, 8, 2)


def test_min_weight_pack_roundtrip_exhaustive():
    coder = min_weight_coder(16, 9, 2)
    members = 0
    images = set()
    for window in all_binary_words(9):
        if not coder.is_forbidden(bytes(window)):
            continue
        members += 1
        packed = coder.pack(bytes(window))
        assert len(packed) == coder.packed_len
        assert tuple(coder.unpack(packed)) == window
        images.add(packed)
    assert members == 1 + 9  # weight 0 plus weight 1
    assert len(images) == members


# --- weight-window coder -----------------------------------------------------

def test_weight_window_count():
    # C(12,0)+C(12,1)+C(12,11)+C(12,12) = 26 forbidden windows
    coder = weight_window_coder(16, 12, 2, 10)
    forbidden = [w for w in all_binary_words(12) if coder.is_forbidden(bytes(w))]
    assert len(forbidden) == 26


def test_weight_window_rank_order_starts_at_zero():
    coder = weight_window_coder(16, 12, 2, 10)
    assert tuple(coder.pack(bytes((0,) * 12))) == (0,) * 7  # lowest weight, lexicographically first


def test_weight_window_rank_matches_sorted_enumeration():
    # [0, 9] forbids only heavy windows and [3, 12] only light ones, so one of
    # the two weight runs the coder ranks over is empty
    for wmin, wmax in ((2, 10), (0, 9), (3, 12)):
        coder = weight_window_coder(16, 12, wmin, wmax)
        forbidden = sorted(
            (w for w in all_binary_words(12) if coder.is_forbidden(bytes(w))),
            key=lambda w: (sum(w), w),
        )
        for rank, window in enumerate(forbidden):
            packed = tuple(coder.pack(bytes(window)))
            assert int("".join(map(str, packed)), 2) == rank
            assert tuple(coder.unpack(bytes(packed))) == window


def test_weight_window_rejects_overfull_set():
    # [1, 1] over ell=8 forbids all but C(8,1)=8 windows: 248 > 2**3
    with pytest.raises(ParameterViolation) as exc:
        weight_window_coder(16, 8, 1, 1)
    assert "248" in str(exc.value)


def test_weight_window_unpack_rejects_rank_past_end():
    coder = weight_window_coder(16, 12, 2, 10)
    with pytest.raises(NotACodeword):
        coder.unpack(bytes(bits("0011010")))  # rank 26 == |W|


# --- minimal period ----------------------------------------------------------

def test_minimal_period_examples():
    assert minimal_period(bits("0101010")) == 2
    assert minimal_period(bits("0010010")) == 3
    assert minimal_period(bits("01")) == 2  # no proper period: reported as length


def test_minimal_period_matches_failure_function_oracle():
    for ell in range(1, 13):
        for word in all_binary_words(ell):
            want = kmp_minimal_period(word)
            assert minimal_period(word) == want, word
            # and the result really is a period per the direct definition
            if want < ell:
                assert has_period(word, want)
            assert not any(has_period(word, p) for p in range(1, want))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
def test_minimal_period_oracle_quaternary(symbols):
    word = tuple(symbols)
    assert minimal_period(word) == kmp_minimal_period(word)


def test_min_period_pack():
    coder = min_period_coder(16, 8, 3)
    assert tuple(coder.pack(bytes(bits("01010101")))) == bits("011")
    assert tuple(coder.pack(bytes(bits("00000000")))) == bits("010")


def test_min_period_unpack_extends_seed():
    coder = min_period_coder(16, 8, 3)
    assert tuple(coder.unpack(bytes(bits("011")))) == bits("01010101")
    assert tuple(coder.unpack(bytes(bits("010")))) == bits("00000000")


def test_min_period_unpack_rejects_missing_marker():
    coder = min_period_coder(16, 8, 3)
    with pytest.raises(NotACodeword):
        coder.unpack(bytes(bits("000")))
    with pytest.raises(NotACodeword):
        coder.unpack(bytes(bits("100")))  # marker in first slot leaves no seed


def test_min_period_bounds():
    assert min_period_coder(16, 8, 3).packed_len == 3  # ell = 4 + 3 + 1 exactly
    with pytest.raises(ParameterViolation):
        min_period_coder(16, 7, 3)


def test_min_period_pack_roundtrip_exhaustive():
    coder = min_period_coder(16, 8, 3)
    forbidden = [w for w in all_binary_words(8) if coder.is_forbidden(bytes(w))]
    # minimal period 1 or 2: 0^8, 1^8, (01)^4, (10)^4
    assert len(forbidden) == 4
    for window in forbidden:
        assert tuple(coder.unpack(coder.pack(bytes(window)))) == window


@pytest.mark.parametrize("q, max_len", [(2, 10), (4, 6)])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_min_period_pack_exhaustive(q, max_len, p):
    # n = 1 gives a zero-width index field, so every ell from p + 1 up builds
    for ell in range(p + 1, max_len + 1):
        coder = min_period_coder(1, ell, p, q=q)
        for window in product(range(q), repeat=ell):
            period = kmp_minimal_period(window)
            assert coder.is_forbidden(bytes(window)) == (period < p)
            if period >= p:
                continue
            packed = coder.pack(bytes(window))
            assert len(packed) == p
            assert tuple(coder.unpack(packed)) == window
            assert len(packed.rstrip(b"\x00")) - 1 == period  # the seed, then the 1 marker


def test_min_period_forbidden_matches_definition():
    coder = min_period_coder(16, 8, 3)
    for window in all_binary_words(8):
        direct = any(has_period(window, p) for p in (1, 2))
        assert coder.is_forbidden(bytes(window)) == direct


# --- no-palindrome coder -----------------------------------------------------

def test_no_palindrome_detects_and_packs():
    coder = no_palindrome_coder(16, 10)
    window = bits("0110110110")
    assert window == tuple(reversed(window))
    assert coder.is_forbidden(bytes(window))
    assert tuple(coder.pack(bytes(window))) == bits("01101")


def test_no_palindrome_unpack_mirrors():
    coder = no_palindrome_coder(16, 10)
    assert tuple(coder.unpack(bytes(bits("01101")))) == bits("0110110110")


def test_no_palindrome_dna_reverse_complement():
    coder = no_palindrome_coder(4, 4, comp=(3, 2, 1, 0), q=4)
    assert coder.is_forbidden(bytes((0, 1, 2, 3)))  # ACGT
    assert not coder.is_forbidden(bytes((0, 1, 2, 2)))


def test_no_palindrome_bounds():
    assert no_palindrome_coder(16, 10).packed_len == 5  # floor(10/2) = 5 = ceil_log(16)+1
    with pytest.raises(ParameterViolation):
        no_palindrome_coder(16, 9)


def test_no_palindrome_odd_length_fixed_point_free_is_empty():
    coder = no_palindrome_coder(8, 9, comp=(3, 2, 1, 0), q=4)
    assert not any(
        coder.is_forbidden(bytes(w)) for w in product(range(4), repeat=9)
        if w[:4] == (0, 0, 0, 0)  # spot slice; middle symbol can never match
    )
    # the degenerate coder is still usable: no window is ever forbidden
    assert not coder.is_forbidden(bytes((0,) * 9))


def test_no_palindrome_pack_roundtrip_exhaustive():
    coder = no_palindrome_coder(16, 10)
    count = 0
    for window in all_binary_words(10):
        if coder.is_forbidden(bytes(window)):
            count += 1
            assert tuple(coder.unpack(coder.pack(bytes(window)))) == window
    assert count == 2 ** 5  # palindromes are free in their first half


def test_no_palindrome_rejects_non_involution():
    with pytest.raises(ParameterViolation):
        no_palindrome_coder(16, 10, comp=(1, 2, 3, 0), q=4)


def test_min_weight_p1_forbids_only_zero_window():
    # p=1 degenerates to run-length limiting: the all-zero window is the
    # single forbidden window and packs into zero symbols
    coder = min_weight_coder(12, 5, 1)
    assert coder.packed_len == 0
    assert tuple(coder.pack(bytes((0,) * 5))) == ()
    assert tuple(coder.unpack(bytes(()))) == (0,) * 5
    from parcodec import build_one_symbol, exhaustive_roundtrip

    codec = build_one_symbol(forbidden_window_shrink(coder, 12))
    report = exhaustive_roundtrip(codec)
    assert report.ok
    for word, _ in [encode(codec, (0,) * 11)]:
        assert all(sum(word[i : i + 5]) >= 1 for i in range(8))


# --- explicit window lists ---------------------------------------------------

def test_listed_windows_two_element():
    coder = listed_window_coder([(0, 0, 0), (1, 1, 1)], n=2, ell=3)
    assert tuple(coder.pack(bytes((0, 0, 0)))) == (0,)
    assert tuple(coder.pack(bytes((1, 1, 1)))) == (1,)
    assert tuple(coder.unpack(bytes((1,)))) == (1, 1, 1)
    assert coder.is_forbidden(bytes((0, 0, 0)))
    assert not coder.is_forbidden(bytes((0, 1, 0)))


def test_listed_windows_over_capacity():
    with pytest.raises(ParameterViolation):
        listed_window_coder([(0, 0, 0), (1, 1, 1), (0, 1, 0)], n=2, ell=3)


def test_listed_windows_derives_width_from_n():
    coder = listed_window_coder([(0,) * 9], n=16, ell=9)
    assert coder.packed_len == 4  # ell - ceil_log(n) - 1


# --- first forbidden window and the shrink -----------------------------------

def test_first_forbidden_window_none_when_clean():
    coder = min_weight_coder(16, 9, 2)
    assert first_forbidden_window(bytes((1,) * 16), coder) is None
    # 1^9 0^7: every window still holds two ones
    assert first_forbidden_window(bytes(bits("1111111110000000")), coder) is None


def test_first_forbidden_window_leftmost():
    coder = min_weight_coder(16, 9, 2)
    assert first_forbidden_window(bytes((0,) * 16), coder) == 0
    assert first_forbidden_window(bytes(bits("1100000000000000")), coder) == 1


def test_shrink_layout_for_all_zero_word():
    shrink = forbidden_window_shrink(min_weight_coder(16, 9, 2), 16)
    # suffix 0^7, index 0 in 4 bits, dummy-packed window in 4 bits
    assert tuple(shrink.shrink(bytes((0,) * 16))) == bits("000000000001001")


def test_shrink_pads_when_packed_field_is_short():
    # no-palindrome at ell=12, slack 0: content is 16-12+4+6 = 14, padded to 15
    shrink = forbidden_window_shrink(no_palindrome_coder(16, 12), 16)
    image = shrink.shrink(bytes((0,) * 16))
    assert len(image) == 15
    assert tuple(shrink.unshrink(image)) == (0,) * 16


def test_unshrink_rejects_nonzero_padding():
    shrink = forbidden_window_shrink(no_palindrome_coder(16, 12), 16)
    image = shrink.shrink(bytes((0,) * 16))
    with pytest.raises(NotACodeword):
        shrink.unshrink(image[:-1] + bytes((1,)))


def test_unshrink_rejects_out_of_range_index():
    shrink = forbidden_window_shrink(min_weight_coder(16, 9, 2), 16)
    image = shrink.shrink(bytes((0,) * 16))
    # overwrite the index field (positions 7..10) with 15 > n - ell = 7
    bad = image[:7] + bytes((1, 1, 1, 1)) + image[11:]
    with pytest.raises(NotACodeword):
        shrink.unshrink(bad)


def test_shrink_rejects_window_longer_than_word():
    with pytest.raises(ParameterViolation):
        forbidden_window_shrink(min_weight_coder(8, 9, 2), 8)


# --- palindrome-free codec (intersection of two window lengths) --------------

def test_palindrome_free_parameters():
    codec = build_codec(parse_spec("mpl:n=16"))
    assert (codec.n, codec.k, codec.q) == (16, 15, 2)


def test_palindrome_free_outputs_have_no_long_palindrome():
    codec = build_codec(parse_spec("mpl:n=16"))
    for payload in [(0,) * 15, (1,) * 15, bits("010101010101010"), bits("001100110011001")]:
        word, _ = encode(codec, payload)
        assert no_palindrome_of_length_at_least(word, 12)
        assert decode(codec, word) == payload


def test_long_palindromes_contain_short_ones():
    # stripping both ends of a palindrome leaves a palindrome two shorter
    for word in all_binary_words(14):
        if is_palindrome(word):
            assert is_palindrome(word[1:-1])
