"""Rules several constructions share, each checked in one place.

Every decoded tail field goes through ``core.decode_field``, every symbol
table and complement through ``words.check_symbol_map``/``check_complement``,
the window-fits-word rule through ``core.window_fits`` and the room a cut
window leaves for its tail through ``core.window_room``.  The field tests
start from a real shrink image, set one field to its limit (rejected, with
the field named) and to its limit - 1 (decoded), so an off-by-one in a limit
fails here; the room tests do the same with the window length, and check
that a refusal names the smallest longer window that builds.
"""

import numpy as np
import pytest

from parcodec import (
    DNA_COMPLEMENT,
    NotACodeword,
    ParameterViolation,
    WindowCoder,
    build_intersection,
    build_codec,
    count_weight_at_most,
    decode,
    encode_index,
    forbidden_window_shrink,
    listed_window_coder,
    min_balanced_weight,
    min_period_coder,
    min_weight_coder,
    no_palindrome_coder,
    parse_spec,
    repeat_free_shrink,
    reverse_complement_shrink,
    weight_window_coder,
)
from parcodec.global_codes import almost_balanced_member, secondary_structure_member

N = 16
ZERO = (0,) * N


def _mw(ell, slack=0):
    return forbidden_window_shrink(min_weight_coder(N, ell, 2, slack=slack), N, slack=slack)


_LISTED = listed_window_coder([(0,) * 9, (1,) * 9, (0, 1) * 4 + (0,)], N, 9)
# window 0..4 followed by its reverse complement: the pair (0, 5)
_RC_WORD = (0,) * 5 + (3,) * 5 + (0,) * 6
_LIGHT, _HEAVY = (almost_balanced_member(N, heavy, 1) for heavy in (False, True))
_LIGHT_COUNT = count_weight_at_most(N, min_balanced_weight(N) - 1)

# (id, shrink, violating word, edits made first, (start, width) of the field,
# limit, field name); an edit is (start, width, value).  Images of a cut-window
# shrink are rest (n - ell symbols), then the tail fields, then zero padding.
FIELD_CASES = [
    ("member-tag", build_intersection([_mw(11, slack=2)] * 3), ZERO, [], (13, 2), 3, "member tag"),
    ("mw-window-index", _mw(9), ZERO, [], (7, 4), N - 9 + 1, "window index"),
    ("mw-one-position", _mw(9), ZERO, [], (11, 4), 9 + 1, "one-position"),
    (
        "lab-rank",
        forbidden_window_shrink(weight_window_coder(N, 10, 1, 9), N),
        ZERO, [], (10, 5), 2, "window rank",
    ),
    ("listed-rank", forbidden_window_shrink(_LISTED, N), ZERO, [], (11, 4), 3, "window rank"),
    ("rf-pair-j", repeat_free_shrink(N, 9), ZERO, [], (11, 4), N - 9 + 1, "pair index j"),
    # the zero word's first repeat is (0, 1), so i must stay below 1 - 1 + 1
    ("rf-pair-i", repeat_free_shrink(N, 9), ZERO, [], (7, 4), 1, "pair index i"),
    ("rss-pair-j", reverse_complement_shrink(N, 5), _RC_WORD, [], (13, 2), N - 5 + 1, "pair index j"),
    # with j = 11 and min_gap = ell = 5, i must stay below 11 - 5 + 1
    ("rss-pair-i", reverse_complement_shrink(N, 5), _RC_WORD, [(13, 2, 11)], (11, 2), 7, "pair index i"),
    ("ab-light-rank", _LIGHT, ZERO, [], (0, 14), _LIGHT_COUNT, "light rank"),
    ("ab-heavy-rank", _HEAVY, (1,) * N, [], (0, 14), _LIGHT_COUNT, "light rank"),
]


def _set_field(word, start, width, value, q):
    return word[:start] + encode_index(value, width, q) + word[start + width :]


@pytest.mark.parametrize(
    "shrink, word, edits, field, limit, what",
    [case[1:] for case in FIELD_CASES],
    ids=[case[0] for case in FIELD_CASES],
)
def test_decoded_field_rejected_at_its_limit_only(shrink, word, edits, field, limit, what):
    q = shrink.q
    image = shrink.shrink(bytes(word))
    for edit in edits:
        image = _set_field(image, *edit, q)
    start, width = field
    assert limit < q ** width  # the field can hold the limit, so the check is reachable
    with pytest.raises(NotACodeword, match=rf"^{what} {limit} out of range \(limit {limit}\)$"):
        shrink.unshrink(_set_field(image, start, width, limit, q))
    assert len(shrink.unshrink(_set_field(image, start, width, limit - 1, q))) == N


# a j below min_gap leaves i no value, so the refusal names j's own range [min_gap, n - ell]; in
# ss:n=8 and rss:n=8,l=5 that range is empty (the pair member is), and rf's all-zero j is 0
LOW_PAIR_J = [
    ("ss:n=8", 4, r"\[6, 2\], which is empty: no pair fits"),
    ("rss:n=8,l=5", 4, r"\[5, 3\], which is empty: no pair fits"),
    ("rf:n=8,l=7", 2, r"\[1, 1\]"),
]


@pytest.mark.parametrize("text, q, valid", LOW_PAIR_J, ids=[case[0] for case in LOW_PAIR_J])
def test_pair_index_j_below_min_gap_names_its_range(text, q, valid):
    with pytest.raises(NotACodeword, match=rf"^pair index j 0 out of range {valid}$") as refusal:
        decode(build_codec(parse_spec(text), q), (0,) * 8)
    assert refusal.value.reason == "field-out-of-range"


@pytest.mark.parametrize(
    "build",
    [
        lambda: reverse_complement_shrink(N, 9, comp=(7, 2, 1, 0)),
        lambda: secondary_structure_member(N, False, 1, comp=(7, 2, 1, 0)),
        lambda: no_palindrome_coder(N, 10, comp=(5, 0)),
        lambda: no_palindrome_coder(N, 10, comp=(1.0, 0)),
        lambda: repeat_free_shrink(N, 9, symbol_map=(1, 2)),
    ],
    ids=["rss", "ss", "enp", "enp-float", "srf"],
)
def test_symbol_map_entry_outside_alphabet_is_a_parameter_violation(build):
    with pytest.raises(ParameterViolation, match=r" is not a map on \[0, \d\)$"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: no_palindrome_coder(N, 10, comp=(1, 1)),
        lambda: reverse_complement_shrink(N, 9, comp=(1, 2, 3, 0)),
    ],
    ids=["enp", "rss"],
)
def test_complement_that_is_not_self_inverse_is_a_parameter_violation(build):
    with pytest.raises(ParameterViolation, match=r" is not self-inverse$"):
        build()


@pytest.mark.parametrize(
    "build, ell, n",
    [
        (lambda: forbidden_window_shrink(min_weight_coder(N, 20, 2), N), 20, N),
        (lambda: repeat_free_shrink(N, 20), 20, N),
        # refused before any window is keyed, so at once however long the window
        (lambda: repeat_free_shrink(20, 10**6), 10**6, 20),
        (lambda: reverse_complement_shrink(20, 10**6), 10**6, 20),
        (lambda: repeat_free_shrink(4, 10**6, symbol_map=(1, 0)), 10**6, 4),
    ],
    ids=["window", "pair", "rf-huge", "rss-huge", "srf-flat-huge"],
)
def test_window_longer_than_the_word_is_a_parameter_violation(build, ell, n):
    with pytest.raises(ParameterViolation, match=rf"^window length {ell} exceeds word length {n}$"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: reverse_complement_shrink(N, 9, comp=(0,)),
        lambda: secondary_structure_member(N, False, 1, comp=(0,)),
        lambda: min_period_coder(N, 8, 3, q=1),
        lambda: listed_window_coder([(0,) * 9], N, 9, q=1),
    ],
    ids=["rss", "ss", "mp", "listed"],
)
def test_alphabet_of_one_symbol_is_a_parameter_violation(build):
    with pytest.raises(ParameterViolation, match=r"^ceil_log needs value >= 1 and base >= 2, got 16, 1$"):
        build()


def test_flat_numpy_symbol_map_is_one_table_for_every_position():
    # window 0..8 copied, bits flipped, at 7..15: an overlapping copy, regrown on unshrink
    word = (1, 1, 0, 1, 0, 0, 0) + (0, 0, 1, 0, 1, 1, 1, 1, 1)
    plain = repeat_free_shrink(N, 9, symbol_map=(1, 0))
    # a 2-D array is a per-position map: its rows define __index__ but refuse it
    for symbol_map in (np.array([1, 0]), (np.int64(1), np.int64(0)), np.array([[1, 0]] * 9)):
        shrink = repeat_free_shrink(N, 9, symbol_map=symbol_map)
        assert shrink.first_violation(bytes(word)) == plain.first_violation(bytes(word)) == (0, 7)
        image = shrink.shrink(bytes(word))
        assert image == plain.shrink(bytes(word))
        restored = tuple(shrink.unshrink(image))
        assert restored == word and all(type(s) is int for s in restored)


def _hand_built(ell, slack, n=N):
    # a coder of the bare WindowCoder interface whose packed window is 3 symbols
    coder = WindowCoder(2, ell, 3, lambda word: None, lambda window: window[:3], lambda packed: packed)
    return forbidden_window_shrink(coder, n, slack=slack)


# (id, build(ell), smallest admissible ell).  With N = 16 the window index
# takes 4 binary or 2 quaternary symbols, and ell - 1 - slack must hold the
# tail; slack 1 makes a room rule that forgets the slack fail here.
ROOM_CASES = [
    # 4 + ceil_log(ell + 1) one-position bits: 10 - 2 = 4 + 4, while 9 - 2 < 4 + 4
    ("mw", lambda ell: min_weight_coder(N, ell, 2, slack=1), 10),
    # the rank of the one forbidden window (weight 0) takes 0 bits: 4 + 0 + 1 + 1
    ("lab", lambda ell: weight_window_coder(N, ell, 1, ell, slack=1), 6),
    ("mp", lambda ell: min_period_coder(N, ell, 3, slack=1), 4 + 3 + 1 + 1),
    # floor(ell / 2) >= 4 + 1 + 1
    ("enp", lambda ell: no_palindrome_coder(N, ell, slack=1), 12),
    # floor(ell / 2) >= 2 + 1 + 1
    ("enp-rc", lambda ell: no_palindrome_coder(N, ell, DNA_COMPLEMENT, q=4, slack=1), 8),
    ("listed", lambda ell: listed_window_coder([(0,) * ell], N, ell, slack=1), 4 + 0 + 1 + 1),
    ("rf", lambda ell: repeat_free_shrink(N, ell, slack=1), 2 * 4 + 1 + 1),
    ("rss", lambda ell: reverse_complement_shrink(N, ell, slack=1), 2 * 2 + 1 + 1),
    ("forbidden-window", lambda ell: _hand_built(ell, 1), 4 + 3 + 1 + 1),
    # 6 + 2 * ceil_log(ell + 1) at slack 0: 17 - 1 = 6 + 2 * 5, while 16 - 1 < 6 + 2 * 5
    ("mw-n64-p3", lambda ell: min_weight_coder(64, ell, 3), 17),
    # 10 + 15 * ceil_log(ell + 1): 131 - 1 = 10 + 15 * 8, while 130 - 1 < 10 + 15 * 8
    ("mw-n1024-p16", lambda ell: min_weight_coder(1024, ell, 16), 131),
]


@pytest.mark.parametrize(
    "build, smallest", [case[1:] for case in ROOM_CASES], ids=[case[0] for case in ROOM_CASES]
)
def test_smallest_admissible_window_builds_and_the_next_shorter_is_refused(build, smallest):
    build(smallest)
    with pytest.raises(
        ParameterViolation, match=rf"^window length {smallest - 1} .*smallest admissible window length is {smallest}$"
    ):
        build(smallest - 1)


@pytest.mark.parametrize(
    "build, ell, tail, n",
    [
        # 6 index bits and 999,999 one-position bits at ell = 1, more with every doubling
        (lambda: min_weight_coder(64, 1, 10**6), 1, 6 + 999_999, 64),
        # 3 + ceil(ell / 2) and the marker need ell >= 8 > 7
        (lambda: no_palindrome_coder(7, 5), 5, 3 + 3, 7),
        # two 3-bit indices and the marker need ell >= 7 > 6
        (lambda: repeat_free_shrink(6, 5), 5, 2 * 3, 6),
    ],
    ids=["mw-n64-p1e6", "enp-n7", "rf-n6"],
)
def test_no_window_length_up_to_the_word_length_fits(build, ell, tail, n):
    refusal = rf"^window length {ell} is too short for its tail \({tail} symbols\), "
    with pytest.raises(ParameterViolation, match=rf"{refusal}.*; no window length up to n = {n} fits$"):
        build()


# (id, build(n, ell, slack)) for every built-in tail: a window, its index and
# the packed window (mw, lab, mp, enp, listed, a hand-built coder), or a pair
# of indices (rf, rss)
TAILS = [
    ("mw-p2", lambda n, ell, slack: min_weight_coder(n, ell, 2, slack)),
    ("mw-p16", lambda n, ell, slack: min_weight_coder(n, ell, 16, slack)),
    ("lab", lambda n, ell, slack: weight_window_coder(n, ell, 1, ell, slack)),
    ("mp", lambda n, ell, slack: min_period_coder(n, ell, 3, slack)),
    ("enp", lambda n, ell, slack: no_palindrome_coder(n, ell, slack=slack)),
    ("enp-rc", lambda n, ell, slack: no_palindrome_coder(n, ell, DNA_COMPLEMENT, q=4, slack=slack)),
    ("listed", lambda n, ell, slack: listed_window_coder([(0,) * ell], n, ell, slack=slack)),
    ("forbidden-window", lambda n, ell, slack: _hand_built(ell, slack, n)),
    ("rf", lambda n, ell, slack: repeat_free_shrink(n, ell, slack=slack)),
    ("rss", lambda n, ell, slack: reverse_complement_shrink(n, ell, slack=slack)),
]


@pytest.mark.parametrize("build", [case[1] for case in TAILS], ids=[case[0] for case in TAILS])
def test_room_refusal_names_the_smallest_longer_window_that_builds(build):
    # window_room jumps to the next length that can fit; trying every length
    # in turn must find the same one, or none up to n
    for n in (*range(2, 34), 63, 64, 65, 127, 128, 129):
        for slack in range(3):
            built, refused = [], {}
            for ell in range(1, n + 1):
                try:
                    build(n, ell, slack)
                    built.append(ell)
                except ParameterViolation as err:
                    refused[ell] = str(err)
            for ell, message in refused.items():
                if " is too short for its tail " not in message:
                    continue  # another bound, such as mp's p <= ell
                smallest = next((e for e in built if e > ell), None)
                found = (
                    f"smallest admissible window length is {smallest}" if smallest
                    else f"no window length up to n = {n} fits"
                )
                assert message.endswith(f"; {found}"), (n, slack, ell, message)
