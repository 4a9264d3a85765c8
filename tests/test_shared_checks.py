"""Rules several constructions share, each checked in one place.

Every decoded tail field goes through ``core.decode_field``, every symbol
table and complement through ``words.check_symbol_map``/``check_complement``,
and the window-fits-word rule through ``core.cut_window_shrink``.  The field
tests start from a real shrink image, set one field to its limit (rejected,
with the field named) and to its limit - 1 (decoded), so an off-by-one in a
limit fails here.
"""

import pytest

from parcodec import (
    NotACodeword,
    ParameterViolation,
    almost_balanced_shrink_pair,
    build_intersection,
    build_secondary_structure,
    count_weight_at_most,
    encode_index,
    forbidden_window_shrink,
    listed_window_coder,
    min_balanced_weight,
    min_weight_coder,
    no_palindrome_coder,
    repeat_free_shrink,
    reverse_complement_shrink,
    weight_window_coder,
)

N = 16
ZERO = (0,) * N


def _mw(ell, slack=0):
    return forbidden_window_shrink(min_weight_coder(N, ell, 2, slack=slack), N, slack=slack)


_LISTED = listed_window_coder([(0,) * 9, (1,) * 9, (0, 1) * 4 + (0,)], N, 9)
# window 0..4 followed by its reverse complement: the pair (0, 5)
_RC_WORD = (0,) * 5 + (3,) * 5 + (0,) * 6
_LIGHT, _HEAVY = almost_balanced_shrink_pair(N)
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
    image = shrink.shrink(word)
    for edit in edits:
        image = _set_field(image, *edit, q)
    start, width = field
    assert limit < q ** width  # the field can hold the limit, so the check is reachable
    with pytest.raises(NotACodeword, match=rf"^{what} {limit} out of range \(limit {limit}\)$"):
        shrink.unshrink(_set_field(image, start, width, limit, q))
    assert len(shrink.unshrink(_set_field(image, start, width, limit - 1, q))) == N


@pytest.mark.parametrize(
    "build",
    [
        lambda: reverse_complement_shrink(N, 9, comp=(7, 2, 1, 0)),
        lambda: build_secondary_structure(N, comp=(7, 2, 1, 0)),
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
    "build",
    [
        lambda: forbidden_window_shrink(min_weight_coder(N, 20, 2), N),
        lambda: repeat_free_shrink(N, 20),
    ],
    ids=["window", "pair"],
)
def test_window_longer_than_the_word_is_a_parameter_violation(build):
    with pytest.raises(ParameterViolation, match=r"^window length 20 exceeds word length 16$"):
        build()
