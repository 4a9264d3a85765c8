"""Each constraint's leftmost-witness finder against a plain reference scan.

The references in ``oracles`` slice every window (or try every pair) and test
the constraint's definition.  A finder must return the same witness: the
leftmost forbidden window start, or the minimal pair (i, j), i first.  Equal
witnesses mean equal shrink images, which ``test_format_pin`` pins as well.
"""

import random
from collections import Counter
from itertools import product

import pytest

from parcodec import (
    DNA_COMPLEMENT,
    ParameterViolation,
    build_codec,
    ceil_log,
    decode_index,
    encode,
    first_forbidden_window,
    listed_window_coder,
    min_period_coder,
    min_weight_coder,
    no_palindrome_coder,
    parse_spec,
    repeat_free_shrink,
    reverse_complement_shrink,
    weight_window_coder,
)
from parcodec.global_codes import _pair_finder, _Source

from oracles import DNA_COMP, first_forbidden_window_ref, first_pair_ref, has_period, is_palindrome, rc, windows


def words_up_to(q, max_len):
    for length in range(max_len + 1):
        yield from product(range(q), repeat=length)


def has_period_below(p):
    return lambda w: any(has_period(w, d) for d in range(1, p))


def mapped(tables):
    return lambda w: tuple(tables[t][s] for t, s in enumerate(w))


LISTED = [(0, 1, 1, 0, 1), (1, 1, 1, 1, 1), (0, 0, 1, 0, 0)]

BINARY_WINDOW_CASES = {
    "mw-p2": (lambda: min_weight_coder(16, 9, 2), lambda w: sum(w) < 2),
    "mw-p3": (lambda: min_weight_coder(8, 12, 3), lambda w: sum(w) < 3),
    "lab": (lambda: weight_window_coder(16, 12, 2, 10), lambda w: not 2 <= sum(w) <= 10),
    "lab-heavy-only": (lambda: weight_window_coder(4, 6, 0, 4), lambda w: sum(w) > 4),
    "lab-narrow": (lambda: weight_window_coder(2, 6, 2, 4), lambda w: not 2 <= sum(w) <= 4),
    "mp-p1": (lambda: min_period_coder(16, 8, 1), has_period_below(1)),  # forbids no window
    "mp-p3": (lambda: min_period_coder(16, 8, 3), has_period_below(3)),
    "mp-p4": (lambda: min_period_coder(4, 7, 4), has_period_below(4)),
    "mp-p6": (lambda: min_period_coder(2, 8, 6), has_period_below(6)),
    "enp-even": (lambda: no_palindrome_coder(16, 10), is_palindrome),
    "enp-odd": (lambda: no_palindrome_coder(16, 11), is_palindrome),
    "mpl-even": (lambda: no_palindrome_coder(16, 12, slack=1), is_palindrome),
    "mpl-odd": (lambda: no_palindrome_coder(16, 13, slack=1), is_palindrome),
    "listed": (lambda: listed_window_coder(LISTED, 4, 5), lambda w: w in LISTED),
}


@pytest.mark.parametrize("name", sorted(BINARY_WINDOW_CASES))
def test_window_finder_exhaustive_binary(name):
    make, forbidden = BINARY_WINDOW_CASES[name]
    coder = make()
    for word in words_up_to(2, 14):
        want = first_forbidden_window_ref(word, coder.window_len, forbidden)
        assert first_forbidden_window(bytes(word), coder) == want, word


QUATERNARY_WINDOW_CASES = {
    "mp-p2": (lambda: min_period_coder(4, 4, 2, q=4), has_period_below(2)),
    "mp-p3": (lambda: min_period_coder(4, 5, 3, q=4), has_period_below(3)),
    "enp-rc-even": (
        lambda: no_palindrome_coder(4, 4, comp=DNA_COMPLEMENT, q=4),
        lambda w: is_palindrome(w, DNA_COMP),
    ),
    "enp-rc-odd": (
        lambda: no_palindrome_coder(4, 5, comp=DNA_COMPLEMENT, q=4),
        lambda w: is_palindrome(w, DNA_COMP),
    ),
}


@pytest.mark.parametrize("name", sorted(QUATERNARY_WINDOW_CASES))
def test_window_finder_exhaustive_quaternary(name):
    make, forbidden = QUATERNARY_WINDOW_CASES[name]
    coder = make()
    for word in words_up_to(4, 7):
        want = first_forbidden_window_ref(word, coder.window_len, forbidden)
        assert first_forbidden_window(bytes(word), coder) == want, word


FLIP = (1, 0)
PER_POSITION = tuple((0, 1) if t % 3 else (1, 0) for t in range(5))
# three distinct quaternary tables: two agree on 0 and 1, one is not a permutation
PER_POSITION_Q4 = ((1, 2, 3, 0), (1, 2, 0, 3), (3, 3, 0, 1))

# (q, max_len, ell, min_gap, source transform, reference transform); the exhaustive
# pair scans use windows far below the builders' length bounds, so that
# pairs are plentiful, and call the finder directly
PAIR_CASES = {
    "rf-l3": (2, 14, 3, 1, None, lambda w: w),
    "rf-l5": (2, 14, 5, 1, None, lambda w: w),
    "srf-one-table": (2, 14, 5, 1, _Source(FLIP, 5, 2), mapped((FLIP,) * 5)),
    "srf-per-position": (2, 14, 5, 1, _Source(PER_POSITION, 5, 2), mapped(PER_POSITION)),
    "srf-per-position-q4": (4, 7, 3, 1, _Source(PER_POSITION_Q4, 3, 4), mapped(PER_POSITION_Q4)),
    "rss-l2": (4, 7, 2, 2, _Source(DNA_COMPLEMENT, 2, 4, reverse=True), rc),
    "rss-l3": (4, 7, 3, 3, _Source(DNA_COMPLEMENT, 3, 4, reverse=True), rc),
}


@pytest.mark.parametrize("name", sorted(PAIR_CASES))
def test_pair_finder_exhaustive(name):
    q, max_len, ell, min_gap, keys, transform = PAIR_CASES[name]
    find = _pair_finder(q, ell, min_gap, keys)
    for word in words_up_to(q, max_len):
        assert find(bytes(word)) == first_pair_ref(word, ell, transform, min_gap), word


# (q, ell, min_gap, source, reference transform), each source at its builder's gap
PAIR_BOUNDARY_CASES = {
    "rf": (2, 5, 1, None, lambda w: w),
    "srf": (2, 5, 1, _Source(FLIP, 5, 2), mapped((FLIP,) * 5)),
    "rss": (4, 3, 3, _Source(DNA_COMPLEMENT, 3, 4, reverse=True), rc),
}


@pytest.mark.parametrize("name", sorted(PAIR_BOUNDARY_CASES))
def test_pair_finder_at_the_window_count_boundary(name):
    # with count = min_gap windows no j >= i + min_gap exists; one window
    # more admits exactly the pair (0, min_gap)
    q, ell, min_gap, source, transform = PAIR_BOUNDARY_CASES[name]
    find = _pair_finder(q, ell, min_gap, source)
    for count, want in ((min_gap, {None}), (min_gap + 1, {None, (0, min_gap)})):
        found = set()
        for word in product(range(q), repeat=ell - 1 + count):
            got = find(bytes(word))
            assert got == first_pair_ref(word, ell, transform, min_gap), word
            found.add(got)
        assert found == want, count


# --- seeded words at n = 256 and n = 1024 --------------------------------------


def seeded_words(n, q, seed, per_kind):
    """Uniform, sparse, planted-periodic-run and planted-copy words; the
    planted copy cycles through plain, complemented, mirrored and reverse
    complemented (complement: s -> q - 1 - s, the DNA complement for q = 4)."""
    rng = random.Random(seed)
    for index in range(per_kind):
        yield tuple(rng.randrange(q) for _ in range(n))
        yield tuple(rng.randrange(q) if rng.randrange(8) == 0 else 0 for _ in range(n))
        word = [rng.randrange(q) for _ in range(n)]
        start, length = rng.randrange(n), rng.randrange(4, 40)
        seed_run = [rng.randrange(q) for _ in range(rng.randrange(1, 4))]
        for t in range(start, min(n, start + length)):
            word[t] = seed_run[(t - start) % len(seed_run)]
        yield tuple(word)
        word = [rng.randrange(q) for _ in range(n)]
        length = rng.randrange(16, 40)
        a, b = rng.randrange(n - length), rng.randrange(n - length)
        copy = word[a : a + length]
        if index % 4 in (1, 3):
            copy = [q - 1 - s for s in copy]
        if index % 4 >= 2:
            copy.reverse()
        word[b : b + length] = copy
        yield tuple(word)


def one_hot_windows(ell):
    """The binary ell-windows with exactly one 1."""
    return [tuple(int(t == u) for t in range(ell)) for u in range(ell)]


def weight_below_2(w):
    return sum(w) < 2


SEEDED_WINDOW_CASES = {
    "mw-n256": (2, lambda: min_weight_coder(256, 17, 2), weight_below_2),
    # mw-n256's family as a list: the all-zero window and the one-hot ones
    "listed-n256": (2, lambda: listed_window_coder([(0,) * 17] + one_hot_windows(17), 256, 17), weight_below_2),
    "lab-n256": (2, lambda: weight_window_coder(256, 16, 2, 14), lambda w: not 2 <= sum(w) <= 14),
    "mp-n256": (2, lambda: min_period_coder(256, 12, 3), has_period_below(3)),
    "mp4-n256": (4, lambda: min_period_coder(256, 8, 3, q=4), has_period_below(3)),
    "enp-n256": (2, lambda: no_palindrome_coder(256, 18), is_palindrome),
    "mpl-odd-n256": (2, lambda: no_palindrome_coder(256, 21, slack=1), is_palindrome),
    "ss-palindrome-n256": (
        4,
        lambda: no_palindrome_coder(256, 12, comp=DNA_COMPLEMENT, q=4, slack=1),
        lambda w: is_palindrome(w, DNA_COMP),
    ),
    "mp-p4-n256": (2, lambda: min_period_coder(256, 13, 4), has_period_below(4)),
    "mw-n1024": (2, lambda: min_weight_coder(1024, 21, 2), lambda w: sum(w) < 2),
    "mp-n1024": (2, lambda: min_period_coder(1024, 14, 3), has_period_below(3)),
    "enp-n1024": (2, lambda: no_palindrome_coder(1024, 22), is_palindrome),
    "ss-palindrome-n1024": (
        4,
        lambda: no_palindrome_coder(1024, 14, comp=DNA_COMPLEMENT, q=4, slack=1),
        lambda w: is_palindrome(w, DNA_COMP),
    ),
    "mp-q256-n256": (256, lambda: min_period_coder(256, 8, 3, q=256), has_period_below(3)),
}


@pytest.mark.parametrize("name", sorted(SEEDED_WINDOW_CASES))
def test_window_finder_seeded(name):
    q, make, forbidden = SEEDED_WINDOW_CASES[name]
    coder = make()
    n = int(name.rpartition("-n")[2])
    for word in seeded_words(n, q, seed=n + len(name), per_kind=12):
        want = first_forbidden_window_ref(word, coder.window_len, forbidden)
        assert first_forbidden_window(bytes(word), coder) == want, word


@pytest.mark.parametrize("name", sorted(SEEDED_WINDOW_CASES))
def test_window_finder_takes_lists_and_short_words(name):
    q, make, _ = SEEDED_WINDOW_CASES[name]
    coder = make()
    n = int(name.rpartition("-n")[2])
    for word in seeded_words(n, q, seed=n + len(name), per_kind=3):
        # a bytearray, the mutable engine word, reads like the bytes word
        assert first_forbidden_window(bytearray(word), coder) == first_forbidden_window(bytes(word), coder)
        # every prefix shorter than the window, the all-zero one included
        for length in (0, 1, coder.window_len // 2, coder.window_len - 1):
            assert first_forbidden_window(bytes(word[:length]), coder) is None
            assert first_forbidden_window(bytes((0,) * length), coder) is None


REVERSED_BYTES = tuple(range(255, -1, -1))

# mirror finders on words with a planted palindrome: (q, coder, complement)
PLANTED_PALINDROME_CASES = {
    "enp-n256": (2, lambda: no_palindrome_coder(256, 18), None),
    "mpl-odd-n1024": (2, lambda: no_palindrome_coder(1024, 25, slack=1), None),
    "ss-palindrome-n256": (4, lambda: no_palindrome_coder(256, 12, comp=DNA_COMPLEMENT, q=4, slack=1), DNA_COMP),
    "ss-palindrome-n1024": (4, lambda: no_palindrome_coder(1024, 14, comp=DNA_COMPLEMENT, q=4, slack=1), DNA_COMP),
    "enp-q256-n256": (256, lambda: no_palindrome_coder(256, 6, comp=REVERSED_BYTES, q=256), REVERSED_BYTES),
}


@pytest.mark.parametrize("name", sorted(PLANTED_PALINDROME_CASES))
def test_palindrome_finder_planted(name):
    q, make, comp = PLANTED_PALINDROME_CASES[name]
    coder = make()
    n, ell = int(name.rpartition("-n")[2]), coder.window_len
    comp = comp or tuple(range(q))
    centres = [s for s in range(q) if comp[s] == s]  # odd palindromes need one
    rng = random.Random(n + len(name))
    hits = 0
    for _ in range(24):
        word = [rng.randrange(q) for _ in range(n)]
        # a palindrome of length ell or ell + 2, so its centre is one too
        length = ell + 2 * rng.randrange(2)
        start = rng.randrange(n - length + 1)
        half = [rng.randrange(q) for _ in range(length // 2)]
        middle = [rng.choice(centres)] if length % 2 else []
        word[start : start + length] = half + middle + [comp[s] for s in reversed(half)]
        word = tuple(word)
        assert len(word) == n
        want = first_forbidden_window_ref(word, ell, lambda w: is_palindrome(w, comp))
        hits += want is not None
        assert first_forbidden_window(bytes(word), coder) == want, word
    assert hits >= 12


# (q, k): k symbols to a block, the most whose base-q key fits one byte
PALINDROME_BLOCK_CASES = [(2, 8), (3, 5), (4, 4), (16, 2), (17, 1)]


@pytest.mark.parametrize("comp_kind", ["identity", "involution"])
@pytest.mark.parametrize("q, k", PALINDROME_BLOCK_CASES)
def test_palindrome_block_layout_exhaustive(q, k, comp_kind):
    """Every window length up to 2k + 2 that the builder admits at n = 1: one
    block (wider than the window's half, too), several blocks, and a last
    block that reaches past the half.
    Checked on all words up to a small length, and on every one-symbol change
    of words with a palindrome planted at each of three offsets."""
    assert q**k <= 256 < q ** (k + 1)
    # the involution s -> q - 1 - s has no fixed point for even q and one for odd q
    comp = tuple(range(q)) if comp_kind == "identity" else tuple(range(q - 1, -1, -1))
    short = max(length for length in range(1, 12) if q**length <= 1024)
    centres = [s for s in range(q) if comp[s] == s] or [0]
    rng = random.Random(q * 10 + len(comp_kind))
    built = []
    for ell in range(1, 2 * k + 3):
        try:
            coder = no_palindrome_coder(1, ell, comp=comp, q=q)
        except ParameterViolation:
            continue
        built.append(ell)
        planted = []
        for offset in (0, 1, 2):
            half = [rng.randrange(q) for _ in range(ell // 2)]
            middle = [rng.choice(centres)] if ell % 2 else []
            word = [rng.randrange(q) for _ in range(ell + 2)]
            word[offset : offset + ell] = half + middle + [comp[s] for s in reversed(half)]
            planted.append(tuple(word))
            for t, s in enumerate(word):
                planted += [tuple(word[:t] + [v] + word[t + 1 :]) for v in range(q) if v != s]
        for word in (*words_up_to(q, min(short, ell + 2)), *planted):
            want = first_forbidden_window_ref(word, ell, lambda w: is_palindrome(w, comp))
            assert first_forbidden_window(bytes(word), coder) == want, (ell, word)
    assert built == list(range(2, 2 * k + 3))


def spliced_density_words(n, ell, seed, count):
    """Binary words spliced from runs of up to ell + 40 symbols, mostly of
    density 1/2 and otherwise of density 0, 1/32, 31/32 or 1, so that very
    light and very heavy windows occur at varied starts."""
    rng = random.Random(seed)
    for _ in range(count):
        word = []
        while len(word) < n:
            density = rng.choice((1 / 2, 1 / 2, 1 / 2, 0, 1 / 32, 31 / 32, 1))
            word += [int(rng.random() < density) for _ in range(rng.randrange(ell // 4, ell + 40))]
        yield tuple(word[:n])


# windows on both sides of 127 symbols, past which the weight digit widens beyond a byte
WIDE_WEIGHT_CASES = {
    "mw-l127": (500, lambda: min_weight_coder(500, 127, 9), lambda w: sum(w) < 9),
    "mw-l200": (500, lambda: min_weight_coder(500, 200, 3), lambda w: sum(w) < 3),
    "mw-l260": (300, lambda: min_weight_coder(300, 260, 2), lambda w: sum(w) < 2),
    "mw-l260-n800": (800, lambda: min_weight_coder(800, 260, 2), lambda w: sum(w) < 2),
    "mw-l300": (700, lambda: min_weight_coder(700, 300, 20), lambda w: sum(w) < 20),
    "lab-l128": (256, lambda: weight_window_coder(256, 128, 40, 88), lambda w: not 40 <= sum(w) <= 88),
    "lab-l255": (400, lambda: weight_window_coder(400, 255, 90, 165), lambda w: not 90 <= sum(w) <= 165),
    "lab-l260": (800, lambda: weight_window_coder(800, 260, 100, 160), lambda w: not 100 <= sum(w) <= 160),
    "lab-l300": (700, lambda: weight_window_coder(700, 300, 0, 200), lambda w: sum(w) > 200),
    # q**ell > 2**64, so the listed finder reads its keys as 9-byte strings
    "listed-l65": (
        300,
        lambda: listed_window_coder([(0,) * 65, (1,) * 65] + one_hot_windows(65), 300, 65),
        lambda w: sum(w) < 2 or sum(w) == 65,
    ),
}


@pytest.mark.parametrize("name", sorted(WIDE_WEIGHT_CASES))
def test_weight_finder_wide_windows(name):
    n, make, forbidden = WIDE_WEIGHT_CASES[name]
    coder = make()
    witnesses = set()
    for word in spliced_density_words(n, coder.window_len, seed=n + len(name), count=24):
        want = first_forbidden_window_ref(word, coder.window_len, forbidden)
        witnesses.add(want)
        assert first_forbidden_window(bytes(word), coder) == want, word
        assert first_forbidden_window(bytearray(word), coder) == want
    assert len(witnesses - {None}) >= 1 and len(witnesses) >= 2


def shrink_witness(shrink, ell, word):
    """The pair (i, j) a window-pair shrink removed, read from its image."""
    word = bytes(word)
    if shrink.satisfies(word):
        return None
    width = ceil_log(shrink.n, shrink.q)
    tail = shrink.shrink(word)[shrink.n - ell :]
    return decode_index(tail[:width], shrink.q), decode_index(tail[width : 2 * width], shrink.q)


SEEDED_PAIR_CASES = {
    "rf-n256": (2, 17, 1, lambda: repeat_free_shrink(256, 17), lambda w: w),
    "srf-n256": (2, 17, 1, lambda: repeat_free_shrink(256, 17, symbol_map=FLIP), mapped((FLIP,) * 17)),
    "srf-per-position-n256": (
        2, 17, 1,
        lambda: repeat_free_shrink(256, 17, symbol_map=[PER_POSITION[t % 5] for t in range(17)]),
        mapped([PER_POSITION[t % 5] for t in range(17)]),
    ),
    "rss-n256": (4, 9, 9, lambda: reverse_complement_shrink(256, 9), rc),
    "ss-pairs-n256": (4, 10, 10, lambda: reverse_complement_shrink(256, 10, slack=1), rc),
    "rf-n1024": (2, 21, 1, lambda: repeat_free_shrink(1024, 21), lambda w: w),
}


@pytest.mark.parametrize("name", sorted(SEEDED_PAIR_CASES))
def test_pair_finder_seeded(name):
    q, ell, min_gap, make, transform = SEEDED_PAIR_CASES[name]
    shrink = make()
    per_kind = 4 if shrink.n > 256 else 8
    for word in seeded_words(shrink.n, q, seed=shrink.n + len(name), per_kind=per_kind):
        assert shrink_witness(shrink, ell, word) == first_pair_ref(word, ell, transform, min_gap), word


def closure(fn):
    """The variables a nested function reads from its enclosing scopes, by name."""
    return {name: cell.cell_contents for name, cell in zip(fn.__code__.co_freevars, fn.__closure__)}


@pytest.mark.parametrize("n, ell, payloads", [(256, 17, 12), (1024, 21, 3)])
def test_repeat_finder_after_a_cut_matches_the_reference(n, ell, payloads):
    # Each step of an encode hands the finder a word that starts with the last
    # word less its cut window, so all but the first are keyed by a splice of
    # the kept keys.  One shrink answers the visited words in order.  Then,
    # each right after the last stepped word, it answers words that only look
    # like its step: the kept rest with other tails, as a bytearray too, and
    # words of other lengths.
    codec = build_codec(parse_spec(f"rf:n={n},l={ell}"))
    find = repeat_free_shrink(n, ell).first_violation
    kept_slot = lambda: closure(closure(find)["find_repeat"])["slot"]
    same = lambda w: w
    rng = random.Random(n + ell)
    words = spliced = 0
    for _ in range(payloads):
        payload = tuple(int(rng.randrange(8) == 0) for _ in range(n - 1))
        visited = encode(codec, payload, record_visited=True)[1].visited
        for word in visited:
            rest = kept_slot()[0]
            spliced += len(word) == len(rest) + ell and word.startswith(rest)
            words += 1
            want = first_pair_ref(word, ell, same, 1)
            assert find(word) == want, word
            if want is not None:  # the slot now keeps this word's cut and the value of every window
                j, keys = want[1], [int("".join(map(str, w)), 2) for w in windows(word, ell)]
                kept_rest, kept_j, kept_keys, kept_counts = kept_slot()
                assert (kept_rest, kept_j) == (word[:j] + word[j + ell :], j)
                assert list(kept_keys) == keys and kept_counts == Counter(keys)
        rest = kept_slot()[0]
        assert visited[-1].startswith(rest) and find(visited[-1]) is None  # the codeword, scanned again
        tails = [bytes(rng.randrange(2) for _ in range(ell)), rest[:ell], rest[-ell:], bytes(ell)]
        hostile = [rest + tail for tail in tails]
        hostile += [bytearray(word) for word in hostile] + [rest + tails[0][1:], rest + tails[0] + b"\x01"]
        for word in hostile:
            find(visited[-2])  # the slot keeps that word less its cut window
            want = first_pair_ref(word, ell, same, 1)
            assert find(word) == want and find(word) == want, word
    assert spliced >= words * 3 // 4


def planted_copy_words(n, q, ell, transform, seed, count):
    """Uniform words; uniform words with transform(copy) planted later in the
    word, the copy ell to ell + 30 symbols long, so that whole windows repeat;
    and near misses, where the planted image of one window differs from it in
    its first symbol only."""
    rng = random.Random(seed)
    for index in range(count):
        word = [rng.randrange(q) for _ in range(n)]
        if index % 3:
            length = rng.randrange(ell, ell + 31) if index % 3 == 1 else ell
            a = rng.randrange(n - 2 * length)
            b = rng.randrange(a + length, n - length + 1)
            word[b : b + length] = transform(tuple(word[a : a + length]))
            if index % 3 == 2:
                word[b] = (word[b] + 1) % q
        yield tuple(word)


# windows with q**ell > 2**64, whose keys are longer than a machine integer
WIDE_PAIR_CASES = {
    "rf-q2-l70": (2, 70, 1, lambda: repeat_free_shrink(512, 70), lambda w: w),
    "rss-q4-l33": (4, 33, 33, lambda: reverse_complement_shrink(256, 33), rc),
}


@pytest.mark.parametrize("name", sorted(WIDE_PAIR_CASES))
def test_pair_finder_wide_windows(name):
    q, ell, min_gap, make, transform = WIDE_PAIR_CASES[name]
    shrink = make()
    assert q**ell > 2**64
    witnesses = set()
    for word in planted_copy_words(shrink.n, q, ell, transform, seed=len(name), count=18):
        want = first_pair_ref(word, ell, transform, min_gap)
        witnesses.add(want)
        assert shrink_witness(shrink, ell, word) == want, word
        if want is not None:
            assert tuple(shrink.unshrink(shrink.shrink(bytes(word)))) == word
    assert None in witnesses and len(witnesses) >= 6


@pytest.mark.parametrize("build", [
    lambda: repeat_free_shrink(16, 9, q=257),
    lambda: reverse_complement_shrink(16, 9, comp=tuple(range(256, -1, -1))),
])
def test_pair_builders_reject_alphabets_beyond_bytes(build):
    with pytest.raises(ParameterViolation, match="q <= 256"):
        build()


@pytest.mark.parametrize("build", [
    lambda: min_period_coder(16, 8, 3, q=257),
    lambda: no_palindrome_coder(16, 8, q=257),
    lambda: listed_window_coder([(0,) * 9], 16, 9, q=257),
])
def test_window_builders_reject_alphabets_beyond_bytes(build):
    with pytest.raises(ParameterViolation, match="q <= 256"):
        build()


def test_per_length_tables_stay_bounded():
    finders = [
        min_weight_coder(16, 9, 2).first_violation,
        listed_window_coder(LISTED, 4, 5).first_violation,
        _pair_finder(2, 5, 1, None),
        _pair_finder(4, 3, 3, _Source(DNA_COMPLEMENT, 3, 4, reverse=True)),
    ]
    for length in range(3000):
        word = (b"\x00\x01\x01\x00\x01" * 600)[:length]
        for find in finders:
            find(word)
    caches = [
        cell.cell_contents for find in finders for cell in find.__closure__
        if hasattr(cell.cell_contents, "cache_info")
    ]
    assert len(caches) == len(finders)
    assert all(1 <= cache.cache_info().currsize <= 8 for cache in caches)
