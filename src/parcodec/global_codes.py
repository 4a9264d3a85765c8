"""Global constraints: properties of window *pairs* or of the whole word.

Words are ``bytes``, one byte per symbol.  One window-pair shrink serves
every pair constraint.  It finds the first pair (i, j) with
transform(window at i) == window at j and j >= i + gap, cuts window j out in
the cut-window layout of :func:`core.cut_window_shrink` and appends both
indices.  The transform (:class:`_Source`) is a symbol map, applied to the
reversed window for reverse complements, whose image never overlaps its
match: the gap is ell there and 1 otherwise.  The pair finder
(:func:`_pair_finder`) keys every window and every transformed window with
one multiply each (:func:`words.window_keys`), so q <= 256; one set test
answers "no pair".  Under the identity, a long word that starts with the
word it last cut less the cut window, as each encode step's does, keys only
the windows the cut changed.  The inverse reads j, then i, through
:func:`core.decode_field`, so it accepts exactly i + gap <= j <= n - ell,
and rebuilds window j from window i, or regrows it where the two overlap.
:func:`core.window_fits` refuses a window longer than the word before any
window is keyed or table checked, :func:`words.window_keys` a key of more
than :data:`words.MAX_KEY_BITS` bits, and :func:`core.window_room` a window
too short for both indices (ell < 2*ceil_log(n) + 1 + slack).  The public
shrink steps only choose the transform:

* :func:`repeat_free_shrink` (CLI: rf/srf) - no length-ell window may recur,
  optionally after a per-position symbol substitution (gap 1).
* :func:`reverse_complement_shrink` (CLI: rss) - no two non-overlapping
  windows may be reverse complements of each other (gap ell).

The :mod:`parcodec.specs` rows ``ss`` and ``ab`` intersect two members each:

* :func:`secondary_structure_member` (ss) - reverse-complement pairs
  forbidden at *every* offset: the non-overlapping pair shrink and a
  reverse-complement-palindrome window shrink.
* :func:`almost_balanced_member` (ab) - total Hamming weight confined to
  [n/2 - sqrt(n), n/2 + sqrt(n)], by exact enumerative ranking of the
  too-light and the too-heavy words, for n up to :data:`MAX_AB_N`.  All
  threshold arithmetic is exact integer work; no floating point enters
  codec semantics.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import cycle
from math import isqrt
from operator import getitem, index
from typing import Sequence

from .core import (
    ShrinkStep,
    ceil_log,
    cut_window_shrink,
    decode_field,
    encode_index,
    window_fits,
)
from .errors import NotACodeword, ParameterViolation
from .local import forbidden_window_shrink, no_palindrome_coder
from .ranking import count_by_weight, ranking_by_weight
from .words import Word, check_byte_alphabet, check_complement, check_symbol_map, symbol_translation
from .words import spread_digits, window_keys

# DNA alphabet is A=0, C=1, G=2, T=3; complement swaps A<->T and C<->G.
DNA_COMPLEMENT: tuple[int, ...] = (3, 2, 1, 0)


class _Source:
    """The transform a pair's source window goes through before it must equal
    the window at j: symbol u of the image is ``tables[u % len(tables)]``
    applied to symbol u of the window, or to symbol ell - 1 - u when
    ``reverse``.  A flat map is one table, a per-position map ell tables
    (one if all are equal), each checked to map [0, q) into [0, q).
    """

    def __init__(
        self, symbol_map: Sequence[Sequence[int]] | Sequence[int], ell: int, q: int, reverse: bool = False
    ):
        tables = list(symbol_map)
        try:
            index(tables[0])  # not hasattr(__index__): a numpy row has one, yet refuses it
            tables = [symbol_map]
        except (IndexError, TypeError):
            if len(tables) != ell:
                raise ParameterViolation(
                    f"need one symbol table per window position ({ell}), got {len(tables)}"
                ) from None
        tables = tuple(check_symbol_map(table, q, "symbol table") for table in tables)
        self.tables = tables if len(set(tables)) > 1 else tables[:1]
        self.ell, self.q, self.reverse = ell, q, reverse
        # one table: the whole window goes through one translate
        self.translation = symbol_translation(self.tables[0]) if len(self.tables) == 1 else None

    def __call__(self, window: bytes) -> bytes:
        symbols = window[::-1] if self.reverse else window
        if self.translation is not None:
            return symbols.translate(self.translation)
        return bytes(map(getitem, cycle(self.tables), symbols))

    def regrow(self, rest: bytes, i: int, j: int) -> bytes:
        """The window at j that overlapped its source at i (j < i + ell, so
        never when reversed): from symbol j - i on it is the image of its own
        earlier symbols, so it is grown left to right."""
        grown = bytearray()
        for t in range(self.ell):
            src = rest[i + t] if i + t < j else grown[i + t - j]
            grown.append(self.tables[t % len(self.tables)][src])
        return bytes(grown)

    def terms(self, digit_bits: int) -> list[tuple[bytes, int]]:
        """(translation, multiplier) pairs, one per distinct table: the sum of
        ``spread_digits(word.translate(translation), width) * multiplier`` keys
        the image of window i in digit i + ell - 1, where image symbol u, at
        shift s below that digit, has weight q**(ell - 1 - u).
        """
        ell = self.ell
        multipliers: dict[Word, int] = {}
        for s in range(ell):
            u = s if self.reverse else ell - 1 - s
            table = self.tables[u % len(self.tables)]
            multipliers[table] = multipliers.get(table, 0) + (self.q ** (ell - 1 - u) << digit_bits * s)
        return [(symbol_translation(table), m) for table, m in multipliers.items()]


def _pair_finder(q: int, ell: int, min_gap: int, source: _Source | None):
    """Finder of the minimal (i, j), i ordered first, with source(window at i)
    == window at j and j >= i + min_gap; None when no such pair exists.  A
    None ``source`` is the identity.

    Under the identity, a word of at least 8*ell windows that has a repeat is
    kept in one slot as (rest, j, keys, counts): the word less window j, its
    window keys and their multiset.  A word of the same length that starts
    with ``rest``, as the next step of an encode does, keeps the keys of the
    windows inside ``rest`` and keys only the about 2*ell - 1 windows at the
    junction and over its new tail.  The slot is checked by content, read
    once and replaced whole, so the answer depends on the word alone and the
    finder is safe to share across threads.
    """
    width, ones, reader = window_keys(q, ell)
    terms = None if source is None else source.terms(8 * width)
    # (rest, j, keys, counts) of the last long word with a repeat; the empty
    # rest is no word's, since no word of ell symbols has 8*ell windows
    slot: tuple[bytes, int, Sequence, dict] = (b"", 0, (), {})
    spliced_from = 8 * ell  # windows; below this a splice saves less than it costs

    def keyed(word: bytes) -> tuple:
        read, size = reader(len(word))
        return read((spread_digits(word, width) * ones).to_bytes(size, "little"))

    def find_repeat(word: bytes, count: int) -> tuple[int, int] | None:
        nonlocal slot
        rest, j, kept, counts = slot
        tail = count - ell  # windows tail.. overlap the last ell symbols
        if j <= tail and len(word) == len(rest) + ell and word.startswith(rest):
            start = max(j - ell + 1, 0)  # windows start..j - 1 straddle the junction
            # one pass keys ell - 1 windows from start, ell - 1 across the seam (dropped) and the tail's ell
            fresh = keyed(word[start : start + 2 * ell - 2] + word[tail:])
            junction, ends = fresh[: j - start], fresh[-ell:]
            keys = [*kept[:start], *junction, *kept[j + ell :], *ends]
            counts = counts.copy()
            for key in kept[start : j + ell]:
                if counts[key] == 1:
                    del counts[key]
                else:
                    counts[key] -= 1
            for key in junction + ends:
                counts[key] = counts.get(key, 0) + 1
        else:
            keys = keyed(word)
            if len(set(keys)) == count:
                return None
            counts = dict(Counter(keys))  # a dict copies in one block, a Counter through Python
        if len(counts) == count:
            return None
        for i, key in enumerate(keys):
            if counts[key] > 1:  # the first window that recurs has its copy later
                j = keys.index(key, i + 1)
                slot = (word[:j] + word[j + ell :], j, keys, counts)
                return i, j

    def find(word: bytes) -> tuple[int, int] | None:
        length = len(word)
        count = length - ell + 1
        if count <= min_gap:  # no j >= i + min_gap below count
            return None
        if terms is None and count >= spliced_from:
            return find_repeat(word, count)
        read, size = reader(length)  # not keyed(): one call more costs short scans 2-4%
        keys = read((spread_digits(word, width) * ones).to_bytes(size, "little"))
        if terms is None:
            if len(set(keys)) == count:
                return None
            sources = keys
        else:
            product = 0
            for translation, multiplier in terms:
                product += spread_digits(word.translate(translation), width) * multiplier
            sources = read(product.to_bytes(size, "little"))
            if set(keys).isdisjoint(sources):
                return None
        last = dict(zip(keys, range(count)))
        for i, key in enumerate(sources):
            if last.get(key, -1) >= i + min_gap:
                return i, keys.index(key, i + min_gap)
        return None

    return find


def _window_pair_shrink(
    n: int, ell: int, q: int, slack: int,
    symbol_map: Sequence[Sequence[int]] | Sequence[int] | None = None, reverse: bool = False,
) -> ShrinkStep:
    """The one window-pair shrink: cut window j of the first pair, append i and j.

    The source transform is :class:`_Source` of ``symbol_map`` and
    ``reverse``, None the identity.  The inverse accepts only
    i + min_gap <= j <= n - ell, and names that range for a j below min_gap.
    """
    window_fits(n, ell)  # before any window is keyed or any ell tables checked
    check_byte_alphabet(q, "a window-pair constraint")  # before any translate table
    source = None if symbol_map is None else _Source(symbol_map, ell, q, reverse)
    min_gap = ell if reverse else 1  # a reversed image never overlaps its match
    index_width = ceil_log(n, q)

    def cut(word: bytes, pair: tuple[int, int]) -> tuple[int, bytes]:
        i, j = pair
        return j, encode_index(i, index_width, q) + encode_index(j, index_width, q)

    def restore(rest: bytes, tail: bytes) -> tuple[int, bytes]:
        j = decode_field(tail[index_width:], q, n - ell + 1, "pair index j")
        if j < min_gap:  # below min_gap the limit on i would be one no field meets
            empty = "" if min_gap <= n - ell else ", which is empty: no pair fits"
            raise NotACodeword(
                f"pair index j {j} out of range [{min_gap}, {n - ell}]{empty}", reason="field-out-of-range"
            )
        i = decode_field(tail[:index_width], q, j - min_gap + 1, "pair index i")
        if source is None:  # a repeat is the periodic extension of rest[i:j], overlapping or not
            return j, (rest[i:j] * (ell // (j - i) + 1))[:ell]
        if j < i + ell:
            return j, source.regrow(rest, i, j)
        return j, source(rest[i : i + ell])

    return cut_window_shrink(
        q, n, ell, slack, 2 * index_width, _pair_finder(q, ell, min_gap, source), cut, restore,
    )


def repeat_free_shrink(
    n: int,
    ell: int,
    q: int = 2,
    symbol_map: Sequence[Sequence[int]] | Sequence[int] | None = None,
    slack: int = 0,
) -> ShrinkStep:
    """No window may equal the (symbolwise-mapped) copy of an earlier window.

    With the default identity map this is the repeat-free constraint; a
    symbol map generalizes it to symbolwise-transformed repeats (CLI: srf).
    The shrink removes the window at the later index j of the first violating
    pair and appends both indices; the inverse either maps the surviving
    window (no overlap) or regrows the removed one, since an overlapping
    match forces a (j - i)-periodic structure.
    """
    return _window_pair_shrink(n, ell, q, slack, symbol_map)


def reverse_complement_shrink(
    n: int, ell: int, comp: Sequence[int] = DNA_COMPLEMENT, slack: int = 0
) -> ShrinkStep:
    """No window may be the reverse complement of an earlier, non-overlapping one.

    Reverse complement is not symbolwise (it reverses), so only pairs with
    j >= i + ell are covered here; :func:`secondary_structure_member` adds
    the overlapping case.  Any self-inverse symbol complement is accepted.  With
    n - ell < ell no such pair fits, so the step is empty and scans nothing.
    """
    comp = check_complement(comp, len(comp), "complement table")
    return _window_pair_shrink(n, ell, len(comp), slack, comp, reverse=True)


def secondary_structure_member(
    n: int, palindromes: bool, slack: int, comp: Sequence[int] = DNA_COMPLEMENT
) -> ShrinkStep:
    """One member of the ``ss`` row: the non-overlapping reverse-complement
    pair shrink, or, if ``palindromes``, the reverse-complement-palindrome
    window shrink, over q = len(comp) with ell = 2*ceil_log(n, q) + 2.  An
    overlapping pair forces a reverse-complement palindrome of length
    2*floor(ell/2) + 2, so the two cover every offset.  The pair member is
    empty when n - ell < ell (so at n = 8, where ell = 6): no pair fits, and
    its finder answers before keying any window."""
    comp = tuple(comp)
    q = len(comp)
    ell = 2 * ceil_log(n, q) + 2
    if not palindromes:
        return reverse_complement_shrink(n, ell, comp, slack)
    coder = no_palindrome_coder(n, 2 * (ell // 2) + 2, comp=comp, q=q, slack=slack)
    return forbidden_window_shrink(coder, n, slack)


@lru_cache(maxsize=64)  # each almost-balanced half counts the same set
def count_weight_at_most(n: int, wmax: int) -> int:
    """Number of binary n-words with Hamming weight <= wmax, exactly."""
    return count_by_weight(n, range(min(wmax, n) + 1))


def rank_weight_at_most(word: Sequence[int], wmax: int) -> int:
    """Rank of a binary word among weight-<=wmax words (weight asc, then lex)."""
    return ranking_by_weight(len(word), range(wmax + 1))[0](word, sum(word))


def unrank_weight_at_most(rank: int, n: int, wmax: int) -> bytes:
    return ranking_by_weight(n, range(wmax + 1))[1](rank)


_FLIP_BITS = symbol_translation((1, 0))
MAX_AB_N = 1 << 14  # the almost-balanced rank table, built on the first step, grows as n**2


def min_balanced_weight(n: int) -> int:
    """Smallest integer weight w with w >= n/2 - sqrt(n), exactly.

    w >= n/2 - sqrt(n) iff n - 2w <= 0 or (n - 2w)**2 <= 4n, so the
    threshold is ceil((n - isqrt(4n)) / 2); no floating point involved.
    """
    return (n - isqrt(4 * n) + 1) // 2


def almost_balanced_member(n: int, heavy: bool, slack: int) -> ShrinkStep:
    """Shrink step for one half of the almost-balanced constraint.

    The light half cuts a word of weight <= w_star, the heaviest weight below
    n/2 - sqrt(n), to its enumerative rank in n-1-slack bits; the heavy half
    does the same for a word with at most w_star zeros, ranking its bitwise
    complement.  The witness is that count of ones (zeros), and the cut ranks
    with it.  The capacity of n-1-slack bits is checked by exact counting at
    build time, not assumed; the rank table is built on first use.  An n
    above :data:`MAX_AB_N` is refused before any count.
    """
    if n <= 4:
        raise ParameterViolation(f"almost-balanced constraint needs n > 4, got {n}")
    if n > MAX_AB_N:
        raise ParameterViolation(f"ab word length n = {n} exceeds MAX_AB_N = {MAX_AB_N}")
    w_star = min_balanced_weight(n) - 1
    count = count_weight_at_most(n, w_star)
    width = n - 1 - slack
    if count > 1 << width:
        raise ParameterViolation(
            f"{count} words of weight <= {w_star} exceed 2**{width} = {1 << width}"
        )
    counted, flip = (0, _FLIP_BITS) if heavy else (1, None)
    light = range(w_star + 1)  # looked up per call, so the rank table is built on first use

    def first_violation(word: bytes) -> int | None:
        weight = word.count(counted)
        return weight if weight <= w_star else None

    def cut(word: bytes, weight: int) -> bytes:
        return encode_index(ranking_by_weight(n, light)[0](word.translate(flip), weight), width, 2)

    def unshrink(word: bytes) -> bytes:
        return ranking_by_weight(n, light)[1](decode_field(word, 2, count, "light rank")).translate(flip)

    return ShrinkStep(q=2, n=n, slack=slack, first_violation=first_violation, cut=cut, unshrink=unshrink)
