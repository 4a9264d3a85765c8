"""Local constraints: forbidden fixed-length windows anywhere in the word.

A :class:`WindowCoder` describes one family of forbidden windows: a
leftmost-witness finder over whole words plus an injective compressor
``pack`` that squeezes a forbidden window into ell' < ell symbols.  Each
finder scans the word once, in O(n) (O(n*p) for mp), instead of slicing and
re-testing every length-ell window; the window predicate ``is_forbidden`` is
that finder applied to one window.
:func:`forbidden_window_shrink` lifts any such coder into a shrink step: the
first forbidden window is cut out and re-encoded at the tail as
(window index, packed window).

Built-in coders (CLI names in parentheses):

* :func:`min_weight_coder` (mw) - windows must have Hamming weight >= p.
* :func:`weight_window_coder` (lab) - window weight must stay in [wmin, wmax].
* :func:`min_period_coder` (mp) - windows must have minimal period >= p.
* :func:`no_palindrome_coder` (enp) - no window equal to its own
  (optionally complemented) reversal.
* :func:`listed_window_coder` - any explicit window list, rank-compressed.
* :func:`build_palindrome_free` (mpl) - full codec forbidding palindromes of
  every length above a log-scale threshold, via intersection of two
  no-palindrome coders.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, gt, not_, sub
from typing import Callable, Iterable, Sequence

from .core import (
    CodecSpec,
    ShrinkStep,
    build_intersection,
    build_one_symbol,
    ceil_log,
    cut_window_shrink,
    decode_index,
    encode_index,
)
from .errors import NotACodeword, ParameterViolation
from .ranking import count_by_weight, rank_by_weight, unrank_by_weight
from .words import Word, check_word


@dataclass(frozen=True)
class WindowCoder:
    """Forbidden-window family with an injective width-reducing compressor.

    ``first_violation(word)`` is the family's one definition: the smallest
    start of a forbidden length-``window_len`` window in a word of any
    length, or None.  The built-in finders make one pass over the word with
    no per-window rescan: O(len(word)), O(len(word) * p) for
    min_period_coder, and one set lookup per window for listed_window_coder.
    """

    q: int
    window_len: int
    packed_len: int
    first_violation: Callable[[Word], int | None]
    pack: Callable[[Word], Word]
    unpack: Callable[[Word], Word]

    def is_forbidden(self, window: Word) -> bool:
        """Whether one length-window_len window is forbidden (the finder on it)."""
        return self.first_violation(window) == 0


def first_forbidden_window(word: Word, coder: WindowCoder) -> int | None:
    """Smallest start index of a forbidden window, or None. Leftmost wins.

    This is ``coder.first_violation(word)``, the coder's own one-pass finder.
    """
    return coder.first_violation(word)


def _first_sparse_window(positions: Iterable[int], n: int, ell: int, p: int) -> int | None:
    """Leftmost i <= n - ell with fewer than p of the ascending positions in [i, i + ell).

    Within a gap between two listed positions, the earliest start holds the
    fewest positions, so only the starts 0 and position + 1 are candidates:
    the one after ``positions[k-1]`` qualifies iff ``positions[k+p-1]`` lies
    beyond its window.  Sentinels -1 in front and p copies of n + ell behind
    make the last candidate always qualify.
    """
    if p <= 0:
        return None
    ext = [-1, *positions, *repeat(n + ell, p)]
    before = next(compress(ext, map(gt, map(sub, ext[p:], ext), repeat(ell))))
    return before + 1 if before + 1 <= n - ell else None


def forbidden_window_shrink(coder: WindowCoder, n: int, slack: int = 0) -> ShrinkStep:
    """Shrink step that removes the first forbidden window.

    The violating word is rewritten as
    ``prefix + suffix + index(first window) + pack(window) + zero padding``,
    which fits in n - 1 - slack symbols whenever
    ``packed_len <= window_len - ceil_log(n) - 1 - slack``.
    The inverse trusts the encoded index; it never re-scans.
    """
    q, ell, packed = coder.q, coder.window_len, coder.packed_len
    index_width = ceil_log(n, q)
    budget = ell - index_width - 1 - slack
    if packed > budget:
        raise ParameterViolation(
            f"packed window length {packed} exceeds {budget} "
            f"(= window_len - ceil_log(n) - 1 - slack); smallest admissible window_len "
            f"is {packed + index_width + 1 + slack}"
        )
    if ell > n:
        raise ParameterViolation(f"window length {ell} exceeds word length {n}")

    def cut(word: Word, i: int) -> tuple[int, Word]:
        return i, encode_index(i, index_width, q) + coder.pack(word[i : i + ell])

    def restore(rest: Word, tail: Word) -> tuple[int, Word]:
        i = decode_index(tail[:index_width], q)
        if i > n - ell:
            raise NotACodeword(f"window index {i} out of range (max {n - ell})")
        return i, coder.unpack(tail[index_width:])

    return cut_window_shrink(
        q, n, ell, slack, index_width + packed,
        coder.first_violation, cut, restore,
    )


def min_weight_coder(n: int, ell: int, p: int, slack: int = 0) -> WindowCoder:
    """Binary windows with Hamming weight < p are forbidden (CLI: mw).

    A forbidden window has at most p-1 ones; pack lists their 0-based
    positions, ascending, each in ceil_log(ell+1) bits, padding missing
    entries with the dummy position ell.
    """
    if p < 1:
        raise ParameterViolation(f"minimal weight p must be >= 1, got {p}")
    field = ceil_log(ell + 1, 2)
    packed = (p - 1) * field
    needed = _min_weight_min_ell(n, p, slack)
    if ell < needed:
        raise ParameterViolation(
            f"window length {ell} below bound ceil_log(n) + (p-1)*ceil_log(ell+1) + 1 + slack; "
            f"smallest admissible is {needed}"
        )

    def first_violation(word: Word) -> int | None:
        return _first_sparse_window(compress(range(len(word)), word), len(word), ell, p)

    def pack(window: Word) -> Word:
        fields = [encode_index(i, field, 2) for i, s in enumerate(window) if s]
        fields += [encode_index(ell, field, 2)] * (p - 1 - len(fields))
        return tuple(s for f in fields for s in f)

    def unpack(packed_word: Word) -> Word:
        window = [0] * ell
        for start in range(0, packed, field):
            pos = decode_index(packed_word[start : start + field], 2)
            if pos > ell:
                raise NotACodeword(f"one-position {pos} out of range (dummy is {ell})")
            if pos < ell:
                window[pos] = 1
        return tuple(window)

    return WindowCoder(2, ell, packed, first_violation, pack, unpack)


def _min_weight_min_ell(n: int, p: int, slack: int) -> int:
    # the bound references ell on both sides; the right side grows only
    # logarithmically, so scan upward
    base = ceil_log(n, 2) + 1 + slack
    ell = 1
    while ell < base + (p - 1) * ceil_log(ell + 1, 2):
        ell += 1
    return ell


def weight_window_coder(n: int, ell: int, wmin: int, wmax: int, slack: int = 0) -> WindowCoder:
    """Binary windows with weight outside [wmin, wmax] are forbidden (CLI: lab).

    Forbidden windows are compressed by their exact enumerative rank, ordered
    by weight ascending then lexicographic; admissibility is the exact count
    check |W| <= 2**packed_len rather than an asymptotic regime.
    """
    if not 0 <= wmin <= wmax <= ell:
        raise ParameterViolation(f"need 0 <= wmin <= wmax <= ell, got [{wmin}, {wmax}], ell={ell}")
    packed = ell - ceil_log(n, 2) - 1 - slack
    if packed < 0:
        raise ParameterViolation(
            f"window length {ell} leaves no room for the packed field "
            f"(needs at least ceil_log(n) + 1 + slack = {ceil_log(n, 2) + 1 + slack})"
        )
    weights = tuple(range(0, wmin)) + tuple(range(wmax + 1, ell + 1))
    total = count_by_weight(ell, weights)
    if total > 1 << packed:
        raise ParameterViolation(
            f"forbidden-window count {total} exceeds capacity 2**{packed} = {1 << packed}"
        )

    def first_violation(word: Word) -> int | None:
        # too light: fewer than wmin ones; too heavy: fewer than ell - wmax zeros
        n_word = len(word)
        light = _first_sparse_window(compress(range(n_word), word), n_word, ell, wmin)
        heavy = _first_sparse_window(compress(range(n_word), map(not_, word)), n_word, ell, ell - wmax)
        return min((i for i in (light, heavy) if i is not None), default=None)

    def pack(window: Word) -> Word:
        return encode_index(rank_by_weight(window, weights), packed, 2)

    def unpack(packed_word: Word) -> Word:
        rank = decode_index(packed_word, 2)
        if rank >= total:
            raise NotACodeword(f"window rank {rank} out of range (|W| = {total})")
        return unrank_by_weight(rank, ell, weights)

    return WindowCoder(2, ell, packed, first_violation, pack, unpack)


def minimal_period(window: Word) -> int:
    """Smallest p in [1, len) with window[i] == window[i+p] for all i; len if none.

    The minimal period is len minus the longest proper border (a prefix that
    is also a suffix); the border loop finds it in O(len).
    """
    borders = [0] * len(window)
    k = 0
    for i in range(1, len(window)):
        while k and window[i] != window[k]:
            k = borders[k - 1]
        if window[i] == window[k]:
            k += 1
        borders[i] = k
    return len(window) - k


def min_period_coder(n: int, ell: int, p: int, slack: int = 0, q: int = 2) -> WindowCoder:
    """Windows with minimal period < p are forbidden (CLI: mp).

    A window with minimal period p' < p is fully determined by its first p'
    symbols; pack stores that seed, a 1 marker, and zero fill, p symbols total.
    """
    if not 1 <= p <= ell:
        raise ParameterViolation(f"need 1 <= p <= ell, got p={p}, ell={ell}")
    needed = ceil_log(n, q) + p + 1 + slack
    if ell < needed:
        raise ParameterViolation(
            f"window length {ell} below bound ceil_log(n) + p + 1 + slack; "
            f"smallest admissible is {needed}"
        )

    # a window has period d iff word[t] == word[t + d] along its first
    # ell - d positions; a period below p needs only d < p
    runs = {d: b"\x01" * (ell - d) for d in range(1, p)}

    def first_violation(word: Word) -> int | None:
        starts = [bytes(map(eq, word, word[d:])).find(run) for d, run in runs.items()]
        return min((i for i in starts if i >= 0), default=None)

    def pack(window: Word) -> Word:
        period = minimal_period(window)
        return window[:period] + (1,) + (0,) * (p - period - 1)

    def unpack(packed_word: Word) -> Word:
        length = p
        while length > 0 and packed_word[length - 1] == 0:
            length -= 1
        if length < 2 or packed_word[length - 1] != 1:
            raise NotACodeword("packed window lacks a period marker")
        seed = packed_word[: length - 1]
        return tuple(seed[i % len(seed)] for i in range(ell))

    return WindowCoder(q, ell, p, first_violation, pack, unpack)


def no_palindrome_coder(
    n: int, ell: int, comp: Sequence[int] | None = None, q: int = 2, slack: int = 0
) -> WindowCoder:
    """Windows equal to their own complemented reversal are forbidden (CLI: enp).

    ``comp`` is a self-inverse symbol map (identity by default; pass the DNA
    complement for reverse-complement palindromes).  Such a window is
    determined by its first ceil(ell/2) symbols, which is all pack keeps.
    With a fixed-point-free comp and odd ell no window qualifies; the coder
    then degenerates to an always-false indicator, which is allowed.
    """
    if comp is None:
        comp = tuple(range(q))
    comp = tuple(comp)
    if len(comp) != q or any(comp[comp[s]] != s for s in range(q)):
        raise ParameterViolation(f"comp must be a self-inverse map on [0, {q})")
    if ell // 2 < ceil_log(n, q) + 1 + slack:
        raise ParameterViolation(
            f"floor(ell/2) = {ell // 2} below bound ceil_log(n) + 1 + slack "
            f"= {ceil_log(n, q) + 1 + slack}; smallest admissible ell is "
            f"{2 * (ceil_log(n, q) + 1 + slack)}"
        )
    packed = (ell + 1) // 2

    identity = comp == tuple(range(q))

    def first_violation(word: Word) -> int | None:
        # mirror test of every window at once against the complemented word,
        # one mirrored pair (t, ell-1-t) per round, outermost first; only the
        # starts that passed every earlier round are tested again
        mirror = word if identity else tuple(map(comp.__getitem__, word))
        starts = list(compress(range(len(word) - ell + 1), map(eq, word, mirror[ell - 1 :])))
        for t in range(1, packed):
            if not starts:
                return None
            back = ell - 1 - t
            starts = [i for i in starts if word[i + t] == mirror[i + back]]
        return starts[0] if starts else None

    def pack(window: Word) -> Word:
        return window[:packed]

    def unpack(packed_word: Word) -> Word:
        return packed_word + tuple(comp[packed_word[ell - 1 - i]] for i in range(packed, ell))

    return WindowCoder(q, ell, packed, first_violation, pack, unpack)


def listed_window_coder(
    windows: Sequence[Word],
    n: int,
    ell: int,
    q: int = 2,
    slack: int = 0,
    packed_len: int | None = None,
) -> WindowCoder:
    """Explicitly listed forbidden windows, compressed by sorted rank.

    ``packed_len`` defaults to the largest width admissible for word length
    n; pass it explicitly to pin a smaller field.
    """
    table = sorted(set(windows))
    for w in table:
        check_word(w, q, ell, what="forbidden window")
    packed = packed_len if packed_len is not None else ell - ceil_log(n, q) - 1 - slack
    if packed < 0 or len(table) > q ** packed:
        raise ParameterViolation(
            f"{len(table)} forbidden windows exceed capacity q**{packed}"
            f" = {q ** max(packed, 0)}"
        )

    listed = frozenset(table)

    def first_violation(word: Word) -> int | None:
        return next((i for i in range(len(word) - ell + 1) if word[i : i + ell] in listed), None)

    def pack(window: Word) -> Word:
        return encode_index(bisect_left(table, window), packed, q)

    def unpack(packed_word: Word) -> Word:
        rank = decode_index(packed_word, q)
        if rank >= len(table):
            raise NotACodeword(f"window rank {rank} out of range ({len(table)} windows)")
        return table[rank]

    return WindowCoder(q, ell, packed, first_violation, pack, unpack)


def build_palindrome_free(n: int, q: int = 2) -> CodecSpec:
    """Codec whose outputs contain no palindrome of length >= 2*ceil_log(n) + 4 (CLI: mpl).

    Intersects no-palindrome coders for one even and one odd length; any
    longer palindrome contains one of those two lengths, so both are enough.
    """
    ell_even = 2 * ceil_log(n, q) + 4
    members = [
        forbidden_window_shrink(no_palindrome_coder(n, ell, q=q, slack=1), n, slack=1)
        for ell in (ell_even, ell_even + 1)
    ]
    return build_one_symbol(build_intersection(members))
