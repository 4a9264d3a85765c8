"""Local constraints: forbidden fixed-length windows anywhere in the word.

A :class:`WindowCoder` describes one family of forbidden windows: a
leftmost-witness finder over whole words plus an injective compressor
``pack`` that squeezes a forbidden window into ell' < ell symbols; the
window predicate ``is_forbidden`` is that finder applied to one window.
The mw, lab, mp and enp finders read the word once as one integer, symbol t
in digit t, and test every window at once with a few big-integer operations
that run in C: one multiply gives every window weight, one XOR per shift d
marks where the word has period d, and one XOR per mirrored pair marks the
palindromes.  The leftmost flagged digit, found with ``bytes.find``, is the
witness.
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
from typing import Callable, Sequence

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
from .words import Word, check_byte_alphabet, check_word


@dataclass(frozen=True)
class WindowCoder:
    """Forbidden-window family with an injective width-reducing compressor.

    ``first_violation(word)`` is the family's one definition: the smallest
    start of a forbidden length-``window_len`` window in a word of any
    length, or None.  The built-in finders build no Python object per window
    or per symbol: a constant number of whole-word integer operations for
    min_weight_coder and weight_window_coder, p - 1 for min_period_coder and
    ceil(window_len / 2) for no_palindrome_coder, each linear in the word's
    length.  listed_window_coder does one set lookup per window.
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

    This is ``coder.first_violation(word)``, the coder's own finder.
    """
    return coder.first_violation(word)


def _weight_finder(n: int, ell: int, lo: int, hi: int) -> Callable[[Word], int | None]:
    """Finder of the leftmost binary length-ell window with weight outside [lo, hi].

    The word is read as one integer x with one ``width``-byte digit per
    symbol, so digit i + ell - 1 of ``x * ones`` (ell unit digits) is the
    weight of window i.  A digit keeps its top bit free (ell < 2**(8*width-1)),
    so adding 2**(8*width-1) - lo to every digit sets that bit exactly where
    the weight is at least lo, and adding 2**(8*width-1) - hi - 1 sets it
    exactly where the weight exceeds hi; no carry crosses a digit.  The
    forbidden flags are those top bits, read as every width-th byte.
    """
    width = (ell.bit_length() + 8) // 8
    unit = b"\x01".ljust(width, b"\x00")
    ones = int.from_bytes(unit * ell, "little")

    def masks(length: int) -> tuple[int, int, int]:
        # (top bit of each digit, the >= lo bias, the > hi bias) for `length` digits
        digit_ones = int.from_bytes(unit * length, "little")
        top = digit_ones << (8 * width - 1)
        return top, top - lo * digit_ones, top - (hi + 1) * digit_ones

    own = masks(n)

    def first_violation(word: Word) -> int | None:
        length = len(word)
        top, at_least_lo, above_hi = own if length == n else masks(length)
        digits = bytearray(length * width)
        digits[::width] = word
        sums = int.from_bytes(digits, "little") * ones
        flags = (((sums + at_least_lo) ^ top) | (sums + above_hi)) & top
        top_bytes = flags.to_bytes(length * width, "little")[width - 1 :: width]
        end = top_bytes.find(0x80, ell - 1, length)  # the window's last symbol
        return end - (ell - 1) if end >= 0 else None

    return first_violation


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

    return WindowCoder(2, ell, packed, _weight_finder(n, ell, p, ell), pack, unpack)


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

    def pack(window: Word) -> Word:
        return encode_index(rank_by_weight(window, weights), packed, 2)

    def unpack(packed_word: Word) -> Word:
        rank = decode_index(packed_word, 2)
        if rank >= total:
            raise NotACodeword(f"window rank {rank} out of range (|W| = {total})")
        return unrank_by_weight(rank, ell, weights)

    return WindowCoder(2, ell, packed, _weight_finder(n, ell, wmin, wmax), pack, unpack)


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
    check_byte_alphabet(q, "min_period_coder")
    needed = ceil_log(n, q) + p + 1 + slack
    if ell < needed:
        raise ParameterViolation(
            f"window length {ell} below bound ceil_log(n) + p + 1 + slack; "
            f"smallest admissible is {needed}"
        )

    # a window has period d iff word[t] == word[t + d] along its first
    # ell - d positions, that is, iff byte t of x ^ (x >> 8*d) is zero there
    # (up to len - d, where x >> 8*d runs out); a period below p needs d < p
    runs = [(d, bytes(ell - d)) for d in range(1, p)]

    def first_violation(word: Word) -> int | None:
        length = len(word)
        if length < ell:  # and so no negative end, which find() counts from the back
            return None
        x = int.from_bytes(bytearray(word), "little")
        starts = [(x ^ (x >> 8 * d)).to_bytes(length, "little").find(run, 0, length - d) for d, run in runs]
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
    check_byte_alphabet(q, "no_palindrome_coder")
    if ell // 2 < ceil_log(n, q) + 1 + slack:
        raise ParameterViolation(
            f"floor(ell/2) = {ell // 2} below bound ceil_log(n) + 1 + slack "
            f"= {ceil_log(n, q) + 1 + slack}; smallest admissible ell is "
            f"{2 * (ceil_log(n, q) + 1 + slack)}"
        )
    packed = (ell + 1) // 2

    complement = None if comp == tuple(range(q)) else bytes(comp) + bytes(256 - q)
    pairs = [(8 * t, 8 * (ell - 1 - t)) for t in range(packed)]

    def first_violation(word: Word) -> int | None:
        # byte i of (x >> 8t) ^ (y >> 8(ell-1-t)), y the complemented word, is
        # zero iff window i passes the mirrored pair (t, ell-1-t)
        if len(word) < ell:  # and so no negative end, which find() counts from the back
            return None
        raw = bytearray(word)
        x = int.from_bytes(raw, "little")
        y = x if complement is None else int.from_bytes(raw.translate(complement), "little")
        mismatch = 0
        for ahead, behind in pairs:
            mismatch |= (x >> ahead) ^ (y >> behind)
        i = mismatch.to_bytes(len(word), "little").find(0, 0, len(word) - ell + 1)
        return i if i >= 0 else None

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
