"""Local constraints: forbidden fixed-length windows anywhere in the word.

A :class:`WindowCoder` describes one family of forbidden windows: a
leftmost-witness finder over whole words plus an injective compressor
``pack`` that squeezes a forbidden window into ell' < ell symbols; the
window predicate ``is_forbidden`` is that finder applied to one window.
Words are ``bytes``, one byte per symbol.  Every built-in finder tests all
windows at once with a few big-integer operations that run in C: one multiply
gives every window weight or key (:func:`words.window_keys`), one XOR per
shift d marks period d, one XOR per block of k mirrored pairs, keyed one
block to a byte, marks the palindromes, and the witness is the leftmost
flagged window.
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

:func:`palindrome_free_member` is one member of the ``mpl`` registry row
(:mod:`parcodec.specs`): no palindrome of length >= 2*ceil_log(n) + 4, by
intersecting the even- and the odd-length no-palindrome shrink, since any
longer palindrome contains one of those two lengths.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, Sequence

from .core import (
    ShrinkStep,
    ceil_log,
    cut_window_shrink,
    decode_field,
    encode_index,
    window_room,
)
from .errors import NotACodeword, ParameterViolation
from .ranking import count_by_weight, ranking_by_weight
from .words import check_byte_alphabet, check_complement, check_symbols, spread_digits, symbol_translation
from .words import window_keys


@dataclass(frozen=True)
class WindowCoder:
    """Forbidden-window family with an injective width-reducing compressor.

    ``first_violation(word)`` is the family's one definition: the smallest
    start of a forbidden length-``window_len`` window in a word of any
    length, or None.  The built-in finders run no Python loop per window or
    per symbol: a constant number of whole-word integer operations for
    min_weight_coder, weight_window_coder and listed_window_coder, p - 1 for
    min_period_coder, and for no_palindrome_coder two multiplies plus one
    XOR per k-symbol block of the window's first half (k = 8 for q = 2, 4
    for q = 4): 2 for the mpl members at n = 256 and 1 at n = 16.  Each is
    linear in the word's length.  No built-in pack loops per symbol in Python
    either (mw compresses a table of its position fields, mp compares shifted
    slices, enp slices, listed bisects), except lab's rank, which walks the
    window one symbol at a time up to its last choice.
    """

    q: int
    window_len: int
    packed_len: int
    first_violation: Callable[[bytes], int | None]
    pack: Callable[[bytes], bytes]
    unpack: Callable[[bytes], bytes]

    def is_forbidden(self, window: bytes) -> bool:
        """Whether one length-window_len window is forbidden (the finder on it)."""
        return self.first_violation(window) == 0


def first_forbidden_window(word: bytes, coder: WindowCoder) -> int | None:
    """Smallest start index of a forbidden window, or None. Leftmost wins.

    This is ``coder.first_violation(word)``, the coder's own finder.
    """
    return coder.first_violation(word)


def _weight_finder(ell: int, lo: int, hi: int) -> Callable[[bytes], int | None]:
    """Finder of the leftmost binary length-ell window with weight outside [lo, hi].

    The word's spread (:func:`words.spread_digits`) times ell unit digits has
    window i's weight in digit i + ell - 1, its top bit free (ell <
    2**(8*width-1)).  Adding 2**(8*width-1) - lo to every digit sets that bit
    exactly where the weight is at least lo, and 2**(8*width-1) - hi - 1
    exactly where it exceeds hi, with no carry; the flags are those top bits.
    """
    width = (ell.bit_length() + 8) // 8
    ones = spread_digits(b"\x01" * ell, width)

    @lru_cache(maxsize=8)
    def masks(length: int) -> tuple[int, int, int]:
        # (top bit of each digit, the >= lo bias, the > hi bias) for `length` digits
        digit_ones = spread_digits(b"\x01" * length, width)
        top = digit_ones << (8 * width - 1)
        return top, top - lo * digit_ones, top - (hi + 1) * digit_ones

    def first_violation(word: bytes) -> int | None:
        length = len(word)
        top, at_least_lo, above_hi = masks(length)
        sums = spread_digits(word, width) * ones
        flags = (((sums + at_least_lo) ^ top) | (sums + above_hi)) & top
        top_bytes = flags.to_bytes(length * width, "little")[width - 1 :: width]
        end = top_bytes.find(0x80, ell - 1, length)  # the window's last symbol
        return end - (ell - 1) if end >= 0 else None

    return first_violation


def forbidden_window_shrink(coder: WindowCoder, n: int, slack: int = 0) -> ShrinkStep:
    """Shrink step that removes the first forbidden window.

    The violating word is rewritten as
    ``prefix + suffix + index(first window) + pack(window) + zero padding``
    in n - 1 - slack symbols; :func:`core.window_room` rejects a coder whose
    index and packed window do not fit.
    The inverse trusts the encoded index; it never re-scans.
    """
    q, ell, packed = coder.q, coder.window_len, coder.packed_len
    index_width = ceil_log(n, q)

    def cut(word: bytes, i: int) -> tuple[int, bytes]:
        return i, encode_index(i, index_width, q) + coder.pack(word[i : i + ell])

    def restore(rest: bytes, tail: bytes) -> tuple[int, bytes]:
        i = decode_field(tail[:index_width], q, n - ell + 1, "window index")
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
    window_room(n, ell, slack, lambda e: ceil_log(n, 2) + (p - 1) * ceil_log(e + 1, 2))

    *positions, dummy = [encode_index(i, field, 2) for i in range(ell + 1)]

    def pack(window: bytes) -> bytes:
        fields = list(compress(positions, window))  # the fields of the one-positions, ascending
        return b"".join(fields) + dummy * (p - 1 - len(fields))

    def unpack(packed_word: bytes) -> bytes:
        window = bytearray(ell)
        for start in range(0, packed, field):
            pos = decode_field(packed_word[start : start + field], 2, ell + 1, "one-position")
            if pos < ell:  # ell is the dummy
                window[pos] = 1
        return bytes(window)

    return WindowCoder(2, ell, packed, _weight_finder(ell, p, ell), pack, unpack)


def weight_window_coder(n: int, ell: int, wmin: int, wmax: int, slack: int = 0) -> WindowCoder:
    """Binary windows with weight outside [wmin, wmax] are forbidden (CLI: lab).

    Forbidden windows are compressed by their exact enumerative rank, ordered
    by weight ascending then lexicographic; admissibility is the exact count
    check |W| <= 2**packed_len rather than an asymptotic regime.
    """
    if not 0 <= wmin <= wmax <= ell:
        raise ParameterViolation(f"need 0 <= wmin <= wmax <= ell, got [{wmin}, {wmax}], ell={ell}")
    packed = window_room(n, ell, slack, lambda e: ceil_log(n, 2))
    weights = tuple(range(0, wmin)) + tuple(range(wmax + 1, ell + 1))
    total = count_by_weight(ell, weights)
    if total > 1 << packed:
        raise ParameterViolation(
            f"forbidden-window count {total} exceeds capacity 2**{packed} = {1 << packed}"
        )
    rank, unrank = ranking_by_weight(ell, weights)

    def pack(window: bytes) -> bytes:
        return encode_index(rank(window, window.count(1)), packed, 2)

    def unpack(packed_word: bytes) -> bytes:
        return unrank(decode_field(packed_word, 2, total, "window rank"))

    return WindowCoder(2, ell, packed, _weight_finder(ell, wmin, wmax), pack, unpack)


def minimal_period(window: Sequence[int]) -> int:
    """Smallest p in [1, len) with window[i] == window[i+p] for all i; len if none.

    Shift d is a period iff ``window[d:] == window[:-d]``: one slice compare
    in C per d tried, so about p * len symbol compares for minimal period p
    (len**2 / 2 at most).  A window the mp coder packs has period below its p.
    """
    for d in range(1, len(window)):
        if window[d:] == window[:-d]:
            return d
    return len(window)


def min_period_coder(n: int, ell: int, p: int, slack: int = 0, q: int = 2) -> WindowCoder:
    """Windows with minimal period < p are forbidden (CLI: mp).

    A window with minimal period p' < p is fully determined by its first p'
    symbols; pack stores that seed, a 1 marker, and zero fill, p symbols total.
    """
    if not 1 <= p <= ell:
        raise ParameterViolation(f"need 1 <= p <= ell, got p={p}, ell={ell}")
    check_byte_alphabet(q, "min_period_coder")
    window_room(n, ell, slack, lambda e: ceil_log(n, q) + p)

    # a window has period d iff word[t] == word[t + d] along its first
    # ell - d positions, that is, iff byte t of x ^ (x >> 8*d) is zero there
    # (up to len - d, where x >> 8*d runs out); a period below p needs d < p,
    # so with p = 1 there is no run and no window is flagged
    runs = [(d, bytes(ell - d)) for d in range(1, p)]

    def first_violation(word: bytes) -> int | None:
        length = len(word)
        if length < ell:  # and so no negative end, which find() counts from the back
            return None
        x = int.from_bytes(word, "little")
        first = length  # no window starts there
        for d, run in runs:
            i = (x ^ (x >> 8 * d)).to_bytes(length, "little").find(run, 0, length - d)
            if 0 <= i < first:
                first = i
        return None if first == length else first

    def pack(window: bytes) -> bytes:
        period = minimal_period(window)
        return window[:period] + b"\x01" + bytes(p - period - 1)

    def unpack(packed_word: bytes) -> bytes:
        length = len(packed_word[:p].rstrip(b"\x00"))
        if length < 2 or packed_word[length - 1] != 1:
            raise NotACodeword("packed window lacks a period marker", reason="bad-packing")
        seed = packed_word[: length - 1]
        return (seed * (ell // len(seed) + 1))[:ell]

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
    comp = tuple(range(q)) if comp is None else check_complement(comp, q, "comp")
    check_byte_alphabet(q, "no_palindrome_coder")
    window_room(n, ell, slack, lambda e: ceil_log(n, q) + (e + 1) // 2)
    packed = (ell + 1) // 2

    mirror = symbol_translation(comp)
    complement = None if comp == tuple(range(q)) else mirror
    # window i is a palindrome iff word[i + t] == y[i + ell - 1 - t] for t < half,
    # y the complemented word; an odd window's middle symbol always passes the identity
    half = ell // 2 if complement is None else packed
    # compare blocks of k symbols, the most whose base-q key fits a byte, at starts
    # 0, k, 2k, ... below half; the conditions at t and ell - 1 - t are one, so a
    # block may reach past half, and it stays inside the window
    k = min(ell, next(b for b in range(8, 0, -1) if q**b <= 256))
    # byte p of x * forward keys x[p - k + 1 : p + 1], x[p] heaviest; byte p of
    # y * backward keys the same block with y[p] lightest: no carry, each below q**k
    forward = sum(q ** (k - 1 - s) << 8 * s for s in range(k))
    backward = sum(q**s << 8 * s for s in range(k))
    shifts = [(8 * (b + k - 1), 8 * (ell - 1 - b)) for b in range(0, half, k)]

    def first_violation(word: bytes) -> int | None:
        # byte i of (x * forward >> 8(b+k-1)) ^ (y * backward >> 8(ell-1-b)) is
        # zero iff window i passes the mirrored block at b
        if len(word) < ell:  # and so no negative end, which find() counts from the back
            return None
        x = int.from_bytes(word, "little")
        y = x if complement is None else int.from_bytes(word.translate(complement), "little")
        ahead, behind = x * forward, y * backward
        mismatch = 0
        for to_ahead, to_behind in shifts:
            mismatch |= (ahead >> to_ahead) ^ (behind >> to_behind)
        i = mismatch.to_bytes(len(word), "little").find(0, 0, len(word) - ell + 1)
        return i if i >= 0 else None

    def pack(window: bytes) -> bytes:
        return window[:packed]

    def unpack(packed_word: bytes) -> bytes:
        # symbol i >= packed is comp of symbol ell - 1 - i, which runs down to 0
        return packed_word + packed_word[: ell - packed][::-1].translate(mirror)

    return WindowCoder(q, ell, packed, first_violation, pack, unpack)


def listed_window_coder(
    windows: Sequence[Sequence[int]],
    n: int,
    ell: int,
    q: int = 2,
    slack: int = 0,
) -> WindowCoder:
    """Explicitly listed forbidden windows, compressed by sorted rank.

    The rank takes all the room the window index leaves for word length n.
    """
    check_byte_alphabet(q, "listed_window_coder")
    table = sorted({check_symbols(w, q, ell, what="forbidden window") for w in windows})
    packed = window_room(n, ell, slack, lambda e: ceil_log(n, q))
    if len(table) > q ** packed:
        raise ParameterViolation(f"{len(table)} forbidden windows exceed capacity q**{packed} = {q ** packed}")

    width, weights, reader = window_keys(q, ell)
    read, size = reader(ell)
    listed = frozenset(read((spread_digits(w, width) * weights).to_bytes(size, "little"))[0] for w in table)

    def first_violation(word: bytes) -> int | None:
        read, size = reader(len(word))
        found = read((spread_digits(word, width) * weights).to_bytes(size, "little"))
        return None if listed.isdisjoint(found) else found.index(next(filter(listed.__contains__, found)))

    def pack(window: bytes) -> bytes:
        return encode_index(bisect_left(table, window), packed, q)

    def unpack(packed_word: bytes) -> bytes:
        return table[decode_field(packed_word, q, len(table), "window rank")]

    return WindowCoder(q, ell, packed, first_violation, pack, unpack)


def palindrome_free_member(n: int, q: int, odd: bool, slack: int) -> ShrinkStep:
    """One member of the ``mpl`` row: the shrink step forbidding palindromes of
    length 2*ceil_log(n) + 4, plus one if ``odd``."""
    ell = 2 * ceil_log(n, q) + 4 + odd
    return forbidden_window_shrink(no_palindrome_coder(n, ell, q=q, slack=slack), n, slack)
