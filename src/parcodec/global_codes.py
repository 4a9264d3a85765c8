"""Global constraints: properties of window *pairs* or of the whole word.

One window-pair shrink serves every pair constraint.  It finds the first pair
(i, j) with transform(window at i) == window at j and j >= i + min_gap, cuts
window j out in the cut-window layout of :func:`core.cut_window_shrink` and
appends both indices.  The pair finder (:func:`_pair_finder`) keys every
window once as an ell-byte slice of ``bytes(word)`` (so q <= 256), builds
the transformed source keys by transforming the whole word once and slicing
it (per window only for per-position symbol tables), answers "no pair" with
one set test and only then searches for the minimal (i, j): n slices and
hashes done in C, plus O(n) dictionary work.  The public builders only
choose the transform, the minimum gap and how an overlapping window is
regrown:

* :func:`repeat_free_shrink` (CLI: rf/srf) - no length-ell window may recur,
  optionally after a per-position symbol substitution (gap 1; overlapping
  repeats are regrown symbol by symbol).
* :func:`reverse_complement_shrink` (CLI: rss) - no two non-overlapping
  windows may be reverse complements of each other (gap ell).
* :func:`build_secondary_structure` (CLI: ss) - reverse-complement pairs
  forbidden at *every* offset, overlapping included, by intersecting the
  non-overlapping shrink with a reverse-complement-palindrome window coder.
* :func:`build_almost_balanced` (CLI: ab) - total Hamming weight confined to
  [n/2 - sqrt(n), n/2 + sqrt(n)], via exact enumerative ranking of the
  too-light and too-heavy words.  All threshold arithmetic is exact integer
  work; no floating point enters codec semantics.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
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
from .local import forbidden_window_shrink, no_palindrome_coder
from .ranking import count_by_weight, rank_by_weight, unrank_by_weight
from .words import Word, check_byte_alphabet

# DNA alphabet is A=0, C=1, G=2, T=3; complement swaps A<->T and C<->G.
DNA_COMPLEMENT: tuple[int, ...] = (3, 2, 1, 0)


def reverse_complement(word: Word, comp: Sequence[int] = DNA_COMPLEMENT) -> Word:
    return tuple(comp[s] for s in reversed(word))


def _normalize_symbol_map(
    symbol_map: Sequence[Sequence[int]] | Sequence[int] | None, ell: int, q: int
) -> tuple[tuple[int, ...], ...] | None:
    """Expand a symbol map to one table per window position; None means identity."""
    if symbol_map is None:
        return None
    tables = list(symbol_map)
    if tables and isinstance(tables[0], int):
        tables = [tuple(symbol_map)] * ell  # one table applied at every position
    if len(tables) != ell:
        raise ParameterViolation(f"need one symbol table per window position ({ell}), got {len(tables)}")
    out = []
    for table in tables:
        table = tuple(table)
        if len(table) != q or any(not 0 <= s < q for s in table):
            raise ParameterViolation(f"symbol table {table} is not a map on [0, {q})")
        out.append(table)
    return tuple(out)


# source_keys(bytes(word), window slices) -> bytes key of transform(window i), for every i
_SourceKeys = Callable[[bytes, tuple], list]


def _symbol_translation(table: Sequence[int]) -> bytes:
    """A bytes.translate table applying a symbol map on [0, len(table))."""
    return bytes(table) + bytes(256 - len(table))


def _symbol_map_keys(tables: tuple[tuple[int, ...], ...]) -> _SourceKeys:
    """Source keys of a per-position symbol map (one table per window position)."""
    if len(set(tables)) == 1:
        # one table: map the whole word once, then slice it
        translation = _symbol_translation(tables[0])
        return lambda b, cuts: list(map(b.translate(translation).__getitem__, cuts))
    return lambda b, cuts: [bytes(t[s] for t, s in zip(tables, b[cut])) for cut in cuts]


def _reverse_complement_keys(comp: tuple[int, ...]) -> _SourceKeys:
    """Source keys of the reverse complement: window k of the reverse-complemented
    word is the reverse complement of window count - 1 - k of the word."""
    translation = _symbol_translation(comp)

    def keys(b: bytes, cuts: tuple) -> list:
        mirrored = b.translate(translation)[::-1]
        return list(map(mirrored.__getitem__, cuts))[::-1]

    return keys


@lru_cache(maxsize=64)
def _window_cuts(n: int, ell: int) -> tuple[slice, ...]:
    """The slices of every length-ell window of an n-word, made once per (n, ell)."""
    return tuple(map(slice, range(n - ell + 1), range(ell, n + 1)))


def _pair_finder(ell: int, min_gap: int, source_keys: _SourceKeys | None):
    """Finder of the minimal (i, j), i ordered first, with transform(window at i)
    == window at j and j >= i + min_gap; None when no such pair exists.

    Every window is keyed once as a slice of ``bytes(word)``; a None
    ``source_keys`` is the identity, whose sources are those same keys.
    """

    def find(word: Word) -> tuple[int, int] | None:
        count = len(word) - ell + 1
        if count < 2:
            return None
        b = bytes(word)
        cuts = _window_cuts(len(word), ell)
        keys = list(map(b.__getitem__, cuts))
        targets = set(keys)
        if source_keys is None:
            if len(targets) == count:
                return None
            sources = keys
        else:
            sources = source_keys(b, cuts)
            if targets.isdisjoint(sources):
                return None
        last = dict(zip(keys, range(count)))
        for i, key in enumerate(sources):
            if last.get(key, -1) >= i + min_gap:
                return i, keys.index(key, i + min_gap)
        return None

    return find


def _window_pair_shrink(
    n: int, ell: int, q: int, slack: int, min_gap: int, regrow,
    source_keys: _SourceKeys | None,
) -> ShrinkStep:
    """The one window-pair shrink: cut window j of the first pair, append i and j.

    ``source_keys`` is the transform on bytes keys, None for the identity.
    The inverse accepts only i + min_gap <= j <= n - ell.  A removed window
    that did not overlap its match is ``source_keys`` of the window at i, an
    overlapping one (possible only when min_gap < ell) regrow(rest, i, j).
    """
    index_width = ceil_log(n, q)
    if ell < 2 * index_width + 1 + slack:
        raise ParameterViolation(
            f"window length {ell} below bound 2*ceil_log(n) + 1 + slack "
            f"= {2 * index_width + 1 + slack}"
        )
    if ell > n:
        raise ParameterViolation(f"window length {ell} exceeds word length {n}")

    def cut(word: Word, pair: tuple[int, int]) -> tuple[int, Word]:
        i, j = pair
        return j, encode_index(i, index_width, q) + encode_index(j, index_width, q)

    def restore(rest: Word, tail: Word) -> tuple[int, Word]:
        i = decode_index(tail[:index_width], q)
        j = decode_index(tail[index_width:], q)
        if not i + min_gap <= j <= n - ell:
            raise NotACodeword(f"index pair ({i}, {j}) out of range")
        if j < i + ell:
            return j, regrow(rest, i, j)
        source = rest[i : i + ell]
        return j, source if source_keys is None else tuple(source_keys(bytes(source), (slice(None),))[0])

    return cut_window_shrink(
        q, n, ell, slack, 2 * index_width, _pair_finder(ell, min_gap, source_keys), cut, restore,
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
    pair and appends both indices; the inverse either copies the surviving
    window (no overlap) or regrows the removed one symbol by symbol, since an
    overlapping match forces a (j - i)-periodic structure.
    """
    check_byte_alphabet(q, "a window-pair constraint")
    tables = _normalize_symbol_map(symbol_map, ell, q)
    source_keys = None if tables is None else _symbol_map_keys(tables)

    def regrow(rest: Word, i: int, j: int) -> Word:
        # the removed window overlapped its match: regrow left to right,
        # reading already-regrown symbols once the source runs past j
        grown: list[int] = []
        for t in range(ell):
            src = rest[i + t] if i + t < j else grown[i + t - j]
            grown.append(src if tables is None else tables[t][src])
        return tuple(grown)

    return _window_pair_shrink(n, ell, q, slack, 1, regrow, source_keys)


def reverse_complement_shrink(
    n: int, ell: int, comp: Sequence[int] = DNA_COMPLEMENT, slack: int = 0
) -> ShrinkStep:
    """No window may be the reverse complement of an earlier, non-overlapping one.

    Reverse complement is not symbolwise (it reverses), so only pairs with
    j >= i + ell are covered here; :func:`build_secondary_structure` adds the
    overlapping case.  Any self-inverse symbol complement is accepted.
    """
    comp = tuple(comp)
    q = len(comp)
    if any(comp[comp[s]] != s for s in range(q)):
        raise ParameterViolation(f"complement table {comp} is not self-inverse")
    check_byte_alphabet(q, "a window-pair constraint")
    return _window_pair_shrink(n, ell, q, slack, ell, None, _reverse_complement_keys(comp))


def build_secondary_structure(n: int, comp: Sequence[int] = DNA_COMPLEMENT) -> CodecSpec:
    """Codec over q=4 forbidding reverse-complement window pairs at any offset (CLI: ss).

    Windows have length 2*ceil_log4(n) + 2.  An overlapping reverse-complement
    pair forces a reverse-complement palindrome of length 2*floor(ell/2) + 2
    inside the word, so intersecting the non-overlapping shrink with a
    no-palindrome coder of that length covers every offset.
    """
    comp = tuple(comp)
    q = len(comp)
    ell = 2 * ceil_log(n, q) + 2
    palindrome_len = 2 * (ell // 2) + 2
    members = [
        reverse_complement_shrink(n, ell, comp, slack=1),
        forbidden_window_shrink(
            no_palindrome_coder(n, palindrome_len, comp=comp, q=q, slack=1), n, slack=1
        ),
    ]
    return build_one_symbol(build_intersection(members))


def count_weight_at_most(n: int, wmax: int) -> int:
    """Number of binary n-words with Hamming weight <= wmax, exactly."""
    return count_by_weight(n, range(min(wmax, n) + 1))


def rank_weight_at_most(word: Word, wmax: int) -> int:
    """Rank of a binary word among weight-<=wmax words (weight asc, then lex)."""
    return rank_by_weight(word, range(wmax + 1))


def unrank_weight_at_most(rank: int, n: int, wmax: int) -> Word:
    return unrank_by_weight(rank, n, range(wmax + 1))


_FLIP_BITS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _complement_bits(word: Word) -> Word:
    return tuple(bytes(word).translate(_FLIP_BITS))


def min_balanced_weight(n: int) -> int:
    """Smallest integer weight w with w >= n/2 - sqrt(n), exactly.

    w >= n/2 - sqrt(n) iff n - 2w <= 0 or (n - 2w)**2 <= 4n, so the
    threshold is ceil((n - isqrt(4n)) / 2); no floating point involved.
    """
    return (n - isqrt(4 * n) + 1) // 2


def almost_balanced_shrink_pair(n: int) -> tuple[ShrinkStep, ShrinkStep]:
    """Shrink steps for the two halves of the almost-balanced constraint.

    The first handles too-light words (weight <= w_star, the heaviest weight
    below n/2 - sqrt(n)) by encoding their enumerative rank in n-2 bits; the
    second handles too-heavy words (n - weight <= w_star) by ranking the
    bitwise complement.  The witness is that weight.  Both carry slack 1 so
    they can be intersected with a one-bit tag.  The n-2-bit capacity is
    checked by exact counting at build time, not assumed.
    """
    if n <= 4:
        raise ParameterViolation(f"almost-balanced constraint needs n > 4, got {n}")
    w_star = min_balanced_weight(n) - 1
    count = count_weight_at_most(n, w_star)
    capacity = 1 << (n - 2)
    if count > capacity:
        raise ParameterViolation(
            f"{count} words of weight <= {w_star} exceed 2**(n-2) = {capacity}"
        )

    def violating(weight: int) -> int | None:
        return weight if weight <= w_star else None

    def cut_light(word: Word, weight: int) -> Word:
        return encode_index(rank_weight_at_most(word, w_star), n - 2, 2)

    def unshrink_light(word: Word) -> Word:
        rank = decode_index(word, 2)
        if rank >= count:
            raise NotACodeword(f"rank {rank} out of range ({count} light words)")
        return unrank_weight_at_most(rank, n, w_star)

    def cut_heavy(word: Word, weight: int) -> Word:
        return cut_light(_complement_bits(word), weight)

    def unshrink_heavy(word: Word) -> Word:
        return _complement_bits(unshrink_light(word))

    weight_floor = ShrinkStep(
        q=2, n=n, slack=1, first_violation=lambda word: violating(sum(word)),
        cut=cut_light, unshrink=unshrink_light,
    )
    weight_ceiling = ShrinkStep(
        q=2, n=n, slack=1, first_violation=lambda word: violating(n - sum(word)),
        cut=cut_heavy, unshrink=unshrink_heavy,
    )
    return weight_floor, weight_ceiling


def build_almost_balanced(n: int) -> CodecSpec:
    """Codec whose outputs have weight in [n/2 - sqrt(n), n/2 + sqrt(n)] (CLI: ab)."""
    return build_one_symbol(build_intersection(almost_balanced_shrink_pair(n)))
