"""Words over a size-q integer alphabet, plus the text formats the CLI speaks.

A word is a plain ``tuple[int, ...]`` with every symbol in ``[0, q)``.
Alphabet size and expected length travel with the codec objects, so
validation happens at operation boundaries rather than per value.

The three boundary functions test and convert a whole word with C-level
``bytes`` operations (``bytearray()``, ``translate``, ``decode``).  Only
input the fast test rejects reaches a per-symbol Python loop, which names
the first bad symbol or character.  Symbol maps (substitution tables and
complements) are validated here too, and turned into ``translate`` tables.
"""

from __future__ import annotations

from itertools import product
from operator import index
from typing import Iterator, Sequence

from .errors import DimensionMismatch, ParameterViolation, ParseError

Word = tuple[int, ...]

# Text formats: one word per line. "bits" is ASCII 0/1 (q=2), "dna" maps
# A,C,G,T to 0,1,2,3 (q=4).
FORMAT_ALPHABETS = {"bits": "01", "dna": "ACGT"}
FORMAT_Q = {"bits": 2, "dna": 4}

_BYTE_VALUES = bytes(range(256))
_NOT_A_SYMBOL = 0xFF  # text byte outside the format's alphabet; every format has q < 255
_TEXT_TO_SYMBOL = {
    fmt: bytes(alphabet.index(chr(b)) if chr(b) in alphabet else _NOT_A_SYMBOL for b in range(256))
    for fmt, alphabet in FORMAT_ALPHABETS.items()
}
# Symbols outside the alphabet map to a non-ASCII byte, so decode("ascii") rejects them.
_SYMBOL_TO_TEXT = {
    fmt: alphabet.encode("ascii") + b"\x80" * (256 - len(alphabet))
    for fmt, alphabet in FORMAT_ALPHABETS.items()
}


def _is_symbol(s, q: int) -> bool:
    try:
        return 0 <= index(s) < q
    except TypeError:
        return False


def check_word(word: Sequence[int], q: int, length: int | None = None, what: str = "word") -> Word:
    """Validate symbol range and (optionally) length; raise DimensionMismatch.

    A symbol is valid iff it is an integer (``int``, ``bool`` or any type
    with ``__index__``) in ``[0, q)``.  Returns the word as a tuple: a tuple
    comes back as is, any other sequence as a new tuple of plain ints.
    """
    if length is not None and len(word) != length:
        raise DimensionMismatch(f"{what} has length {len(word)}, expected {length}")
    symbols = tuple(word)  # no copy for a tuple, and bytearray() never sees a buffer
    try:
        raw = bytearray(symbols)
        if q > 0 and not raw.translate(None, _BYTE_VALUES[:q]):
            return symbols if symbols is word else tuple(raw)
    except (TypeError, ValueError):
        pass  # a non-integer, or an integer outside [0, 256)
    for s in symbols:
        if not _is_symbol(s, q):
            raise DimensionMismatch(f"{what} contains symbol {s!r} outside alphabet [0, {q})")
    return symbols if symbols is word else tuple(map(index, symbols))


def check_byte_alphabet(q: int, what: str) -> None:
    """Raise ParameterViolation unless every symbol fits one byte (q <= 256)."""
    if q > 256:
        raise ParameterViolation(f"{what} reads words as bytes, so needs q <= 256, got {q}")


def check_symbol_map(table: Sequence[int], q: int, what: str) -> Word:
    """The table as a tuple of ints; ParameterViolation unless it maps [0, q) into [0, q)."""
    table = tuple(table)
    if len(table) != q or not all(_is_symbol(s, q) for s in table):
        raise ParameterViolation(f"{what} {table} is not a map on [0, {q})")
    return tuple(map(index, table))


def check_complement(comp: Sequence[int], q: int, what: str) -> Word:
    """:func:`check_symbol_map`, then ParameterViolation unless the map is self-inverse."""
    comp = check_symbol_map(comp, q, what)
    if any(comp[c] != s for s, c in enumerate(comp)):
        raise ParameterViolation(f"{what} {comp} is not self-inverse")
    return comp


def symbol_translation(table: Sequence[int]) -> bytes:
    """A ``bytes.translate`` table applying a symbol map on [0, len(table))."""
    return bytes(table) + bytes(256 - len(table))


def all_words(q: int, n: int) -> Iterator[Word]:
    """All q^n words of length n in lexicographic order."""
    return product(range(q), repeat=n)


def word_to_text(word: Sequence[int], fmt: str) -> str:
    table = _SYMBOL_TO_TEXT[fmt]
    try:
        return bytearray(tuple(word)).translate(table).decode("ascii")
    except (TypeError, ValueError):  # UnicodeDecodeError is a ValueError
        raise DimensionMismatch(f"word {word} not representable in format {fmt!r}") from None


def text_to_word(text: str, fmt: str) -> Word:
    alphabet = FORMAT_ALPHABETS[fmt]
    if text.isascii():
        raw = text.encode("ascii").translate(_TEXT_TO_SYMBOL[fmt])
        if _NOT_A_SYMBOL not in raw:
            return tuple(raw)
    symbols = []
    for ch in text:
        idx = alphabet.find(ch)
        if idx < 0:
            raise ParseError(f"character {ch!r} is not valid in format {fmt!r}")
        symbols.append(idx)
    return tuple(symbols)
