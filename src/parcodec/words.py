"""Words over a size-q integer alphabet, plus the text formats the CLI speaks.

A word has two forms.  Inside the engine it is ``bytes``, one byte per
symbol in ``[0, q)``, so q is at most 256; every finder, step and field works
on that form.  At the public boundary it is a ``tuple[int, ...]`` (``Word``):
:func:`check_word`, :func:`all_words`, :func:`text_to_word` and
:func:`word_to_text` speak tuples.  Alphabet size and expected length travel
with the codec objects, so validation happens at operation boundaries
rather than per value.

The boundary functions test and convert a whole word with C-level ``bytes``
operations (``bytearray()``, ``translate``, ``decode``).  The symbol check
is one body, :func:`checked_raw`, with an engine view :func:`check_symbols`
and a tuple view :func:`check_word`.  Only input the fast test rejects
reaches a per-symbol Python loop, which names the first bad symbol or
character.  The CLI reads a block of lines through :data:`TEXT_TO_SYMBOL`
and writes one through :data:`SYMBOL_TO_TEXT`; a lone line goes through
:func:`text_symbols` and :func:`check_symbols`.
:data:`DIGITS` spells a symbol as one digit, for index fields and DOT names.
Symbol maps (substitution tables and complements) are validated here too,
and turned into ``translate`` tables.  The window finders' one digit layout,
:func:`window_keys`, lives here too, with its per-length key reader; it
refuses a key of ``ell * ceil(log2 q)`` bits above :data:`MAX_KEY_BITS`, so
every pair finder and :func:`local.listed_window_coder` refuses one too.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import index
from struct import Struct
from typing import Callable, Iterator, Sequence

from .errors import DimensionMismatch, ParameterViolation, ParseError

Word = tuple[int, ...]

# Text formats: one word per line. "bits" is ASCII 0/1 (q=2), "dna" maps
# A,C,G,T to 0,1,2,3 (q=4).
FORMAT_ALPHABETS = {"bits": "01", "dna": "ACGT"}
FORMAT_Q = {fmt: len(alphabet) for fmt, alphabet in FORMAT_ALPHABETS.items()}

_BYTE_VALUES = bytes(range(256))
# the symbols [0, q) of each alphabet that fits a byte: translate(None, ...) deletes them
_SYMBOLS = {q: _BYTE_VALUES[:q] for q in range(1, 257)}
NOT_A_SYMBOL = 0xFF  # text byte outside the format's alphabet; every format has q < 255
TEXT_TO_SYMBOL = {
    fmt: bytes(alphabet.index(chr(b)) if chr(b) in alphabet else NOT_A_SYMBOL for b in range(256))
    for fmt, alphabet in FORMAT_ALPHABETS.items()
}
# Symbols outside the alphabet map to a non-ASCII byte, so decode("ascii") rejects them.
SYMBOL_TO_TEXT = {
    fmt: alphabet.encode("ascii") + b"\x80" * (256 - len(alphabet))
    for fmt, alphabet in FORMAT_ALPHABETS.items()
}
# Symbol s as the digit int() reads in any base up to 36; a larger symbol is "!", which int() refuses.
DIGITS = b"0123456789abcdefghijklmnopqrstuvwxyz".ljust(256, b"!")


def _is_symbol(s, q: int) -> bool:
    try:
        return 0 <= index(s) < q
    except TypeError:
        return False


def checked_raw(word: Sequence[int], q: int, length: int | None, what: str) -> bytes | bytearray | Word:
    """The one symbol check: DimensionMismatch unless ``word`` has ``length``
    symbols (if given), each an integer (``int``, ``bool`` or any type with
    ``__index__``) in ``[0, q)``.  Returns them unconverted: a ``bytes`` word
    as is, any other as a new ``bytearray`` (plain ints if q is outside [1, 256]).
    """
    if length is not None and len(word) != length:
        raise DimensionMismatch(f"{what} has length {len(word)}, expected {length}")
    symbols = word if type(word) is bytes else tuple(word)  # bytearray() never sees a buffer
    try:
        raw = symbols if type(symbols) is bytes else bytearray(symbols)
        if not raw.translate(None, _SYMBOLS[q]):
            return raw
    except (TypeError, ValueError, KeyError):
        pass  # a non-integer, an integer outside [0, 256), or q outside [1, 256]
    for s in symbols:
        if not _is_symbol(s, q):
            raise DimensionMismatch(f"{what} contains symbol {s!r} outside alphabet [0, {q})")
    return tuple(map(index, symbols))


def check_word(word: Sequence[int], q: int, length: int | None = None, what: str = "word") -> Word:
    """:func:`checked_raw`'s tuple view: a tuple as is, any other word as plain ints."""
    raw = checked_raw(word, q, length, what)
    return word if type(word) is tuple else tuple(raw)


def check_symbols(word: Sequence[int], q: int, length: int | None = None, what: str = "word") -> bytes:
    """:func:`checked_raw`'s engine view, ``bytes``: a ``bytes`` word as is.

    A symbol must also fit one byte, which matters only when q > 256.
    """
    raw = checked_raw(word, q, length, what)
    try:
        return bytes(raw)  # no copy for bytes
    except ValueError:
        raise DimensionMismatch(f"{what} has a symbol that does not fit one byte") from None


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


def spread_digits(word: bytes, width: int) -> int:
    """The word as one integer, symbol t in digit t of ``width`` little-endian bytes.

    Times sum(c_s << 8*width*s for s < ell), digit i + ell - 1 holds window i's
    sum(c_s * word[i + ell - 1 - s]), with no carry while that fits a digit.
    """
    if width > 1:
        digits = bytearray(len(word) * width)
        digits[::width] = word
        word = digits
    return int.from_bytes(word, "little")


MAX_KEY_BITS = 2048  # keying a window of l symbols takes time growing as the square of its bits


def window_keys(q: int, ell: int) -> tuple[int, int, Callable[[int], tuple]]:
    """(width, weights, reader) keying every length-ell window by its base-q value.

    A digit is the fewest of 1, 2, 4 or 8 bytes, or more past 2**64, holding
    q**ell values.  ``read, size = reader(length)`` reads windows 0 to
    length - ell from ``spread_digits(word, width) * weights``, or any product
    so laid out, as ``read(product.to_bytes(size, "little"))``: machine
    integers, or ``width``-byte strings past 8 bytes; ``reader`` keeps 8 lengths.
    ParameterViolation refuses a key of ``ell * ceil(log2 q)`` bits above
    :data:`MAX_KEY_BITS` before any power of q is taken.
    """
    if (bits := ell * (q - 1).bit_length()) > MAX_KEY_BITS:
        raise ParameterViolation(
            f"window key of l * ceil(log2 q) = {bits} bits exceeds MAX_KEY_BITS = {MAX_KEY_BITS}"
        )
    bits = (q**ell - 1).bit_length()
    width = next((w for w in (1, 2, 4, 8) if 8 * w >= bits), (bits + 7) // 8)
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width)

    @lru_cache(maxsize=8)
    def reader(length: int) -> tuple[Callable[[bytes], tuple], int]:
        count = max(length - ell + 1, 0)
        keys = f"{count}{code}" if code else f"{width}s" * count
        return Struct(f"<{(ell - 1) * width}x{keys}").unpack_from, (length + ell - 1) * width

    return width, sum(q**s << 8 * width * s for s in range(ell)), reader


def all_words(q: int, n: int) -> Iterator[Word]:
    """All q^n words of length n in lexicographic order."""
    return product(range(q), repeat=n)


def word_to_text(word: Sequence[int], fmt: str) -> str:
    table = SYMBOL_TO_TEXT[fmt]
    try:
        return bytearray(tuple(word)).translate(table).decode("ascii")
    except (TypeError, ValueError):  # UnicodeDecodeError is a ValueError
        raise DimensionMismatch(f"word {word} not representable in format {fmt!r}") from None


def text_to_word(text: str, fmt: str) -> Word:
    return tuple(text_symbols(text, fmt))


def text_symbols(text: str, fmt: str) -> bytes:
    """The engine word a line of text in format ``fmt`` spells; ParseError names a bad character."""
    if text.isascii():
        raw = text.encode("ascii").translate(TEXT_TO_SYMBOL[fmt])
        if NOT_A_SYMBOL not in raw:
            return raw
    bad = next(ch for ch in text if ch not in FORMAT_ALPHABETS[fmt])
    raise ParseError(f"character {bad!r} is not valid in format {fmt!r}")
