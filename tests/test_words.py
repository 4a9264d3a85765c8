"""Word validation and text conversion, checked against plain reference loops."""

import random
from itertools import product
from operator import index

import pytest

from parcodec import DimensionMismatch, ParseError
from parcodec.words import (
    FORMAT_ALPHABETS,
    FORMAT_Q,
    check_symbols,
    check_word,
    text_symbols,
    text_to_word,
    word_to_text,
)


def reference_first_bad_position(word, q):
    """Position of the first symbol that is not an integer in [0, q), or None."""
    for position, s in enumerate(word):
        try:
            if 0 <= index(s) < q:
                continue
        except TypeError:
            pass
        return position
    return None


def reference_text_to_word(text, fmt):
    alphabet = FORMAT_ALPHABETS[fmt]
    symbols = []
    for ch in text:
        if ch not in alphabet:
            raise ParseError(f"character {ch!r} is not valid in format {fmt!r}")
        symbols.append(alphabet.index(ch))
    return tuple(symbols)


def reference_word_to_text(word, fmt):
    alphabet = FORMAT_ALPHABETS[fmt]
    if reference_first_bad_position(word, len(alphabet)) is not None:
        raise DimensionMismatch(f"word {word} not representable in format {fmt!r}")
    return "".join(alphabet[index(s)] for s in word)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (DimensionMismatch, ParseError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("q", [2, 4, 300])
def test_check_word_matches_reference_loop(q):
    numpy = pytest.importorskip("numpy")
    symbols = [-1, 0, 1, 2, 3, 4, 255, 256, True, 1.0, "0", None, numpy.int64(1)]
    for n in range(4):
        for word in product(symbols, repeat=n):
            bad = reference_first_bad_position(word, q)
            if bad is None:
                assert check_word(word, q, n) is word
                as_list = check_word(list(word), q, n)
                assert type(as_list) is tuple and as_list == tuple(map(index, word))
                assert all(type(s) is int for s in as_list)
            else:
                with pytest.raises(DimensionMismatch) as err:
                    check_word(word, q, n)
                assert str(err.value) == f"word contains symbol {word[bad]!r} outside alphabet [0, {q})"


def test_check_word_length_and_label():
    with pytest.raises(DimensionMismatch, match="payload has length 2, expected 3"):
        check_word((0, 1), 2, 3, what="payload")
    with pytest.raises(DimensionMismatch, match="codeword contains symbol 2 "):
        check_word((0, 2), 2, what="codeword")


def test_check_word_reads_symbols_not_memory():
    numpy = pytest.importorskip("numpy")
    # bytes() of an int64 array would read its 8-byte cells, 0/1 bytes only
    assert check_word(numpy.array([0, 1, 1], dtype=numpy.int64), 2, 3) == (0, 1, 1)
    assert check_word(numpy.array([255], dtype=numpy.uint8), 256) == (255,)
    with pytest.raises(DimensionMismatch, match="symbol np.int8\\(-1\\) outside"):
        check_word(numpy.array([-1], dtype=numpy.int8), 300)
    with pytest.raises(DimensionMismatch, match="symbol np.int64\\(256\\) outside"):
        check_word(numpy.array([256], dtype=numpy.int64), 2)


def test_check_word_nonpositive_q_accepts_no_symbol():
    for q in (0, -1, -250):
        with pytest.raises(DimensionMismatch, match="symbol 0 outside"):
            check_word((0,), q)
        assert check_word((), q) == ()


@pytest.mark.parametrize("q", [2, 4, 300])
def test_check_symbols_matches_reference_loop(q):
    # at q = 300, (0, 255) is b"\x00\xff" and (0, 256) does not fit the engine's bytes
    symbols = [-1, 0, 1, 3, 255, 256, True, 1.0, None]
    for n in range(4):
        for word in product(symbols, repeat=n):
            bad = reference_first_bad_position(word, q)
            if bad is not None:
                with pytest.raises(DimensionMismatch, match="outside alphabet"):
                    check_symbols(list(word), q, n)
            elif all(index(s) < 256 for s in word):
                engine = bytes(map(index, word))
                assert check_symbols(list(word), q, n) == engine
                assert check_symbols(engine, q, n) == engine
                if q <= 256:
                    assert check_symbols(engine, q, n) is engine
            else:
                with pytest.raises(DimensionMismatch, match="^word has a symbol that does not fit one byte$"):
                    check_symbols(word, q, n)


@pytest.mark.parametrize("fmt", sorted(FORMAT_ALPHABETS))
def test_format_alphabet_is_exactly_the_symbols_below_q(fmt):
    # the CLI accepts a line by its length and its translation alone, with no symbol range scan
    alphabet, q = FORMAT_ALPHABETS[fmt], FORMAT_Q[fmt]
    assert FORMAT_Q.keys() == FORMAT_ALPHABETS.keys()
    assert len(alphabet) == q
    assert text_symbols(alphabet, fmt) == bytes(range(q))


@pytest.mark.parametrize("fmt", ["bits", "dna"])
def test_text_to_word_matches_reference_loop(fmt):
    for n in range(4):
        for chars in product("01ACGTacgx é\x00", repeat=n):
            text = "".join(chars)
            assert _outcome(text_to_word, text, fmt) == _outcome(reference_text_to_word, text, fmt)


def test_text_to_word_matches_reference_on_every_code_point_below_256():
    for fmt, alphabet in FORMAT_ALPHABETS.items():
        for code in range(256):
            for text in (chr(code), alphabet * 3 + chr(code)):
                assert _outcome(text_to_word, text, fmt) == _outcome(reference_text_to_word, text, fmt)


@pytest.mark.parametrize("fmt", ["bits", "dna"])
def test_word_to_text_matches_reference_loop(fmt):
    symbols = [-4, -1, 0, 1, 2, 3, 4, 255, 256, True, 1.0, None]
    for n in range(4):
        for word in product(symbols, repeat=n):
            assert _outcome(word_to_text, word, fmt) == _outcome(reference_word_to_text, word, fmt)


def test_word_to_text_rejects_negative_symbols():
    with pytest.raises(DimensionMismatch, match="not representable in format 'bits'"):
        word_to_text((0, -1), "bits")
    with pytest.raises(DimensionMismatch, match="not representable in format 'dna'"):
        word_to_text((-4, -1), "dna")


def test_word_to_text_reads_symbols_not_memory():
    numpy = pytest.importorskip("numpy")
    assert word_to_text(numpy.array([0, 1, 1], dtype=numpy.int64), "bits") == "011"
    assert word_to_text([3, 2, 1, 0], "dna") == "TGCA"


@pytest.mark.parametrize("fmt", ["bits", "dna"])
def test_word_to_text_inverts_text_to_word(fmt):
    rng = random.Random(401)
    q = len(FORMAT_ALPHABETS[fmt])
    for n in list(range(9)) + [63, 64, 255, 256, 1023, 1024]:
        for _ in range(8):
            word = tuple(rng.randrange(q) for _ in range(n))
            text = word_to_text(word, fmt)
            assert text == reference_word_to_text(word, fmt)
            assert text_to_word(text, fmt) == word
