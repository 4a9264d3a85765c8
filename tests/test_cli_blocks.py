"""The CLI reads its input a block of lines at a time.

``encode``, ``decode`` and ``check`` read ``cli.CHUNK`` characters at a time
and answer each run of complete lines as one block, falling back to line by
line for a run with anything but bare words in it.  Whatever the read
boundaries, the exit code, the output and the error text must be what a
line-by-line reading gives.  The reference here reads line by line through
the public library alone (``build_codec``, ``encode``, ``decode``,
``satisfies`` and the word checks), never through ``cli.py``.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from parcodec import DimensionMismatch, NotACodeword, ParseError, build_codec, decode, encode, parse_spec
from parcodec import cli
from parcodec.cli import LINE_ROOM
from parcodec.words import FORMAT_ALPHABETS, check_word, text_to_word, word_to_text

FORMATS = {"bits": ("mw:n=16,l=9,p=2", 2), "dna": ("ss:n=16", 4)}
CODECS = {fmt: build_codec(parse_spec(spec), q) for fmt, (spec, q) in FORMATS.items()}
WHAT = {"encode": "payload", "decode": "codeword", "check": "word"}


def _width(command: str, fmt: str) -> int:
    codec = CODECS[fmt]
    return codec.k if command == "encode" else codec.n


def _answer(command: str, fmt: str, raw: str) -> str | None:
    """The output line for input line ``raw``, or None for a skipped line; a
    refused line raises ValueError with the message the CLI gives it."""
    codec, what, width = CODECS[fmt], WHAT[command], _width(command, fmt)
    if not raw.isascii():
        raise ValueError("input is not ASCII text")
    line = raw.strip()
    if not line or line[0] == "#":
        return None
    limit = width + LINE_ROOM
    if len(raw) > limit:
        raise ValueError(f"line longer than {limit} characters, expected a {what} of {width} symbols")
    try:
        word = check_word(text_to_word(line, fmt), codec.q, width, what)
        if command == "check":
            return "1" if codec.satisfies(bytes(word)) else "0"
        return word_to_text(encode(codec, word)[0] if command == "encode" else decode(codec, word), fmt)
    except (ParseError, DimensionMismatch) as exc:
        raise ValueError(str(exc)) from None
    except NotACodeword as exc:
        raise ValueError(f"not a codeword ({exc.reason}: {exc})") from None


def _reference(command: str, fmt: str, text: str) -> tuple[int, str, str]:
    """(exit code, standard output, standard error) of ``command`` on the
    stream text ``text``, newlines already as the stream reads them."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the text ends with a newline, or is empty
    answers = []
    for lineno, raw in enumerate(lines, 1):
        try:
            answer = _answer(command, fmt, raw)
        except ValueError as exc:
            return 1, "", f"error: line {lineno}: {exc}\n"
        if answer is not None:
            answers.append(answer + "\n")
    return 0, "".join(answers), ""


def _run(argv, stdin: str = "") -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", io.StringIO(stdin))
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(command: str, fmt: str, source: str) -> list[str]:
    spec, q = FORMATS[fmt]
    return [command, "--spec", spec, "--q", str(q), "--format", fmt, "--input", source]


@st.composite
def _word(draw, command, fmt):
    """A word the command accepts, or for decode mostly a codeword."""
    codec, alphabet = CODECS[fmt], FORMAT_ALPHABETS[fmt]
    # mostly the first symbol, so that some payloads take steps
    symbols = st.sampled_from(range(codec.q)) | st.just(0)
    payload = tuple(draw(st.lists(symbols, min_size=codec.k, max_size=codec.k)))
    if command == "encode":
        return word_to_text(payload, fmt)
    if command == "decode" or draw(st.booleans()):
        return word_to_text(encode(codec, payload)[0], fmt)
    return "".join(draw(st.lists(st.sampled_from(alphabet), min_size=codec.n, max_size=codec.n)))


@st.composite
def _bad_line(draw, command, fmt):
    """One line the command refuses, or may refuse."""
    word, width = draw(_word(command, fmt)), _width(command, fmt)
    kind = draw(st.sampled_from(("character", "short", "long", "ascii", "overlong", "non-codeword")))
    at = draw(st.integers(0, len(word) - 1))
    if kind == "character":
        return word[:at] + draw(st.sampled_from("2NXa-.\t\x0b\x1c")) + word[at + 1:]
    if kind == "short":
        return word[:at]
    if kind == "long":
        return word + word[:at + 1]
    if kind == "ascii":  # in a word, or far into a long data or comment line
        ch = draw(st.sampled_from("\u00e9\u00a0\u2028"))
        head = draw(st.sampled_from((word[:at], word + " " * 2 * LINE_ROOM, "#" + "c" * 2 * LINE_ROOM)))
        return head + ch + word[at + 1:]
    if kind == "overlong":  # some fall just short of the limit, and are read as usual
        pad = " " * draw(st.integers(LINE_ROOM - 8, LINE_ROOM + 16) | st.integers(LINE_ROOM, 2 * LINE_ROOM))
        return draw(st.sampled_from(("", " " * LINE_ROOM))) + word + pad
    alphabet = FORMAT_ALPHABETS[fmt]
    return "".join(draw(st.lists(st.sampled_from(alphabet), min_size=width, max_size=width)))


@st.composite
def _stream(draw):
    """(command, format, text as written, chunk size)."""
    command = draw(st.sampled_from(sorted(WHAT)))
    fmt = draw(st.sampled_from(sorted(FORMATS)))
    pads = st.sampled_from(("", " ", "\t", "  \t"))
    line = st.one_of(
        _word(command, fmt),
        st.builds(lambda a, w, b: a + w + b, pads, _word(command, fmt), pads),
        st.builds(lambda a, n: a + "#" + "c" * n, pads, st.integers(0, 200)),
        st.sampled_from(("", " ", " \t ", " " * 300)),
    )
    lines = draw(st.lists(line, max_size=30))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_bad_line(command, fmt)))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    text = newline.join(lines) + draw(st.sampled_from((newline, "")))
    return command, fmt, text, draw(st.integers(7, 64))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=_stream())
def test_cli_blocks_answer_as_line_by_line_at_any_read_boundary(tmp_path, case):
    command, fmt, text, chunk = case
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CHUNK", chunk)
        # a file is read with universal newlines and non-ASCII bytes as lone surrogates
        as_read = text.encode("utf-8").decode("ascii", "surrogateescape").replace("\r\n", "\n")
        assert _run(_argv(command, fmt, str(src))) == _reference(command, fmt, as_read)
        # standard input here splits at "\n" only, so a carriage return stays in its line
        assert _run(_argv(command, fmt, "-"), text) == _reference(command, fmt, text)


# --- which line is named, across the block and line-by-line paths -----------

CODEWORD = "1" * 16  # mw:n=16,l=9,p=2 encodes payload 1^15 to 1^16
NON_CODEWORD = "1" * 15 + "0"
NOT_A_CODEWORD = "not a codeword (field-out-of-range: window index 15 out of range (limit 8))"


def _decode(tmp_path, text: str) -> tuple[int, str, str]:
    src = tmp_path / "in.txt"
    src.write_text(text)
    return _run(_argv("decode", "bits", str(src)))


def test_cli_names_a_non_codeword_before_a_later_bad_character(tmp_path):
    # both lines in one run: the bad character sends it line by line
    lines = [CODEWORD, CODEWORD, NON_CODEWORD, CODEWORD, CODEWORD[:4] + "2" + CODEWORD[5:], CODEWORD]
    assert _decode(tmp_path, "\n".join(lines) + "\n") == (1, "", f"error: line 3: {NOT_A_CODEWORD}\n")
    # a run of bare words whose block fails is read again line by line
    lines[4] = CODEWORD
    assert _decode(tmp_path, "\n".join(lines) + "\n") == (1, "", f"error: line 3: {NOT_A_CODEWORD}\n")


def test_cli_names_a_bad_line_in_the_third_block_by_its_number_in_the_file(tmp_path):
    line = len(CODEWORD) + 1
    # the first line wholly inside the third read, with a comment line in each read
    bad = (2 * cli.CHUNK + line - 1) // line + 1
    lines = [CODEWORD] * (3 * cli.CHUNK // line)
    for lineno in range(100, len(lines), cli.CHUNK // line):
        lines[lineno - 1] = "#" + "-" * 15
    assert lines[bad - 1] == CODEWORD
    lines[bad - 1] = CODEWORD[:-1]
    message = f"error: line {bad}: codeword has length 15, expected 16\n"
    assert _decode(tmp_path, "\n".join(lines) + "\n") == (1, "", message)


@pytest.mark.parametrize("length", [300, 3 * cli.CHUNK], ids=["in-run", "past-the-run"])
def test_cli_names_a_non_codeword_before_an_overlong_data_line_after_it(tmp_path, length):
    text = f"{CODEWORD}\n{NON_CODEWORD}\n{'1' * length}\n{CODEWORD}\n"
    assert _decode(tmp_path, text) == (1, "", f"error: line 2: {NOT_A_CODEWORD}\n")


def test_cli_skips_a_comment_line_spanning_several_reads(tmp_path):
    comment = "# " + "x" * (3 * cli.CHUNK)
    text = f"{CODEWORD}\n{comment}\n{CODEWORD}\n#\n{CODEWORD}"  # no final newline
    assert _decode(tmp_path, text) == (0, "111111111111111\n" * 3, "")


def test_cli_reads_a_line_of_exactly_the_limit_when_a_read_ends_before_its_newline(tmp_path):
    at_limit = " " * LINE_ROOM + CODEWORD  # the word plus LINE_ROOM characters
    message = (
        f"error: line 2: line longer than {16 + LINE_ROOM} characters, expected a codeword of 16 symbols\n"
    )
    decoded = (0, "111111111111111\n" * 2, "")
    for chunk in range(7, 65):
        # a comment line long enough that a read ends right after the long line's text
        head = "#" * ((-1 - len(at_limit)) % chunk or chunk) + "\n"
        assert (len(head) + len(at_limit)) % chunk == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CHUNK", chunk)
            assert _decode(tmp_path, f"{head}{at_limit}\n{CODEWORD}\n") == decoded, chunk
            assert _decode(tmp_path, f"{head}{at_limit} \n{CODEWORD}\n") == (1, "", message), chunk
