"""Command-line front end.

Subcommands: encode, decode, check, stats, graph.  Words travel one per line
in a text format (``bits`` for q=2, ``dna`` for q=4); lines starting with
``#`` and blank lines are ignored.  The alphabet is one setting with two
spellings, ``--q`` and ``--format``: either one alone picks the other, with
neither it is q=2 and ``bits``, and two that disagree are a usage error.
The codec is fully determined by ``--spec`` and that setting, so streams
carry no header.

The input is read ``CHUNK`` characters at a time, and each run of complete
lines is answered as one block.  The format fixes q and its alphabet is
[0, q), so a run whose lines are all bare words of the right length needs no
further test: it is translated once through :data:`words.TEXT_TO_SYMBOL`,
split into engine words, answered by the library's encode loop or decode
walk (:func:`core.encode_loop`, :func:`core.decode_walk`, which a start word
skips as in :func:`core.decode`), joined and translated back once through
:data:`words.SYMBOL_TO_TEXT`.  Any other run
(with a ``#``, blank, padded, non-ASCII or bad line, or a word the library
refuses) goes line by line from its first line number, each line read by
:func:`words.text_symbols` and :func:`words.check_symbols`, which name its
fault (a bad character first).  So the first bad line is the one reported,
whichever way its run went.  A run holds at most ``CHUNK`` characters plus a
word and ``LINE_ROOM``, so memory stays bounded: a data line whose text runs
past its word plus ``LINE_ROOM`` characters is refused, and a longer ``#``
or blank line is read to its end in ``CHUNK``-character pieces and dropped.

Output (``--output``, and ``graph``'s ``--dot``) reaches its target, a file
or standard output, only when the command succeeds: a failed run leaves the
target as it was, and a path whose directory is missing, or that is a
directory, is reported before any work.  Lines are spooled as they are
made: an output of up to ``SPOOL_IN_MEMORY`` bytes (64 KiB) is held in
memory and never touches the disk, and a longer one rolls over to an
anonymous temporary file in TMPDIR, so memory stays flat however long the
stream is.  Only such a longer output needs free space in TMPDIR, equal to
its size (a ``graph`` DOT file can be about 83 MB); a failure to write it
there is a usage error.  An existing regular file is overwritten in place
and then cut to the new length, far cheaper than truncating it first or
renaming a new file over it, so a write to it that fails part way (a full
disk) can leave it partly rewritten.

Exit codes: 0 success, 1 data/validation failure (first offending line
reported, non-ASCII input included, and a word decode refuses named with its
reason), 2 usage or spec error (a path that cannot be opened or written, an
output that cannot be spooled, a refused size, that is a spec or a sampled
payload above one of the named size bounds, and a run that runs out of
memory, included).  ``stats`` and ``graph`` import the oracle when they run,
so the other commands never load it.
"""

from __future__ import annotations

import argparse
import errno
import os
import shutil
import stat
import sys
import tempfile
from contextlib import contextmanager, nullcontext, suppress
from functools import cache
from itertools import islice

from .core import DEFAULT_STATE_BOUND, decode_walk, encode_loop
from .errors import BoundExceeded, CodecError, DimensionMismatch, NotACodeword, ParseError
from .specs import build_codec, parse_spec
from .words import FORMAT_Q, NOT_A_SYMBOL, SYMBOL_TO_TEXT, TEXT_TO_SYMBOL, check_symbols, text_symbols

LINE_ROOM = 256  # characters a line may hold beyond its word: whitespace and the newline
CHUNK = 1 << 13  # characters read at a time, from the stream and from a long line
SPOOL_IN_MEMORY = 1 << 16  # output bytes held in memory before the spool rolls over to TMPDIR
_Q_FORMAT = {q: fmt for fmt, q in FORMAT_Q.items()}  # the text format of each q


class _LineError(Exception):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")


class _FileError(Exception):
    """A path given on the command line cannot be opened or written, or the
    output cannot be spooled (a usage error)."""

    def __init__(self, action: str, exc: OSError):
        super().__init__(f"cannot {action}: {exc.strerror or exc}")


_SPOOLING = "spool output in TMPDIR"


class _Spool(tempfile.SpooledTemporaryFile):
    """The output bytes: in memory up to ``SPOOL_IN_MEMORY``, then in an
    anonymous file in TMPDIR, where a failed write is a usage error."""

    def write(self, data: bytes) -> int:
        try:
            return super().write(data)
        except OSError as exc:
            raise _FileError(_SPOOLING, exc) from exc

    def writelines(self, lines) -> None:
        # in batches, so that a long output rolls over as it grows
        lines = iter(lines)
        while batch := b"".join(islice(lines, 1024)):
            self.write(batch)

    def __exit__(self, *exc_info) -> None:
        # the spool is dropped here, so bytes its buffer could not write out
        # are not needed; a failed write has already been reported
        with suppress(OSError):
            super().__exit__(*exc_info)


def _open_input(path: str):
    # standard input is borrowed, never closed: main() may run again in-process
    if path == "-":
        return nullcontext(sys.stdin)
    # non-ASCII bytes decode to lone surrogates, which are reported by line
    try:
        return open(path, encoding="ascii", errors="surrogateescape")
    except OSError as exc:
        raise _FileError(f"open {path!r}", exc) from exc


@contextmanager
def _output(path: str):
    """Yield a :class:`_Spool` for the output text; copy it to ``path`` (``-``
    for standard output, which is never closed) only when the body succeeds.

    An output of up to ``SPOOL_IN_MEMORY`` bytes goes to its target straight
    from memory; a longer one is read back from TMPDIR.  A path whose
    directory is missing, or that is a directory, fails before the body does
    any work, a failed body leaves the target untouched, and an error
    spooling the output or writing the target is a usage error; a regular
    file is rewritten in place, so a write to it that fails part way can
    leave it partly rewritten.
    """
    if path != "-":
        try:
            os.stat(os.path.join(os.path.dirname(path), "."))
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            raise _FileError(f"open {path!r}", exc) from exc
    with _Spool(max_size=SPOOL_IN_MEMORY) as spool:
        yield spool
        try:
            spool.seek(0)  # a rolled-over spool writes out its buffer here
        except OSError as exc:
            raise _FileError(_SPOOLING, exc) from exc
        try:
            if path == "-":
                while chunk := spool.read(1 << 16):
                    sys.stdout.write(chunk.decode("ascii"))
            else:
                _overwrite(path, spool)
        except OSError as exc:
            raise _FileError(f"write {path!r}", exc) from exc


def _overwrite(path: str, source) -> None:
    """Copy binary file ``source`` to ``path``, created if missing.

    A regular file is written over in place, with no truncation to zero,
    and then cut to the length written; anything else (a FIFO, a device)
    just takes the bytes.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise _FileError(f"open {path!r}", exc) from exc
    with open(fd, "wb") as target:
        shutil.copyfileobj(source, target)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            target.truncate()


def _runs(stream, limit: int, too_long: str):
    """(first line number, text) of each run of complete lines of ``stream``:
    the lines joined by newlines, the run's last newline dropped.

    ``stream`` is read ``CHUNK`` characters at a time, so a run holds at most
    ``CHUNK + limit`` characters.  A line that runs past ``limit`` characters
    with no newline in sight is read to its end and dropped once the lines
    before it are answered: a ``#`` or blank line is skipped, and a data line
    is refused with ``too_long``.  A run may still hold a complete line past
    ``limit``; the caller refuses it.
    """
    lineno, text = 1, ""
    while True:
        end = text.rfind("\n")
        if end >= 0:
            run, text = text[:end], text[end + 1:]
            yield lineno, run
            lineno += run.count("\n") + 1
        if len(text) > limit:
            is_data, text = _drop_line(stream, lineno, text)
            if is_data:
                raise _LineError(lineno, too_long)
            lineno += 1
        elif piece := stream.read(CHUNK):
            text += piece
        else:
            break
    if text:
        yield lineno, text


def _drop_line(stream, lineno: int, text: str) -> tuple[bool, str]:
    """Read the rest of the line that ``text`` starts, ``CHUNK`` characters
    at a time, keeping none of it.

    Returns whether the line's first text is other than ``#`` (a data line),
    and what follows its newline.
    """
    first = ""
    while True:
        end = text.find("\n")
        line = text if end < 0 else text[:end]
        if not line.isascii():
            raise _LineError(lineno, "input is not ASCII text")
        first = first or line.lstrip()[:1]
        if end >= 0 or not (text := stream.read(CHUNK)):
            return first not in ("", "#"), text[end + 1:]  # at the end of the stream, text is ""


def _build(args):
    spec = parse_spec(args.spec)
    if FORMAT_Q[args.format] != args.q:
        raise ParseError(f"format {args.format!r} requires q={FORMAT_Q[args.format]}, got q={args.q}")
    return build_codec(spec, args.q)


def _encode_words(codec, words: list[bytes]) -> list[bytes]:
    return [encode_loop(codec, word)[0] for word in words]


def _decode_words(codec, words: list[bytes]) -> list[bytes]:
    # a word that took no encode step is its payload plus the start marker,
    # so only the others walk back
    is_start, unembed = codec.is_start, codec.unembed
    return [unembed(word) if is_start(word) else decode_walk(codec, word) for word in words]


def _check_words(codec, words: list[bytes]) -> list[bytes]:
    # a verdict is one bit, 1 for a member
    satisfies = codec.satisfies
    return [b"\1" if satisfies(word) else b"\0" for word in words]


# The commands that read one word per line and write one answer per line:
# (help, what a line holds, answers(codec, engine words), whether the answers
# are written as bits rather than in the input's format).  A "payload" line
# holds k symbols, any other line n.
_STREAMS = {
    "encode": ("encode k-symbol payloads into n-symbol codewords", "payload", _encode_words, False),
    "decode": ("decode n-symbol codewords back to payloads", "codeword", _decode_words, False),
    "check": ("print 1/0 per input word for constraint membership", "word", _check_words, True),
}


def _transform_stream(args) -> int:
    """Write the answer of ``args.command``'s row per input line, given the
    line's engine word; a failure is reported with its line.  A run of bare
    words is answered as one block, any other run line by line."""
    _, what, answers, as_bits = _STREAMS[args.command]
    with _output(args.output) as out, _open_input(args.input) as stream:
        codec = _build(args)
        width = codec.k if what == "payload" else codec.n
        limit = width + LINE_ROOM
        too_long = f"line longer than {limit} characters, expected a {what} of {width} symbols"
        # both tables keep the newline as byte 10, which is no symbol of any format
        symbols, text = (
            table[:10] + b"\n" + table[11:]
            for table in (TEXT_TO_SYMBOL[args.format], SYMBOL_TO_TEXT["bits" if as_bits else args.format])
        )
        for first, run in _runs(stream, limit, too_long):
            if run.isascii():
                block = run.encode("ascii").translate(symbols)
                if NOT_A_SYMBOL not in block and set(map(len, words := block.split(b"\n"))) == {width}:
                    try:
                        answered = b"\n".join(answers(codec, words))
                    except CodecError:
                        pass  # named by the line-by-line pass
                    else:
                        out.write(answered.translate(text))
                        out.write(b"\n")
                        continue
            for lineno, raw in enumerate(run.split("\n"), first):
                if not raw.isascii():
                    raise _LineError(lineno, "input is not ASCII text")
                line = raw.strip()
                if not line or line[0] == "#":
                    continue
                if len(raw) > limit:
                    raise _LineError(lineno, too_long)
                try:
                    word = check_symbols(text_symbols(line, args.format), codec.q, width, what)
                    out.write(answers(codec, [word])[0].translate(text) + b"\n")
                except (ParseError, DimensionMismatch) as exc:
                    raise _LineError(lineno, str(exc)) from exc
                except NotACodeword as exc:
                    why = f"{exc.reason}: {exc}" if exc.reason else exc
                    raise _LineError(lineno, f"not a codeword ({why})") from exc
    return 0


def _cmd_stats(args) -> int:
    from .oracle import count_constraint, exhaustive_roundtrip, sample_roundtrip

    with _output(args.output) as out:
        codec = _build(args)
        if args.exhaustive:
            report = exhaustive_roundtrip(codec, bound=args.bound)
            with suppress(BoundExceeded):  # the count enumerates q**n words, the round trip q**k
                report.constraint_count = count_constraint(codec.q, codec.n, codec.satisfies, bound=args.bound)
        else:
            report = sample_roundtrip(codec, args.samples, args.seed)
        out.writelines(f"{line}\n".encode("ascii") for line in report.kv_lines())
    return 0 if report.ok else 1


def _cmd_graph(args) -> int:
    from .oracle import build_state_graph, check_graph, graph_to_dot

    with _output(args.dot) as dot:
        codec = _build(args)
        graph = build_state_graph(codec, bound=args.bound)
        report = check_graph(codec, graph=graph)
        dot.writelines(line.encode("ascii") for line in graph_to_dot(codec, graph))
    with _output("-") as out:
        out.writelines(f"{line}\n".encode("ascii") for line in report.kv_lines())
    return 0 if report.ok else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True, help="constraint spec, e.g. mw:n=16,l=9,p=2")
    q_choices = sorted(set(FORMAT_Q.values()))
    parser.add_argument("--q", type=int, choices=q_choices, help="alphabet size (default: from --format, else 2)")
    parser.add_argument("--format", choices=tuple(FORMAT_Q), help="word text format (default: from --q, else bits)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parcodec",
        description="Constrained-coding toolkit: encode/decode words under parametric constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (summary, *_) in _STREAMS.items():
        p_stream = sub.add_parser(name, help=summary)
        _add_common(p_stream)
        p_stream.add_argument("--input", default="-", help="input path or - for stdin")
        p_stream.add_argument("--output", default="-", help="output path or - for stdout")
        p_stream.set_defaults(func=_transform_stream)

    p_stats = sub.add_parser("stats", help="run the verification suite and print key=value lines")
    _add_common(p_stats)
    p_stats.add_argument("--output", default="-", help="output path or - for stdout")
    bound_help = "exhaustive state bound on q**k; constraint_count is printed only when q**n is within it too"
    p_stats.add_argument("--bound", type=int, default=DEFAULT_STATE_BOUND, help=bound_help)
    mode = p_stats.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true", help="enumerate every payload")
    mode.add_argument("--samples", type=_positive_int, help="number of random payloads")
    p_stats.add_argument("--seed", type=int, default=1, help="sampling seed")
    p_stats.set_defaults(func=_cmd_stats)

    p_graph = sub.add_parser("graph", help="verify the step graph and export DOT")
    _add_common(p_graph)
    p_graph.add_argument("--dot", required=True, help="path for the DOT file")
    p_graph.add_argument("--bound", type=int, default=DEFAULT_STATE_BOUND, help="exhaustive state bound")
    p_graph.set_defaults(func=_cmd_graph)
    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process for main(): parsing leaves a parser unchanged,
    and callers that run main() many times in one process would otherwise
    rebuild the whole argparse tree, and leave it as cyclic garbage, per call."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    # --q and --format spell one setting: either alone picks the other; _build refuses two that disagree
    args.format = args.format or _Q_FORMAT[args.q or 2]
    args.q = args.q or FORMAT_Q[args.format]
    try:
        return args.func(args)
    except _LineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CodecError, _FileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # the spec asks for more than this machine holds; nothing was written
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
