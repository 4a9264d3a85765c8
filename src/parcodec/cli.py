"""Command-line front end.

Subcommands: encode, decode, check, stats, graph.  Words travel one per line
in a text format (``bits`` for q=2, ``dna`` for q=4); lines starting with
``#`` and blank lines are ignored.  The codec is fully determined by the
``--spec``/``--q`` flags, so streams carry no header.

Exit codes: 0 success, 1 data/validation failure (first offending line
reported, non-ASCII input included), 2 usage or spec error (a path that
cannot be opened included).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from functools import cache

from .core import decode, encode
from .errors import CodecError, NotACodeword, ParseError
from .oracle import (
    DEFAULT_STATE_BOUND,
    build_state_graph,
    check_graph,
    count_constraint,
    exhaustive_roundtrip,
    graph_to_dot,
    sample_roundtrip,
)
from .specs import build_codec, parse_spec
from .words import FORMAT_Q, text_to_word, word_to_text


class _LineError(Exception):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")


class _FileError(Exception):
    """A path given on the command line cannot be opened (a usage error)."""


def _open(path: str, mode: str):
    # non-ASCII bytes decode to lone surrogates, which _data_lines reports by line
    try:
        return open(path, mode, encoding="ascii", errors="surrogateescape")
    except OSError as exc:
        raise _FileError(f"cannot open {path!r}: {exc.strerror or exc}") from exc


def _open_input(path: str):
    # standard input is borrowed, never closed: main() may run again in-process
    return nullcontext(sys.stdin) if path == "-" else _open(path, "r")


def _write_output(path: str, lines) -> None:
    """Write every output line once all input has been processed, so a failing
    run leaves no partial file; standard output is never closed."""
    out = sys.stdout if path == "-" else _open(path, "w")
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _data_lines(stream):
    for lineno, raw in enumerate(stream, start=1):
        if not raw.isascii():
            raise _LineError(lineno, "input is not ASCII text")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _build(args):
    spec = parse_spec(args.spec)
    if FORMAT_Q[args.format] != args.q:
        raise ParseError(f"format {args.format!r} requires q={FORMAT_Q[args.format]}, got q={args.q}")
    return build_codec(spec, args.q)


def _transform_stream(args, expect_len, apply_word):
    codec = _build(args)
    out_lines = []
    with _open_input(args.input) as stream:
        for lineno, line in _data_lines(stream):
            try:
                word = text_to_word(line, args.format)
            except ParseError as exc:
                raise _LineError(lineno, str(exc)) from exc
            if len(word) != expect_len(codec):
                raise _LineError(
                    lineno,
                    f"expected {expect_len(codec)} symbols, got {len(word)}",
                )
            try:
                out_lines.append(apply_word(codec, word))
            except NotACodeword as exc:
                raise _LineError(lineno, f"not a codeword ({exc})") from exc
    _write_output(args.output, out_lines)
    return 0


def _cmd_encode(args) -> int:
    return _transform_stream(
        args,
        lambda codec: codec.k,
        lambda codec, word: word_to_text(encode(codec, word)[0], args.format),
    )


def _cmd_decode(args) -> int:
    return _transform_stream(
        args,
        lambda codec: codec.n,
        lambda codec, word: word_to_text(decode(codec, word), args.format),
    )


def _cmd_check(args) -> int:
    return _transform_stream(
        args,
        lambda codec: codec.n,
        lambda codec, word: "1" if codec.satisfies(word) else "0",
    )


def _cmd_stats(args) -> int:
    codec = _build(args)
    if args.exhaustive:
        report = exhaustive_roundtrip(codec, bound=args.bound)
        if codec.q ** codec.n <= args.bound:
            report.constraint_count = count_constraint(
                codec.q, codec.n, codec.satisfies, bound=args.bound
            )
    else:
        report = sample_roundtrip(codec, args.samples, args.seed)
    _write_output(args.output, report.kv_lines())
    capacity_ok = (
        report.constraint_count is None
        or report.constraint_count >= codec.q ** (codec.n - 1)
    )
    return 0 if report.ok and capacity_ok else 1


def _cmd_graph(args) -> int:
    # a bad path fails before the graph work; a failed build leaves no file
    with _open(args.dot, "w") as handle:
        try:
            codec = _build(args)
            graph = build_state_graph(codec, bound=args.bound)
            report = check_graph(codec, graph=graph)
            handle.writelines(graph_to_dot(graph))
        except BaseException:
            handle.close()
            os.remove(args.dot)
            raise
    for line in report.kv_lines():
        print(line)
    return 0 if report.ok else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True, help="constraint spec, e.g. mw:n=16,l=9,p=2")
    parser.add_argument("--q", type=int, choices=(2, 4), default=2, help="alphabet size")
    parser.add_argument("--format", choices=("bits", "dna"), default="bits", help="word text format")


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", default="-", help="input path or - for stdin")
    parser.add_argument("--output", default="-", help="output path or - for stdout")


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

    p_encode = sub.add_parser("encode", help="encode k-symbol payloads into n-symbol codewords")
    _add_common(p_encode)
    _add_io(p_encode)
    p_encode.set_defaults(func=_cmd_encode)

    p_decode = sub.add_parser("decode", help="decode n-symbol codewords back to payloads")
    _add_common(p_decode)
    _add_io(p_decode)
    p_decode.set_defaults(func=_cmd_decode)

    p_check = sub.add_parser("check", help="print 1/0 per input word for constraint membership")
    _add_common(p_check)
    _add_io(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_stats = sub.add_parser("stats", help="run the verification suite and print key=value lines")
    _add_common(p_stats)
    p_stats.add_argument("--output", default="-", help="output path or - for stdout")
    p_stats.add_argument("--bound", type=int, default=DEFAULT_STATE_BOUND, help="exhaustive state bound")
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
    try:
        return args.func(args)
    except _LineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CodecError, _FileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
