"""Constraint-spec grammar and the command-line front end."""

import errno
import io
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import product

import pytest

from parcodec import (
    NotACodeword,
    ParameterViolation,
    ParseError,
    SlackMismatch,
    build_codec,
    build_intersection,
    build_one_symbol,
    build_shrink,
    decode,
    encode,
    parse_spec,
    sample_roundtrip,
)
from parcodec.cli import SPOOL_IN_MEMORY, main
from parcodec.global_codes import almost_balanced_member, secondary_structure_member
from parcodec.local import palindrome_free_member
from parcodec.oracle import MAX_SAMPLE_K
from parcodec.specs import _CONSTRAINTS, ConstraintSpec
from parcodec.words import word_to_text


# --- import --------------------------------------------------------------------

ORACLE_NAMES = (
    "DEFAULT_STATE_BOUND", "VerifyReport", "build_state_graph", "check_graph", "check_shrink_injective",
    "count_constraint", "exhaustive_roundtrip", "graph_to_dot", "sample_roundtrip",
)


@pytest.mark.parametrize("module", ["parcodec.cli", "parcodec"])
def test_import_leaves_the_oracle_to_first_use(module):
    # in a fresh interpreter: importing the package or the CLI loads no oracle,
    # and the oracle and each of its names still resolve from the package
    script = f"""
import sys
import {module}
assert "parcodec.oracle" not in sys.modules, "import {module} loaded the oracle"
import parcodec
oracle = parcodec.oracle
assert oracle is sys.modules["parcodec.oracle"]
attributes = [{", ".join(f"parcodec.{name}" for name in ORACLE_NAMES)}]
from parcodec import {", ".join(ORACLE_NAMES)}
for name, attribute in zip({ORACLE_NAMES}, attributes):
    assert attribute is globals()[name] is getattr(oracle, name), name
"""
    src = os.path.dirname(os.path.dirname(sys.modules["parcodec"].__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")


# --- grammar -------------------------------------------------------------------

def test_parse_simple_spec():
    spec = parse_spec("mw:n=16,l=9,p=2")
    assert spec.name == "mw"
    assert spec.param("n") == 16
    assert spec.param("l") == 9
    assert spec.param("p") == 2


@pytest.mark.parametrize(
    "text",
    [
        "mw:n=16,l=9,p=2",
        "lab:n=16,l=12,wmin=2,wmax=10",
        "mp:n=16,l=8,p=3",
        "enp:n=16,l=10",
        "enp:n=8,l=8,rc=1",
        "mpl:n=16",
        "rf:n=8,l=7",
        "srf:n=16,l=9,beta=10",
        "rss:n=8,l=5",
        "ss:n=8",
        "ab:n=16",
        "intersect:mw:n=16,l=10,p=2+mp:n=16,l=9,p=3",
        "intersect:ab:n=16+mw:n=16,l=10,p=2",  # ab, a row of two members, as a member
    ],
)
def test_grammar_roundtrip(text):
    spec = parse_spec(text)
    assert spec.to_text() == text
    assert parse_spec(spec.to_text()) == spec


@pytest.mark.parametrize(
    "text",
    [
        "mw",  # no colon
        "nosuch:n=8",
        "mw:n=16,l=9",  # missing p
        "mw:n=16,l=9,p=2,x=1",  # unknown key
        "mw:n=16,l=9,p=two",
        "mw:n=16,n=16,l=9,p=2",  # duplicate
        "intersect:mw:n=16,l=10,p=2",  # single member
        "intersect:mw:n=16,l=10,p=2+mp:n=8,l=9,p=3",  # mismatched n
        "mw:n=0,l=9,p=2",  # no room for the marker
        "ab:n=1",
        "intersect:mw:n=1,l=10,p=2+mp:n=1,l=9,p=3",
        "enp:n=16,l=10,rc=5",  # rc is a 0/1 flag
        # values are plain ASCII decimal digits, so to_text() gives the text back
        "mw:n=+16,l=9,p=2",
        "mw:n=1_6,l=9,p=2",
        "mw:n= 16,l=9,p=2",
        "mw:n=16 ,l=9,p=2",
        "mw:n=\u0661\u0666,l=9,p=2",  # Arabic-Indic digits
        "mw:n=-3,l=9,p=2",
        "mw:n=16,l,p=2",  # a key with no value
        "mw:n=16,l=,p=2",
        "intersect:intersect:mw:n=16,l=9,p=2+mp:n=16,l=8,p=3",  # nested intersections
        "intersect:mw:n=16,l=9,p=2+intersect:mp:n=16,l=8,p=3",
    ],
)
def test_grammar_rejects(text):
    with pytest.raises(ParseError):
        parse_spec(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("mw:n=16,l,p=2", "malformed parameter 'l'"),
        ("mw:n=16,l=,p=2", "malformed parameter 'l='"),
        ("intersect:intersect:mw:n=16,l=9,p=2+mp:n=16,l=8,p=3", "intersect members cannot be nested intersections"),
        ("intersect:mw:n=16,l=9,p=2+intersect:mp:n=16,l=8,p=3", "intersect members cannot be nested intersections"),
    ],
)
def test_grammar_names_its_refusal(text, message):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert str(err.value) == message


def test_spec_param_names_a_missing_key():
    with pytest.raises(ParseError, match="^spec 'mw' is missing parameter 'l'$"):
        ConstraintSpec("mw", (("n", 16),)).param("l")


def test_grammar_names_a_value_that_is_not_digits():
    with pytest.raises(ParseError, match=r"^parameter 'n' must be decimal digits 0-9, got '\+16'$"):
        parse_spec("mw:n=+16,l=9,p=2")


def test_grammar_refuses_a_value_past_the_int_digit_limit():
    value = "9" * 5000
    text = f"mw:n={value},l=9,p=2"
    if sys.version_info < (3, 11):  # int() has no digit limit here, so the value parses
        assert parse_spec(text).n == int(value)
    else:
        with pytest.raises(ParseError, match=r"^parameter 'n' has too many digits \(5000\)$"):
            parse_spec(text)


def test_build_validates_bounds():
    build_codec(parse_spec("mw:n=16,l=9,p=2"))  # 9 >= 4 + 1*4 + 1
    with pytest.raises(ParameterViolation):
        build_codec(parse_spec("rf:n=8,l=6"))  # 6 < 2*3 + 1
    build_codec(parse_spec("ab:n=16"))  # 16 > 4


def test_build_enforces_alphabet():
    with pytest.raises(ParameterViolation):
        build_codec(parse_spec("rss:n=8,l=5"), q=2)
    with pytest.raises(ParameterViolation):
        build_codec(parse_spec("ss:n=8"), q=2)
    with pytest.raises(ParameterViolation):
        build_codec(parse_spec("ab:n=16"), q=4)
    with pytest.raises(ParameterViolation):
        build_codec(parse_spec("enp:n=8,l=8,rc=1"), q=2)


# the alphabets each spec builds over, written out here rather than read back
# from the builders that decide them
ALPHABETS = [
    ("mw:n=16,l=9,p=2", {2}),
    ("lab:n=16,l=12,wmin=2,wmax=10", {2}),
    ("mp:n=16,l=8,p=3", {2, 4}),
    ("enp:n=16,l=10", {2, 4}),
    ("enp:n=8,l=8,rc=1", {4}),
    ("mpl:n=16", {2, 4}),
    ("rf:n=8,l=7", {2, 4}),
    ("srf:n=16,l=9,beta=10", {2, 4}),
    ("rss:n=8,l=5", {4}),
    ("ss:n=8", {4}),
    ("ab:n=16", {2}),
    ("intersect:mw:n=16,l=10,p=2+mp:n=16,l=9,p=3", {2}),  # one binary-only member
]


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("text, alphabets", ALPHABETS, ids=[text for text, _ in ALPHABETS])
def test_build_alphabet_table(text, alphabets, q):
    assert {parse_spec(t).name for t, _ in ALPHABETS} == set(_CONSTRAINTS) | {"intersect"}
    spec = parse_spec(text)
    if q in alphabets:
        assert build_codec(spec, q).q == q
    else:
        with pytest.raises(ParameterViolation, match=r"is over q=|is not a map on"):
            build_codec(spec, q)


# each row with two members, and those two members built by hand at slack 1
MULTI_MEMBER_ROWS = [
    ("mpl:n=16", 2, lambda: [palindrome_free_member(16, 2, odd, 1) for odd in (False, True)]),
    ("ss:n=8", 4, lambda: [secondary_structure_member(8, palindromes, 1) for palindromes in (False, True)]),
    ("ab:n=16", 2, lambda: [almost_balanced_member(16, heavy, 1) for heavy in (False, True)]),
]


@pytest.mark.parametrize("text, q, members", MULTI_MEMBER_ROWS, ids=[f"{t}-{q}" for t, q, _ in MULTI_MEMBER_ROWS])
def test_build_shrink_of_a_multi_member_row(text, q, members):
    spec = parse_spec(text)
    codecs = [build_codec(spec, q), build_one_symbol(build_intersection(members()))]
    for word in map(bytes, product(range(q), repeat=spec.n)):
        satisfied = {codec.satisfies(word) for codec in codecs}
        assert len(satisfied) == 1
        if not satisfied.pop():
            assert len({codec.step(word) for codec in codecs}) == 1
    with pytest.raises(SlackMismatch):
        build_shrink(spec, q, slack=1)


@pytest.mark.parametrize("spec", [
    ConstraintSpec("nope", (("n", 8),)),
    ConstraintSpec("intersect", (), (ConstraintSpec("intersect", (), (parse_spec("mw:n=16,l=12,p=2"),)),)),
], ids=["unknown", "nested"])
def test_build_refuses_a_hand_built_spec_without_a_row(spec):
    with pytest.raises(ParameterViolation, match=r"unknown constraint '(nope|intersect)'"):
        build_codec(spec)


def test_srf_beta_table():
    codec = build_codec(parse_spec("srf:n=16,l=9,beta=10"))
    word, _ = encode(codec, (0,) * 15)
    assert decode(codec, word) == (0,) * 15


def test_srf_beta_rejects_bad_digits():
    with pytest.raises(ParameterViolation, match=r"symbol table \(1, 2\) is not a map on \[0, 2\)"):
        build_codec(parse_spec("srf:n=16,l=9,beta=12"))  # digit 2 outside binary


@pytest.mark.parametrize("q", [11, 12])
def test_srf_beta_needs_decimal_digits(q):
    message = rf"beta names its map by decimal digits, so needs q <= 10, got q={q}$"
    with pytest.raises(ParameterViolation, match=message):
        build_codec(parse_spec("srf:n=16,l=9,beta=10"), q)


def test_intersection_spec_builds_and_roundtrips():
    codec = build_codec(parse_spec("intersect:mw:n=16,l=10,p=2+mp:n=16,l=9,p=3"))
    report = sample_roundtrip(codec, 300, seed=11)
    assert report.ok


def test_intersection_spec_has_its_members_length():
    assert parse_spec("intersect:mw:n=16,l=9,p=2+mp:n=16,l=8,p=3").n == 16


def test_three_member_intersection_spec():
    text = "intersect:mw:n=16,l=11,p=2+mp:n=16,l=10,p=3+enp:n=16,l=14"
    codec = build_codec(parse_spec(text))
    report = sample_roundtrip(codec, 200, seed=5)
    assert report.ok


def test_local_global_intersection_spec():
    codec = build_codec(parse_spec("intersect:mw:n=16,l=10,p=2+rf:n=16,l=10"))
    report = sample_roundtrip(codec, 300, seed=2)
    assert report.ok


def test_reverse_complement_palindrome_spec():
    codec = build_codec(parse_spec("enp:n=8,l=8,rc=1"), q=4)
    word, _ = encode(codec, (0, 1, 2, 3, 0, 1, 2))
    assert decode(codec, word) == (0, 1, 2, 3, 0, 1, 2)
    # no length-8 window of the output is its own reverse complement
    comp = (3, 2, 1, 0)
    assert not all(word[i] == comp[word[7 - i]] for i in range(8))


# --- CLI -----------------------------------------------------------------------

def run_cli(args):
    return main(args)


def test_cli_encode_trivial_line(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("111111111111111\n")
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--q", "2", "--input", str(src)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "1111111111111111\n"


def test_cli_leaves_stdin_open_across_runs(monkeypatch, capsys):
    stdin = io.StringIO("111111111111111\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    args = ["encode", "--spec", "mw:n=16,l=9,p=2", "--input", "-"]
    assert run_cli(args) == 0
    assert capsys.readouterr().out == "1111111111111111\n"
    # a second in-process run finds stdin open, now at its end
    assert run_cli(args) == 0
    assert capsys.readouterr().out == ""
    assert not stdin.closed


def test_cli_builds_its_parser_once_per_process(monkeypatch, tmp_path, capsys):
    from parcodec import cli

    assert cli.build_parser() is not cli.build_parser()
    built, build_parser = [], cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._shared_parser.cache_clear()
    try:
        src = tmp_path / "in.txt"
        src.write_text("ACGTACGTACGTACG\n")
        dna = ["encode", "--spec", "ss:n=16", "--q", "4", "--format", "dna", "--input", str(src)]
        bits = ["check", "--spec", "mw:n=16,l=9,p=2", "--input", str(tmp_path / "bits.txt")]
        (tmp_path / "bits.txt").write_text("1111111111111111\n0000000000000000\n")
        assert run_cli(dna) == 0
        assert len(capsys.readouterr().out.strip()) == 16
        with pytest.raises(SystemExit):
            run_cli(["encode", "--spec"])
        capsys.readouterr()
        # options of an earlier call do not leak: --q and --format are back to their defaults
        assert run_cli(bits) == 0
        assert capsys.readouterr().out == "1\n0\n"
        assert built == [1]
    finally:
        cli._shared_parser.cache_clear()


def test_cli_check_repeated_windows(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("00000000\n")
    rc = run_cli(["check", "--spec", "rf:n=8,l=7", "--q", "2", "--input", str(src)])
    assert rc == 0
    assert capsys.readouterr().out == "0\n"


def test_cli_roundtrip_byte_identical(tmp_path):
    payloads = tmp_path / "payloads.txt"
    encoded = tmp_path / "encoded.txt"
    decoded = tmp_path / "decoded.txt"
    lines = ["000000000000000", "010101010101010", "111111111111111", "001001001001001"]
    payloads.write_text("\n".join(lines) + "\n")
    assert run_cli([
        "encode", "--spec", "mw:n=16,l=9,p=2",
        "--input", str(payloads), "--output", str(encoded),
    ]) == 0
    assert run_cli([
        "decode", "--spec", "mw:n=16,l=9,p=2",
        "--input", str(encoded), "--output", str(decoded),
    ]) == 0
    assert decoded.read_text() == payloads.read_text()


def test_cli_dna_format(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("# comment line\nACGTACG\n")
    rc = run_cli([
        "encode", "--spec", "ss:n=8", "--q", "4", "--format", "dna", "--input", str(src),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    out = captured.out.strip()
    assert len(out) == 8
    assert set(out) <= set("ACGT")


def _good_lines(fmt: str) -> tuple[list[str], dict[str, tuple[str, str]]]:
    """The options of a 16-symbol code in ``fmt`` and, per command, a line it
    accepts and what that line holds."""
    spec, q = {"bits": ("mw:n=16,l=9,p=2", 2), "dna": ("ss:n=16", 4)}[fmt]
    codec = build_codec(parse_spec(spec), q)
    payload = (1,) * codec.k
    codeword = word_to_text(encode(codec, payload)[0], fmt)
    options = ["--spec", spec, "--q", str(q), "--format", fmt]
    return options, {"encode": (word_to_text(payload, fmt), "payload"),
                     "decode": (codeword, "codeword"), "check": (codeword, "word")}


def test_cli_reports_first_bad_line(tmp_path, capsys):
    # line 1 is good for each command, line 2 too short
    for command, first, what in [
        ("encode", "1" * 15, "payload"), ("decode", "1" * 16, "codeword"), ("check", "1" * 16, "word"),
    ]:
        src = tmp_path / "in.txt"
        src.write_text(f"{first}\n0101\n000000000000000\n")
        rc = run_cli([command, "--spec", "mw:n=16,l=9,p=2", "--input", str(src)])
        captured = capsys.readouterr()
        assert rc == 1, command
        assert f"line 2: {what} has length 4, expected {len(first)}" in captured.err
    # line 2 one symbol short or one long, in both formats: the whole message, and no output
    for fmt in ("bits", "dna"):
        options, good = _good_lines(fmt)
        for command, (first, what) in good.items():
            for line in (first[:-1], first + first[0]):
                src.write_text(f"{first}\n{line}\n{first}\n")
                rc = run_cli([command, *options, "--input", str(src)])
                message = f"error: line 2: {what} has length {len(line)}, expected {len(first)}\n"
                assert (rc, *capsys.readouterr()) == (1, "", message), (fmt, command, line)


def test_cli_bad_symbol_is_line_error(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.txt"
    src.write_text("00000000200000\n")
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src)])
    captured = capsys.readouterr()
    assert rc == 1  # bad data on line 1, not a usage error
    assert "line 1" in captured.err
    # line 2 of each command in both formats, read from a file and from stdin: a bad
    # character is named even in a line of the wrong length, and non-ASCII text is
    # refused by its line, never with a traceback
    for fmt, bad in (("bits", "2"), ("dna", "N")):
        options, good = _good_lines(fmt)
        for command, (first, _) in good.items():
            width = len(first)
            for line, fault in [
                (first[:3] + bad + first[4:], f"character {bad!r} is not valid in format {fmt!r}"),
                (("acgt" * width)[:width], f"character 'a' is not valid in format {fmt!r}"),
                (first[:5] + " " + first[5:], f"character ' ' is not valid in format {fmt!r}"),
                (first[:5] + "\t" + first[5:], f"character '\\t' is not valid in format {fmt!r}"),
                (bad + first[2:], f"character {bad!r} is not valid in format {fmt!r}"),
                (first[:4] + "\u00e9" + first[5:], "input is not ASCII text"),
            ]:
                text = f"{first}\n{line}\n{first}\n"
                src.write_bytes(text.encode("utf-8"))
                monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                for source in (str(src), "-"):
                    rc = run_cli([command, *options, "--input", source])
                    expected = (1, "", f"error: line 2: {fault}\n")
                    assert (rc, *capsys.readouterr()) == expected, (fmt, command, line, source)


def test_cli_spec_error_is_usage_error(capsys):
    rc = run_cli(["encode", "--spec", "rf:n=8,l=6", "--input", "-"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


@pytest.mark.parametrize(
    "text, refusal",
    [
        # the window too short is mpl's own (12 at slack 2), not mw's l=12
        ("intersect:mpl:n=16+mw:n=16,l=12,p=2", "member 'mpl:n=16' at slack 2: window length 12 is too short"),
        ("intersect:ab:n=16+mw:n=16,l=10,p=2", "member 'mw:n=16,l=10,p=2' at slack 2: window length 10 is too short"),
    ],
)
def test_cli_composite_refusal_names_the_member(capsys, text, refusal):
    rc = run_cli(["encode", "--spec", text, "--input", "-"])
    captured = capsys.readouterr()
    assert rc == 2
    assert refusal in captured.err


@pytest.mark.parametrize("name", sorted(_CONSTRAINTS))
def test_cli_word_length_zero_is_a_usage_error(tmp_path, capsys, name):
    row = _CONSTRAINTS[name]
    body = ",".join(f"{key}={0 if key == 'n' else 1}" for key in row.params if key not in row.optional)
    q = {"rss": 4, "ss": 4}.get(name, 2)
    src = tmp_path / "in.txt"
    src.write_text("")
    rc = run_cli(["encode", "--spec", f"{name}:{body}", "--q", str(q),
                  "--format", "dna" if q == 4 else "bits", "--input", str(src)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "word length n must be at least 2" in captured.err


def test_cli_huge_word_length_builds_nothing_of_that_length(tmp_path, capsys):
    # a finder's per-length tables are built on first scan, so this codec builds at once
    spec = "mw:n=10000000000000,l=60,p=2"
    src = tmp_path / "in.txt"
    src.write_text("")
    assert run_cli(["encode", "--spec", spec, "--input", str(src)]) == 0
    assert capsys.readouterr() == ("", "")
    src.write_text("0101\n")
    assert run_cli(["encode", "--spec", spec, "--input", str(src)]) == 1
    assert capsys.readouterr().err == "error: line 1: payload has length 4, expected 9999999999999\n"
    # past sys.maxsize a line is read sys.maxsize characters at a time
    assert run_cli(["check", "--spec", f"mpl:n={10**30}", "--input", str(src)]) == 1
    assert capsys.readouterr() == ("", f"error: line 1: word has length 4, expected {10**30}\n")


def test_cli_stats_refuses_a_sample_past_its_bound(capsys):
    # a valid spec whose payloads are too long to draw: refused before any is drawn
    start = time.perf_counter()
    rc = run_cli(["stats", "--spec", "mw:n=10000000000000,l=60,p=2", "--samples", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: payload length k = 9999999999999 exceeds MAX_SAMPLE_K = {MAX_SAMPLE_K}\n")


def test_cli_format_q_mismatch(tmp_path, capsys):
    # --q and --format spell one setting; given both, they must agree, on every command
    target = tmp_path / "out.txt"
    target.write_text("kept\n")
    for flags, refusal in [
        (["--q", "2", "--format", "dna"], "error: format 'dna' requires q=4, got q=2\n"),
        (["--q", "4", "--format", "bits"], "error: format 'bits' requires q=2, got q=4\n"),
    ]:
        for command, out in [("encode", "--output"), ("decode", "--output"), ("check", "--output"),
                             ("stats", "--output"), ("graph", "--dot")]:
            rest = ["--samples", "1"] if command == "stats" else []
            rc = run_cli([command, "--spec", "rss:n=8,l=5", *flags, out, str(target), *rest])
            assert rc == 2
            assert capsys.readouterr() == ("", refusal)
            assert target.read_text() == "kept\n"


@pytest.mark.parametrize("flags", [["--q", "4"], ["--format", "dna"]], ids=["q", "format"])
def test_cli_q_or_format_alone_picks_the_other(tmp_path, capsys, flags):
    # each command gives byte for byte what it gives with both flags
    both = ["--q", "4", "--format", "dna"]
    payloads = tmp_path / "payloads.txt"
    payloads.write_text("ACGTACGTTGCA\nAAAAAAAAAAAA\nGGGTTTCCCAAA\n")
    codewords = tmp_path / "codewords.txt"
    assert run_cli(["encode", "--spec", "rf:n=13,l=5", *both, "--input", str(payloads),
                    "--output", str(codewords)]) == 0
    dot = tmp_path / "g.dot"

    def answer(argv):
        dot.unlink(missing_ok=True)
        assert run_cli(argv) == 0
        return capsys.readouterr(), dot.read_text() if dot.exists() else None

    for argv in [
        ["encode", "--spec", "rf:n=13,l=5", "--input", str(payloads)],
        ["decode", "--spec", "rf:n=13,l=5", "--input", str(codewords)],
        ["check", "--spec", "rf:n=13,l=5", "--input", str(codewords)],
        ["stats", "--spec", "rf:n=6,l=5", "--exhaustive"],
        ["stats", "--spec", "ss:n=8", "--samples", "20"],
        ["graph", "--spec", "rf:n=6,l=5", "--dot", str(dot)],
    ]:
        assert answer([*argv, *flags]) == answer([*argv, *both])
    decoded, _ = answer(["decode", "--spec", "rf:n=13,l=5", *flags, "--input", str(codewords)])
    assert decoded.out == payloads.read_text()


def test_cli_out_of_memory_is_a_usage_error(monkeypatch, tmp_path, capsys):
    from parcodec import oracle

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(oracle, "sample_roundtrip", exhausted)
    target = tmp_path / "report.txt"
    target.write_text("kept\n")
    rc = run_cli(["stats", "--spec", "mw:n=16,l=9,p=2", "--samples", "1", "--output", str(target)])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert target.read_text() == "kept\n"


def test_cli_stats_exhaustive(tmp_path, capsys):
    # constraint_count is printed when the bound holds all q**n = 256 words, not just the q**k = 128 payloads
    for bound, count in (([], "254"), (["--bound", "128"], None)):
        rc = run_cli(["stats", "--spec", "rf:n=8,l=7", "--exhaustive", *bound])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        keys = [line.split("=")[0] for line in lines]
        assert keys == ["inputs", "failures", "avg_iterations", "max_iterations"] + ["constraint_count"] * bool(count)
        values = dict(line.split("=") for line in lines)
        assert values["inputs"] == "128"
        assert values["failures"] == "0"
        assert values.get("constraint_count") == count
        numerator, denominator = values["avg_iterations"].split("/")
        assert int(numerator) / int(denominator) <= 2


def test_cli_stats_sampled(capsys):
    rc = run_cli(["stats", "--spec", "mw:n=16,l=9,p=2", "--samples", "40", "--seed", "9"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "mode=sampled" in captured.out
    assert "seed=9" in captured.out


def test_cli_graph_writes_dot(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    rc = run_cli(["graph", "--spec", "mw:n=8,l=7,p=2", "--dot", str(dot)])
    capsys.readouterr()
    assert rc == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert '"00000000"' in text


def test_cli_graph_refuses_large_space(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    rc = run_cli(["graph", "--spec", "mw:n=8,l=7,p=2", "--dot", str(dot), "--bound", "100"])
    capsys.readouterr()
    assert rc == 2
    assert not dot.exists()


@pytest.mark.parametrize("count", ["-5", "0", "x"])  # "x" is no integer at all
def test_cli_stats_rejects_non_positive_samples(count, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["stats", "--spec", "mw:n=16,l=9,p=2", "--samples", count])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--samples" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "make_input", [lambda tmp: tmp / "missing.txt", lambda tmp: tmp], ids=["missing", "directory"]
)
def test_cli_unopenable_input_is_usage_error(tmp_path, capsys, make_input):
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(make_input(tmp_path))])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot open")


def test_cli_unwritable_output_is_usage_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("111111111111111\n")
    out = tmp_path / "no-such-dir" / "out.txt"
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot open")


def test_cli_unwritable_dot_is_usage_error(tmp_path, capsys):
    rc = run_cli(["graph", "--spec", "mw:n=8,l=7,p=2", "--dot", str(tmp_path / "no-such-dir" / "g.dot")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot open")


def test_cli_graph_checks_dot_before_building(tmp_path, capsys):
    # the bound would also fail the build; the path is reported first, a missing directory or a directory
    for dot in (tmp_path / "no-such-dir" / "x.dot", tmp_path):
        rc = run_cli(["graph", "--spec", "mw:n=16,l=9,p=2", "--bound", "16", "--dot", str(dot)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: cannot open")


@pytest.mark.parametrize("spec", ["mw:n=16,l=9,p=2", "mw:n=16,l=3,p=2"], ids=["bound", "spec"])
def test_cli_graph_failed_build_leaves_no_dot(tmp_path, capsys, spec):
    dot = tmp_path / "x.dot"
    rc = run_cli(["graph", "--spec", spec, "--bound", "16", "--dot", str(dot)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert not dot.exists()


def test_cli_graph_refuses_a_state_space_no_array_can_hold(tmp_path, capsys):
    dot = tmp_path / "x.dot"
    rc = run_cli(["graph", "--spec", "mw:n=70,l=20,p=2", "--bound", str(10**25), "--dot", str(dot)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: q**n = 1180591620717411303424 step-graph targets do not fit in memory\n"
    assert not dot.exists()


def test_cli_non_ascii_input_is_line_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"111111111111111\n# caf\xc3\xa9\n111111111111111\n")
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: line 2:")
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["mw:n=16,l=9,p=2", "mw:n=16,l=3,p=2"], ids=["bound", "spec"])
def test_cli_failed_graph_keeps_existing_dot(tmp_path, capsys, spec):
    dot = tmp_path / "keep.dot"
    dot.write_text("digraph kept {}\n")
    rc = run_cli(["graph", "--spec", spec, "--bound", "16", "--dot", str(dot)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert dot.read_text() == "digraph kept {}\n"


def test_cli_failed_encode_keeps_existing_output(tmp_path, capsys):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("111111111111111\n0101\n")
    out.write_text("kept\n")
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: line 2:")
    assert out.read_text() == "kept\n"


def test_cli_rewrites_its_input_in_place(tmp_path):
    payloads = "000000000000000\n010101010101010\n111111111111111\n"
    path = tmp_path / "words.txt"
    path.write_text(payloads)
    for command in ("encode", "decode"):
        argv = [command, "--spec", "mw:n=16,l=9,p=2", "--input", str(path), "--output", str(path)]
        assert run_cli(argv) == 0
        if command == "encode":
            assert path.read_text() != payloads
    assert path.read_text() == payloads


def test_cli_output_to_devnull(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("111111111111111\n")
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", os.devnull])
    assert rc == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", ["decode", "check"])
def test_cli_decode_and_check_write_to_devnull(tmp_path, capsys, command):
    # a device is never truncated, so writing one succeeds
    src = tmp_path / "in.txt"
    src.write_text("1111111111111111\n")
    rc = run_cli([command, "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", os.devnull])
    assert rc == 0
    assert capsys.readouterr() == ("", "")


def test_cli_decode_names_a_non_codeword_and_keeps_the_output(tmp_path, capsys):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("1111111111111111\n1111111111111110\n")
    out.write_text("kept\n")
    rc = run_cli(["decode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: line 2: not a codeword (field-out-of-range: window index 15 out of range (limit 8))\n"
    )
    assert out.read_text() == "kept\n"


# (spec, q, word, reverse-step cap or None, reason): one word for each refusal
# of the built-in decoders, found by enumerating the spec's words
REFUSALS = [
    ("mw:n=16,l=9,p=2", 2, "0011100001100100", 2, "iter-cap"),  # 0^15's codeword, three steps from its start
    ("mw:n=16,l=9,p=2", 2, "0000000000000110", None, "reverse-cycle"),
    ("ss:n=8", 4, "00000002", None, "bad-marker"),
    ("rf:n=16,l=12", 2, "0000000000000010", None, "bad-padding"),
    ("mw:n=16,l=9,p=2", 2, "1111111111111110", None, "field-out-of-range"),
    ("mp:n=16,l=8,p=3", 2, "0000000000000000", None, "bad-packing"),
]


@pytest.mark.parametrize("spec, q, text, cap, reason", REFUSALS, ids=[refusal[-1] for refusal in REFUSALS])
def test_decode_refusal_names_its_reason(tmp_path, capsys, spec, q, text, cap, reason):
    codec = build_codec(parse_spec(spec), q)
    word = tuple(map(int, text))
    if cap is not None:
        object.__setattr__(codec, "iter_cap", cap)
    with pytest.raises(NotACodeword) as refusal:
        decode(codec, word)
    assert refusal.value.reason == reason
    if cap is None:  # the CLI decodes at the codec's own cap
        fmt = "bits" if q == 2 else "dna"
        src = tmp_path / "in.txt"
        src.write_text(word_to_text(word, fmt) + "\n")
        assert run_cli(["decode", "--spec", spec, "--format", fmt, "--input", str(src)]) == 1
        assert capsys.readouterr() == ("", f"error: line 1: not a codeword ({reason}: {refusal.value})\n")


def test_a_custom_refusal_has_no_reason():
    assert NotACodeword("refused").reason is None
    assert NotACodeword("refused", reason="bad-marker").reason == "bad-marker"


def test_cli_output_to_a_directory_is_usage_error(tmp_path, capsys):
    src, target = tmp_path / "in.txt", tmp_path / "dir"
    src.write_text("1111111111111111\n")
    target.mkdir()
    rc = run_cli(["decode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", str(target)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: cannot open {str(target)!r}: Is a directory\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--spec", "mw:n=16,l=9,p=2", "--output", "/dev/full"],
        ["graph", "--spec", "mw:n=8,l=7,p=2", "--dot", "/dev/full"],
    ],
    ids=["encode", "graph"],
)
def test_cli_write_error_is_usage_error(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO("111111111111111\n"))
    rc = run_cli(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot write '/dev/full':")
    assert captured.out == ""


def _library_text(count: int) -> tuple[str, str]:
    """The payload text of ``count`` lines under mw:n=16,l=9,p=2, and the library's codeword text."""
    codec = build_codec(parse_spec("mw:n=16,l=9,p=2"), 2)
    payloads = "".join(f"{i * 40503 % (1 << 15):015b}\n" for i in range(count))
    words = [encode(codec, tuple(map(int, line)))[0] for line in payloads.split()]
    return payloads, "".join(word_to_text(w, "bits") + "\n" for w in words)


def _no_temporary_file(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FillingFile(io.RawIOBase):
    """An anonymous file that takes ``room`` bytes and then fails as a full disk does."""

    def __init__(self, room: int):
        super().__init__()
        self.room, self.pos = room, 0

    def readable(self) -> bool:
        return True

    def writable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, pos: int, whence: int = 0) -> int:
        self.pos = pos if whence == 0 else self.pos + pos
        return self.pos

    def readinto(self, buffer) -> int:
        return 0

    def write(self, data) -> int:
        if self.pos + len(data) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.pos += len(data)
        return len(data)


def test_cli_small_output_never_touches_tmpdir(tmp_path, capsys, monkeypatch):
    payloads, codewords = _library_text(512)
    assert len(codewords) <= SPOOL_IN_MEMORY
    monkeypatch.setattr(tempfile, "TemporaryFile", _no_temporary_file)
    src, mid, dst = tmp_path / "in.txt", tmp_path / "mid.txt", tmp_path / "out.txt"
    src.write_text(payloads)
    common = ["--spec", "mw:n=16,l=9,p=2"]
    assert run_cli(["encode", *common, "--input", str(src), "--output", str(mid)]) == 0
    assert mid.read_text() == codewords
    assert run_cli(["decode", *common, "--input", str(mid), "--output", str(dst)]) == 0
    assert dst.read_text() == payloads
    assert run_cli(["decode", *common, "--input", str(mid)]) == 0
    assert capsys.readouterr() == (payloads, "")


def test_cli_output_past_the_spool_is_the_same_through_a_file_and_stdout(tmp_path, capsys):
    payloads, codewords = _library_text(4500)
    assert len(payloads) > SPOOL_IN_MEMORY
    src, mid, dst = tmp_path / "in.txt", tmp_path / "mid.txt", tmp_path / "out.txt"
    src.write_text(payloads)
    common = ["--spec", "mw:n=16,l=9,p=2"]
    assert run_cli(["encode", *common, "--input", str(src), "--output", str(mid)]) == 0
    assert mid.read_bytes() == codewords.encode("ascii")
    assert run_cli(["encode", *common, "--input", str(src)]) == 0
    assert capsys.readouterr() == (codewords, "")
    assert run_cli(["decode", *common, "--input", str(mid), "--output", str(dst)]) == 0
    assert dst.read_bytes() == payloads.encode("ascii")
    assert run_cli(["decode", *common, "--input", str(mid)]) == 0
    assert capsys.readouterr() == (payloads, "")


@pytest.mark.parametrize(
    "temporary_file",
    [
        _no_temporary_file,
        lambda *args, **kwargs: io.BufferedRandom(_FillingFile(0)),
        lambda *args, **kwargs: io.BufferedRandom(_FillingFile(70_000)),
    ],
    ids=["create", "roll-over", "later-write"],
)
def test_cli_output_that_cannot_be_spooled_is_usage_error(tmp_path, capsys, monkeypatch, temporary_file):
    payloads, codewords = _library_text(4500)
    assert SPOOL_IN_MEMORY < 70_000 < len(codewords)
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text(payloads)
    out.write_text("kept\n")
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    for target in (["--output", str(out)], []):
        rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src), *target])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: cannot spool output in TMPDIR: No space left on device\n")
        assert out.read_text() == "kept\n"


def test_cli_graph_dot_past_the_spool_is_the_oracle_text(tmp_path, capsys):
    from parcodec.oracle import build_state_graph, graph_to_dot

    dot = tmp_path / "graph.dot"
    assert run_cli(["graph", "--spec", "mw:n=12,l=9,p=2", "--dot", str(dot)]) == 0
    capsys.readouterr()
    codec = build_codec(parse_spec("mw:n=12,l=9,p=2"), 2)
    expected = "".join(graph_to_dot(codec, build_state_graph(codec)))
    assert len(expected) > SPOOL_IN_MEMORY
    assert dot.read_text() == expected


def _encode_argv(tmp_path, lines: int) -> list[str]:
    src = tmp_path / f"in{lines}.txt"
    src.write_text("".join(f"{i * 40503 % (1 << 15):015b}\n" for i in range(lines)))
    return ["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", str(tmp_path / "out.txt")]


def _traced_peak(argv, code: int = 0) -> int:
    """tracemalloc peak, in bytes, of one in-process CLI run that exits with ``code``."""
    tracemalloc.start()
    try:
        assert run_cli(argv) == code
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_memory_does_not_grow_with_the_stream(tmp_path):
    short, long = _encode_argv(tmp_path, 20_000), _encode_argv(tmp_path, 40_000)
    # a first run fills what a process keeps once: the parser, codec tables, free lists
    assert run_cli(short) == 0
    assert _traced_peak(long) <= _traced_peak(short) + 64 * 1024


def test_cli_dna_gives_the_library_codewords_byte_for_byte(tmp_path):
    from parcodec.words import text_to_word, word_to_text

    rng = __import__("random").Random(4)
    for text in ("ss:n=16", "rf:n=16,l=5", "mp:n=16,l=6,p=3"):
        codec = build_codec(parse_spec(text), 4)
        # half the payloads mostly A, so that some words take steps
        payloads = [
            tuple(rng.randrange(4) if i % 2 or rng.randrange(5) == 0 else 0 for _ in range(codec.k))
            for i in range(60)
        ]
        src, mid, dst = tmp_path / "in.txt", tmp_path / "mid.txt", tmp_path / "out.txt"
        src.write_text("".join(word_to_text(p, "dna") + "\n" for p in payloads))
        common = ["--spec", text, "--q", "4", "--format", "dna"]
        assert run_cli(["encode", *common, "--input", str(src), "--output", str(mid)]) == 0
        words = [encode(codec, p) for p in payloads]
        assert any(stats.iterations for _, stats in words)
        assert mid.read_bytes() == "".join(word_to_text(w, "dna") + "\n" for w, _ in words).encode("ascii")
        assert run_cli(["decode", *common, "--input", str(mid), "--output", str(dst)]) == 0
        assert dst.read_bytes() == src.read_bytes()
        assert [text_to_word(line, "dna") for line in dst.read_text().split()] == payloads


def test_cli_overwrites_a_longer_target_to_exactly_the_new_output(tmp_path, capsys):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("111111111111111\n")
    old = "#" * 50_000 + "\n"
    out.write_text(old)
    argv = ["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", str(out)]
    # a failed run leaves the long target as it was
    src.write_text("111111111111111\n0101\n")
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error: line 2:")
    assert out.read_text() == old
    src.write_text("111111111111111\n")
    assert run_cli(argv) == 0
    assert out.read_bytes() == b"1111111111111111\n"


def test_cli_names_an_output_it_cannot_open_for_writing(tmp_path, capsys, monkeypatch):
    # the target passes the up-front checks, and only opening it to write fails
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("111111111111111\n")
    real_open = os.open

    def refuse_target(path, *args, **kwargs):
        if path == str(out):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse_target)
    assert run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot open '{out}': Permission denied\n")
    assert not out.exists()


@pytest.mark.parametrize("text, q", [("mw:n=64,l=13,p=2", 2), ("ss:n=64", 4)])
def test_cli_reads_crlf_blanks_and_comments_as_the_library_does(tmp_path, text, q):
    fmt = "bits" if q == 2 else "dna"
    codec = build_codec(parse_spec(text), q)
    rng = random.Random(8)
    # half the payloads mostly 0, so that some words take steps
    payloads = [
        tuple(rng.randrange(q) if i % 2 or rng.randrange(5) == 0 else 0 for _ in range(codec.k))
        for i in range(40)
    ]
    words = [encode(codec, p) for p in payloads]
    assert any(stats.iterations for _, stats in words)
    pads = ("", " ", "  \t", "\t")
    lines = []
    for i, payload in enumerate(payloads):
        lines += [f"# payload {i}"] * (i % 3 == 0) + [" \t"] * (i % 4 == 1) + [""] * (i % 5 == 2)
        lines.append(f"{pads[i % 4]}{word_to_text(payload, fmt)}{pads[(i + 1) % 4]}")
    src, mid, dst = tmp_path / "in.txt", tmp_path / "mid.txt", tmp_path / "out.txt"
    src.write_bytes("\r\n".join(lines).encode("ascii"))  # CRLF endings, none after the last line
    common = ["--spec", text, "--q", str(q), "--format", fmt]
    assert run_cli(["encode", *common, "--input", str(src), "--output", str(mid)]) == 0
    assert mid.read_bytes() == "".join(word_to_text(w, fmt) + "\n" for w, _ in words).encode("ascii")
    assert run_cli(["decode", *common, "--input", str(mid), "--output", str(dst)]) == 0
    assert dst.read_bytes() == "".join(word_to_text(p, fmt) + "\n" for p in payloads).encode("ascii")


LONG = 2_000_000  # characters in one long input line


@pytest.mark.parametrize(
    "command, short",
    [("encode", "1" * 15), ("decode", "1" * 16), ("check", "1" * 16)],
)
@pytest.mark.parametrize("kind", ["data", "comment", "blank"])
def test_cli_memory_per_line_is_bounded(tmp_path, command, short, kind):
    src = tmp_path / "in.txt"
    argv = [command, "--spec", "mw:n=16,l=9,p=2", "--input", str(src), "--output", str(tmp_path / "out.txt")]
    src.write_text(f"{short}\n")
    assert run_cli(argv) == 0  # a first run fills what a process keeps once
    baseline = _traced_peak(argv)
    long_line = {"data": "1" * LONG, "comment": "#" + "1" * LONG, "blank": " " * LONG}[kind]
    src.write_text(f"{short}\n{long_line}\n{short}\n")
    assert _traced_peak(argv, 1 if kind == "data" else 0) <= baseline + 256 * 1024


def test_cli_refuses_an_overlong_data_line_by_its_number(tmp_path, capsys):
    from parcodec.cli import LINE_ROOM

    src = tmp_path / "in.txt"
    argv = ["decode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src)]
    # a line of exactly the limit, the word plus LINE_ROOM blanks, is read as usual
    src.write_text("1" * 16 + " " * (LINE_ROOM - 1) + "\n" + " " * LINE_ROOM + "1" * 16 + "\n")
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "111111111111111\n" * 2
    for long_line in ("1" * 16 + " " * (LINE_ROOM + 1), " " * (LINE_ROOM + 1) + "1" * 16, "1" * 100_000):
        src.write_text(f"# header\n{'1' * 16}\n{long_line}\n{'1' * 16}\n")
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line 3: line longer than {16 + LINE_ROOM} characters, expected a codeword of 16 symbols\n"
        )
    # a long comment line, however it starts, is skipped
    src.write_text(f"{' ' * 300}# {'x' * 300_000}\n{'1' * 16}\n")
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "111111111111111\n"
