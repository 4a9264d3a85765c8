"""Constraint-spec grammar and the command-line front end."""

import io
import sys

import pytest

from parcodec import (
    ParameterViolation,
    ParseError,
    build_codec,
    build_shrink,
    decode,
    encode,
    parse_spec,
    sample_roundtrip,
)
from parcodec.cli import main


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
        "intersect:ab:n=16+mw:n=16,l=10,p=2",  # composite member
        "intersect:mw:n=16,l=10,p=2+mp:n=8,l=9,p=3",  # mismatched n
    ],
)
def test_grammar_rejects(text):
    with pytest.raises(ParseError):
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


@pytest.mark.parametrize("text, q", [("mpl:n=16", 2), ("ss:n=8", 4), ("ab:n=16", 2)])
def test_build_shrink_rejects_non_members(text, q):
    with pytest.raises(ParameterViolation):
        build_shrink(parse_spec(text), q)


def test_srf_beta_table():
    codec = build_codec(parse_spec("srf:n=16,l=9,beta=10"))
    word, _ = encode(codec, (0,) * 15)
    assert decode(codec, word) == (0,) * 15


def test_srf_beta_rejects_bad_digits():
    with pytest.raises(ParameterViolation):
        build_codec(parse_spec("srf:n=16,l=9,beta=12"))  # digit 2 outside binary


def test_intersection_spec_builds_and_roundtrips():
    codec = build_codec(parse_spec("intersect:mw:n=16,l=10,p=2+mp:n=16,l=9,p=3"))
    report = sample_roundtrip(codec, 300, seed=11)
    assert report.ok


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


def test_cli_reports_first_bad_line(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("111111111111111\n0101\n000000000000000\n")
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "line 2" in captured.err


def test_cli_bad_symbol_is_line_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("00000000200000\n")
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src)])
    captured = capsys.readouterr()
    assert rc == 1  # bad data on line 1, not a usage error
    assert "line 1" in captured.err


def test_cli_spec_error_is_usage_error(capsys):
    rc = run_cli(["encode", "--spec", "rf:n=8,l=6", "--input", "-"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


def test_cli_format_q_mismatch(capsys):
    rc = run_cli(["encode", "--spec", "rss:n=8,l=5", "--q", "4", "--input", "-"])
    assert rc == 2  # bits format with q=4


def test_cli_stats_exhaustive(tmp_path, capsys):
    rc = run_cli(["stats", "--spec", "rf:n=8,l=7", "--exhaustive"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    keys = [line.split("=")[0] for line in lines]
    assert keys == ["inputs", "failures", "avg_iterations", "max_iterations", "constraint_count"]
    values = dict(line.split("=") for line in lines)
    assert values["inputs"] == "128"
    assert values["failures"] == "0"
    assert values["constraint_count"] == "254"
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


@pytest.mark.parametrize("count", ["-5", "0"])
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
    # the bound would also fail the build; the path is reported first
    dot = tmp_path / "no-such-dir" / "x.dot"
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


def test_cli_non_ascii_input_is_line_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"111111111111111\n# caf\xc3\xa9\n111111111111111\n")
    rc = run_cli(["encode", "--spec", "mw:n=16,l=9,p=2", "--input", str(src)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: line 2:")
    assert captured.out == ""
