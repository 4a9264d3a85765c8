"""Hostile spec parameters and lines: every refusal is quick and clean.

A window length ell above the word length n, or a tail that no window up to
n can hold, is refused before any table sized by ell or p is built.  The
property tests draw parameters from 0, 1, small values, n - 1, n, n + 1,
10**6 and 10**30, for every registry row, intersections of them, every
command, both formats and random lines: the CLI returns 0, 1 or 2 and
raises nothing, and the library builders build or raise ParameterViolation,
each within the deadline.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from parcodec import (
    ParameterViolation,
    build_codec,
    ceil_log,
    forbidden_window_shrink,
    listed_window_coder,
    min_period_coder,
    min_weight_coder,
    no_palindrome_coder,
    parse_spec,
    repeat_free_shrink,
    reverse_complement_shrink,
    weight_window_coder,
)
from parcodec.cli import main
from parcodec.global_codes import MAX_AB_N, almost_balanced_member, secondary_structure_member
from parcodec.specs import _CONSTRAINTS
from parcodec.words import FORMAT_ALPHABETS, FORMAT_Q, MAX_KEY_BITS

E6, E30 = 10**6, 10**30

# (spec, refusal): specs whose parameters once crashed or hung the CLI
# (OverflowError, MemoryError, an open search for a window length, or a
# valid size whose build never ends)
FAR_ABOVE_N = [
    (f"mw:n=16,l={E30},p=10", f"window length {E30} exceeds word length 16"),
    (f"lab:n=64,l={E30},wmin=10,wmax=31", f"window length {E30} exceeds word length 64"),
    (f"rf:n=20,l={E30}", f"window length {E30} exceeds word length 20"),
    (f"enp:n=20,l={E30}", f"window length {E30} exceeds word length 20"),
    (f"rf:n=20,l={E6}", f"window length {E6} exceeds word length 20"),
    (f"srf:n=4,l={E6},beta=10", f"window length {E6} exceeds word length 4"),
    (f"mw:n=64,l=1,p={E6}", "no window length up to n = 64 fits"),
    (f"mp:n=16,l={10**8},p=3", f"window length {10**8} exceeds word length 16"),
    (f"mp:n=16,l={10**10},p=3", f"window length {10**10} exceeds word length 16"),
    (f"mp:n=16,l={E30},p=3", f"window length {E30} exceeds word length 16"),
    (f"ab:n={E6}", f"ab word length n = {E6} exceeds MAX_AB_N = {MAX_AB_N}"),
    (f"ab:n={E30}", f"ab word length n = {E30} exceeds MAX_AB_N = {MAX_AB_N}"),
    (f"rf:n={E30},l={E6}", f"window key of l * ceil(log2 q) = {E6} bits exceeds MAX_KEY_BITS = {MAX_KEY_BITS}"),
]


@pytest.mark.parametrize("spec, refusal", FAR_ABOVE_N, ids=[spec for spec, _ in FAR_ABOVE_N])
def test_cli_refuses_a_parameter_no_word_can_hold_at_once(tmp_path, capsys, spec, refusal):
    src = tmp_path / "in.txt"
    src.write_text("0101\n")
    start = time.perf_counter()
    rc = main(["check", "--spec", spec, "--input", str(src)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    slack = ceil_log(len(_CONSTRAINTS[spec.partition(":")[0]].members), 2)  # the width of a member tag at q = 2
    assert err.startswith(f"error: member '{spec}' at slack {slack}: ") and err.endswith(f"{refusal}\n")


def _key_refusal(bits):
    return f"window key of l * ceil(log2 q) = {bits} bits exceeds MAX_KEY_BITS = {MAX_KEY_BITS}"


def _ab_refusal(n):
    return f"ab word length n = {n} exceeds MAX_AB_N = {MAX_AB_N}"


# builds past a size bound, each refused at once: they hung past 10 s (rss: 4.9 s)
# when only the rf, srf, rss and ab spec rows checked the bounds
BOUND_BY_THE_BUILDER = [
    pytest.param(lambda: repeat_free_shrink(E30, E6), _key_refusal(E6), id="rf-l1e6"),
    pytest.param(lambda: repeat_free_shrink(E6, 5000, q=4), _key_refusal(10000), id="rf-q4-l5000"),
    pytest.param(lambda: repeat_free_shrink(4096, 2049), _key_refusal(2049), id="rf-l2049"),
    pytest.param(lambda: reverse_complement_shrink(E6, 3000), _key_refusal(6000), id="rss-l3000"),
    pytest.param(lambda: secondary_structure_member(10**2000, False, 1),
                 _key_refusal(2 * (2 * ceil_log(10**2000, 4) + 2)), id="ss-n1e2000"),
    pytest.param(lambda: listed_window_coder([(0,) * 2049], 4096, 2049), _key_refusal(2049), id="listed-l2049"),
    pytest.param(lambda: almost_balanced_member(E6, False, 0), _ab_refusal(E6), id="ab-1e6"),
    pytest.param(lambda: almost_balanced_member(MAX_AB_N + 1, True, 1), _ab_refusal(MAX_AB_N + 1), id="ab-2^14+1"),
]


@pytest.mark.parametrize("build, refusal", BOUND_BY_THE_BUILDER)
def test_library_builders_refuse_what_the_spec_path_refuses_at_once(build, refusal):
    start = time.perf_counter()
    with pytest.raises(ParameterViolation) as refused:
        build()
    assert time.perf_counter() - start < 1.0
    assert str(refused.value) == refusal


def test_library_builders_build_just_inside_each_size_bound():
    assert repeat_free_shrink(4096, 2048).n == 4096  # keys of exactly MAX_KEY_BITS bits
    assert reverse_complement_shrink(4096, MAX_KEY_BITS // 2).n == 4096
    assert build_codec(parse_spec(f"ab:n={MAX_AB_N}")).n == MAX_AB_N


def _values(n):
    return st.sampled_from((0, 1, 2, 3, 5, 9, n - 1, n, n + 1, E6, E30)) | st.integers(0, 40)


_WORD_LENGTHS = st.integers(2, 1024) | st.sampled_from(
    (2, 3, 4, 5, 8, 9, 16, 17, 63, 64, 65, 255, 256, 257, 1023, 1024)
)


@st.composite
def _member_text(draw, n):
    name = draw(st.sampled_from(sorted(_CONSTRAINTS)))
    row = _CONSTRAINTS[name]
    params = []
    for key in row.params:
        if key == "n":
            params.append(f"n={n}")
        elif key not in row.optional:
            params.append(f"{key}={draw(_values(n))}")
        elif draw(st.booleans()):
            params.append(f"{key}={draw(st.integers(0, 1))}")
    return f"{name}:{','.join(params)}"


@st.composite
def _spec_text(draw, n):
    members = draw(st.lists(_member_text(n), min_size=1, max_size=3))
    return members[0] if len(members) == 1 else "intersect:" + "+".join(members)


def _lines(n, fmt):
    # payloads and codewords of the format, and short lines of anything
    alphabet = FORMAT_ALPHABETS[fmt]
    words = st.sampled_from((n - 1, n)).flatmap(lambda m: st.text(alphabet, min_size=m, max_size=m))
    junk = st.text("01ACGTx# \té", max_size=12)
    return st.lists(words | junk, max_size=3).map(lambda lines: "".join(f"{line}\n" for line in lines))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(max_examples=150, deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow])
@given(
    n=_WORD_LENGTHS,
    command=st.sampled_from(("encode", "decode", "check", "stats", "graph")),
    fmt=st.sampled_from(sorted(FORMAT_Q)),
    data=st.data(),
)
def test_cli_on_hostile_specs_exits_cleanly(workdir, n, command, fmt, data):
    spec = data.draw(_spec_text(n), label="spec")
    argv = [command, "--spec", spec, "--q", str(FORMAT_Q[fmt]), "--format", fmt]
    if command in ("encode", "decode", "check"):
        src = workdir / "in.txt"
        src.write_text(data.draw(_lines(n, fmt), label="input"))
        argv += ["--input", str(src)]
    elif command == "stats":
        argv += ["--bound", "256", *data.draw(st.sampled_from((["--exhaustive"], ["--samples", "2"])))]
    else:
        argv += ["--bound", "256", "--dot", str(workdir / "graph.dot")]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2)


# (name, build(n, ell, a, b, q)); a coder factory is called only with ell <= n,
# as it takes any window length (its tests build short index fields that way)
_CODERS = {
    "mw": lambda n, ell, a, b, q: min_weight_coder(n, ell, a),
    "lab": lambda n, ell, a, b, q: weight_window_coder(n, ell, a, b),
    "mp": lambda n, ell, a, b, q: min_period_coder(n, ell, a, q=q),
    "enp": lambda n, ell, a, b, q: no_palindrome_coder(n, ell, q=q),
    "listed": lambda n, ell, a, b, q: listed_window_coder([(0,) * ell], n, ell, q=q),
}
_SHRINKS = {
    "rf": lambda n, ell, a, b, q: repeat_free_shrink(n, ell, q),
    "srf": lambda n, ell, a, b, q: repeat_free_shrink(n, ell, symbol_map=(1, 0)),
    "rss": lambda n, ell, a, b, q: reverse_complement_shrink(n, ell),
    "mpl": lambda n, ell, a, b, q: build_codec(parse_spec(f"mpl:n={n}"), q),
    "ss": lambda n, ell, a, b, q: build_codec(parse_spec(f"ss:n={n}"), 4),
    "ab": lambda n, ell, a, b, q: build_codec(parse_spec(f"ab:n={n}"), 2),
}


@settings(max_examples=100, deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted({**_CODERS, **_SHRINKS})), q=st.sampled_from((2, 4)), data=st.data())
def test_library_builders_on_hostile_parameters_build_or_refuse(name, q, data):
    n = data.draw(_WORD_LENGTHS)
    ell, a, b = (data.draw(_values(n)) for _ in range(3))
    if name in _CODERS and ell > n:
        return
    try:
        if name in _CODERS:
            forbidden_window_shrink(_CODERS[name](n, ell, a, b, q), n)
        else:
            _SHRINKS[name](n, ell, a, b, q)
    except ParameterViolation:
        pass
