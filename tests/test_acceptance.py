"""Acceptance suite: exhaustive desk-scale verification of every codec.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them)
and asserts exactly; every check is exact, with no tolerances.
"""

import numpy as np
import pytest

from parcodec import (
    ParameterViolation,
    build_codec,
    build_intersection,
    build_one_symbol,
    check_graph,
    check_shrink_injective,
    count_constraint,
    count_weight_at_most,
    exhaustive_roundtrip,
    forbidden_window_shrink,
    min_period_coder,
    min_weight_coder,
    no_palindrome_coder,
    parse_spec,
    repeat_free_shrink,
    reverse_complement_shrink,
    weight_window_coder,
)
from parcodec.global_codes import DNA_COMPLEMENT, almost_balanced_member

from oracles import (
    min_period_ok,
    min_weight_ok,
    no_palindrome_of_length_at_least,
    no_palindrome_windows,
    rc_pair_free,
    repeat_free_ok,
    weight_in,
    weight_window_ok,
    windows,
)


def _report_line(criterion, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion} [{label}]: {status} ({detail})")


def _mw16():
    return build_one_symbol(forbidden_window_shrink(min_weight_coder(16, 9, 2), 16))


def _mp16():
    return build_one_symbol(forbidden_window_shrink(min_period_coder(16, 8, 3), 16))


def _enp16():
    return build_one_symbol(forbidden_window_shrink(no_palindrome_coder(16, 10), 16))


def _lab16():
    return build_one_symbol(forbidden_window_shrink(weight_window_coder(16, 12, 2, 10), 16))


def _rf(n, ell):
    return build_one_symbol(repeat_free_shrink(n, ell))


def _rss8():
    return build_one_symbol(reverse_complement_shrink(8, 5))


# (label, codec factory, independent output scan)
SUITES = [
    ("mw q=2 n=16 l=9 p=2", _mw16, lambda w: min_weight_ok(w, 9, 2)),
    ("mp q=2 n=16 l=8 p=3", _mp16, lambda w: min_period_ok(w, 8, 3)),
    ("enp q=2 n=16 l=10", _enp16, lambda w: no_palindrome_windows(w, 10)),
    ("mpl q=2 n=16", lambda: build_codec(parse_spec("mpl:n=16")), lambda w: no_palindrome_of_length_at_least(w, 12)),
    ("lab q=2 n=16 l=12 w=[2,10]", _lab16, lambda w: weight_window_ok(w, 12, 2, 10)),
    ("rf q=2 n=8 l=7", lambda: _rf(8, 7), lambda w: repeat_free_ok(w, 7)),
    ("rf q=2 n=16 l=9", lambda: _rf(16, 9), lambda w: repeat_free_ok(w, 9)),
    ("rss q=4 n=8 l=5", _rss8, lambda w: rc_pair_free(w, 5, require_gap=True)),
    ("ss q=4 n=8", lambda: build_codec(parse_spec("ss:n=8"), 4), lambda w: rc_pair_free(w, 6, require_gap=False)),
    ("ab q=2 n=16", lambda: build_codec(parse_spec("ab:n=16")), lambda w: weight_in(w, 4, 12)),
]


@pytest.fixture(scope="module")
def roundtrip_reports():
    reports = {}
    for label, factory, scan in SUITES:
        codec = factory()
        reports[label] = (codec, exhaustive_roundtrip(codec, output_check=scan))
    return reports


def test_criterion_1_exhaustive_roundtrip(roundtrip_reports):
    # builder-level exact counting checks quoted by the criterion
    assert count_weight_at_most(16, 3) == 697 <= 2 ** 14
    lab_forbidden = sum(1 for _ in _lab_forbidden_windows())
    assert lab_forbidden == 26 <= 2 ** 7
    all_ok = True
    for label, _, _ in SUITES:
        codec, report = roundtrip_reports[label]
        expected_inputs = codec.q ** codec.k
        ok = report.ok and report.total_inputs == expected_inputs
        _report_line(1, label, ok, f"{report.total_inputs} inputs, {len(report.failures)} failures")
        all_ok = all_ok and ok
    assert all_ok


def _lab_forbidden_windows():
    from itertools import product

    for window in product((0, 1), repeat=12):
        weight = sum(window)
        if weight < 2 or weight > 10:
            yield window


def test_criterion_2_average_iterations(roundtrip_reports):
    all_ok = True
    for label, _, _ in SUITES:
        codec, report = roundtrip_reports[label]
        bound = codec.q ** (codec.n - codec.k) - 1  # the paper's mean bound, q - 1 for k = n - 1
        ok = report.avg_iterations <= bound
        _report_line(2, label, ok, f"avg={report.avg_iterations} <= {bound}")
        all_ok = all_ok and ok
    assert all_ok


def test_criterion_3_step_graph_properties():
    all_ok = True
    for label, factory in [
        ("mw q=2 n=8 l=7 p=2", lambda: build_one_symbol(forbidden_window_shrink(min_weight_coder(8, 7, 2), 8))),
        ("rf q=2 n=8 l=7", lambda: _rf(8, 7)),
    ]:
        codec = factory()
        report = check_graph(codec)
        path_sum = report.avg_iterations * report.total_inputs
        bound = codec.q ** codec.n - codec.q ** codec.k  # the paper's bound on the path sum
        ok = report.ok and path_sum <= bound
        _report_line(3, label, ok, f"path sum {path_sum} <= {bound}, {len(report.failures)} violations")
        all_ok = all_ok and ok
    assert all_ok


def test_criterion_4_constraint_capacity(roundtrip_reports):
    all_ok = True
    for label, _, _ in SUITES:
        codec, _ = roundtrip_reports[label]
        count = count_constraint(codec.q, codec.n, codec.satisfies)
        floor = codec.q ** (codec.n - 1)
        ok = count >= floor
        _report_line(4, label, ok, f"|C| = {count} >= {floor}")
        all_ok = all_ok and ok
    assert all_ok


# intersections with rows of two members (ab, ss), each output checked by the
# independent scans of every row it names
COMPOSITES = [
    ("intersect:ab:n=16+mw:n=16,l=12,p=2", 2, lambda w: weight_in(w, 4, 12) and min_weight_ok(w, 12, 2)),
    (
        "intersect:ss:n=8+mp:n=8,l=7,p=3", 4,
        lambda w: rc_pair_free(w, 6, require_gap=False) and min_period_ok(w, 7, 3),
    ),
]


@pytest.mark.parametrize("text, q, scan", COMPOSITES, ids=[text for text, _, _ in COMPOSITES])
def test_composite_of_multi_member_rows_is_exhaustively_exact(text, q, scan):
    codec = build_codec(parse_spec(text), q)
    roundtrip = exhaustive_roundtrip(codec, output_check=scan)
    graph = check_graph(codec)
    detail = f"{roundtrip.total_inputs} inputs, avg={roundtrip.avg_iterations}"
    _report_line(1, text, roundtrip.ok and graph.ok, detail)
    assert roundtrip.total_inputs == q ** codec.k
    assert roundtrip.failures == [] and graph.failures == []


def _acceptance_shrinks():
    ab_floor, ab_ceiling = (almost_balanced_member(16, heavy, 1) for heavy in (False, True))
    mpl_members = [
        forbidden_window_shrink(no_palindrome_coder(16, ell, q=2, slack=1), 16, slack=1)
        for ell in (12, 13)
    ]
    ss_members = [
        reverse_complement_shrink(8, 6, slack=1),
        forbidden_window_shrink(
            no_palindrome_coder(8, 8, comp=DNA_COMPLEMENT, q=4, slack=1), 8, slack=1
        ),
    ]
    return [
        ("mw shrink n=16", forbidden_window_shrink(min_weight_coder(16, 9, 2), 16)),
        ("mp shrink n=16", forbidden_window_shrink(min_period_coder(16, 8, 3), 16)),
        ("enp shrink n=16", forbidden_window_shrink(no_palindrome_coder(16, 10), 16)),
        ("lab shrink n=16", forbidden_window_shrink(weight_window_coder(16, 12, 2, 10), 16)),
        ("mpl member l=12", mpl_members[0]),
        ("mpl member l=13", mpl_members[1]),
        ("mpl combined", build_intersection(mpl_members)),
        ("rf shrink n=8", repeat_free_shrink(8, 7)),
        ("rf shrink n=16", repeat_free_shrink(16, 9)),
        ("rss shrink n=8", reverse_complement_shrink(8, 5)),
        ("ss member rss l=6", ss_members[0]),
        ("ss member palindrome l=8", ss_members[1]),
        ("ss combined", build_intersection(ss_members)),
        ("ab member floor", ab_floor),
        ("ab member ceiling", ab_ceiling),
        ("ab combined", build_intersection([ab_floor, ab_ceiling])),
    ]


def _acceptance_coders():
    return [
        ("mw coder l=9", min_weight_coder(16, 9, 2), 2),
        ("mp coder l=8", min_period_coder(16, 8, 3), 2),
        ("enp coder l=10", no_palindrome_coder(16, 10), 2),
        ("lab coder l=12", weight_window_coder(16, 12, 2, 10), 2),
        ("mpl coder l=12", no_palindrome_coder(16, 12, q=2, slack=1), 2),
        ("mpl coder l=13", no_palindrome_coder(16, 13, q=2, slack=1), 2),
        ("ss coder rc l=8", no_palindrome_coder(8, 8, comp=DNA_COMPLEMENT, q=4, slack=1), 4),
    ]


def test_criterion_5_shrink_and_coder_injectivity():
    from itertools import product

    all_ok = True
    for label, shrink in _acceptance_shrinks():
        report = check_shrink_injective(shrink)
        ok = report.ok
        _report_line(5, label, ok, f"{report.total_inputs} violating words, {len(report.failures)} failures")
        all_ok = all_ok and ok
    for label, coder, q in _acceptance_coders():
        failures = 0
        members = 0
        images = set()
        for window in product(range(q), repeat=coder.window_len):
            if not coder.is_forbidden(bytes(window)):
                continue
            members += 1
            packed = coder.pack(bytes(window))
            if (
                len(packed) != coder.packed_len
                or tuple(coder.unpack(packed)) != window
                or packed in images
            ):
                failures += 1
            images.add(packed)
        ok = failures == 0
        _report_line(5, label, ok, f"{members} forbidden windows, {failures} failures")
        all_ok = all_ok and ok
    assert all_ok


def test_criterion_6_parameter_bounds():
    cases = [
        ("mw minimal l", lambda: min_weight_coder(16, 9, 2), lambda: min_weight_coder(16, 8, 2)),
        ("rf n=16 minimal l", lambda: repeat_free_shrink(16, 9), lambda: repeat_free_shrink(16, 8)),
        ("rf n=8 minimal l", lambda: repeat_free_shrink(8, 7), lambda: repeat_free_shrink(8, 6)),
        ("enp minimal l", lambda: no_palindrome_coder(16, 10), lambda: no_palindrome_coder(16, 9)),
        ("mp minimal l", lambda: min_period_coder(16, 8, 3), lambda: min_period_coder(16, 7, 3)),
        ("ab minimal n", lambda: build_codec(parse_spec("ab:n=5")), lambda: build_codec(parse_spec("ab:n=4"))),
    ]
    all_ok = True
    for label, accept, reject in cases:
        try:
            accept()
            accepted = True
        except ParameterViolation:
            accepted = False
        try:
            reject()
            rejected = False
        except ParameterViolation:
            rejected = True
        ok = accepted and rejected
        _report_line(6, label, ok, f"accepts minimum: {accepted}, rejects below: {rejected}")
        all_ok = all_ok and ok
    assert all_ok


def test_criterion_7_overlap_reconstruction():
    from itertools import product

    shrink = repeat_free_shrink(8, 7)
    checked = 0
    failures = 0
    for word in product((0, 1), repeat=8):
        pair = _minimal_equal_pair(word, 7)
        if pair is None:
            continue
        i, j = pair
        if j >= i + 7:
            continue  # only overlapping minimal pairs are in scope
        checked += 1
        if tuple(shrink.unshrink(shrink.shrink(bytes(word)))) != word:
            failures += 1
    ok = failures == 0 and checked == 2  # exactly the two constant words
    _report_line(7, "rf n=8 l=7 overlaps", ok, f"{checked} overlapping words, {failures} failures")
    assert ok


def _minimal_equal_pair(word, ell):
    ws = windows(word, ell)
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if ws[i] == ws[j]:
                return i, j
    return None


def test_criterion_8_overlap_palindrome_reduction():
    # Exhaustive over all quaternary words of length <= 12 with window length 6:
    # wherever a window overlaps its own reverse complement, a reverse-complement
    # palindrome of length exactly 8 must occur somewhere in the word.
    ell = 6
    palindrome_len = 8
    total_pair_words = 0
    counterexamples = 0
    for length in range(ell + 1, 13):
        pair_words, bad = _scan_overlap_reduction(length, ell, palindrome_len)
        total_pair_words += pair_words
        counterexamples += bad
    ok = counterexamples == 0 and total_pair_words > 0
    _report_line(
        8, "q=4 lengths 7..12", ok,
        f"{total_pair_words} words with overlapping pairs, {counterexamples} counterexamples",
    )
    assert ok


def _scan_overlap_reduction(length, ell, palindrome_len):
    """Vectorized scan of all 4**length words; returns (pair word count, counterexamples)."""
    pair_words = 0
    counterexamples = 0
    chunk = 1 << 20
    total = 4 ** length
    shifts = [2 * (length - 1 - t) for t in range(length)]
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((codes.size, length), dtype=np.int8)
        for t, shift in enumerate(shifts):
            digits[:, t] = (codes >> shift) & 3
        pair_mask = np.zeros(codes.size, dtype=bool)
        for i in range(length - ell + 1):
            for j in range(i + 1, min(i + ell, length - ell + 1)):
                m = np.ones(codes.size, dtype=bool)
                for t in range(ell):
                    # window at j equals the reverse complement of window at i
                    m &= digits[:, j + t] == 3 - digits[:, i + ell - 1 - t]
                    if not m.any():
                        break
                pair_mask |= m
        hits = digits[pair_mask]
        pair_words += hits.shape[0]
        if not hits.shape[0]:
            continue
        has_palindrome = np.zeros(hits.shape[0], dtype=bool)
        for p in range(length - palindrome_len + 1):
            m = np.ones(hits.shape[0], dtype=bool)
            for t in range(palindrome_len // 2):
                m &= hits[:, p + t] == 3 - hits[:, p + palindrome_len - 1 - t]
            has_palindrome |= m
        counterexamples += int((~has_palindrome).sum())
    return pair_words, counterexamples
