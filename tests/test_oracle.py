"""Verification harness: graph checks, counting, injectivity, sampling."""

import hashlib
import re
import tracemalloc
from array import array
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from parcodec import (
    BoundExceeded,
    CodecSpec,
    DimensionMismatch,
    NotACodeword,
    ShrinkStep,
    all_words,
    build_codec,
    build_one_symbol,
    build_state_graph,
    check_graph,
    check_shrink_injective,
    count_constraint,
    encode,
    exhaustive_roundtrip,
    forbidden_window_shrink,
    graph_to_dot,
    min_weight_coder,
    parse_spec,
    repeat_free_shrink,
    sample_roundtrip,
)
from parcodec.oracle import (
    CYCLE,
    EDGE_INTO_START,
    IMAGE_COLLISION,
    IMAGE_LENGTH,
    IMAGE_SYMBOL,
    IN_DEGREE,
    INVERSE,
    PATH_SUM,
    ROUNDTRIP,
    _RUN,
    _SAMPLE_BLOCK,
    _engine_words,
    _jump_tables,
    _XorShift64Star,
)


def mw8_codec():
    return build_one_symbol(forbidden_window_shrink(min_weight_coder(8, 7, 2), 8))


def rf8_codec():
    return build_one_symbol(repeat_free_shrink(8, 7))


# --- exhaustive roundtrip -----------------------------------------------------

def test_roundtrip_report_clean_for_small_codec():
    report = exhaustive_roundtrip(mw8_codec())
    assert report.ok
    assert report.total_inputs == 128
    assert report.avg_iterations <= 2
    assert isinstance(report.avg_iterations, Fraction)


def test_roundtrip_respects_bound():
    with pytest.raises(BoundExceeded):
        exhaustive_roundtrip(mw8_codec(), bound=64)


def test_roundtrip_output_check_hook():
    report = exhaustive_roundtrip(mw8_codec(), output_check=lambda word: word[0] == 0)
    assert not report.ok  # plenty of codewords start with 1
    assert all(kind == "output-check" for _, kind in report.failures)


def _colliding_codec():
    """No steps; payloads (0, 0) and (0, 1) both embed to the codeword 001."""
    return CodecSpec(
        q=2, n=3, k=2,
        embed=lambda x: type(x)((0, 0, 1)) if tuple(x) == (0, 1) else x + type(x)((1,)),
        unembed=lambda y: y[:-1],
        is_start=lambda y: y[-1] == 1,
        step=lambda y: y,
        step_back=lambda y: y,
        satisfies=lambda y: True,
    )


def test_roundtrip_catches_two_payloads_on_one_codeword():
    # decode gives 001 one payload, so the other one fails its round trip
    report = exhaustive_roundtrip(_colliding_codec())
    assert not report.ok
    assert report.failures == [((0, 1), ROUNDTRIP)]


def _refuse(word):
    raise NotACodeword("refused")


def test_roundtrip_records_a_refused_decode():
    # no reverse step: exactly the payloads whose encode took steps fail their round trip
    codec = mw8_codec()
    stepped = [x for x in all_words(2, codec.k) if encode(codec, x)[1].iterations]
    report = exhaustive_roundtrip(replace(codec, step_back=_refuse))
    assert stepped
    assert report.failures == [(x, ROUNDTRIP) for x in stepped]


# --- engine words ----------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
def test_engine_words_are_all_words_as_bytes_in_order(q, n):
    assert list(_engine_words(q, n)) == list(map(bytes, all_words(q, n)))


# --- graph checks ---------------------------------------------------------------

def test_graph_properties_hold_for_min_weight():
    report = check_graph(mw8_codec())
    assert report.ok
    # disjoint paths cannot exceed the state space
    assert report.avg_iterations * report.total_inputs <= 2 ** 8


def test_graph_properties_hold_for_repeat_free():
    report = check_graph(rf8_codec())
    assert report.ok


def test_graph_counts_constraint_words():
    report = check_graph(mw8_codec())
    direct = count_constraint(2, 8, mw8_codec().satisfies)
    assert report.constraint_count == direct


def _faulty_codec():
    """Deliberately corrupt step: two words map to one target, forming a cycle."""
    table = {
        bytes((0, 0)): bytes((1, 0)),
        bytes((1, 0)): bytes((1, 0)),  # collides with the image of (0, 0) and self-loops
        bytes((0, 1)): bytes((0, 0)),
    }

    return CodecSpec(
        q=2, n=2, k=1,
        embed=lambda x: x + type(x)((1,)),
        unembed=lambda y: y[:-1],
        is_start=lambda y: y[-1] == 1,
        step=lambda y: table[y],
        step_back=lambda y: y,
        satisfies=lambda y: tuple(y) == (1, 1),
    )


def test_graph_flags_in_degree_and_cycle():
    # witness, kind and order: the in-degree witness is the second edge into 10,
    # the cycle is named by 01, payload 0 embedded, whose walk takes 5 > 2**2 steps
    report = check_graph(_faulty_codec())
    assert report.failures == [((1, 0), IN_DEGREE), ((0, 1), CYCLE), ((), PATH_SUM)]
    assert (report.avg_iterations, report.max_iterations, report.constraint_count) == (Fraction(5, 2), 5, 1)


def _into_start_codec(table, q=2, n=3, k=2):
    """Payload x embeds as x1, the start words; the words in ``table`` step by it, the others are valid."""
    return CodecSpec(
        q=q, n=n, k=k,
        embed=lambda x: x + type(x)((1,)),
        unembed=lambda y: y[:-1],
        is_start=lambda y: y[-1] == 1,
        step=lambda y: table[y],
        step_back=lambda y: y,
        satisfies=lambda y: y not in table,
    )


INTO_START_CASES = {
    # 000 -> 011 and 010 -> 001: two start edges and no shared target
    "distinct-targets": (
        ((0, 0, 0), (0, 1, 1)), ((0, 1, 0), (0, 0, 1)),
        [((0, 1, 1), EDGE_INTO_START), ((0, 0, 1), EDGE_INTO_START)],
    ),
    # 100 -> 011 as well: its in-degree witness comes before its start edge
    "shared-target": (
        ((0, 0, 0), (0, 1, 1)), ((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1)),
        [
            ((0, 1, 1), EDGE_INTO_START),
            ((0, 0, 1), EDGE_INTO_START),
            ((0, 1, 1), IN_DEGREE),
            ((0, 1, 1), EDGE_INTO_START),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(INTO_START_CASES))
def test_graph_names_edges_into_start_words_in_edge_order(name):
    *steps, failures = INTO_START_CASES[name]
    report = check_graph(_into_start_codec({bytes(word): bytes(image) for word, image in steps}))
    assert report.failures == failures
    # every payload embeds into a word with no out-edge
    assert (report.avg_iterations, report.max_iterations) == (0, 0)


def test_graph_caps_total_walk_length_at_q_n_minus_q_k():
    # 01 -> 00 -> 10 and 11 -> 00 -> 10: 4 steps in all, at most q**n = 4 but above q**n - q**k = 2
    report = check_graph(_into_start_codec({b"\0\1": b"\0\0", b"\1\1": b"\0\0", b"\0\0": b"\1\0"}, n=2, k=1))
    assert report.failures == [((0, 0), IN_DEGREE), ((), PATH_SUM)]
    assert (report.avg_iterations, report.max_iterations, report.constraint_count) == (2, 2, 1)


@pytest.mark.parametrize("q", [3, 36, 37])
def test_graph_walk_ranks_starts_on_either_side_of_the_digit_alphabet(q):
    # (q-1)1 -> (q-1)0, which steps to itself: decode_index ranks with int() up to q = 36, symbol by symbol above
    top = q - 1
    table = {bytes((top, 1)): bytes((top, 0)), bytes((top, 0)): bytes((top, 0))}
    report = check_graph(_into_start_codec(table, q=q, n=2, k=1))
    assert report.failures == [((top, 0), IN_DEGREE), ((top, 1), CYCLE), ((), PATH_SUM)]
    assert report.max_iterations == q**2 + 1


@pytest.mark.parametrize(
    "image, refusal",
    [((1, 0, 0), "step image has length 3, expected 2"), ((1, 7), "step image contains symbol 7 outside alphabet [0, 2)")],
)
def test_graph_refuses_a_step_image_that_is_not_a_word(image, refusal):
    with pytest.raises(DimensionMismatch, match=re.escape(f"word (0, 0): {refusal}")):
        build_state_graph(_into_start_codec({b"\0\0": bytes(image)}, n=2, k=1))


@pytest.mark.parametrize(
    "embed, refusal",
    [
        (lambda x: x, "embedded payload has length 2, expected 3"),
        (lambda x: x + b"\5", "embedded payload contains symbol 5 outside alphabet [0, 2)"),
    ],
)
def test_graph_refuses_an_embedded_payload_that_is_not_a_word(embed, refusal):
    codec = replace(_into_start_codec({}), embed=embed)
    with pytest.raises(DimensionMismatch, match=re.escape(f"payload (0, 0): {refusal}")):
        check_graph(codec)


@pytest.mark.parametrize(
    "codec_text, graph_text", [("mw:n=16,l=9,p=2", "mw:n=8,l=7,p=2"), ("mw:n=8,l=7,p=2", "mw:n=16,l=9,p=2")]
)
def test_graph_check_and_dot_refuse_the_graph_of_another_codec(codec_text, graph_text):
    # a shorter graph once gave an IndexError and a 281-line DOT, a longer one an OverflowError
    codec = build_codec(parse_spec(codec_text))
    graph = build_state_graph(build_codec(parse_spec(graph_text)))
    refusal = re.escape(f"step graph has length {len(graph)}, expected q**n = {2**codec.n}")
    with pytest.raises(DimensionMismatch, match=refusal):
        check_graph(codec, graph=graph)
    with pytest.raises(DimensionMismatch, match=refusal):
        next(graph_to_dot(codec, graph))


def test_graph_build_check_and_dot_peak_under_one_mib():
    # the graph is one array of q**n ranks; a dict of bytes edges and a set of targets took 2.5 MiB on this spec
    codec = build_codec(parse_spec("enp:n=16,l=10"))
    tracemalloc.start()
    try:
        graph = build_state_graph(codec)
        assert check_graph(codec, graph=graph).ok
        deque(graph_to_dot(codec, graph), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_graph_bound_refusal():
    with pytest.raises(BoundExceeded):
        check_graph(mw8_codec(), bound=100)


def test_graph_refuses_a_state_space_no_array_can_hold():
    # 2**70 is within this bound but above sys.maxsize: refused before any allocation
    codec = build_codec(parse_spec("mw:n=70,l=20,p=2"))
    with pytest.raises(BoundExceeded, match=r"^q\*\*n = 1180591620717411303424 step-graph targets do not fit"):
        build_state_graph(codec, bound=10**25)


# --- DOT export -----------------------------------------------------------------

def test_dot_output_is_deterministic_and_ordered():
    codec = mw8_codec()
    first = "".join(graph_to_dot(codec, build_state_graph(codec)))
    second = "".join(graph_to_dot(codec, build_state_graph(codec)))
    assert first == second
    # lexicographically first and last words appear, in order
    assert first.index('"00000000"') < first.index('"11111111"')


def test_dot_marks_roles():
    codec = mw8_codec()
    dot = "".join(graph_to_dot(codec, build_state_graph(codec)))
    # 1^8 satisfies the constraint and ends in the start marker
    assert '"11111111" [style=filled fillcolor="palegreen" peripheries=2];' in dot
    # 0^8 violates it and is not a start word
    assert '"00000000" [style=filled fillcolor="white" peripheries=1];' in dot
    assert '"00000000" -> ' in dot


@pytest.mark.parametrize("q, n, word, name", [(12, 3, (10, 11, 0), "ab0"), (37, 2, (36, 0), "2400")])
def test_dot_gives_every_node_its_own_name(q, n, word, name):
    # one digit per symbol up to q = 36, two hex digits per symbol above
    # graph_to_dot reads only q, n and is_start from its codec
    codec = SimpleNamespace(q=q, n=n, is_start=lambda _: False)
    names = [line.split('"')[1] for line in graph_to_dot(codec, array("i", [-1]) * q**n) if "style=filled" in line]
    assert len(set(names)) == len(names) == q**n
    assert names[sum(s * q ** (n - 1 - t) for t, s in enumerate(word))] == name


# --- counting -------------------------------------------------------------------

def test_count_constraint_trivial_predicate():
    assert count_constraint(2, 8, lambda word: True) == 256


def test_count_constraint_capacity_holds_for_repeat_free():
    count = count_constraint(2, 8, rf8_codec().satisfies)
    assert count == 256 - 2  # only the two constant words repeat a 7-window
    assert count >= 2 ** 7


def test_count_constraint_bound():
    with pytest.raises(BoundExceeded):
        count_constraint(2, 21, lambda word: True)


# --- shrink injectivity -----------------------------------------------------------

def test_shrink_injectivity_clean():
    shrink = forbidden_window_shrink(min_weight_coder(8, 7, 2), 8)
    report = check_shrink_injective(shrink)
    assert report.ok
    complement = report.total_inputs
    assert complement + count_constraint(2, 8, shrink.satisfies) == 256


def test_shrink_injectivity_flags_truncation():
    inner = forbidden_window_shrink(min_weight_coder(8, 7, 2), 8)
    truncating = ShrinkStep(
        q=2, n=8, slack=0,
        first_violation=inner.first_violation,
        cut=lambda w, witness: inner.cut(w, witness)[:5],
        unshrink=inner.unshrink,
    )
    report = check_shrink_injective(truncating)
    assert not report.ok
    assert {kind for _, kind in report.failures} == {IMAGE_LENGTH}


def test_shrink_injectivity_flags_collisions():
    inner = forbidden_window_shrink(min_weight_coder(8, 7, 2), 8)
    constant = ShrinkStep(
        q=2, n=8, slack=0,
        first_violation=inner.first_violation,
        cut=lambda w, witness: bytes((0,) * 7),
        unshrink=inner.unshrink,
    )
    report = check_shrink_injective(constant)
    assert IMAGE_COLLISION in {kind for _, kind in report.failures}


def test_shrink_injectivity_flags_out_of_alphabet_symbols():
    inner = forbidden_window_shrink(min_weight_coder(8, 7, 2), 8)
    # only the all-zero word's image holds the symbol q = 2
    leaky = ShrinkStep(
        q=2, n=8, slack=0,
        first_violation=inner.first_violation,
        cut=lambda w, witness: bytes((2,) * 7) if w == bytes(8) else inner.cut(w, witness),
        unshrink=inner.unshrink,
    )
    report = check_shrink_injective(leaky)
    assert report.failures == [((0,) * 8, IMAGE_SYMBOL)]


def test_shrink_injectivity_records_a_refused_unshrink():
    inner = forbidden_window_shrink(min_weight_coder(8, 7, 2), 8)
    refusing = ShrinkStep(
        q=2, n=8, slack=0, first_violation=inner.first_violation, cut=inner.cut, unshrink=_refuse
    )
    report = check_shrink_injective(refusing)
    assert report.total_inputs > 0
    assert len(report.failures) == report.total_inputs
    assert {kind for _, kind in report.failures} == {INVERSE}


# --- sampling ---------------------------------------------------------------------

def test_sampling_is_reproducible():
    codec = mw8_codec()
    first = sample_roundtrip(codec, 50, seed=7)
    second = sample_roundtrip(codec, 50, seed=7)
    assert first.ok and second.ok
    assert first.avg_iterations == second.avg_iterations
    assert not first.exhaustive
    assert first.seed == 7


@pytest.mark.parametrize("samples", [0, -3])
def test_sampling_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        sample_roundtrip(mw8_codec(), samples, seed=1)


def test_sampling_reports_mode_and_seed():
    lines = sample_roundtrip(mw8_codec(), 10, seed=3).kv_lines()
    assert "mode=sampled" in lines
    assert "seed=3" in lines


def _reference_xorshift(seed, count):
    """xorshift64*, written out here apart from the package's generator."""
    x = seed % 2**64 or 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        x ^= x >> 12
        x ^= (x << 25) % 2**64
        x ^= x >> 27
        out.append(x * 0x2545F4914F6CDD1D % 2**64)
    return out


# a lane draws _RUN outputs: counts around one lane, four lanes and a short fifth, and a
# draw longer than one of sample_roundtrip's blocks
DRAW_COUNTS = [0, 1, _RUN - 1, _RUN, _RUN + 1, 4 * _RUN + 3, 1023, _SAMPLE_BLOCK + 5]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 + 7, -1])
@pytest.mark.parametrize("count", DRAW_COUNTS)
def test_generator_outputs_match_the_reference_recurrence(seed, count):
    assert _XorShift64Star(seed).outputs(count) == _reference_xorshift(seed, count)


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 7])
@pytest.mark.parametrize("count", DRAW_COUNTS)
def test_generator_symbols_are_the_outputs_mod_q(seed, count):
    expected = _reference_xorshift(seed, count + 1)
    for q in (1, 2, 3, 4, 8, 255, 256):  # both reductions: the low byte when q divides 256
        rng = _XorShift64Star(seed)
        assert rng.symbols(count, q) == bytes(output % q for output in expected[:count])
        assert rng.next64() == expected[count]  # the state continues after the draw


def test_generator_lane_draws_mix_on_one_stream():
    rng, reference = _XorShift64Star(11), iter(_reference_xorshift(11, 8 * _RUN))

    def expect(count, q=None):
        return [output if q is None else output % q for output in islice(reference, count)]

    assert rng.outputs(_RUN + 1) == expect(_RUN + 1)
    assert [rng.next64()] == expect(1)
    assert list(rng.symbols(4 * _RUN + 3, 3)) == expect(4 * _RUN + 3, 3)
    assert [rng.symbol(7)] == expect(1, 7)
    assert list(rng.symbols(_RUN, 4)) == expect(_RUN, 4)
    assert rng.outputs(2) == expect(2)
    assert list(rng.symbols(_RUN - 1, 256)) == expect(_RUN - 1, 256)
    assert [rng.next64()] == expect(1)


def test_jump_tables_are_run_sequential_steps():
    # a state is an output times the multiplier's inverse mod 2**64
    inverse = pow(0x2545F4914F6CDD1D, -1, 2**64)
    tables = _jump_tables()
    for state in [1 << j for j in range(64)] + [0x9E3779B97F4A7C15, 2**64 - 1]:
        jumped = 0
        for table, byte in zip(tables, state.to_bytes(8, "little")):
            jumped ^= table[byte]
        assert jumped == _reference_xorshift(state, _RUN)[-1] * inverse % 2**64


def test_generator_block_draw_stays_small():
    _jump_tables()  # built once per process, so not a draw's memory
    rng = _XorShift64Star(5)
    tracemalloc.start()
    try:
        rng.symbols(_SAMPLE_BLOCK, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * _SAMPLE_BLOCK


def test_generator_draws_mix_on_one_stream():
    rng = _XorShift64Star(7)
    drawn = [rng.next64(), *rng.outputs(3), rng.symbol(5), rng.next64(), *rng.outputs(2), rng.symbol(256)]
    expected = _reference_xorshift(7, 9)
    expected[4] %= 5
    expected[8] %= 256
    assert drawn == expected


# SHA-256 of the joined payloads that a sampled run embeds, one per sample
SAMPLED_PAYLOAD_DIGESTS = [
    ("mw:n=64,l=13,p=2", 2, 2000, 7, "05692ed9a4a18ed5abc87d09188964fe1c5c36a8e4df784a7dfbfae296a9c926"),
    ("mp:n=16,l=8,p=3", 3, 300, 5, "a09be6cf549882fc95ea312b020d6e7da5c7bfb0190e911e325136eef1fda05e"),
    ("ss:n=64", 4, 500, 3, "364f5aef44929daddb2dfc8cbf2536349ee334f592f13be17ec63572249581d5"),
    ("mp:n=16,l=8,p=3", 256, 50, 0, "dac57bcbb5f76d42a1fe518fe569a5f5f4c598f57bb04c8390c946715e21eb62"),
]


@pytest.mark.parametrize("text, q, samples, seed, digest", SAMPLED_PAYLOAD_DIGESTS)
def test_sampled_payloads_are_pinned(text, q, samples, seed, digest):
    codec = build_codec(parse_spec(text), q)
    embedded = []

    def embed(payload):
        if type(payload) is bytes:  # encode's loop; a no-step encode embeds the tuple again
            embedded.append(payload)
        return codec.embed(payload)

    report = sample_roundtrip(replace(codec, embed=embed), samples, seed)
    assert report.ok and len(embedded) == samples
    assert hashlib.sha256(b"".join(embedded)).hexdigest() == digest


@pytest.mark.parametrize("text, q", [("ss:n=64", 4), ("mp:n=16,l=8,p=3", 3)])
def test_sampled_payloads_across_draw_blocks_are_the_reference_draw(text, q):
    codec = build_codec(parse_spec(text), q)
    k = codec.k
    samples = _SAMPLE_BLOCK // k + 2  # the last two samples come from a second block
    embedded = []

    def embed(payload):
        if type(payload) is bytes:  # encode's loop; a no-step encode embeds the tuple again
            embedded.append(payload)
        return codec.embed(payload)

    assert sample_roundtrip(replace(codec, embed=embed), samples, 9).ok
    outputs = _reference_xorshift(9, samples * k)
    assert embedded == [bytes(o % q for o in outputs[s * k : s * k + k]) for s in range(samples)]


def test_kv_lines_exact_rational():
    report = exhaustive_roundtrip(mw8_codec())
    lines = report.kv_lines()
    assert lines[0] == "inputs=128"
    assert lines[1] == "failures=0"
    avg = [line for line in lines if line.startswith("avg_iterations=")][0]
    numerator, denominator = avg.split("=")[1].split("/")
    assert int(denominator) > 0
    assert Fraction(int(numerator), int(denominator)) == report.avg_iterations
