"""Verification harness: graph checks, counting, injectivity, sampling."""

from fractions import Fraction

import pytest

from parcodec import (
    BoundExceeded,
    CodecSpec,
    ShrinkStep,
    build_one_symbol,
    build_state_graph,
    check_graph,
    check_shrink_injective,
    count_constraint,
    exhaustive_roundtrip,
    forbidden_window_shrink,
    graph_to_dot,
    min_weight_coder,
    repeat_free_shrink,
    sample_roundtrip,
)
from parcodec.oracle import CYCLE, IMAGE_COLLISION, IMAGE_LENGTH, IN_DEGREE, ROUNDTRIP


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
        q=2, n=3, k=2, redundancy=1,
        embed=lambda x: (0, 0, 1) if x == (0, 1) else x + (1,),
        unembed=lambda y: y[:-1],
        is_start=lambda y: y[-1] == 1,
        step=lambda y: y,
        step_back=lambda y: y,
        satisfies=lambda y: True,
        iter_cap=1 << 10,
    )


def test_roundtrip_catches_two_payloads_on_one_codeword():
    # decode gives 001 one payload, so the other one fails its round trip
    report = exhaustive_roundtrip(_colliding_codec())
    assert not report.ok
    assert report.failures == [((0, 1), ROUNDTRIP)]


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
        (0, 0): (1, 0),
        (1, 0): (1, 0),  # collides with the image of (0, 0) and self-loops
        (0, 1): (0, 0),
    }

    return CodecSpec(
        q=2, n=2, k=1, redundancy=1,
        embed=lambda x: x + (1,),
        unembed=lambda y: y[:-1],
        is_start=lambda y: y[-1] == 1,
        step=lambda y: table[y],
        step_back=lambda y: y,
        satisfies=lambda y: y == (1, 1),
        iter_cap=1 << 10,
    )


def test_graph_flags_in_degree_and_cycle():
    report = check_graph(_faulty_codec())
    kinds = {kind for _, kind in report.failures}
    assert IN_DEGREE in kinds
    assert CYCLE in kinds


def test_graph_bound_refusal():
    with pytest.raises(BoundExceeded):
        check_graph(mw8_codec(), bound=100)


# --- DOT export -----------------------------------------------------------------

def test_dot_output_is_deterministic_and_ordered():
    codec = mw8_codec()
    first = "".join(graph_to_dot(build_state_graph(codec)))
    second = "".join(graph_to_dot(build_state_graph(codec)))
    assert first == second
    # lexicographically first and last words appear, in order
    assert first.index('"00000000"') < first.index('"11111111"')


def test_dot_marks_roles():
    codec = mw8_codec()
    dot = "".join(graph_to_dot(build_state_graph(codec)))
    # 1^8 satisfies the constraint and ends in the start marker
    assert '"11111111" [style=filled fillcolor="palegreen" peripheries=2];' in dot
    # 0^8 violates it and is not a start word
    assert '"00000000" [style=filled fillcolor="white" peripheries=1];' in dot
    assert '"00000000" -> ' in dot


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
        cut=lambda w, witness: (0,) * 7,
        unshrink=inner.unshrink,
    )
    report = check_shrink_injective(constant)
    assert IMAGE_COLLISION in {kind for _, kind in report.failures}


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


def test_kv_lines_exact_rational():
    report = exhaustive_roundtrip(mw8_codec())
    lines = report.kv_lines()
    assert lines[0] == "inputs=128"
    assert lines[1] == "failures=0"
    avg = [line for line in lines if line.startswith("avg_iterations=")][0]
    numerator, denominator = avg.split("=")[1].split("/")
    assert int(denominator) > 0
    assert Fraction(int(numerator), int(denominator)) == report.avg_iterations
