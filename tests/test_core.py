"""Core encoder/decoder loop, generic builders, and index coding."""

import random
import sys
import threading
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, strategies as st

from parcodec import (
    CodecSpec,
    DimensionMismatch,
    IterationCapExceeded,
    NotACodeword,
    ShrinkStep,
    SlackMismatch,
    build_codec,
    build_intersection,
    build_one_symbol,
    build_state_graph,
    ceil_log,
    decode,
    decode_index,
    encode,
    encode_index,
    forbidden_window_shrink,
    min_weight_coder,
    parse_spec,
)

from oracles import min_weight_ok


@pytest.fixture(scope="module")
def mw16():
    return build_one_symbol(forbidden_window_shrink(min_weight_coder(16, 9, 2), 16))


# --- index coding -----------------------------------------------------------

def test_encode_index_binary():
    assert encode_index(5, 3, 2) == (1, 0, 1)
    assert encode_index(0, 3, 2) == (0, 0, 0)


def test_encode_index_base4():
    assert encode_index(6, 2, 4) == (1, 2)


def test_encode_index_overflow():
    with pytest.raises(OverflowError):
        encode_index(8, 3, 2)


def test_encode_index_zero_width():
    assert encode_index(0, 0, 2) == ()


@given(st.integers(2, 6), st.integers(0, 8), st.data())
def test_index_roundtrip(q, width, data):
    value = data.draw(st.integers(0, q**width - 1))
    word = encode_index(value, width, q)
    assert len(word) == width
    assert decode_index(word, q) == value


def _index_ref(value, width, q):
    """Big-endian base-q digits of value, one divmod per digit."""
    digits = []
    for _ in range(width):
        value, digit = divmod(value, q)
        digits.append(digit)
    return tuple(reversed(digits))


def _value_ref(word, q):
    value = 0
    for symbol in word:
        value = value * q + symbol
    return value


@pytest.mark.parametrize("q, max_width", [(2, 10), (3, 10), (4, 8)])
def test_index_coding_every_value(q, max_width):
    # product() lists the width-digit words in increasing base-q value
    for width in range(max_width + 1):
        for value, word in enumerate(product(range(q), repeat=width)):
            assert encode_index(value, width, q) == word == _index_ref(value, width, q)
            assert decode_index(word, q) == value


@pytest.mark.parametrize("q", [2, 3, 4])
def test_index_coding_empty_field(q):
    assert encode_index(0, 0, q) == ()
    assert decode_index((), q) == 0


@pytest.mark.parametrize("q, width", [(2, 254), (2, 1022), (3, 200), (4, 300)])
def test_index_coding_wide_fields(q, width):
    rng = random.Random(width)
    for value in (0, 1, q**width - 1, q ** (width - 1), *(rng.randrange(q**width) for _ in range(20))):
        word = encode_index(value, width, q)
        assert word == _index_ref(value, width, q)
        assert decode_index(word, q) == value == _value_ref(word, q)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("value, width", [(-1, 3), (1, 0), ("top", 3), ("top", 1022)])
def test_index_overflow_is_the_same_for_every_base(q, value, width):
    value = q**width if value == "top" else value
    with pytest.raises(OverflowError, match=rf"^index {value} does not fit in {width} base-{q} symbols$"):
        encode_index(value, width, q)


def test_ceil_log():
    assert ceil_log(16, 2) == 4
    assert ceil_log(17, 2) == 5
    assert ceil_log(1, 2) == 0
    assert ceil_log(8, 4) == 2  # 4**2 = 16 >= 8


# --- one-symbol builder mechanics -------------------------------------------

def test_embed_appends_marker(mw16):
    assert mw16.embed((0, 1, 1, 0, 1)) == (0, 1, 1, 0, 1, 1)


def test_start_indicator_is_last_symbol(mw16):
    assert not mw16.is_start((0, 1, 1, 0, 1, 0))
    assert mw16.is_start((0, 1, 1, 0, 1, 1))


def test_step_image_never_starts(mw16):
    # a step always appends the 0 marker, so its image avoids the start set
    bad = (0,) * 16
    assert not mw16.satisfies(bad)
    assert not mw16.is_start(mw16.step(bad))


def test_builder_rejects_nonzero_slack():
    shrink = forbidden_window_shrink(min_weight_coder(16, 10, 2, slack=1), 16, slack=1)
    with pytest.raises(SlackMismatch):
        build_one_symbol(shrink)


# --- encode/decode ----------------------------------------------------------

def test_encode_valid_payload_takes_zero_steps(mw16):
    word, stats = encode(mw16, (1,) * 15)
    assert word == (1,) * 16
    assert stats.iterations == 0


def _independent_min_weight_encode(payload, n, ell, p):
    """From-scratch execution of the iterative construction for the
    minimum-window-weight constraint, used as an oracle for the library."""
    index_width = ceil_log(n, 2)
    field = ceil_log(ell + 1, 2)
    word = payload + (1,)
    iterations = 0
    while True:
        first = None
        for i in range(n - ell + 1):
            if sum(word[i : i + ell]) < p:
                first = i
                break
        if first is None:
            return word, iterations
        window = word[first : first + ell]
        positions = [i for i, s in enumerate(window) if s]
        positions += [ell] * (p - 1 - len(positions))
        packed = tuple(
            int(bit) for pos in positions for bit in format(pos, f"0{field}b")
        )
        index = tuple(int(bit) for bit in format(first, f"0{index_width}b"))
        word = word[:first] + word[first + ell :] + index + packed + (0,)
        iterations += 1


def test_encode_matches_independent_execution(mw16):
    expected, expected_iters = _independent_min_weight_encode((0,) * 15, 16, 9, 2)
    word, stats = encode(mw16, (0,) * 15)
    assert word == expected
    # frozen from the hand-run of the construction
    assert word == (0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0)
    assert stats.iterations == expected_iters == 3
    assert stats.iterations >= 1
    assert decode(mw16, word) == (0,) * 15


def test_encode_output_satisfies_constraint(mw16):
    word, _ = encode(mw16, (0, 1) * 7 + (0,))
    assert min_weight_ok(word, 9, 2)


def test_trace_records_all_states(mw16):
    word, stats = encode(mw16, (0,) * 15, record_visited=True)
    assert len(stats.visited) == stats.iterations + 1
    assert len(set(stats.visited)) == len(stats.visited)
    assert stats.visited[0] == (0,) * 15 + (1,)
    assert stats.visited[-1] == word


def test_encode_rejects_wrong_length(mw16):
    with pytest.raises(DimensionMismatch):
        encode(mw16, (0,) * 16)


def test_encode_rejects_bad_symbol(mw16):
    with pytest.raises(DimensionMismatch):
        encode(mw16, (0,) * 14 + (2,))


def _plain_tuple(word):
    return type(word) is tuple and all(type(s) is int for s in word)


@pytest.mark.parametrize("kind", ["list", "bytes", "numpy"])
def test_any_integer_sequence_roundtrips_as_plain_tuple(mw16, kind):
    if kind == "numpy":
        numpy = pytest.importorskip("numpy")
        as_kind = lambda word: numpy.array(word, dtype=numpy.int64)
    else:
        as_kind = {"list": list, "bytes": bytes}[kind]
    for payload in [(0,) * 15, (1,) * 15, (0, 1) * 7 + (0,)]:
        word, stats = encode(mw16, payload)
        assert encode(mw16, as_kind(payload)) == (word, stats)
        assert _plain_tuple(word)
        decoded = decode(mw16, as_kind(word))
        assert decoded == payload and _plain_tuple(decoded)


def test_decode_of_trivial_codeword(mw16):
    assert decode(mw16, (1,) * 16) == (1,) * 15


def test_decode_rejects_wrong_length(mw16):
    with pytest.raises(DimensionMismatch):
        decode(mw16, (1,) * 15)


def test_decode_outside_image_never_diverges(mw16):
    # 0^16 violates the constraint, so it is outside the decoder's guaranteed
    # domain: anything but divergence is acceptable
    try:
        payload = decode(mw16, (0,) * 16)
        assert len(payload) == 15
    except NotACodeword:
        pass


def test_decode_names_a_reverse_cycle(mw16):
    # found by enumerating all 2^16 words: these reverse walks close cycles
    # of length 6, 1 and 2
    for text, length in [("0000000000000110", 6), ("0000010000000010", 1), ("0100100010100000", 2)]:
        with pytest.raises(NotACodeword, match=f"cycle of length {length}$"):
            decode(mw16, tuple(int(c) for c in text))


@pytest.mark.parametrize(
    "text, q",
    [
        ("mw:n=16,l=9,p=2", 2),
        ("mp:n=16,l=8,p=3", 2),
        ("rf:n=16,l=9", 2),
        ("ab:n=16", 2),
        ("intersect:mw:n=16,l=10,p=2+mp:n=16,l=9,p=3", 2),
        ("ss:n=8", 4),
    ],
)
def test_decode_stops_on_every_word(text, q):
    # every word either decodes or raises within a few reverse steps; a
    # reverse walk that cycles would run to the iteration cap without the
    # cycle check, so past 64 step_back calls the walk counts as looping
    codec = build_codec(parse_spec(text), q)
    calls = [0]

    def counted(word):
        calls[0] += 1
        assert calls[0] <= 64, f"decode loops from {word}"
        return codec.step_back(word)

    counting = replace(codec, step_back=counted)
    for word in product(range(q), repeat=codec.n):
        calls[0] = 0
        try:
            assert len(decode(counting, word)) == codec.k
        except NotACodeword:
            pass


def _cycling_codec():
    # step maps everything to a fixed non-start word: a deliberate self-loop
    def step(word):
        return (word[0], word[1], 0)

    return CodecSpec(
        q=2, n=3, k=2, redundancy=1,
        embed=lambda x: x + (1,),
        unembed=lambda y: y[:-1],
        is_start=lambda y: y[-1] == 1,
        step=step,
        step_back=lambda y: y,
        satisfies=lambda y: False,
        iter_cap=64,
    )


def test_cap_exceeded_for_non_injective_step():
    with pytest.raises(IterationCapExceeded):
        encode(_cycling_codec(), (0, 0))


# --- intersection builder ---------------------------------------------------

def _mw_shrink(n, ell, p, slack):
    return forbidden_window_shrink(min_weight_coder(n, ell, p, slack=slack), n, slack=slack)


def _mp_shrink(n, ell, p, slack):
    from parcodec import min_period_coder

    return forbidden_window_shrink(min_period_coder(n, ell, p, slack=slack), n, slack=slack)


def test_intersection_tag_width_binary():
    members = [_mw_shrink(16, 10, 2, 1), _mp_shrink(16, 9, 3, 1)]
    combined = build_intersection(members)
    assert combined.slack == 0
    assert combined.target_len == 15  # (n-1-1) member output + 1 tag symbol


def test_intersection_dispatches_first_violating_member():
    members = [_mw_shrink(16, 10, 2, 1), _mp_shrink(16, 9, 3, 1)]
    combined = build_intersection(members)
    word = (0,) * 16  # violates both; member 0 must win the tie
    image = combined.shrink(word)
    assert image[-1] == 0  # tag of member 0
    assert combined.unshrink(image) == word


def test_intersection_uses_second_member_when_first_passes():
    members = [_mw_shrink(16, 10, 2, 1), _mp_shrink(16, 9, 3, 1)]
    combined = build_intersection(members)
    # alternating word: every 10-window has weight 5, but period 2 < 3
    word = (0, 1) * 8
    assert members[0].satisfies(word)
    assert not members[1].satisfies(word)
    image = combined.shrink(word)
    assert image[-1] == 1
    assert combined.unshrink(image) == word


def test_intersection_scans_each_member_once_up_to_the_one_that_fires():
    members = [_mw_shrink(16, 11, 2, 2), _mp_shrink(16, 10, 3, 2), _mw_shrink(16, 12, 2, 2)]
    calls = [0] * len(members)

    def counted(idx, member):
        find = member.first_violation

        def first_violation(word):
            calls[idx] += 1
            return find(word)

        return replace(member, first_violation=first_violation)

    combined = build_intersection([counted(idx, m) for idx, m in enumerate(members)])
    # (01)^8 has weight 5 or more in every 11- and 12-window, but period 2 < 3
    for word, fired in [((0,) * 16, 0), ((0, 1) * 8, 1)]:
        calls[:] = [0] * len(members)
        image = combined.shrink(word)
        assert calls == [1] * (fired + 1) + [0] * (len(members) - fired - 1)
        assert decode_index(image[-2:], 2) == fired
        assert combined.unshrink(image) == word


def test_intersection_rejects_wrong_slack():
    with pytest.raises(SlackMismatch):
        build_intersection([_mw_shrink(16, 9, 2, 0), _mw_shrink(16, 9, 2, 0)])


def test_intersection_rejects_out_of_range_tag():
    members = [_mw_shrink(16, 11, 2, 2), _mp_shrink(16, 10, 3, 2), _mw_shrink(16, 12, 2, 2)]
    combined = build_intersection(members)
    image = combined.shrink((0,) * 16)
    with pytest.raises(NotACodeword):
        combined.unshrink(image[:-2] + (1, 1))  # tag 3 with only 3 members


def test_single_member_intersection_has_empty_tag():
    single = build_intersection([_mw_shrink(16, 9, 2, 0)])
    word = (0,) * 16
    assert single.shrink(word) == _mw_shrink(16, 9, 2, 0).shrink(word)
    assert single.unshrink(single.shrink(word)) == word


def test_three_member_intersection_tag_width():
    members = [_mw_shrink(16, 11, 2, 2), _mp_shrink(16, 10, 3, 2), _mw_shrink(16, 12, 2, 2)]
    combined = build_intersection(members)
    assert combined.target_len == 15
    word = (0,) * 16
    image = combined.shrink(word)
    assert image[-2:] == (0, 0)  # two-symbol tag for three members
    assert combined.unshrink(image) == word


# --- generic codecs beyond one redundancy symbol ------------------------------

def _even_weight_codec():
    """Hand-built r=2 codec: constraint is even total weight, start words end 11.

    The step map is an arbitrary injective table from the odd-weight words
    into words not ending 11; convergence needs nothing else.
    """
    odd = sorted(w for w in product((0, 1), repeat=4) if sum(w) % 2)
    pool = sorted(w for w in product((0, 1), repeat=4) if w[2:] != (1, 1))[: len(odd)]
    step_map = dict(zip(odd, pool))
    back_map = {v: k for k, v in step_map.items()}

    def step_back(word):
        try:
            return back_map[word]
        except KeyError:
            raise NotACodeword(f"{word} is not a step image") from None

    return CodecSpec(
        q=2, n=4, k=2, redundancy=2,
        embed=lambda x: x + (1, 1),
        unembed=lambda y: y[:2],
        is_start=lambda y: y[2:] == (1, 1),
        step=lambda y: step_map[y],
        step_back=step_back,
        satisfies=lambda y: sum(y) % 2 == 0,
        iter_cap=1 << 10,
    )


def test_generic_two_symbol_codec_roundtrips():
    from parcodec import check_graph, exhaustive_roundtrip

    codec = _even_weight_codec()
    report = exhaustive_roundtrip(codec)
    assert report.ok
    assert report.max_iterations == 4  # the longest chained table walk
    assert check_graph(codec).ok


def test_shrinkstep_rejects_negative_slack():
    with pytest.raises(SlackMismatch):
        ShrinkStep(
            q=2, n=8, slack=-1,
            first_violation=lambda w: None, cut=lambda w, witness: w, unshrink=lambda w: w,
        )


# --- one finder scan per step -------------------------------------------------

def _counting(shrink):
    """The shrink step with a finder that counts its calls in ``calls[0]``."""
    calls = [0]
    find = shrink.first_violation

    def first_violation(word):
        calls[0] += 1
        return find(word)

    return replace(shrink, first_violation=first_violation), calls


def _sparse_payloads(k, count, seed):
    # mostly zeros, so most words take several steps
    rng = random.Random(seed)
    return [tuple(int(rng.randrange(16) == 0) for _ in range(k)) for _ in range(count)]


_SCAN_SHRINKS = {
    "local": lambda: _mw_shrink(16, 9, 2, 0),
    "intersect": lambda: build_intersection([_mw_shrink(16, 10, 2, 1), _mp_shrink(16, 9, 3, 1)]),
}


@pytest.mark.parametrize("kind", sorted(_SCAN_SHRINKS))
def test_encode_scans_once_per_iteration(kind):
    shrink, calls = _counting(_SCAN_SHRINKS[kind]())
    codec, plain = build_one_symbol(shrink), build_one_symbol(_SCAN_SHRINKS[kind]())
    steps = 0
    for payload in [(0,) * 15, (1,) * 15] + _sparse_payloads(15, 40, seed=8):
        calls[0] = 0
        word, stats = encode(codec, payload)
        assert calls[0] == stats.iterations + 1
        assert word == encode(plain, payload)[0]
        steps += stats.iterations
    assert steps > 40


def test_state_graph_scans_each_word_once():
    shrink, calls = _counting(_mw_shrink(12, 9, 2, 0))
    graph = build_state_graph(build_one_symbol(shrink))
    assert calls[0] == 2**12
    assert graph.edges == build_state_graph(build_one_symbol(_mw_shrink(12, 9, 2, 0))).edges


def test_codec_with_wrapped_satisfies_and_step_encodes_the_same():
    # the traced benchmark rebuilds each codec this way to time its callables
    shrink, calls = _counting(_mw_shrink(16, 9, 2, 0))
    codec = build_one_symbol(shrink)
    counts = {"satisfies": 0, "step": 0}

    def wrap(name, fn):
        def wrapped(word):
            counts[name] += 1
            return fn(word)

        return wrapped

    traced = replace(codec, satisfies=wrap("satisfies", codec.satisfies), step=wrap("step", codec.step))
    for payload in [(0,) * 15] + _sparse_payloads(15, 20, seed=9):
        expected = encode(codec, payload)[0]
        counts.update(satisfies=0, step=0)
        calls[0] = 0
        word, stats = encode(traced, payload)
        assert word == expected
        assert counts == {"satisfies": stats.iterations + 1, "step": stats.iterations}
        assert calls[0] == stats.iterations + 1


def test_step_matches_a_fresh_shrink_whatever_was_checked_before():
    shrink = _mw_shrink(16, 9, 2, 0)
    codec = build_one_symbol(shrink)
    light = (0,) * 16  # first light 9-window starts at 0
    late = (1,) * 8 + (0,) * 8  # ... and here at 7
    assert shrink.first_violation(light) == 0 and shrink.first_violation(late) == 7
    image = {word: shrink.shrink(word) + (0,) for word in (light, late)}

    assert codec.step(late) == image[late]  # never checked
    twin = tuple(list(light))
    assert twin == light and twin is not light
    assert not codec.satisfies(light)
    assert codec.step(twin) == image[light]  # equal but distinct tuple
    assert not codec.satisfies(light) and not codec.satisfies(late)
    assert codec.step(light) == image[light]  # checked just after another word
    assert not codec.satisfies(light)
    assert codec.step(light) == image[light]  # the word just checked


def test_a_check_run_inside_another_check_keeps_each_witness_with_its_word():
    # what a thread switch in the middle of a scan does: satisfies(late)
    # runs while satisfies(light) is still scanning, and the slot must
    # never pair one word with the other's witness
    shrink = _mw_shrink(16, 9, 2, 0)
    find = shrink.first_violation
    light, late = (0,) * 16, (1,) * 8 + (0,) * 8

    def first_violation(word):
        if word is light:
            assert not codec.satisfies(late)
        return find(word)

    codec = build_one_symbol(replace(shrink, first_violation=first_violation))
    assert not codec.satisfies(light)
    assert codec.step(late) == shrink.shrink(late) + (0,)
    assert codec.step(light) == shrink.shrink(light) + (0,)


def test_step_on_a_satisfying_word_raises_right_after_satisfies():
    codec = build_one_symbol(_mw_shrink(16, 9, 2, 0))
    word = (1,) * 16
    assert codec.satisfies(word)
    with pytest.raises(ValueError, match="^shrink called on a word that satisfies the constraint$"):
        codec.step(word)


def test_a_list_changed_after_satisfies_is_scanned_again():
    shrink = _mw_shrink(16, 9, 2, 0)
    cut = shrink.cut
    # a cut that takes any sequence, so that step runs on a list at all
    codec = build_one_symbol(replace(shrink, cut=lambda word, witness: cut(tuple(word), witness)))
    word = [0] * 16
    assert not codec.satisfies(word)  # witness 0
    word[:8] = [1] * 8  # now the first light window starts at 7
    assert codec.step(word) == shrink.shrink(tuple(word)) + (0,)


@pytest.mark.parametrize(
    "text",
    ["mw:n=64,l=13,p=2", "rf:n=64,l=13", "intersect:mw:n=64,l=14,p=2+mp:n=64,l=11,p=3"],
)
def test_threads_sharing_one_codec_match_a_serial_run(text):
    # Three threads hit the codec's witness slot in turn: a thread switch
    # between one thread's satisfies and its step (a few times a run at
    # these sizes) hands the slot to another thread.  The lists start with (1, 0) blocks of different
    # lengths, so their words fire at different witnesses, and a step given
    # another thread's witness changes the codeword.
    codec = build_codec(parse_spec(text))
    sparse = _sparse_payloads(codec.k, 600, seed=1)
    inputs = [
        [(1, 0) * lead + payload[2 * lead :] for payload in sparse[200 * idx : 200 * (idx + 1)]]
        for idx, lead in enumerate((0, 6, 12))
    ]
    serial = [[encode(codec, payload)[0] for payload in payloads] for payloads in inputs]
    threaded = [None] * len(inputs)
    barrier = threading.Barrier(len(inputs), timeout=60)

    def run(idx):
        barrier.wait()
        threaded[idx] = [encode(codec, payload)[0] for payload in inputs[idx]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=run, args=(idx,)) for idx in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == serial
