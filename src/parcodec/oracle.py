"""Brute-force verification harness for codecs and shrink steps.

Everything here enumerates exhaustively below a configurable state bound and
refuses above it; a sampling mode exists but must be requested explicitly
with a seed and is reported as non-exhaustive.  All results are deterministic.

The round trip checks ``decode(encode(p)) == p`` for every payload; that
also proves each codeword valid (``encode`` returns only words that satisfy
the constraint) and all codewords distinct (two payloads sharing one decode
to one payload).  The step graph is one array indexed by a word's base-q
rank, its lexicographic position: the rank of the word's step image, or -1
for a valid word.  Words are built from ranks only for a witness, a DOT
name or ``is_start``.

The round trip goes through the public :func:`encode` and :func:`decode`,
on tuples; the graph, the count and the injectivity check enumerate engine
words (``bytes``) and call the codec's callables on them.  Engine words are
built from two halves, each built once, in lexicographic order.  Reported
failure witnesses are tuples.

Sampled payloads come from a fixed xorshift64* generator that draws runs of
outputs side by side, as lanes of one integer: a jump matrix, exact because
the xorshift steps are linear over GF(2), starts each run, masks keep every
bit and product in its lane, and for q a power of two only each lane's low
byte is read.  The outputs are bit for bit those of the one-at-a-time
recurrence; :class:`_XorShift64Star` says why.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, filterfalse, product, repeat, starmap
from operator import add, getitem, mod, xor
from struct import unpack
from typing import Callable, Iterable, Iterator, Sequence

from .core import DEFAULT_STATE_BOUND, CodecSpec, ShrinkStep, decode, decode_index, encode, encode_index
from .errors import BoundExceeded, DimensionMismatch, NotACodeword
from .words import DIGITS, Word, all_words, check_symbols

MAX_SAMPLE_K = 1 << 16  # payload length sample_roundtrip draws at most

# Failure kinds recorded in VerifyReport entries.
ROUNDTRIP = "roundtrip"
OUTPUT_CHECK = "output-check"
IN_DEGREE = "in-degree"
EDGE_INTO_START = "edge-into-start"
CYCLE = "cycle"
PATH_SUM = "path-sum"
IMAGE_LENGTH = "image-length"
IMAGE_SYMBOL = "image-symbol"
IMAGE_COLLISION = "image-collision"
INVERSE = "inverse"


@dataclass
class VerifyReport:
    """Aggregated outcome of one verification pass.

    ``failures`` holds (witness word, failure kind) pairs; the pass succeeded
    iff it is empty.  ``avg_iterations`` is an exact rational.
    """

    total_inputs: int
    failures: list[tuple[Word, str]] = field(default_factory=list)
    avg_iterations: Fraction | None = None
    max_iterations: int | None = None
    constraint_count: int | None = None
    exhaustive: bool = True
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def kv_lines(self) -> list[str]:
        """Machine-readable key=value lines."""
        lines = [f"inputs={self.total_inputs}", f"failures={len(self.failures)}"]
        if self.avg_iterations is not None:
            lines.append(f"avg_iterations={self.avg_iterations.numerator}/{self.avg_iterations.denominator}")
        if self.max_iterations is not None:
            lines.append(f"max_iterations={self.max_iterations}")
        if self.constraint_count is not None:
            lines.append(f"constraint_count={self.constraint_count}")
        if not self.exhaustive:
            lines.append("mode=sampled")
            lines.append(f"seed={self.seed}")
        return lines


def _space(q: int, length: int, name: str, bound: int) -> int:
    """q**length, refused above ``bound``."""
    space = q ** length
    if space > bound:
        raise BoundExceeded(f"q**{name} = {space} exceeds bound {bound}")
    return space


def _roundtrip(
    codec: CodecSpec,
    payloads: Iterable[Word],
    report: VerifyReport,
    output_check: Callable[[Word], bool] | None,
) -> VerifyReport:
    """Round-trip each payload into ``report``; the one loop behind both modes."""
    total_iterations = 0
    max_iterations = 0
    for payload in payloads:
        word, stats = encode(codec, payload)
        iterations = stats.iterations
        total_iterations += iterations
        if iterations > max_iterations:
            max_iterations = iterations
        if output_check is not None and not output_check(word):
            report.failures.append((payload, OUTPUT_CHECK))
        try:
            if decode(codec, word) != payload:
                report.failures.append((payload, ROUNDTRIP))
        except NotACodeword:
            report.failures.append((payload, ROUNDTRIP))
    report.avg_iterations = Fraction(total_iterations, report.total_inputs)
    report.max_iterations = max_iterations
    return report


def exhaustive_roundtrip(
    codec: CodecSpec,
    *,
    bound: int = DEFAULT_STATE_BOUND,
    output_check: Callable[[Word], bool] | None = None,
) -> VerifyReport:
    """Round-trip every payload: decode(encode(x)) == x, so outputs are valid and distinct.

    ``output_check`` lets the caller run an independent predicate over every
    codeword; a False verdict is recorded as an ``output-check`` failure.
    """
    space = _space(codec.q, codec.k, "k", bound)
    return _roundtrip(codec, all_words(codec.q, codec.k), VerifyReport(total_inputs=space), output_check)


class _XorShift64Star:
    """Fixed 64-bit xorshift* generator: reproducibility over statistical quality.

    A draw runs in lanes.  The three xorshift steps are linear over GF(2), so
    :data:`_RUN` steps are one 64x64 bit matrix, the jump (see
    :func:`_jump_tables`).  A draw of ``count`` outputs is cut into runs of
    ``_RUN`` outputs, each run starting from the previous run's start with the
    jump applied, and all runs step together as the 128-bit lanes of one
    integer.  Each shift is masked to the lanes' low 64 bits, so no bit crosses
    into another lane, and a lane's product with the 64-bit multiplier is below
    2**128, so it stays in its own lane too: every lane computes exactly the
    outputs the one-at-a-time recurrence gives.  ``symbols`` reads the low byte
    of each lane when q divides 256, since the output mod q is that byte mod q.

    ``next64`` and ``symbol`` draw one output; they stay because
    ``perfbench/selftest.py`` pins the benchmark's own generator to them bit
    for bit.  After any mix of calls the state is the one the recurrence
    reaches after all the outputs drawn so far.
    """

    MASK = (1 << 64) - 1
    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        self._state = (seed & self.MASK) or 0x9E3779B97F4A7C15

    def _draw(self, count: int, read: Callable[[int, int], Sequence]) -> tuple[list, int]:
        """Step the next ``count`` outputs in lanes; returns ``read(product, lanes)``
        for each step in order, and the number of lanes.

        Lane i holds outputs i*_RUN to i*_RUN + _RUN - 1, and a step's product
        holds each lane's output in its low 64 bits; the last lane runs past
        ``count``, and what it draws there is the caller's to drop.
        """
        lanes = -(-count // _RUN)
        run = min(count, _RUN)
        starts = [self._state]
        if lanes > 1:
            tables = _jump_tables()
            for _ in repeat(None, lanes - 1):
                starts.append(reduce(xor, map(getitem, tables, starts[-1].to_bytes(8, "little"))))
        x, mask, multiplier = _pack(starts), _pack(repeat(self.MASK, lanes)), self.MULTIPLIER
        last = count - (lanes - 1) * run  # the steps of the last lane that fall within count
        reads = []
        for step in range(1, run + 1):
            x = _step(x, mask)
            reads.append(read(x * multiplier, lanes))
            if step == last:  # the state after output count - 1 is the last lane's
                self._state = x >> 128 * (lanes - 1)
        return reads, lanes

    def outputs(self, count: int) -> list[int]:
        """The next ``count`` 64-bit outputs, in order."""
        reads, lanes = self._draw(count, _lane_values)
        flat = list(chain.from_iterable(reads))
        out: list[int] = []
        for lane in range(lanes):
            out += flat[lane::lanes]
        del out[count:]
        return out

    def symbols(self, count: int, q: int) -> bytes:
        """The next ``count`` outputs, each reduced mod q: ``bytes(o % q for o in outputs(count))``."""
        if q & (q - 1):

            def read(product: int, lanes: int) -> bytes:
                return bytes(map(mod, _lane_values(product, lanes), repeat(q)))

        else:  # q divides 256, so an output mod q is its low byte mod q: no int per output
            table = bytes(range(q)) * (256 // q)

            def read(product: int, lanes: int) -> bytes:
                return product.to_bytes(16 * lanes, "little")[::16].translate(table)

        reads, lanes = self._draw(count, read)
        flat = b"".join(reads)
        return b"".join(flat[lane::lanes] for lane in range(lanes))[:count]

    def next64(self) -> int:
        return self.outputs(1)[0]

    def symbol(self, q: int) -> int:
        # over a period the outputs are the 2**64 - 1 nonzero values, so residue 0
        # comes up once less even when q divides 2**64; every q <= 256 is within
        # about q * 2**-64 of uniform
        return self.next64() % q


# outputs one lane draws: 64 was the fastest of 32-256 on the 1-2 thousand symbols of one
# benchmark call, and within 7% of the fastest (128) on a 2**14-symbol block
_RUN = 64


def _step(x: int, mask: int) -> int:
    """One xorshift step on every lane of ``x``; ``mask`` covers each lane's low 64 bits."""
    x ^= x >> 12 & mask
    x ^= x << 25 & mask
    return x ^ (x >> 27 & mask)


def _pack(values: Iterable[int]) -> int:
    """One integer holding each value in a 128-bit lane, the first in the lowest."""
    return int.from_bytes(b"".join(value.to_bytes(16, "little") for value in values), "little")


def _lane_values(x: int, lanes: int) -> tuple[int, ...]:
    """The low 64 bits of each of the ``lanes`` lanes of ``x``, lowest lane first."""
    return unpack("<" + "Q8x" * lanes, x.to_bytes(16 * lanes, "little"))


@cache
def _jump_tables() -> list[list[int]]:
    """The jump, :data:`_RUN` steps, as eight tables, one per byte of a state.

    Column j of the jump's matrix is the state that ``_RUN`` steps make of the
    unit state 1 << j; the 64 columns come from stepping the 64 unit states as
    lanes of one integer.  Entry b of table m is the XOR of the columns of the
    bits set in b << 8*m, so the jump of a state is the XOR of one entry per
    byte.  Built once, on first use.
    """
    x, mask = _pack(1 << j for j in range(64)), _pack(repeat(_XorShift64Star.MASK, 64))
    for _ in repeat(None, _RUN):
        x = _step(x, mask)
    columns = _lane_values(x, 64)
    tables = []
    for byte in range(8):
        table = [0]
        for column in columns[8 * byte : 8 * byte + 8]:
            table += [entry ^ column for entry in table]
        tables.append(table)
    return tables


_SAMPLE_BLOCK = 1 << 14  # symbols sample_roundtrip draws at once, when k is no longer


def sample_roundtrip(codec: CodecSpec, samples: int, seed: int) -> VerifyReport:
    """Round-trip a seeded sample of payloads; reported as non-exhaustive.

    The seed is taken mod 2**64, and 0 maps to ``0x9E3779B97F4A7C15``, so seeds
    0 and 2**64 draw the same payloads.  Symbol t of sample s is the
    generator's output s*k + t (counting from 0), reduced mod q.  A payload
    length k above :data:`MAX_SAMPLE_K` raises BoundExceeded.

    Payloads are drawn whole, in blocks of at most ``max(k, 2**14)`` symbols.
    A block's draw peaks at about 7 bytes per symbol: 110 KiB for 2**14
    symbols, 420 KiB at the largest k, 2**16.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if codec.k > MAX_SAMPLE_K:
        raise BoundExceeded(f"payload length k = {codec.k} exceeds MAX_SAMPLE_K = {MAX_SAMPLE_K}")
    rng, k, q = _XorShift64Star(seed), codec.k, codec.q
    per_block = max(1, _SAMPLE_BLOCK // k)

    def payloads() -> Iterator[Word]:
        for first in range(0, samples, per_block):
            block = rng.symbols(k * min(per_block, samples - first), q)
            for start in range(0, len(block), k):
                yield tuple(block[start : start + k])

    report = VerifyReport(total_inputs=samples, exhaustive=False, seed=seed)
    return _roundtrip(codec, payloads(), report, None)


def _engine_words(q: int, length: int) -> Iterator[bytes]:
    """All q**length engine words, in lexicographic order.

    Each word is a head of length // 2 symbols plus a tail of the rest,
    with the head as the outer loop; both halves are built once, so a word
    costs one ``bytes`` concatenation.
    """
    half = length // 2
    heads, tails = (list(map(bytes, all_words(q, m))) for m in (half, length - half))
    return starmap(add, product(heads, tails))


def build_state_graph(codec: CodecSpec, *, bound: int = DEFAULT_STATE_BOUND) -> array:
    """The step graph: entry r is the rank of word r's step image, or -1 when
    word r satisfies the constraint.  DimensionMismatch names the source word
    of a step image that is not an n-word over [0, q), and BoundExceeded is
    raised when the q**n targets do not fit in memory, whatever the bound."""
    q, n = codec.q, codec.n
    space = _space(q, n, "n", bound)
    try:  # above sys.maxsize the array refuses its length before allocating
        targets = array("i" if space <= 1 << 31 else "q", [-1]) * space
    except (OverflowError, MemoryError):
        raise BoundExceeded(f"q**n = {space} step-graph targets do not fit in memory") from None
    for word in filterfalse(codec.satisfies, _engine_words(q, n)):
        try:
            image = check_symbols(codec.step(word), q, n, "step image")
        except DimensionMismatch as refusal:
            raise DimensionMismatch(f"word {tuple(word)}: {refusal}") from None
        targets[decode_index(word, q)] = decode_index(image, q)
    return targets


def check_graph(
    codec: CodecSpec, *, bound: int = DEFAULT_STATE_BOUND, graph: array | None = None
) -> VerifyReport:
    """Structural checks on the step graph.

    Asserts in-degree <= 1 everywhere, in-degree 0 on the start set, no cycle
    reachable from any embedded payload, and total path length at most
    q**n - q**k: given the first two, paths from distinct starts are disjoint
    and end on words that are not starts.  An embedded payload that is not
    an n-word over [0, q) raises DimensionMismatch naming the payload.
    Pass a prebuilt ``graph`` to avoid enumerating the state space twice;
    one of another length than q**n raises DimensionMismatch.
    """
    targets = build_state_graph(codec, bound=bound) if graph is None else graph
    q, n, is_start = codec.q, codec.n, codec.is_start
    space = _graph_length(codec, targets)
    report = VerifyReport(total_inputs=q ** codec.k, constraint_count=targets.count(-1))

    seen = bytearray(space)
    for target in filter((-1).__ne__, targets):
        word = encode_index(target, n, q)
        if seen[target]:
            report.failures.append((tuple(word), IN_DEGREE))
        seen[target] = 1
        if is_start(word):
            report.failures.append((tuple(word), EDGE_INTO_START))

    total_steps = 0
    max_steps = 0
    for payload in _engine_words(q, codec.k):
        try:
            start = decode_index(check_symbols(codec.embed(payload), q, n, "embedded payload"), q)
        except DimensionMismatch as refusal:
            raise DimensionMismatch(f"payload {tuple(payload)}: {refusal}") from None
        node = targets[start]
        steps = 0
        while node >= 0:
            steps += 1
            if steps > space:
                report.failures.append((tuple(encode_index(start, n, q)), CYCLE))
                break
            node = targets[node]
        total_steps += steps
        if steps > max_steps:
            max_steps = steps
    if total_steps > space - report.total_inputs:
        report.failures.append(((), PATH_SUM))
    report.avg_iterations = Fraction(total_steps, report.total_inputs)
    report.max_iterations = max_steps
    return report


def _graph_length(codec: CodecSpec, graph: array) -> int:
    """The graph's length, q**n; DimensionMismatch names both when they differ."""
    if len(graph) != (space := codec.q ** codec.n):
        raise DimensionMismatch(f"step graph has length {len(graph)}, expected q**n = {space}")
    return space


def _label(word: bytes, q: int) -> str:
    """A DOT node name: one :data:`DIGITS` digit per symbol up to q = 36, two hex digits above."""
    return word.translate(DIGITS).decode("ascii") if q <= 36 else word.hex()


def graph_to_dot(codec: CodecSpec, graph: array) -> Iterator[str]:
    """Deterministic DOT text, one newline-terminated line at a time: nodes
    in lexicographic order, colored by role, then the edges in source order.

    Fill marks constraint membership, a double border marks start words.
    The lines are yielded as they are made, so a writer never holds the text.
    A graph of another length than q**n raises DimensionMismatch before any line.
    """
    q, n, is_start = codec.q, codec.n, codec.is_start
    _graph_length(codec, graph)
    yield "digraph step_graph {\n"
    yield "  node [shape=circle];\n"
    for node, target in zip(_engine_words(q, n), graph):
        fill = "white" if target >= 0 else "palegreen"
        peripheries = 2 if is_start(node) else 1
        yield f'  "{_label(node, q)}" [style=filled fillcolor="{fill}" peripheries={peripheries}];\n'
    # the edge lines need a second pass: the DOT text puts every node before any edge
    for source, target in zip(_engine_words(q, n), graph):
        if target >= 0:
            yield f'  "{_label(source, q)}" -> "{_label(encode_index(target, n, q), q)}";\n'
    yield "}\n"


def count_constraint(
    q: int, n: int, satisfies: Callable[[bytes], bool], *, bound: int = DEFAULT_STATE_BOUND
) -> int:
    """Exact |C(n)| by enumeration of the engine words."""
    _space(q, n, "n", bound)
    return sum(map(satisfies, _engine_words(q, n)))


def check_shrink_injective(shrink: ShrinkStep, *, bound: int = DEFAULT_STATE_BOUND) -> VerifyReport:
    """Evaluate the shrink map on every violating word.

    Asserts exact output length, in-alphabet symbols, pairwise-distinct
    images, and that unshrink inverts shrink.
    """
    _space(shrink.q, shrink.n, "n", bound)
    report = VerifyReport(total_inputs=0)
    symbols = bytes(range(shrink.q))
    images: set[bytes] = set()
    for word in _engine_words(shrink.q, shrink.n):
        witness = shrink.first_violation(word)
        if witness is None:
            continue
        report.total_inputs += 1
        image = shrink.cut(word, witness)
        if len(image) != shrink.target_len:
            report.failures.append((tuple(word), IMAGE_LENGTH))
            continue
        if image.translate(None, symbols):
            report.failures.append((tuple(word), IMAGE_SYMBOL))
            continue
        if image in images:
            report.failures.append((tuple(word), IMAGE_COLLISION))
        images.add(image)
        try:
            if shrink.unshrink(image) != word:
                report.failures.append((tuple(word), INVERSE))
        except NotACodeword:
            report.failures.append((tuple(word), INVERSE))
    return report
