"""Brute-force verification harness for codecs and shrink steps.

Everything here enumerates exhaustively below a configurable state bound and
refuses above it; a sampling mode exists but must be requested explicitly
with a seed and is reported as non-exhaustive.  All results are deterministic.

The round trip checks ``decode(encode(p)) == p`` for every payload; that
also proves each codeword valid (``encode`` returns only words that satisfy
the constraint) and all codewords distinct (two payloads sharing one decode
to one payload).  The step graph keeps only its edges, since a word is valid
iff it has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .core import CodecSpec, ShrinkStep, decode, encode
from .errors import BoundExceeded, NotACodeword
from .words import Word, all_words

DEFAULT_STATE_BOUND = 1 << 20

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
        total_iterations += stats.iterations
        max_iterations = max(max_iterations, stats.iterations)
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
    """Fixed 64-bit xorshift* generator: reproducibility over statistical quality."""

    MASK = (1 << 64) - 1
    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        self._state = (seed & self.MASK) or 0x9E3779B97F4A7C15

    def next64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & self.MASK
        x ^= (x >> 27)
        self._state = x
        return (x * self.MULTIPLIER) & self.MASK

    def symbol(self, q: int) -> int:
        # exact for q in {2, 4} since q divides 2**64; tiny bias otherwise
        return self.next64() % q


def sample_roundtrip(
    codec: CodecSpec,
    samples: int,
    seed: int,
    *,
    output_check: Callable[[Word], bool] | None = None,
) -> VerifyReport:
    """Round-trip a seeded sample of payloads; reported as non-exhaustive."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = _XorShift64Star(seed)
    payloads = (tuple(rng.symbol(codec.q) for _ in range(codec.k)) for _ in range(samples))
    report = VerifyReport(total_inputs=samples, exhaustive=False, seed=seed)
    return _roundtrip(codec, payloads, report, output_check)


@dataclass
class StateGraph:
    """The step map over all q**n words: ``edges`` maps each violating word, in
    lexicographic order, to its step image, so a word is valid iff it has none."""

    q: int
    n: int
    edges: dict[Word, Word]
    is_start: Callable[[Word], bool]


def build_state_graph(codec: CodecSpec, *, bound: int = DEFAULT_STATE_BOUND) -> StateGraph:
    _space(codec.q, codec.n, "n", bound)
    edges = {node: codec.step(node) for node in all_words(codec.q, codec.n) if not codec.satisfies(node)}
    return StateGraph(q=codec.q, n=codec.n, edges=edges, is_start=codec.is_start)


def check_graph(
    codec: CodecSpec, *, bound: int = DEFAULT_STATE_BOUND, graph: StateGraph | None = None
) -> VerifyReport:
    """Structural checks on the step graph.

    Asserts in-degree <= 1 everywhere, in-degree 0 on the start set, no cycle
    reachable from any embedded payload, and total path length at most q**n.
    Pass a prebuilt ``graph`` to avoid enumerating the state space twice.
    """
    if graph is None:
        graph = build_state_graph(codec, bound=bound)
    space = codec.q ** codec.n
    report = VerifyReport(total_inputs=codec.q ** codec.k, constraint_count=space - len(graph.edges))

    targets: set[Word] = set()
    for target in graph.edges.values():
        if target in targets:
            report.failures.append((target, IN_DEGREE))
        targets.add(target)
        if graph.is_start(target):
            report.failures.append((target, EDGE_INTO_START))

    total_steps = 0
    max_steps = 0
    for payload in all_words(codec.q, codec.k):
        node = codec.embed(payload)
        steps = 0
        while node in graph.edges:
            node = graph.edges[node]
            steps += 1
            if steps > space:
                report.failures.append((codec.embed(payload), CYCLE))
                break
        total_steps += steps
        max_steps = max(max_steps, steps)
    if total_steps > space:
        report.failures.append(((), PATH_SUM))
    report.avg_iterations = Fraction(total_steps, report.total_inputs)
    report.max_iterations = max_steps
    return report


def _label(word: Word) -> str:
    return "".join(str(s) for s in word)


def graph_to_dot(graph: StateGraph) -> Iterator[str]:
    """Deterministic DOT text, one newline-terminated line at a time: nodes
    in lexicographic order, colored by role, then the edges.

    Fill marks constraint membership, a double border marks start words.
    The lines are yielded as they are made, so a writer never holds the text.
    """
    yield "digraph step_graph {\n"
    yield "  node [shape=circle];\n"
    for node in all_words(graph.q, graph.n):
        fill = "white" if node in graph.edges else "palegreen"
        peripheries = 2 if graph.is_start(node) else 1
        yield f'  "{_label(node)}" [style=filled fillcolor="{fill}" peripheries={peripheries}];\n'
    for source, target in graph.edges.items():
        yield f'  "{_label(source)}" -> "{_label(target)}";\n'
    yield "}\n"


def count_constraint(
    q: int, n: int, satisfies: Callable[[Word], bool], *, bound: int = DEFAULT_STATE_BOUND
) -> int:
    """Exact |C(n)| by enumeration."""
    _space(q, n, "n", bound)
    return sum(1 for word in all_words(q, n) if satisfies(word))


def check_shrink_injective(shrink: ShrinkStep, *, bound: int = DEFAULT_STATE_BOUND) -> VerifyReport:
    """Evaluate the shrink map on every violating word.

    Asserts exact output length, in-alphabet symbols, pairwise-distinct
    images, and that unshrink inverts shrink.
    """
    _space(shrink.q, shrink.n, "n", bound)
    report = VerifyReport(total_inputs=0)
    images: set[Word] = set()
    for word in all_words(shrink.q, shrink.n):
        witness = shrink.first_violation(word)
        if witness is None:
            continue
        report.total_inputs += 1
        image = shrink.cut(word, witness)
        if len(image) != shrink.target_len:
            report.failures.append((word, IMAGE_LENGTH))
            continue
        if any(not 0 <= s < shrink.q for s in image):
            report.failures.append((word, IMAGE_SYMBOL))
            continue
        if image in images:
            report.failures.append((word, IMAGE_COLLISION))
        images.add(image)
        try:
            if shrink.unshrink(image) != word:
                report.failures.append((word, INVERSE))
        except NotACodeword:
            report.failures.append((word, INVERSE))
    return report
