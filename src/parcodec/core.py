"""Universal iterative encoder/decoder for length-parametric channel constraints.

The encoder embeds a k-symbol payload into an n-symbol start word and then
repeatedly applies an injective step function until the word satisfies the
constraint.  Because the step map is injective and its image avoids the set
of start words, no cycle is reachable from any start word, so the loop
always terminates; the decoder unravels the same steps in reverse until it
sees a start word again.

Three generic builders are provided:

* :func:`build_one_symbol` turns an injective "shrink" map on the
  constraint-violating words into a full codec with one redundancy symbol.
* :func:`build_intersection` combines m shrink maps (one per constraint)
  into a single shrink map for the intersection of the constraints.
* :func:`cut_window_shrink` is the layout every window and window-pair
  shrink shares: cut one window, which must fit the word, out and append
  the fields that restore it.  :func:`window_room` is its one admissibility
  rule: the tail, the step marker and the slack must fit in the ell symbols
  that the cut frees.

Every fixed-width field a reverse step reads back goes through
:func:`decode_field`, which names the field when its value is out of range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Sequence

from .errors import (
    DimensionMismatch, IterationCapExceeded, NotACodeword, ParameterViolation, SlackMismatch,
)
from .words import Word, check_word


def ceil_log(value: int, base: int) -> int:
    """Smallest L with base**L >= value, exact integer arithmetic."""
    if value < 1 or base < 2:
        raise ParameterViolation(f"ceil_log needs value >= 1 and base >= 2, got {value}, {base}")
    width, reach = 0, 1
    while reach < value:
        reach *= base
        width += 1
    return width


@dataclass(frozen=True)
class TraceStats:
    """Per-encode diagnostics.

    ``visited`` (when recorded) holds every intermediate word including the
    start word and the final codeword, so its length is ``iterations + 1``.
    """

    iterations: int
    visited: tuple[Word, ...] | None = None


@dataclass(frozen=True)
class ShrinkStep:
    """An injective map from constraint-violating n-words into shorter words.

    ``first_violation(word)`` returns a witness of the first forbidden
    structure (a window start, a pair, a weight), or None if there is none;
    ``cut(word, witness)`` removes it in ``target_len = n - 1 - slack``
    symbols (slack leaves room for an intersection tag); ``unshrink`` inverts
    ``shrink`` on the image and raises :class:`NotACodeword` otherwise.
    """

    q: int
    n: int
    slack: int
    first_violation: Callable[[Word], object | None]
    cut: Callable[[Word, object], Word]
    unshrink: Callable[[Word], Word]

    def __post_init__(self):
        if self.slack < 0:
            raise SlackMismatch(f"slack must be >= 0, got {self.slack}")

    @property
    def target_len(self) -> int:
        return self.n - 1 - self.slack

    def satisfies(self, word: Word) -> bool:
        return self.first_violation(word) is None

    def shrink(self, word: Word) -> Word:
        witness = self.first_violation(word)
        if witness is None:
            raise ValueError("shrink called on a word that satisfies the constraint")
        return self.cut(word, witness)


@dataclass(frozen=True)
class CodecSpec:
    """A fully built constraint codec.

    ``embed`` maps payloads into the start set, ``step`` moves a violating
    word to another non-start word, and the indicator callables classify
    words.  Every callable is observably pure, so instances are safely
    shareable across threads; a codec from :func:`build_one_symbol` keeps
    one identity-keyed witness slot, which changes no result (see there).

    ``redundancy`` is n - k.  ``iter_cap``, set from q, bounds the steps of
    one encode or decode; it only guards user-supplied step functions and
    malformed decode inputs, as valid constructions always terminate.
    """

    q: int
    n: int
    k: int
    embed: Callable[[Word], Word]
    unembed: Callable[[Word], Word]
    is_start: Callable[[Word], bool]
    step: Callable[[Word], Word]
    step_back: Callable[[Word], Word]
    satisfies: Callable[[Word], bool]
    iter_cap: int = field(init=False)

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise DimensionMismatch(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        object.__setattr__(self, "iter_cap", max(1 << 20, self.q ** 9))

    @property
    def redundancy(self) -> int:
        return self.n - self.k


def encode(codec: CodecSpec, payload: Word, *, record_visited: bool = False) -> tuple[Word, TraceStats]:
    """Encode a k-symbol payload into an n-symbol word satisfying the constraint."""
    payload = check_word(payload, codec.q, codec.k, what="payload")
    word = codec.embed(payload)
    visited = [word] if record_visited else None
    iterations = 0
    while not codec.satisfies(word):
        if iterations >= codec.iter_cap:
            raise IterationCapExceeded(
                f"no valid word after {iterations} steps (cap {codec.iter_cap}); "
                "the step function is likely not injective"
            )
        word = codec.step(word)
        iterations += 1
        if visited is not None:
            visited.append(word)
    return word, TraceStats(iterations, tuple(visited) if visited is not None else None)


def decode(codec: CodecSpec, word: Word) -> Word:
    """Invert :func:`encode`: exact on the codebook, and it never loops.

    Any other word raises NotACodeword or returns some payload, as decode
    does not test membership.  A reverse walk that cycles is caught by
    Brent's algorithm (the word after 2^k - 1 steps is compared with the
    next 2^k) and named by its length.
    """
    word = check_word(word, codec.q, codec.n, what="codeword")
    iterations, saved, saved_at = 0, word, 0
    while not codec.is_start(word):
        if iterations >= codec.iter_cap:
            raise NotACodeword(
                f"no start word after {iterations} reverse steps (cap {codec.iter_cap})"
            )
        word = codec.step_back(word)
        iterations += 1
        if word == saved:
            raise NotACodeword(f"reverse walk enters a cycle of length {iterations - saved_at}")
        if iterations == 2 * saved_at + 1:
            saved, saved_at = word, iterations
    return codec.unembed(word)


START_MARKER = 1  # appended by embed; step appends STEP_MARKER instead
STEP_MARKER = 0


def build_one_symbol(shrink: ShrinkStep) -> CodecSpec:
    """Codec with one redundancy symbol from a slack-0 shrink map.

    Start words are exactly those ending in symbol 1 (the payload plus a
    marker), and each step shrinks a violating word to n-1 symbols and
    appends marker 0, so step images never collide with start words.

    ``satisfies`` keeps the last word it scanned and that word's witness in
    one slot, and ``step`` on that same tuple object cuts the kept witness
    instead of scanning again: the encode loop and the state-graph build
    scan each word once.  The pair is stored and read whole, the slot keeps
    the word alive so its identity is not reused, and a tuple cannot
    change; any other word (a list, an equal but distinct tuple, a word
    another thread checked in between) is scanned afresh.  So the slot
    changes no result and the codec stays safe to share across threads.
    """
    if shrink.slack != 0:
        raise SlackMismatch(f"build_one_symbol needs slack 0, got {shrink.slack}")
    q, n = shrink.q, shrink.n
    find, cut = shrink.first_violation, shrink.cut
    do_shrink, do_unshrink = shrink.shrink, shrink.unshrink
    checked: tuple[object, object | None] = (None, None)  # (word, its witness)

    def embed(payload: Word) -> Word:
        return payload + (START_MARKER,)

    def unembed(word: Word) -> Word:
        return word[:-1]

    def is_start(word: Word) -> bool:
        return word[-1] == START_MARKER

    def satisfies(word: Word) -> bool:
        nonlocal checked
        witness = find(word)
        checked = (word, witness)
        return witness is None

    def step(word: Word) -> Word:
        last, witness = checked
        if witness is None or last is not word or type(word) is not tuple:
            return do_shrink(word) + (STEP_MARKER,)
        return cut(word, witness) + (STEP_MARKER,)

    def step_back(word: Word) -> Word:
        if word[-1] != STEP_MARKER:
            raise NotACodeword(f"trailing symbol {word[-1]} is not the step marker")
        return do_unshrink(word[:-1])

    return CodecSpec(
        q=q,
        n=n,
        k=n - 1,
        embed=embed,
        unembed=unembed,
        is_start=is_start,
        step=step,
        step_back=step_back,
        satisfies=satisfies,
    )


def cut_window_shrink(
    q: int, n: int, ell: int, slack: int, tail_len: int,
    find: Callable[[Word], object | None],
    cut: Callable[[Word, object], tuple[int, Word]],
    restore: Callable[[Word, Word], tuple[int, Word]],
) -> ShrinkStep:
    """Shrink step with the shared layout: cut one ell-window out, append a tail.

    ``find`` is the step's ``first_violation``.  ``cut(word, witness)`` names
    the window to remove by its start and gives the ``tail_len`` tail symbols
    that follow the rest of the word, zero-padded to n - 1 - slack symbols.
    ``restore(rest, tail)`` inverts ``cut`` from the n - ell surviving
    symbols and the tail, giving the start and the window to reinsert; it
    raises NotACodeword on inconsistent fields.
    """
    if ell > n:
        raise ParameterViolation(f"window length {ell} exceeds word length {n}")
    content_len = n - ell + tail_len
    pad = (0,) * window_room(ell, slack, lambda e: tail_len)

    def cut_window(word: Word, witness: object) -> Word:
        start, tail = cut(word, witness)
        return word[:start] + word[start + ell :] + tail + pad

    def unshrink(word: Word) -> Word:
        if any(word[content_len:]):
            raise NotACodeword("nonzero padding after the tail fields")
        rest = word[: n - ell]
        start, window = restore(rest, word[n - ell : content_len])
        return rest[:start] + window + rest[start:]

    return ShrinkStep(q=q, n=n, slack=slack, first_violation=find, cut=cut_window, unshrink=unshrink)


def window_room(ell: int, slack: int, tail: Callable[[int], int]) -> int:
    """Zero padding left after cutting an ell-window and appending its tail.

    ``tail(e)`` is the tail width at window length e.  The cut frees ell
    symbols, which must hold the tail, the step marker and the slack; if they
    do not, ParameterViolation names the smallest window length that fits.
    """
    room = ell - 1 - slack - tail(ell)
    if room < 0:
        fits = next(e for e in count(ell + 1) if e - 1 - slack >= tail(e))
        raise ParameterViolation(
            f"window length {ell} is too short for its tail ({tail(ell)} symbols), the step "
            f"marker and slack {slack}; smallest admissible window length is {fits}"
        )
    return room


def build_intersection(members: Sequence[ShrinkStep]) -> ShrinkStep:
    """Combine shrink maps for several constraints into one for their intersection.

    The witness is (index, witness) of the first member the word violates,
    and the cut is that member's cut plus the index as a fixed-width tag, so
    every member must carry slack ceil_log(m) to leave room for the tag.
    """
    members = list(members)
    if not members:
        raise ValueError("need at least one member")
    q, n = members[0].q, members[0].n
    tag_width = ceil_log(len(members), q)
    for idx, member in enumerate(members):
        if (member.q, member.n) != (q, n):
            raise DimensionMismatch(
                f"members disagree on alphabet/length: ({member.q}, {member.n}) vs ({q}, {n})"
            )
        if member.slack != tag_width:
            raise SlackMismatch(
                f"member {idx} has slack {member.slack}, intersection of {len(members)} "
                f"needs {tag_width}"
            )
    finders = [member.first_violation for member in members]
    body_len = n - 1 - tag_width

    def first_violation(word: Word) -> tuple[int, object] | None:
        for idx, find in enumerate(finders):
            witness = find(word)
            if witness is not None:
                return idx, witness
        return None

    def cut(word: Word, witness: tuple[int, object]) -> Word:
        idx, member_witness = witness
        return members[idx].cut(word, member_witness) + encode_index(idx, tag_width, q)

    def unshrink(word: Word) -> Word:
        idx = decode_field(word[body_len:], q, len(members), "member tag")
        return members[idx].unshrink(word[:body_len])

    return ShrinkStep(q=q, n=n, slack=0, first_violation=first_violation, cut=cut, unshrink=unshrink)


# bytes.translate tables between the symbols 0/1 and the text digits "0"/"1"
_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_BITS = bytes.maketrans(b"\x00\x01", b"01")


def encode_index(value: int, width: int, q: int) -> Word:
    """Fixed-width big-endian base-q encoding of a 0-based index.

    Binary fields, such as a rank of n - 2 bits, convert through the C-level
    binary text of the value; other bases take one ``divmod`` per digit.
    """
    if not 0 <= value < q ** width:
        raise OverflowError(f"index {value} does not fit in {width} base-{q} symbols")
    if q == 2:
        # the leading 1 of bin() pads the digits to exactly width symbols
        return tuple(bin(value | 1 << width)[3:].encode("ascii").translate(_BIT_DIGITS))
    digits = []
    for _ in range(width):
        value, digit = divmod(value, q)
        digits.append(digit)
    return tuple(reversed(digits))


def decode_index(word: Word, q: int) -> int:
    if q == 2:
        return int(bytes(word).translate(_DIGIT_BITS), 2) if word else 0
    value = 0
    for symbol in word:
        value = value * q + symbol
    return value


def decode_field(field: Word, q: int, limit: int, what: str) -> int:
    """A tail field's value; NotACodeword naming ``what`` unless it is below ``limit``."""
    value = decode_index(field, q)
    if value >= limit:
        raise NotACodeword(f"{what} {value} out of range (limit {limit})")
    return value
