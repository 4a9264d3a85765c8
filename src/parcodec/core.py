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
  shrink shares: cut one window out and append the fields that restore it.
  Its two admissibility rules are :func:`window_fits`, the window must fit
  the word, and :func:`window_room`, the tail, the step marker and the slack
  must fit in the ell symbols that the cut frees.

Every fixed-width field a reverse step reads back goes through
:func:`decode_field`, which names the field when its value is out of range.

Inside the engine a word is ``bytes``, one byte per symbol, so every codec
has q <= 256: finders read it with ``int.from_bytes``, steps slice and join
it, and fields are ``bytes`` too.  Tuples exist only at the public boundary:
:func:`encode` and :func:`decode` take any symbol sequence and return
tuples, converting a word that takes steps once, and a start word not at
all.  :func:`encode_loop` and :func:`decode_walk` are the one encode loop
and the one decode walk, which the public functions and the CLI share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .errors import (
    DimensionMismatch, IterationCapExceeded, NotACodeword, ParameterViolation, SlackMismatch,
)
from .words import DIGITS, TEXT_TO_SYMBOL, Word, check_byte_alphabet, checked_raw


# the largest state space (q**k or q**n words) the exhaustive checks of
# :mod:`parcodec.oracle` enumerate by default; defined here, on the codec
# path, so that the CLI's --bound default costs no import of the oracle
DEFAULT_STATE_BOUND = 1 << 20


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

    ``visited`` (when recorded) holds every intermediate engine word, as
    ``bytes``, including the start word and the final codeword, so its length
    is ``iterations + 1``.
    """

    iterations: int
    visited: tuple[bytes, ...] | None = None


@dataclass(frozen=True)
class ShrinkStep:
    """An injective map from constraint-violating n-words into shorter words.

    Words are ``bytes``.  ``first_violation(word)`` returns a witness of the
    first forbidden structure (a window start, a pair, a weight), or None if
    there is none; ``cut(word, witness)`` removes it in ``target_len = n - 1 -
    slack`` symbols (slack leaves room for an intersection tag); ``unshrink``
    inverts ``shrink`` on the image and raises :class:`NotACodeword` otherwise.
    """

    q: int
    n: int
    slack: int
    first_violation: Callable[[bytes], object | None]
    cut: Callable[[bytes, object], bytes]
    unshrink: Callable[[bytes], bytes]

    def __post_init__(self):
        if self.slack < 0:
            raise SlackMismatch(f"slack must be >= 0, got {self.slack}")

    @property
    def target_len(self) -> int:
        return self.n - 1 - self.slack

    def satisfies(self, word: bytes) -> bool:
        return self.first_violation(word) is None

    def shrink(self, word: bytes) -> bytes:
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
    one identity-keyed witness slot, and the ``rf`` pair finder one
    content-checked slot of its last cut, neither of which changes a result
    (see :func:`build_one_symbol` and :func:`global_codes._pair_finder`).

    Words are ``bytes``, one byte per symbol, so q is at most 256.  The
    start-set callables ``embed``, ``unembed`` and ``is_start`` also take the
    tuple :func:`encode` and :func:`decode` checked, since a word that takes
    no step is never converted, and return the type they were given.

    ``redundancy`` is n - k.  ``iter_cap``, set from q, bounds the steps of
    one encode or decode; it only guards user-supplied step functions and
    malformed decode inputs, as valid constructions always terminate.
    """

    q: int
    n: int
    k: int
    embed: Callable[[bytes | Word], bytes | Word]
    unembed: Callable[[bytes | Word], bytes | Word]
    is_start: Callable[[bytes | Word], bool]
    step: Callable[[bytes], bytes]
    step_back: Callable[[bytes], bytes]
    satisfies: Callable[[bytes], bool]
    iter_cap: int = field(init=False)

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise DimensionMismatch(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        check_byte_alphabet(self.q, "a codec")
        object.__setattr__(self, "iter_cap", max(1 << 20, self.q ** 9))

    @property
    def redundancy(self) -> int:
        return self.n - self.k


def encode(codec: CodecSpec, payload: Word, *, record_visited: bool = False) -> tuple[Word, TraceStats]:
    """Encode a k-symbol payload into an n-symbol word satisfying the constraint.

    The codeword is a tuple: a stepped word is converted once, at the end,
    and a start word is the caller's checked tuple embedded.
    """
    raw = checked_raw(payload, codec.q, codec.k, "payload")
    visited = [] if record_visited else None
    word, iterations = encode_loop(codec, bytes(raw), visited)
    if iterations:
        word = tuple(word)
    else:
        word = codec.embed(payload if type(payload) is tuple else tuple(raw))
    if visited is None:
        return word, _shared_stats(iterations)
    return word, TraceStats(iterations, tuple(visited))


# a frozen TraceStats per step count, shared: building one costs more than a
# no-step encode of a short word
_shared_stats = lru_cache(maxsize=256)(TraceStats)


def encode_loop(codec: CodecSpec, payload: bytes, visited: list | None = None) -> tuple[bytes, int]:
    """The encode loop on a checked payload: the codeword and its step count.

    Each word on the way, the start word first, is appended to ``visited``
    when it is a list.
    """
    satisfies, step, iter_cap = codec.satisfies, codec.step, codec.iter_cap
    word = codec.embed(payload)
    if visited is not None:
        visited.append(word)
    iterations = 0
    while not satisfies(word):
        if iterations >= iter_cap:
            raise IterationCapExceeded(
                f"no valid word after {iterations} steps (cap {iter_cap}); "
                "the step function is likely not injective"
            )
        word = step(word)
        iterations += 1
        if visited is not None:
            visited.append(word)
    return word, iterations


def decode(codec: CodecSpec, word: Word) -> Word:
    """Invert :func:`encode`: exact on the codebook, and it never loops.

    Any other word raises NotACodeword or returns some payload, as decode
    does not test membership.  See :func:`decode_walk`.
    """
    raw = checked_raw(word, codec.q, codec.n, "codeword")
    word = word if type(word) is tuple else tuple(raw)
    if codec.is_start(word):  # read in place: a start word is never converted
        return codec.unembed(word)
    return tuple(decode_walk(codec, bytes(raw)))


def decode_walk(codec: CodecSpec, word: bytes) -> bytes:
    """The payload of a checked codeword that is not a start word: the one
    decode walk.

    The caller has found ``word`` outside the start set, so the walk steps
    back first and tests ``is_start`` only on the words it reaches.  A
    reverse walk that cycles is caught by Brent's algorithm (the word after
    2^k - 1 steps is compared with the next 2^k, one ``memcmp`` each) and
    named by its length.
    """
    iterations, saved, saved_at = 0, word, 0
    while True:
        if iterations >= codec.iter_cap:
            raise NotACodeword(
                f"no start word after {iterations} reverse steps (cap {codec.iter_cap})", reason="iter-cap"
            )
        word = codec.step_back(word)
        iterations += 1
        if word == saved:
            raise NotACodeword(
                f"reverse walk enters a cycle of length {iterations - saved_at}", reason="reverse-cycle"
            )
        if iterations == 2 * saved_at + 1:
            saved, saved_at = word, iterations
        if codec.is_start(word):
            return codec.unembed(word)


START_MARKER = 1  # appended by embed; step appends STEP_MARKER instead
STEP_MARKER = 0


def build_one_symbol(shrink: ShrinkStep) -> CodecSpec:
    """Codec with one redundancy symbol from a slack-0 shrink map.

    Start words are exactly those ending in symbol 1 (the payload plus a
    marker), and each step shrinks a violating word to n-1 symbols and
    appends marker 0, so step images never collide with start words.

    ``satisfies`` keeps the last word it scanned and that word's witness in
    one slot, and ``step`` on that same ``bytes`` object cuts the kept
    witness instead of scanning again: the encode loop and the state-graph
    build scan each word once.  The pair is stored and read whole, the slot
    keeps the word alive so its identity is not reused, and a ``bytes``
    object cannot change; any other word (a ``bytearray``, an equal but
    distinct ``bytes`` object, a word another thread checked in between) is
    scanned afresh.  So the slot changes no result and the codec stays safe
    to share across threads.
    """
    if shrink.slack != 0:
        raise SlackMismatch(f"build_one_symbol needs slack 0, got {shrink.slack}")
    q, n = shrink.q, shrink.n
    find, cut = shrink.first_violation, shrink.cut
    do_shrink, do_unshrink = shrink.shrink, shrink.unshrink
    checked: tuple[object, object | None] = (None, None)  # (word, its witness)
    start_byte, start_symbol, step_byte = bytes((START_MARKER,)), (START_MARKER,), bytes((STEP_MARKER,))

    def embed(payload: bytes | Word) -> bytes | Word:
        return payload + (start_byte if type(payload) is bytes else start_symbol)

    def unembed(word: bytes | Word) -> bytes | Word:
        return word[:-1]

    def is_start(word: bytes | Word) -> bool:
        return word[-1] == START_MARKER

    def satisfies(word: bytes) -> bool:
        nonlocal checked
        witness = find(word)
        checked = (word, witness)
        return witness is None

    def step(word: bytes) -> bytes:
        last, witness = checked
        if witness is None or last is not word or type(word) is not bytes:
            return do_shrink(word) + step_byte
        return cut(word, witness) + step_byte

    def step_back(word: bytes) -> bytes:
        if word[-1] != STEP_MARKER:
            raise NotACodeword(f"trailing symbol {word[-1]} is not the step marker", reason="bad-marker")
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
    find: Callable[[bytes], object | None],
    cut: Callable[[bytes, object], tuple[int, bytes]],
    restore: Callable[[bytes, bytes], tuple[int, bytes]],
) -> ShrinkStep:
    """Shrink step with the shared layout: cut one ell-window out, append a tail.

    ``find`` is the step's ``first_violation``.  ``cut(word, witness)`` names
    the window to remove by its start and gives the ``tail_len`` tail symbols
    that follow the rest of the word, zero-padded to n - 1 - slack symbols.
    ``restore(rest, tail)`` inverts ``cut`` from the n - ell surviving
    symbols and the tail, giving the start and the window to reinsert; it
    raises NotACodeword on inconsistent fields.
    """
    window_fits(n, ell)
    content_len = n - ell + tail_len
    pad = bytes(window_room(n, ell, slack, lambda e: tail_len))

    def cut_window(word: bytes, witness: object) -> bytes:
        start, tail = cut(word, witness)
        return b"".join((word[:start], word[start + ell :], tail, pad))

    def unshrink(word: bytes) -> bytes:
        if any(word[content_len:]):
            raise NotACodeword("nonzero padding after the tail fields", reason="bad-padding")
        rest = word[: n - ell]
        start, window = restore(rest, word[n - ell : content_len])
        return rest[:start] + window + rest[start:]

    return ShrinkStep(q=q, n=n, slack=slack, first_violation=find, cut=cut_window, unshrink=unshrink)


def window_fits(n: int, ell: int) -> None:
    """Raise ParameterViolation unless an ell-window fits in an n-word."""
    if ell > n:
        raise ParameterViolation(f"window length {ell} exceeds word length {n}")


def window_room(n: int, ell: int, slack: int, tail: Callable[[int], int]) -> int:
    """Zero padding left after cutting an ell-window and appending its tail.

    ``tail(e)`` is the tail width at window length e, never falling as e
    grows.  The cut frees ell symbols, which must hold the tail, the step
    marker and the slack; if they do not, ParameterViolation names the
    smallest window length up to n that fits, or says that none does.
    """
    room = ell - 1 - slack - tail(ell)
    if room < 0:
        e = ell + 1  # e fits iff e >= need = 1 + slack + tail(e); none from e up to need - 1 does
        while e <= n and (need := 1 + slack + tail(e)) > e:
            e = need
        fits = (
            f"smallest admissible window length is {e}" if e <= n else f"no window length up to n = {n} fits"
        )
        raise ParameterViolation(
            f"window length {ell} is too short for its tail ({tail(ell)} symbols), the step "
            f"marker and slack {slack}; {fits}"
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
    tags = [encode_index(idx, tag_width, q) for idx in range(len(members))]
    body_len = n - 1 - tag_width

    def first_violation(word: bytes) -> tuple[int, object] | None:
        for idx, find in enumerate(finders):
            witness = find(word)
            if witness is not None:
                return idx, witness
        return None

    def cut(word: bytes, witness: tuple[int, object]) -> bytes:
        idx, member_witness = witness
        return members[idx].cut(word, member_witness) + tags[idx]

    def unshrink(word: bytes) -> bytes:
        idx = decode_field(word[body_len:], q, len(members), "member tag")
        return members[idx].unshrink(word[:body_len])

    return ShrinkStep(q=q, n=n, slack=0, first_violation=first_violation, cut=cut, unshrink=unshrink)


def encode_index(value: int, width: int, q: int) -> bytes:
    """Fixed-width big-endian base-q encoding of a 0-based index.

    Binary fields, such as a rank of n - 2 bits, convert through the C-level
    binary text of the value; other bases take one ``divmod`` per digit.
    """
    if value < 0 or (value >> width if q == 2 else value >= q**width):
        raise OverflowError(f"index {value} does not fit in {width} base-{q} symbols")
    if q == 2:
        # the leading 1 of bin() pads the digits to exactly width symbols
        return bin(value | 1 << width)[3:].encode("ascii").translate(TEXT_TO_SYMBOL["bits"])
    digits = bytearray(width)
    for t in range(width - 1, -1, -1):
        value, digits[t] = divmod(value, q)
    return bytes(digits)


def decode_index(word: bytes, q: int) -> int:
    """The value of a big-endian base-q field: ``int`` reads its :data:`DIGITS` text for q <= 36."""
    if q <= 36:
        return int(word.translate(DIGITS), q) if word else 0
    value = 0
    for symbol in word:
        value = value * q + symbol
    return value


def decode_field(field: bytes, q: int, limit: int, what: str) -> int:
    """A tail field's value; NotACodeword naming ``what`` unless it is below ``limit``."""
    value = decode_index(field, q)
    if value >= limit:
        raise NotACodeword(f"{what} {value} out of range (limit {limit})", reason="field-out-of-range")
    return value
