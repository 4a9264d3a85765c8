"""Textual constraint specs: parse, serialize, and build codecs from them.

Grammar (one line, no spaces):

    NAME:key=val[,key=val...]
    intersect:NAME:...+NAME:...

Values are plain decimal digits.  The alphabet size q is not part of the
text; it is supplied at build time (CLI flag ``--q``).

Every word length n is at least 2, as each codec spends one symbol on the
marker, and ``rc``, the one optional key, is a 0/1 flag.

Each constraint is one ``_CONSTRAINTS`` row (parameter order, member
builders, optional keys), so adding a constraint means adding one row.  A
spec's shrink step is its lone member, or the intersection of the members of
every row it names, so every row composes.  The builders alone decide the
alphabet: a spec built over any other q raises ParameterViolation.

The size bounds live in the builders they guard (``ab``'s n in
:func:`global_codes.almost_balanced_member`, a window key's bits in
:func:`words.window_keys`), so the rows pass plain parameters, and a spec
refuses what a direct build refuses, naming its member and slack first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .core import CodecSpec, ShrinkStep, build_intersection, build_one_symbol, ceil_log, window_fits
from .errors import ParameterViolation, ParseError, SlackMismatch
from .global_codes import (
    DNA_COMPLEMENT,
    almost_balanced_member,
    repeat_free_shrink,
    reverse_complement_shrink,
    secondary_structure_member,
)
from .local import (
    WindowCoder,
    forbidden_window_shrink,
    min_period_coder,
    min_weight_coder,
    no_palindrome_coder,
    palindrome_free_member,
    weight_window_coder,
)


@dataclass(frozen=True)
class ConstraintSpec:
    """Parsed form of the constraint grammar; round-trips through to_text()."""

    name: str
    params: tuple[tuple[str, int], ...] = ()
    members: tuple["ConstraintSpec", ...] = field(default=())

    def param(self, key: str, default: int | None = None) -> int:
        for k, v in self.params:
            if k == key:
                return v
        if default is None:
            raise ParseError(f"spec {self.name!r} is missing parameter {key!r}")
        return default

    @property
    def n(self) -> int:
        if self.name == "intersect":
            return self.members[0].n
        return self.param("n")

    def to_text(self) -> str:
        if self.name == "intersect":
            return "intersect:" + "+".join(m.to_text() for m in self.members)
        body = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{body}"


def parse_spec(text: str) -> ConstraintSpec:
    text = text.strip()
    name, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"expected NAME:key=val,... , got {text!r}")
    if name == "intersect":
        member_texts = rest.split("+")
        if len(member_texts) < 2:
            raise ParseError("intersect needs at least two members joined by '+'")
        # tested on the text: a nested member's own '+' was split away above
        if any(t.strip().partition(":")[0] == "intersect" for t in member_texts):
            raise ParseError("intersect members cannot be nested intersections")
        members = tuple(parse_spec(t) for t in member_texts)
        if len({m.n for m in members}) != 1:
            raise ParseError("intersection members must share the same n")
        return ConstraintSpec("intersect", (), members)
    row = _CONSTRAINTS.get(name)
    if row is None:
        raise ParseError(f"unknown constraint name {name!r}")
    seen: dict[str, int] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq or not value:
                raise ParseError(f"malformed parameter {item!r}")
            if key not in row.params:
                raise ParseError(f"unknown parameter {key!r} for {name!r}")
            if key in seen:
                raise ParseError(f"duplicate parameter {key!r}")
            if not (value.isascii() and value.isdigit()):
                raise ParseError(f"parameter {key!r} must be decimal digits 0-9, got {value!r}")
            try:
                seen[key] = int(value)
            except ValueError:  # more digits than int() converts (4300 from Python 3.11)
                raise ParseError(f"parameter {key!r} has too many digits ({len(value)})") from None
            if key in row.optional and seen[key] > 1:
                raise ParseError(f"parameter {key!r} is a 0/1 flag, got {seen[key]}")
    for key in row.params:
        if key not in seen and key not in row.optional:
            raise ParseError(f"spec {name!r} is missing parameter {key!r}")
    if seen["n"] < 2:
        raise ParseError(f"word length n must be at least 2, got {seen['n']}")
    ordered = tuple((k, seen[k]) for k in row.params if k in seen)
    return ConstraintSpec(name, ordered)


def _symbol_table_from_digits(beta: int, q: int) -> tuple[int, ...]:
    # repeat_free_shrink checks the table is a map on [0, q)
    if q > 10:
        raise ParameterViolation(f"srf beta names its map by decimal digits, so needs q <= 10, got q={q}")
    return tuple(int(d) for d in str(beta).zfill(q))


def _window(coder: Callable[[ConstraintSpec, int, int], WindowCoder]) -> tuple[Callable]:
    """The one member builder of a forbidden-window constraint, given its coder factory."""
    return (lambda s, q, slack: forbidden_window_shrink(coder(s, q, slack), s.n, slack),)


@dataclass(frozen=True)
class _Constraint:
    """Registry row; each of ``members`` is a builder ``(spec, q, slack) -> ShrinkStep``.

    The builders decide the alphabet, so a row states no q.
    """

    params: tuple[str, ...]
    members: tuple[Callable[[ConstraintSpec, int, int], ShrinkStep], ...]
    optional: frozenset[str] = frozenset()


_CONSTRAINTS = {
    "mw": _Constraint(("n", "l", "p"), _window(
        lambda s, q, slack: min_weight_coder(s.n, s.param("l"), s.param("p"), slack))),
    "lab": _Constraint(("n", "l", "wmin", "wmax"), _window(lambda s, q, slack: weight_window_coder(
        s.n, s.param("l"), s.param("wmin"), s.param("wmax"), slack))),
    "mp": _Constraint(("n", "l", "p"), _window(
        lambda s, q, slack: min_period_coder(s.n, s.param("l"), s.param("p"), slack, q))),
    "enp": _Constraint(("n", "l", "rc"), _window(lambda s, q, slack: no_palindrome_coder(
        s.n, s.param("l"), DNA_COMPLEMENT if s.param("rc", 0) else None, q, slack)),
        optional=frozenset({"rc"})),
    "mpl": _Constraint(("n",), (
        lambda s, q, slack: palindrome_free_member(s.n, q, odd=False, slack=slack),
        lambda s, q, slack: palindrome_free_member(s.n, q, odd=True, slack=slack))),
    "rf": _Constraint(("n", "l"), (lambda s, q, slack: repeat_free_shrink(
        s.n, s.param("l"), q, None, slack),)),
    "srf": _Constraint(("n", "l", "beta"), (lambda s, q, slack: repeat_free_shrink(
        s.n, s.param("l"), q, _symbol_table_from_digits(s.param("beta"), q), slack),)),
    "rss": _Constraint(("n", "l"), (lambda s, q, slack: reverse_complement_shrink(
        s.n, s.param("l"), DNA_COMPLEMENT, slack),)),
    "ss": _Constraint(("n",), (
        lambda s, q, slack: secondary_structure_member(s.n, palindromes=False, slack=slack),
        lambda s, q, slack: secondary_structure_member(s.n, palindromes=True, slack=slack))),
    "ab": _Constraint(("n",), (
        lambda s, q, slack: almost_balanced_member(s.n, heavy=False, slack=slack),
        lambda s, q, slack: almost_balanced_member(s.n, heavy=True, slack=slack))),
}


def build_shrink(spec: ConstraintSpec, q: int, slack: int = 0) -> ShrinkStep:
    """The shrink step of a spec: the members of every row it names, in spec order.

    A lone member is built at ``slack``.  m > 1 members are built once each
    at ceil_log(m, q), the width of the member tag, and intersected; the
    intersection has slack 0, so any other ``slack`` raises SlackMismatch.
    """
    named = spec.members or (spec,)
    if unknown := [m.name for m in named if m.name not in _CONSTRAINTS]:  # a nested intersect too
        raise ParameterViolation(f"unknown constraint {unknown[0]!r}")
    members = [(m, build) for m in named for build in _CONSTRAINTS[m.name].members]
    if len(members) > 1 and slack != 0:
        raise SlackMismatch(f"an intersection of {len(members)} members has slack 0, got {slack}")
    width = slack if len(members) == 1 else ceil_log(len(members), q)
    steps = [_build_member(member, q, width, build) for member, build in members]
    return steps[0] if len(steps) == 1 else build_intersection(steps)


def build_codec(spec: ConstraintSpec, q: int = 2) -> CodecSpec:
    """Build a full codec from a parsed spec; every parameter bound is checked here."""
    return build_one_symbol(build_shrink(spec, q))


def _build_member(spec: ConstraintSpec, q: int, slack: int, build: Callable) -> ShrinkStep:
    """``build(spec, q, slack)``, checked to be over q; a refusal from the
    builder is prefixed with the member's spec text and slack."""
    try:
        window_fits(spec.n, spec.param("l", 0))  # before a builder sizes tables by l
        built = build(spec, q, slack)
    except (ParameterViolation, SlackMismatch) as err:
        raise type(err)(f"member {spec.to_text()!r} at slack {slack}: {err}") from None
    if built.q != q:
        raise ParameterViolation(f"constraint {spec.name!r} is over q={built.q}, got q={q}")
    return built
