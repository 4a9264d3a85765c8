"""Textual constraint specs: parse, serialize, and build codecs from them.

Grammar (one line, no spaces):

    NAME:key=val[,key=val...]
    intersect:NAME:...+NAME:...

Values are non-negative integers.  Intersection members automatically
receive the slack needed for the member tag.  The alphabet size q is not
part of the text; it is supplied at build time (CLI flag ``--q``).

Each constraint is one ``_CONSTRAINTS`` row (parameter order, optional keys,
allowed q or None for any, builder, intersection-member flag), so adding a
constraint means adding one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .core import CodecSpec, ShrinkStep, build_intersection, build_one_symbol, ceil_log
from .errors import ParameterViolation, ParseError
from .global_codes import (
    DNA_COMPLEMENT,
    build_almost_balanced,
    build_secondary_structure,
    repeat_free_shrink,
    reverse_complement_shrink,
)
from .local import (
    WindowCoder,
    build_palindrome_free,
    forbidden_window_shrink,
    min_period_coder,
    min_weight_coder,
    no_palindrome_coder,
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
        members = tuple(parse_spec(t) for t in member_texts)
        for member in members:
            if member.name == "intersect":
                raise ParseError("intersect members cannot be nested intersections")
            if not _CONSTRAINTS[member.name].member:
                raise ParseError(f"{member.name!r} cannot be an intersection member")
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
            try:
                seen[key] = int(value)
            except ValueError:
                raise ParseError(f"parameter {key!r} must be an integer, got {value!r}") from None
            if seen[key] < 0:
                raise ParseError(f"parameter {key!r} must be non-negative")
    for key in row.params:
        if key not in seen and key not in row.optional:
            raise ParseError(f"spec {name!r} is missing parameter {key!r}")
    ordered = tuple((k, seen[k]) for k in row.params if k in seen)
    return ConstraintSpec(name, ordered)


def _require_q(spec_name: str, q: int, allowed: tuple[int, ...] | None) -> None:
    if allowed is not None and q not in allowed:
        raise ParameterViolation(f"constraint {spec_name!r} requires q in {allowed}, got {q}")


def _symbol_table_from_digits(beta: int, q: int) -> tuple[int, ...]:
    digits = str(beta).zfill(q)
    if len(digits) != q:
        raise ParameterViolation(f"beta={beta} must have at most {q} digits")
    table = tuple(int(d) for d in digits)
    if any(s >= q for s in table):
        raise ParameterViolation(f"beta={beta} contains a digit outside [0, {q})")
    return table


def _no_palindrome(s: ConstraintSpec, q: int, slack: int) -> WindowCoder:
    if s.param("rc", 0):
        _require_q("enp with rc=1", q, (4,))
    return no_palindrome_coder(s.n, s.param("l"), DNA_COMPLEMENT if s.param("rc", 0) else None, q, slack)


def _window(coder: Callable[[ConstraintSpec, int, int], WindowCoder]) -> Callable:
    """Member builder for a forbidden-window constraint, given its coder factory."""
    return lambda s, q, slack: forbidden_window_shrink(coder(s, q, slack), s.n, slack)


@dataclass(frozen=True)
class _Constraint:
    """Registry row; ``build(spec, q, slack)`` gives a shrink step if ``member``, else a codec."""

    params: tuple[str, ...]
    qs: tuple[int, ...] | None
    build: Callable
    member: bool = True
    optional: frozenset[str] = frozenset()


_CONSTRAINTS = {
    "mw": _Constraint(("n", "l", "p"), (2,), _window(
        lambda s, q, slack: min_weight_coder(s.n, s.param("l"), s.param("p"), slack))),
    "lab": _Constraint(("n", "l", "wmin", "wmax"), (2,), _window(lambda s, q, slack: weight_window_coder(
        s.n, s.param("l"), s.param("wmin"), s.param("wmax"), slack))),
    "mp": _Constraint(("n", "l", "p"), None, _window(
        lambda s, q, slack: min_period_coder(s.n, s.param("l"), s.param("p"), slack, q))),
    "enp": _Constraint(("n", "l", "rc"), None, _window(_no_palindrome), optional=frozenset({"rc"})),
    "mpl": _Constraint(("n",), None, lambda s, q, slack: build_palindrome_free(s.n, q), member=False),
    "rf": _Constraint(("n", "l"), None, lambda s, q, slack: repeat_free_shrink(
        s.n, s.param("l"), q, None, slack)),
    "srf": _Constraint(("n", "l", "beta"), None, lambda s, q, slack: repeat_free_shrink(
        s.n, s.param("l"), q, _symbol_table_from_digits(s.param("beta"), q), slack)),
    "rss": _Constraint(("n", "l"), (4,), lambda s, q, slack: reverse_complement_shrink(
        s.n, s.param("l"), DNA_COMPLEMENT, slack)),
    "ss": _Constraint(("n",), (4,), lambda s, q, slack: build_secondary_structure(s.n), member=False),
    "ab": _Constraint(("n",), (2,), lambda s, q, slack: build_almost_balanced(s.n), member=False),
}


def build_shrink(spec: ConstraintSpec, q: int, slack: int = 0) -> ShrinkStep:
    """Build the shrink step for a non-composite constraint spec."""
    row = _CONSTRAINTS.get(spec.name)
    if row is None or not row.member:
        raise ParameterViolation(f"{spec.name!r} does not define a standalone shrink step")
    _require_q(spec.name, q, row.qs)
    return row.build(spec, q, slack)


def build_codec(spec: ConstraintSpec, q: int = 2) -> CodecSpec:
    """Build a full codec from a parsed spec; every parameter bound is checked here."""
    if spec.name == "intersect":
        tag = ceil_log(len(spec.members), q)
        return build_one_symbol(build_intersection([build_shrink(m, q, tag) for m in spec.members]))
    row = _CONSTRAINTS.get(spec.name)
    if row is None or row.member:
        return build_one_symbol(build_shrink(spec, q))
    _require_q(spec.name, q, row.qs)
    return row.build(spec, q, 0)
