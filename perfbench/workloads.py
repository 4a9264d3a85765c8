"""Workload tables, seeded inputs and the independent output predicates.

Nothing here imports the package under test: the specs are plain text, the
inputs come from the benchmark's own generator, and the predicates come from
``tests/oracles.py``, which shares no code with the package.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path

from xorshift import XorShift64Star

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT_DIR = ROOT / ".perfbench_out"  # spans files and cached oracle counts

# Predicates that are superlinear in n (``no_palindrome_of_length_at_least``
# is cubic, the reverse-complement pair scans quadratic with a rebuilt
# window per pair) take 35-60 ms per word at n = 256.  Their outputs are
# checked on a seeded subset of this many pool words; every other output is
# checked in full.
SLOW_PREDICATE_SUBSET = 8
SLOW_PREDICATES = frozenset({"mpl", "rss", "ss"})

ALPHABETS = {2: "01", 4: "ACGT"}  # the CLI's bits and dna text formats


def _params(text: str) -> tuple[str, dict[str, int]]:
    name, _, rest = text.partition(":")
    return name, {k: int(v) for k, _, v in (item.partition("=") for item in rest.split(","))}


def spec_n(text: str) -> int:
    name, _, rest = text.partition(":")
    if name == "intersect":
        return spec_n(rest.split("+")[0])
    return _params(text)[1]["n"]


def ceil_log(value: int, base: int) -> int:
    width, reach = 0, 1
    while reach < value:
        reach *= base
        width += 1
    return width


@dataclass(frozen=True)
class Case:
    """One spec of a workload: its text, alphabet, text format and pool size."""

    text: str
    q: int
    pool: int

    @property
    def fmt(self) -> str:
        return "bits" if self.q == 2 else "dna"

    @property
    def name(self) -> str:
        return self.text.partition(":")[0]

    @property
    def n(self) -> int:
        return spec_n(self.text)

    @property
    def label(self) -> str:
        """Name plus n, e.g. ``mw-n256``; an intersection joins member names."""
        name, _, rest = self.text.partition(":")
        if name == "intersect":
            name = "".join(member.partition(":")[0] for member in rest.split("+"))
        return f"{name}-n{self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    sparse: bool  # low-entropy payloads instead of uniform ones
    home: str  # the front end that gets most of the run: library, cli or oracle


def _pool(n: int) -> int:
    # fixed per n so that per-seed counts (iterations, checked words) are exact
    return {8: 256, 16: 256, 64: 128, 256: 48, 1024: 16}[n]


def _cases(*rows: tuple[str, int], pool: int | None = None) -> tuple[Case, ...]:
    return tuple(Case(text, q, pool or _pool(spec_n(text))) for text, q in rows)


_N256 = (
    ("mw:n=256,l=17,p=2", 2),
    ("lab:n=256,l=16,wmin=2,wmax=14", 2),
    ("mp:n=256,l=12,p=3", 2),
    ("enp:n=256,l=18", 2),
    ("mpl:n=256", 2),
    ("rf:n=256,l=17", 2),
    ("srf:n=256,l=17,beta=10", 2),
    ("rss:n=256,l=9", 4),
    ("ss:n=256", 4),
    ("ab:n=256", 2),
    ("intersect:mw:n=256,l=18,p=2+mp:n=256,l=13,p=3", 2),
)
_SPARSE_NAMES = ("mw", "lab", "mp", "enp", "mpl", "rf", "ab", "intersect")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stream",
            _cases(
                *_N256,
                ("mw:n=64,l=13,p=2", 2), ("mp:n=64,l=10,p=3", 2), ("rf:n=64,l=13", 2),
                ("mw:n=1024,l=21,p=2", 2), ("mp:n=1024,l=14,p=3", 2),
                ("rf:n=1024,l=21", 2), ("ab:n=1024", 2),
            ),
            sparse=False,
            home="library",
        ),
        Workload(
            "sparse",
            _cases(*(row for row in _N256 if row[0].partition(":")[0] in _SPARSE_NAMES)),
            sparse=True,
            home="library",
        ),
        Workload(
            "cli",
            _cases(
                ("mw:n=64,l=13,p=2", 2), ("mp:n=64,l=10,p=3", 2),
                ("rf:n=64,l=13", 2), ("ss:n=64", 4),
                pool=512,
            ),
            sparse=False,
            home="cli",
        ),
        Workload(
            "verify",
            _cases(
                ("mw:n=16,l=9,p=2", 2), ("mp:n=16,l=8,p=3", 2), ("enp:n=16,l=10", 2),
                ("mpl:n=16", 2), ("lab:n=16,l=12,wmin=2,wmax=10", 2), ("rf:n=16,l=9", 2),
                ("ab:n=16", 2), ("rss:n=8,l=5", 4), ("ss:n=8", 4),
            ),
            sparse=False,
            home="oracle",
        ),
    )
}

# per-spec rows are reported for the sampled workloads only
SPEC_LABELS = tuple(
    dict.fromkeys(
        case.label for w in WORKLOADS.values() if w.home != "oracle" for case in w.cases
    )
)


def to_text(word: tuple[int, ...], q: int) -> str:
    return "".join(ALPHABETS[q][s] for s in word)


def payloads(k: int, q: int, seed: int, count: int, sparse: bool) -> list[tuple[int, ...]]:
    """The first ``count`` payloads of the spec's stream for ``seed``.

    Sparse symbols draw a coin first and a symbol only on a hit (one in 8).
    """
    rng = XorShift64Star(seed)
    if sparse:
        return [
            tuple(rng.symbol(q) if rng.next64() % 8 == 0 else 0 for _ in range(k))
            for _ in range(count)
        ]
    return [tuple(rng.symbol(q) for _ in range(k)) for _ in range(count)]


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def predicate(oracles, text: str, q: int):
    """Independent membership check for the outputs of ``text``."""
    name, _, rest = text.partition(":")
    if name == "intersect":
        checks = [predicate(oracles, member, q) for member in rest.split("+")]
        return lambda w: all(check(w) for check in checks)
    _, p = _params(text)
    n = p["n"]
    if name == "mw":
        return lambda w: oracles.min_weight_ok(w, p["l"], p["p"])
    if name == "lab":
        return lambda w: oracles.weight_window_ok(w, p["l"], p["wmin"], p["wmax"])
    if name == "mp":
        return lambda w: oracles.min_period_ok(w, p["l"], p["p"])
    if name == "enp":
        comp = oracles.DNA_COMP if p.get("rc") else None
        return lambda w: oracles.no_palindrome_windows(w, p["l"], comp)
    if name == "mpl":
        return lambda w: oracles.no_palindrome_of_length_at_least(w, 2 * ceil_log(n, q) + 4)
    if name == "rf":
        return lambda w: oracles.repeat_free_ok(w, p["l"])
    if name == "srf":
        table = tuple(int(d) for d in str(p["beta"]).zfill(q))
        return lambda w: oracles.mapped_repeat_free_ok(w, p["l"], [table] * p["l"])
    if name == "rss":
        return lambda w: oracles.rc_pair_free(w, p["l"], require_gap=True)
    if name == "ss":
        return lambda w: oracles.rc_pair_free(w, 2 * ceil_log(n, 4) + 2, require_gap=False)
    if name == "ab":
        lo, hi = balanced_range(n)
        return lambda w: oracles.weight_in(w, lo, hi)
    raise ValueError(f"no predicate for {text!r}")


def balanced_range(n: int) -> tuple[int, int]:
    """Integer weights w with n/2 - sqrt(n) <= w <= n/2 + sqrt(n), by exact squares."""
    inside = [w for w in range(n + 1) if (n - 2 * w) ** 2 <= 4 * n]
    return inside[0], inside[-1]


def gate_indices(case: Case, seed: int) -> list[int]:
    """Pool positions whose outputs the gate checks: all, or a seeded subset."""
    if case.name not in SLOW_PREDICATES or case.n <= 64:
        return list(range(case.pool))
    rng = XorShift64Star(seed ^ 0x5EED)
    chosen: list[int] = []
    while len(chosen) < min(SLOW_PREDICATE_SUBSET, case.pool):
        i = rng.next64() % case.pool
        if i not in chosen:
            chosen.append(i)
    return sorted(chosen)
