"""Untraced measurement: set-up, the three front ends, and the correctness gate.

Every workload runs all three front ends on its own specs and inputs (the
library, ``cli.main`` and the package's oracle), so every end-to-end metric
exists on every workload; the workload's home front end gets most of the
run.  Each phase is a closed loop with one caller in one thread.  Timers
cover only the calls into the package; every check runs outside them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from math import exp, log
from pathlib import Path
from statistics import median
from time import perf_counter

from reference import Reference
from workloads import ORACLES, OUT_DIR, ROOT, Case, Workload, gate_indices, payloads, predicate, to_text

HOME_SHARE = 0.5  # of --seconds; each of the two other front ends gets FOREIGN_SHARE
FOREIGN_SHARE = 0.25
ROUNDS = 32  # round-robin turns over the specs, so load drift hits every spec alike
TIMED_PER_TURN = 16  # words whose times are kept per turn, which bounds memory
CLI_ROUNDS = 8
SETUP_REPEATS = 7
WORK_DIR = ROOT / ".perfbench_work"  # CLI files of one run, removed at its end
COUNT_CACHE = OUT_DIR / "oracle-counts.json"


@dataclass
class Item:
    """One spec of a workload with its built codec and seeded payload pool."""

    case: Case
    codec: object
    pool: list[tuple[int, ...]]
    outputs: list  # codeword per pool payload, once encoded
    iterations: list  # steps per pool payload, once encoded

    def record(self, j: int, word, iterations: int, back, tally: Tally) -> None:
        """Check one encode and decode of pool payload ``j``; keep its first output."""
        if self.outputs[j] is None:
            self.outputs[j], self.iterations[j] = word, iterations
            tally.check(True, "")
        else:
            tally.check(word == self.outputs[j], f"{self.case.label} payload {j}: output changed")
        tally.check(back == self.pool[j], f"{self.case.label} payload {j}: round trip")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def typical(timed: list[tuple[float, int]], ref: Reference | None) -> float:
    """Interquartile mean of (seconds, tick) measurements, scaled unless ``ref`` is None.

    It drops rare slow outliers (one stepped ``ab:n=1024`` word decodes 700
    times slower than the rest) and, unlike the median, moves smoothly when a
    spec's words split into two cost modes (stepped and not) near 50/50.
    """
    values = sorted(ref.scaled(t, k) if ref else t for t, k in timed)
    cut = len(values) // 4
    middle = values[cut : len(values) - cut]
    return sum(middle) / len(middle)


def geomean(values) -> float:
    values = list(values)
    return exp(sum(log(v) for v in values) / len(values))


def build_items(workload: Workload, seed: int) -> list[Item]:
    from parcodec.specs import build_codec, parse_spec

    items = []
    for case in workload.cases:
        codec = build_codec(parse_spec(case.text), case.q)
        pool = payloads(codec.k, case.q, seed, case.pool, workload.sparse)
        items.append(Item(case, codec, pool, [None] * case.pool, [None] * case.pool))
    return items


def measure_setup(workload: Workload) -> tuple[float, float]:
    """Median over fresh processes of import plus building every codec,
    as measured and at reference speed."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload.name]
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):  # the first run warms the byte-code cache
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        if i:
            measured, at_reference = done.stdout.split()[-2:]
            raw.append(float(measured))
            scaled.append(float(at_reference))
    return median(raw), median(scaled)


# ---------------------------------------------------------------- library


def library_phase(items: list[Item], budget: float, tally: Tally, ref: Reference):
    """Encode then decode pool payloads round-robin until the budget is spent
    and every pool payload has been encoded at least once.

    Returns, per spec, the (seconds, tick) of the first ``TIMED_PER_TURN``
    encodes and decodes of each turn.
    """
    from parcodec.core import decode, encode

    enc: list[list] = [[] for _ in items]
    dec: list[list] = [[] for _ in items]
    next_j = [0] * len(items)
    turn = budget / (ROUNDS * len(items))
    deadline = perf_counter() + budget
    while True:
        for s, item in enumerate(items):
            codec, pool = item.codec, item.pool
            timed = 0
            turn_end = perf_counter() + turn
            while True:
                j = next_j[s] % len(pool)
                payload = pool[j]
                try:
                    t0 = perf_counter()
                    word, stats = encode(codec, payload)
                    t1 = perf_counter()
                    back = decode(codec, word)
                    t2 = perf_counter()
                except Exception as exc:  # a crash on a valid payload is a failure
                    tally.check(False, f"{item.case.label} payload {j}: {exc!r}")
                else:
                    if timed < TIMED_PER_TURN:
                        enc[s].append((t1 - t0, len(ref.ticks)))
                        dec[s].append((t2 - t1, len(ref.ticks)))
                        timed += 1
                    item.record(j, word, stats.iterations, back, tally)
                next_j[s] += 1
                if perf_counter() >= turn_end:
                    break
            ref.tick()
        if perf_counter() >= deadline and all(n >= len(it.pool) for n, it in zip(next_j, items)):
            return enc, dec


def library_gate(items: list[Item], seed: int, tally: Tally, log) -> None:
    """Check pool outputs with the independent predicates of ``tests/oracles.py``."""
    from workloads import load_oracles

    oracles = load_oracles()
    for item in items:
        check = predicate(oracles, item.case.text, item.case.q)
        chosen = gate_indices(item.case, seed)
        if len(chosen) < item.case.pool:
            log(f"gate {item.case.label}: seeded subset of {len(chosen)} of {item.case.pool} outputs")
        for j in chosen:
            word = item.outputs[j]
            tally.check(
                word is not None and len(word) == item.codec.n and check(word),
                f"{item.case.label} payload {j}: output fails the independent predicate",
            )


# ---------------------------------------------------------------- cli


def cli_files(items: list[Item]) -> list[tuple[Path, Path, Path]]:
    WORK_DIR.mkdir(exist_ok=True)
    files = []
    for item in items:
        base = WORK_DIR / item.case.label
        src = base.with_suffix(".in")
        src.write_text("".join(to_text(p, item.case.q) + "\n" for p in item.pool), encoding="ascii")
        files.append((src, base.with_suffix(".enc"), base.with_suffix(".dec")))
    return files


def cli_argv(command: str, case: Case, src: Path, dst: Path) -> list[str]:
    return [
        command, "--spec", case.text, "--q", str(case.q), "--format", case.fmt,
        "--input", str(src), "--output", str(dst),
    ]


def cli_phase(items: list[Item], files, budget: float, tally: Tally, ref: Reference):
    """Run ``cli.main`` on each spec's pool file, round-robin, until the
    budget is spent.  A spec's turn spends half its time on encode calls and
    half on decode calls (at least one each), so fast decodes get as many
    seconds as slow encodes.

    Returns, per spec, the (seconds, tick) of each encode and decode call.
    """
    from parcodec.cli import main

    enc: list[list] = [[] for _ in items]
    dec: list[list] = [[] for _ in items]
    half_turn = budget / (2 * CLI_ROUNDS * len(items))
    deadline = perf_counter() + budget
    while True:
        for s, (item, (src, mid, dst)) in enumerate(zip(items, files)):
            for command, source, target, timed in (("encode", src, mid, enc[s]), ("decode", mid, dst, dec[s])):
                end = perf_counter() + half_turn
                while True:
                    try:
                        t0 = perf_counter()
                        code = main(cli_argv(command, item.case, source, target))
                        t1 = perf_counter()
                    except Exception as exc:
                        tally.check(False, f"cli {item.case.label} {command}: {exc!r}")
                    else:
                        timed.append((t1 - t0, len(ref.ticks)))
                        tally.check(code == 0, f"cli {item.case.label} {command}: exit code {code}")
                    if perf_counter() >= end:
                        break
                ref.tick()
            tally.check(src.read_bytes() == dst.read_bytes(), f"cli {item.case.label}: decoded file differs")
        if perf_counter() >= deadline:
            return enc, dec


def cli_gate(items: list[Item], files, tally: Tally) -> None:
    """The encoded file must hold exactly the library's codewords."""
    for item, (_, mid, _) in zip(items, files):
        expected = "".join(to_text(w, item.case.q) + "\n" for w in item.outputs)
        tally.check(mid.read_text(encoding="ascii") == expected, f"cli {item.case.label}: codewords differ from the library's")


# ---------------------------------------------------------------- oracle


def exhaustive_pass(items: list[Item], verdicts: list, ref: Reference) -> list[tuple[float, int]]:
    """One full verification of every spec; returns the (seconds, tick) of each oracle call."""
    from parcodec.oracle import build_state_graph, check_graph, count_constraint, exhaustive_roundtrip

    timed = []
    ref.burst()
    for item in items:
        codec = item.codec
        t0 = perf_counter()
        roundtrip = exhaustive_roundtrip(codec)
        timed.append((perf_counter() - t0, ref.burst()))
        t0 = perf_counter()
        graph = build_state_graph(codec)
        structure = check_graph(codec, graph=graph)
        del graph
        timed.append((perf_counter() - t0, ref.burst()))
        t0 = perf_counter()
        count = count_constraint(codec.q, codec.n, codec.satisfies)
        timed.append((perf_counter() - t0, ref.burst()))
        verdicts.append((item, roundtrip.ok, structure.ok, structure.constraint_count, count))
    return timed


def oracle_phase(workload: Workload, items: list[Item], seed: int, budget: float, tally: Tally, ref: Reference):
    """The package's own verification of the workload's codecs.

    On the oracle workload every spec is verified exhaustively; a pass is the
    whole list and the figure is the median pass.  Elsewhere the spaces are
    too large, so each spec gets ``sample_roundtrip`` over an eighth of its
    pool size, with a fresh sample seed per pass; the figure is the sum over
    specs of each spec's typical time, so one rare slow sample does not move
    it.  Returns the figure as a function of the reference (None: unscaled).
    """
    from parcodec.oracle import sample_roundtrip

    deadline = perf_counter() + budget
    if workload.home == "oracle":
        verdicts: list = []
        passes = []
        while not passes or perf_counter() < deadline:
            passes.append(exhaustive_pass(items, verdicts, ref))
        exhaustive_gate(verdicts, tally)
        return lambda r: median(sum(r.scaled(t, k) if r else t for t, k in timed) for timed in passes)
    times: list[list] = [[] for _ in items]
    r = 0
    while True:
        for s, item in enumerate(items):
            t0 = perf_counter()
            report = sample_roundtrip(item.codec, oracle_samples(item.case), seed * 1009 + r)
            times[s].append((perf_counter() - t0, ref.tick()))
            tally.check(report.ok, f"oracle {item.case.label} pass {r}: {len(report.failures)} failures")
        r += 1
        if perf_counter() >= deadline:
            return lambda ref: sum(typical(timed, ref) for timed in times)


def oracle_samples(case: Case) -> int:
    return max(1, case.pool // 8)


def exhaustive_gate(verdicts, tally: Tally) -> None:
    """Verdicts must be ok and counts equal to a count made with ``tests/oracles.py``."""
    for item, roundtrip_ok, structure_ok, graph_count, count in verdicts:
        label = item.case.label
        expected = oracle_count(item.case, item.codec.n)
        tally.check(roundtrip_ok, f"oracle {label}: exhaustive round trip not ok")
        tally.check(structure_ok, f"oracle {label}: step graph not ok")
        tally.check(graph_count == expected, f"oracle {label}: graph count {graph_count} != {expected}")
        tally.check(count == expected, f"oracle {label}: count {count} != {expected}")


def oracle_count(case: Case, n: int) -> int:
    """|C(n)| counted with the independent predicate over all q**n words.

    The count depends only on the spec and ``tests/oracles.py``, so it is
    cached in the checkout under a hash of that file; enumerating takes
    about 7 s for the whole oracle workload.
    """
    from itertools import product

    from workloads import load_oracles

    key = f"{hashlib.sha256(ORACLES.read_bytes()).hexdigest()} {case.text} q={case.q}"
    cache = json.loads(COUNT_CACHE.read_text()) if COUNT_CACHE.is_file() else {}
    if key not in cache:
        check = predicate(load_oracles(), case.text, case.q)
        cache[key] = sum(1 for w in product(range(case.q), repeat=n) if check(w))
        COUNT_CACHE.parent.mkdir(exist_ok=True)
        COUNT_CACHE.write_text(json.dumps(cache, indent=0))
    return cache[key]


# ---------------------------------------------------------------- run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def budgets(workload: Workload, seconds: float) -> dict[str, float]:
    return {
        phase: seconds * (HOME_SHARE if phase == workload.home else FOREIGN_SHARE)
        for phase in ("library", "cli", "oracle")
    }


def run_untraced(workload: Workload, seed: int, seconds: float, log) -> tuple[dict, Tally]:
    """Every end-to-end metric of one workload, measured with tracing off."""
    setup_raw, setup_s = measure_setup(workload)
    tally = Tally()
    items = build_items(workload, seed)
    budget = budgets(workload, seconds)
    refs = {phase: Reference() for phase in budget}
    lib_enc, lib_dec = library_phase(items, budget["library"], tally, refs["library"])
    files = cli_files(items)
    cli_enc, cli_dec = cli_phase(items, files, budget["cli"], tally, refs["cli"])
    verify = oracle_phase(workload, items, seed, budget["oracle"], tally, refs["oracle"])
    rss = peak_rss_mb()

    library_gate(items, seed, tally, log)
    cli_gate(items, files, tally)
    for item in items:
        mean_iter = sum(item.iterations) / len(item.iterations)
        if not workload.sparse and mean_iter > item.codec.q:
            log(f"FLAG {item.case.label}: mean iterations {mean_iter:.3f} > q = {item.codec.q}")
    lines = [item.case.pool for item in items]

    def figures(scaled: bool) -> dict[str, float]:
        lib, cli, ora = (refs[p] if scaled else None for p in ("library", "cli", "oracle"))
        return {
            "encode_wps": geomean(1 / typical(t, lib) for t in lib_enc),
            "decode_wps": geomean(1 / typical(t, lib) for t in lib_dec),
            "cli_encode_lps": geomean(n / typical(t, cli) for n, t in zip(lines, cli_enc)),
            "cli_decode_lps": geomean(n / typical(t, cli) for n, t in zip(lines, cli_dec)),
            "verify_s": verify(ora),
        }

    raw = {"setup_s": setup_raw, **figures(False)}
    log("as measured, before scaling: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    units = {"encode_wps": "words/s", "decode_wps": "words/s", "cli_encode_lps": "lines/s",
             "cli_decode_lps": "lines/s", "verify_s": "s"}
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update((name, (value, units[name])) for name, value in figures(True).items())
    metrics["peak_rss_mb"] = (rss, "MiB")
    return metrics, tally


def clean_work_dir() -> None:
    if WORK_DIR.is_dir():
        for path in WORK_DIR.iterdir():
            os.remove(path)
        WORK_DIR.rmdir()
