"""Traced run: per-layer metrics from spans recorded in the benchmark's own files.

The package is not edited.  ``core`` spans come from wrapping the built
codec's callables with ``dataclasses.replace``.  ``local``, ``global_codes``,
``ranking`` and ``words`` spans come from replaying their public functions
on the words the traced encode visited (``record_visited=True``) and on the
CLI's text lines.  Each span records its name, start, end, parent span and
payload id; spans stay in memory and are written out when the run ends.

The replay rebuilds each spec's window coders and pair shrinks from the
spec text with the package's public build functions, with the slack the package
gives intersection members.  End-to-end numbers never come from here.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from measure import (
    Item,
    Tally,
    build_items,
    cli_argv,
    cli_files,
    cli_gate,
    exhaustive_gate,
    library_gate,
    oracle_samples,
)
from workloads import OUT_DIR, ROOT, SPEC_LABELS, Workload, ceil_log

UNTRACED_PASSES = 3  # pool passes with tracing off, for latency percentiles

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("words.check_word.us", "us", "lower"),
    ("words.text_to_word.us", "us", "lower"),
    ("words.word_to_text.us", "us", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.text_share", "ratio", "lower"),
    ("specs.parse_spec.us", "us", "lower"),
    ("specs.build_codec.ms", "ms", "lower"),
    ("core.satisfies.calls", "count", "lower"),
    ("core.satisfies.us", "us", "lower"),
    ("core.satisfies.pass_ratio", "ratio", "higher"),
    ("core.satisfies.share", "ratio", "lower"),
    ("core.step.calls", "count", "lower"),
    ("core.step.us", "us", "lower"),
    ("core.encode_index.us", "us", "lower"),
    ("core.step_back.calls", "count", "lower"),
    ("core.step_back.us", "us", "lower"),
    ("core.decode_index.us", "us", "lower"),
    ("core.encode.iterations_mean", "count", "lower"),
    ("core.encode.iterations_max", "count", "lower"),
    ("core.encode.stepped_share", "ratio", "lower"),
    ("core.encode.us_p50", "us", "lower"),
    ("core.encode.us_p99", "us", "lower"),
    ("core.encode.samples", "count", "higher"),
    ("core.decode.us_p50", "us", "lower"),
    ("core.decode.us_p99", "us", "lower"),
    ("core.decode.samples", "count", "higher"),
    ("local.first_forbidden_window.us", "us", "lower"),
    ("local.first_forbidden_window.windows", "count", "lower"),
    ("local.minimal_period.us", "us", "lower"),
    ("local.pack.us", "us", "lower"),
    ("local.unpack.us", "us", "lower"),
    ("global_codes.pair_scan.us", "us", "lower"),
    ("global_codes.pair_shrink.us", "us", "lower"),
    ("global_codes.pair_unshrink.us", "us", "lower"),
    ("global_codes.rank_weight_at_most.us", "us", "lower"),
    ("global_codes.unrank_weight_at_most.us", "us", "lower"),
    ("ranking.lex_rank_fixed_weight.us", "us", "lower"),
    ("ranking.lex_unrank_fixed_weight.us", "us", "lower"),
    ("oracle.exhaustive_roundtrip.s", "s", "lower"),
    ("oracle.build_state_graph.s", "s", "lower"),
    ("oracle.check_graph.s", "s", "lower"),
    ("oracle.count_constraint.s", "s", "lower"),
    ("oracle.sample_roundtrip.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
] + [
    (f"spec.{label}.{field}", unit, "lower")
    for label in SPEC_LABELS
    for field, unit in (("encode_us", "us"), ("decode_us", "us"), ("iterations_mean", "count"))
]


class Tracer:
    """In-memory spans: [name, start, end, parent id, payload id, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.parent: int | None = None
        self.payload: str | None = None

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.parent, self.payload, None])
        self.parent = sid
        return sid

    def end(self, sid: int, **extra) -> None:
        span = self.spans[sid]
        span[2] = perf_counter()
        span[5] = extra or None
        self.parent = span[3]

    def add(self, name: str, start: float, end: float, **extra) -> None:
        self.spans.append([name, start, end, self.parent, self.payload, extra or None])

    def call(self, name: str, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        self.add(name, t0, perf_counter())
        return result

    def wrap(self, name: str, fn):
        spans = self.spans

        def traced(word):
            t0 = perf_counter()
            result = fn(word)
            extra = {"result": result} if isinstance(result, bool) else None
            spans.append([name, t0, perf_counter(), self.parent, self.payload, extra])
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="ascii") as out:
            for sid, (name, start, end, parent, payload, extra) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "payload": payload}
                if extra:
                    row.update((k, v if isinstance(v, (int, float, str)) else repr(v)) for k, v in extra.items())
                out.write(json.dumps(row) + "\n")


class Totals:
    """Per-name call counts, seconds and extra counters, summed over spans."""

    def __init__(self, spans):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.extra: dict[tuple[str, str], int] = {}
        for name, start, end, _, _, extra in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + (end - start)
            for key, value in (extra or {}).items():
                if isinstance(value, (bool, int)):
                    self.extra[name, key] = self.extra.get((name, key), 0) + int(value)

    def per_call(self, name: str, scale: float, unit_key: str | None = None) -> float:
        """Mean seconds per call times ``scale``; ``unit_key`` counts batched calls."""
        calls = self.extra.get((name, unit_key), 0) if unit_key else self.calls.get(name, 0)
        return self.seconds.get(name, 0.0) / calls * scale if calls else 0.0


# ---------------------------------------------------------------- replay model


class Replay:
    """The public layer functions one spec's encoder runs, rebuilt from its text."""

    def __init__(self, text: str, q: int):
        from parcodec import global_codes, local
        from parcodec.specs import build_shrink, parse_spec

        self.locals: list = []  # (coder, is_mp, is_lab)
        self.pairs: list = []
        self.ab_wstar: int | None = None
        spec = parse_spec(text)
        n = spec.n
        self.n, self.q = n, q
        if spec.name == "intersect":
            members, slack = spec.members, ceil_log(len(spec.members), q)
        else:
            members, slack = (spec,), 0
        for member in members:
            name, p = member.name, dict(member.params)
            if name == "mw":
                self.locals.append((local.min_weight_coder(n, p["l"], p["p"], slack), False, False))
            elif name == "lab":
                coder = local.weight_window_coder(n, p["l"], p["wmin"], p["wmax"], slack)
                self.locals.append((coder, False, True))
            elif name == "mp":
                self.locals.append((local.min_period_coder(n, p["l"], p["p"], slack, q), True, False))
            elif name == "enp":
                comp = global_codes.DNA_COMPLEMENT if p.get("rc") else None
                self.locals.append((local.no_palindrome_coder(n, p["l"], comp, q, slack), False, False))
            elif name == "mpl":
                ell = 2 * ceil_log(n, q) + 4
                for length in (ell, ell + 1):
                    self.locals.append((local.no_palindrome_coder(n, length, q=q, slack=1), False, False))
            elif name == "ss":
                ell = 2 * ceil_log(n, q) + 2
                self.pairs.append(global_codes.reverse_complement_shrink(n, ell, slack=1))
                coder = local.no_palindrome_coder(
                    n, 2 * (ell // 2) + 2, comp=global_codes.DNA_COMPLEMENT, q=q, slack=1
                )
                self.locals.append((coder, False, False))
            elif name == "ab":
                self.ab_wstar = global_codes.min_balanced_weight(n) - 1
            else:  # rf, srf, rss
                self.pairs.append(build_shrink(member, q, slack))

    def run(self, tr: Tracer, word) -> None:
        from parcodec import global_codes, local, ranking
        from parcodec.core import decode_index, encode_index

        for coder, is_mp, is_lab in self.locals:
            ell = coder.window_len
            t0 = perf_counter()
            i = local.first_forbidden_window(word, coder)
            t1 = perf_counter()
            inspected = len(word) - ell + 1 if i is None else i + 1
            tr.add("local.first_forbidden_window", t0, t1, windows=inspected)
            if is_mp:
                windows = [word[x : x + ell] for x in range(inspected)]
                t0 = perf_counter()
                for window in windows:
                    local.minimal_period(window)
                tr.add("local.minimal_period", t0, perf_counter(), calls=len(windows))
            if i is None:
                continue
            window = word[i : i + ell]
            packed = tr.call("local.pack", coder.pack, window)
            tr.call("local.unpack", coder.unpack, packed)
            index = tr.call("core.encode_index", encode_index, i, ceil_log(self.n, self.q), self.q)
            tr.call("core.decode_index", decode_index, index, self.q)
            if is_lab:
                rank = tr.call("ranking.lex_rank_fixed_weight", ranking.lex_rank_fixed_weight, window)
                tr.call("ranking.lex_unrank_fixed_weight", ranking.lex_unrank_fixed_weight, rank, ell, sum(window))
        for shrink in self.pairs:
            if not tr.call("global_codes.pair_scan", shrink.satisfies, word):
                image = tr.call("global_codes.pair_shrink", shrink.shrink, word)
                tr.call("global_codes.pair_unshrink", shrink.unshrink, image)
        if self.ab_wstar is not None:
            wstar, weight = self.ab_wstar, sum(word)
            light = word if weight <= wstar else tuple(1 - s for s in word) if self.n - weight <= wstar else None
            if light is not None:
                rank = tr.call("global_codes.rank_weight_at_most", global_codes.rank_weight_at_most, light, wstar)
                tr.call("global_codes.unrank_weight_at_most", global_codes.unrank_weight_at_most, rank, self.n, wstar)
                rank = tr.call("ranking.lex_rank_fixed_weight", ranking.lex_rank_fixed_weight, light)
                tr.call("ranking.lex_unrank_fixed_weight", ranking.lex_unrank_fixed_weight, rank, self.n, sum(light))


# ---------------------------------------------------------------- passes


def untraced_pass(items: list[Item], tally: Tally):
    """Encode and decode every pool payload with tracing off.

    Returns per-spec lists of encode and decode seconds.
    """
    from parcodec.core import decode, encode

    enc: list[list[float]] = []
    dec: list[list[float]] = []
    for item in items:
        enc.append([])
        dec.append([])
        for j, payload in enumerate(item.pool):
            t0 = perf_counter()
            word, stats = encode(item.codec, payload)
            t1 = perf_counter()
            back = decode(item.codec, word)
            t2 = perf_counter()
            enc[-1].append(t1 - t0)
            dec[-1].append(t2 - t1)
            item.record(j, word, stats.iterations, back, tally)
    return enc, dec


def traced_pass(items: list[Item], tr: Tracer, tally: Tally) -> tuple[float, float]:
    """Encode and decode every pool payload through span-recording wrappers,
    then replay the layer functions on what the encoder visited.

    Each traced encode and decode follows the same calls with tracing off,
    so that drift in the machine's speed hits both alike.  Returns the summed
    seconds of the untraced and of the traced calls.
    """
    from parcodec.core import decode, encode
    from parcodec.words import check_word

    untraced_seconds = traced_seconds = 0.0
    for item in items:
        codec = item.codec
        wrapped = replace(
            codec,
            satisfies=tr.wrap("core.satisfies", codec.satisfies),
            step=tr.wrap("core.step", codec.step),
            step_back=tr.wrap("core.step_back", codec.step_back),
            is_start=tr.wrap("core.is_start", codec.is_start),
        )
        replay = Replay(item.case.text, item.case.q)
        for j, payload in enumerate(item.pool):
            tr.payload = f"{item.case.label}/{j}"
            t0 = perf_counter()
            decode(codec, encode(codec, payload)[0])
            untraced_seconds += perf_counter() - t0
            sid = tr.begin("core.encode")
            word, stats = encode(wrapped, payload, record_visited=True)
            tr.end(sid, iterations=stats.iterations)
            enc_span = tr.spans[sid]
            did = tr.begin("core.decode")
            back = decode(wrapped, word)
            tr.end(did)
            traced_seconds += enc_span[2] - enc_span[1] + tr.spans[did][2] - tr.spans[did][1]
            tally.check(word == item.outputs[j] and back == payload, f"{item.case.label} payload {j}: traced run differs")
            tr.parent = sid
            tr.call("words.check_word", check_word, payload, codec.q, codec.k)
            tr.call("words.check_word", check_word, word, codec.q, codec.n)
            for visited in stats.visited:
                replay.run(tr, visited)
            tr.parent = None
    tr.payload = None
    return untraced_seconds, traced_seconds


def traced_cli(items: list[Item], tr: Tracer, tally: Tally) -> None:
    """One encode and one decode per spec through ``cli.main``, with the
    text functions replayed on the same lines."""
    from parcodec.cli import main
    from parcodec.words import text_to_word, word_to_text

    files = cli_files(items)
    for item, (src, mid, dst) in zip(items, files):
        fmt = item.case.fmt
        tr.payload = item.case.label
        for command, source, target, inputs, outputs in (
            ("encode", src, mid, item.pool, item.outputs),
            ("decode", mid, dst, item.outputs, item.pool),
        ):
            sid = tr.begin("cli.main")
            code = main(cli_argv(command, item.case, source, target))
            tr.end(sid, command=command, lines=len(inputs))
            tally.check(code == 0, f"cli {item.case.label} {command}: exit code {code}")
            tr.parent = sid
            lines = source.read_text(encoding="ascii").split()
            t0 = perf_counter()
            for line in lines:
                text_to_word(line, fmt)
            tr.add("words.text_to_word", t0, perf_counter(), calls=len(lines))
            t0 = perf_counter()
            for word in outputs:
                word_to_text(word, fmt)
            tr.add("words.word_to_text", t0, perf_counter(), calls=len(outputs))
            tr.parent = None
        tally.check(src.read_bytes() == dst.read_bytes(), f"cli {item.case.label}: decoded file differs")
    cli_gate(items, files, tally)
    tr.payload = None


def traced_oracle(workload: Workload, items: list[Item], seed: int, tr: Tracer, tally: Tally) -> None:
    from parcodec import oracle

    verdicts = []
    for item in items:
        codec = item.codec
        tr.payload = item.case.label
        if workload.home != "oracle":
            report = tr.call("oracle.sample_roundtrip", oracle.sample_roundtrip, codec, oracle_samples(item.case), seed * 1009)
            tally.check(report.ok, f"oracle {item.case.label}: {len(report.failures)} failures")
            continue
        roundtrip = tr.call("oracle.exhaustive_roundtrip", oracle.exhaustive_roundtrip, codec)
        graph = tr.call("oracle.build_state_graph", oracle.build_state_graph, codec)
        t0 = perf_counter()
        structure = oracle.check_graph(codec, graph=graph)
        tr.add("oracle.check_graph", t0, perf_counter())
        del graph
        count = tr.call("oracle.count_constraint", oracle.count_constraint, codec.q, codec.n, codec.satisfies)
        verdicts.append((item, roundtrip.ok, structure.ok, structure.constraint_count, count))
    tr.payload = None
    if verdicts:
        exhaustive_gate(verdicts, tally)


# ---------------------------------------------------------------- metrics


def _p(values: list[float], pct: int) -> float:
    return quantiles(values, n=100, method="inclusive")[pct - 1] if len(values) > 1 else values[0]


def run_traced(workload: Workload, seed: int, log) -> tuple[dict, Tally]:
    """Every per-layer metric of one workload, from one traced run."""
    from parcodec.specs import build_codec, parse_spec

    tally = Tally()
    tr = Tracer()
    for case in workload.cases:
        tr.payload = case.label
        spec = tr.call("specs.parse_spec", parse_spec, case.text)
        tr.call("specs.build_codec", build_codec, spec, case.q)
    tr.payload = None
    items = build_items(workload, seed)

    enc: list[list[float]] = [[] for _ in items]
    dec: list[list[float]] = [[] for _ in items]
    for _ in range(UNTRACED_PASSES):
        e, d = untraced_pass(items, tally)
        for s in range(len(items)):
            enc[s] += e[s]
            dec[s] += d[s]
    untraced_seconds, traced_seconds = traced_pass(items, tr, tally)
    library_gate(items, seed, tally, log)
    traced_cli(items, tr, tally)
    traced_oracle(workload, items, seed, tr, tally)

    t = Totals(tr.spans)
    iterations = [i for item in items for i in item.iterations]
    all_enc = [x for xs in enc for x in xs]
    all_dec = [x for xs in dec for x in xs]
    text_seconds = t.seconds.get("words.text_to_word", 0.0) + t.seconds.get("words.word_to_text", 0.0)
    values = {
        "words.check_word.us": t.per_call("words.check_word", 1e6),
        "words.text_to_word.us": t.per_call("words.text_to_word", 1e6, "calls"),
        "words.word_to_text.us": t.per_call("words.word_to_text", 1e6, "calls"),
        "cli.main.s": t.per_call("cli.main", 1.0),
        "cli.text_share": text_seconds / t.seconds["cli.main"],
        "specs.parse_spec.us": t.per_call("specs.parse_spec", 1e6),
        "specs.build_codec.ms": t.per_call("specs.build_codec", 1e3),
        "core.satisfies.calls": t.calls.get("core.satisfies", 0),
        "core.satisfies.us": t.per_call("core.satisfies", 1e6),
        "core.satisfies.pass_ratio": t.extra.get(("core.satisfies", "result"), 0) / t.calls["core.satisfies"],
        "core.satisfies.share": t.seconds["core.satisfies"] / t.seconds["core.encode"],
        "core.step.calls": t.calls.get("core.step", 0),
        "core.step.us": t.per_call("core.step", 1e6),
        "core.encode_index.us": t.per_call("core.encode_index", 1e6),
        "core.step_back.calls": t.calls.get("core.step_back", 0),
        "core.step_back.us": t.per_call("core.step_back", 1e6),
        "core.decode_index.us": t.per_call("core.decode_index", 1e6),
        "core.encode.iterations_mean": sum(iterations) / len(iterations),
        "core.encode.iterations_max": max(iterations),
        "core.encode.stepped_share": sum(1 for i in iterations if i) / len(iterations),
        "core.encode.us_p50": median(all_enc) * 1e6,
        "core.encode.us_p99": _p(all_enc, 99) * 1e6,
        "core.encode.samples": len(all_enc),
        "core.decode.us_p50": median(all_dec) * 1e6,
        "core.decode.us_p99": _p(all_dec, 99) * 1e6,
        "core.decode.samples": len(all_dec),
        "local.first_forbidden_window.us": t.per_call("local.first_forbidden_window", 1e6),
        "local.first_forbidden_window.windows": (
            t.extra.get(("local.first_forbidden_window", "windows"), 0) / t.calls["local.first_forbidden_window"]
            if "local.first_forbidden_window" in t.calls else 0.0
        ),
        "local.minimal_period.us": t.per_call("local.minimal_period", 1e6, "calls"),
        "local.pack.us": t.per_call("local.pack", 1e6),
        "local.unpack.us": t.per_call("local.unpack", 1e6),
        "global_codes.pair_scan.us": t.per_call("global_codes.pair_scan", 1e6),
        "global_codes.pair_shrink.us": t.per_call("global_codes.pair_shrink", 1e6),
        "global_codes.pair_unshrink.us": t.per_call("global_codes.pair_unshrink", 1e6),
        "global_codes.rank_weight_at_most.us": t.per_call("global_codes.rank_weight_at_most", 1e6),
        "global_codes.unrank_weight_at_most.us": t.per_call("global_codes.unrank_weight_at_most", 1e6),
        "ranking.lex_rank_fixed_weight.us": t.per_call("ranking.lex_rank_fixed_weight", 1e6),
        "ranking.lex_unrank_fixed_weight.us": t.per_call("ranking.lex_unrank_fixed_weight", 1e6),
        "oracle.exhaustive_roundtrip.s": t.seconds.get("oracle.exhaustive_roundtrip", 0.0),
        "oracle.build_state_graph.s": t.seconds.get("oracle.build_state_graph", 0.0),
        "oracle.check_graph.s": t.seconds.get("oracle.check_graph", 0.0),
        "oracle.count_constraint.s": t.seconds.get("oracle.count_constraint", 0.0),
        "oracle.sample_roundtrip.s": t.seconds.get("oracle.sample_roundtrip", 0.0),
        "trace.overhead_ratio": traced_seconds / untraced_seconds,
    }
    for label in SPEC_LABELS:
        for field in ("encode_us", "decode_us", "iterations_mean"):
            values[f"spec.{label}.{field}"] = 0.0
    for s, item in enumerate(items):
        label = item.case.label
        if f"spec.{label}.encode_us" not in values:
            continue
        values[f"spec.{label}.encode_us"] = sum(enc[s]) / len(enc[s]) * 1e6
        values[f"spec.{label}.decode_us"] = sum(dec[s]) / len(dec[s]) * 1e6
        mean_iter = sum(item.iterations) / len(item.iterations)
        values[f"spec.{label}.iterations_mean"] = mean_iter
        if not workload.sparse and mean_iter > item.codec.q:
            log(f"FLAG {label}: mean iterations {mean_iter:.3f} > q = {item.codec.q}")

    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tr.write(path)
    log(f"{len(tr.spans)} spans written to {path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {name: (values[name], units[name]) for name, _, _ in LAYER_METRICS}, tally
