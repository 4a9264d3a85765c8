"""The benchmark's own tests.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's test collection; they
exercise the benchmark, not the package.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

from workloads import ROOT, SRC, WORKLOADS, Case, payloads
from xorshift import XorShift64Star

sys.path.insert(0, str(SRC))

import measure  # noqa: E402
import tracing  # noqa: E402
from parcodec.oracle import _XorShift64Star  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the smallest size of each workload: one spec, a four-payload pool
SMALL_CASES = {
    "stream": Case("mw:n=64,l=13,p=2", 2, 4),
    "sparse": Case("lab:n=256,l=16,wmin=2,wmax=14", 2, 4),
    "cli": Case("ss:n=64", 4, 4),
    "verify": Case("rf:n=8,l=7", 2, 4),
}


def _small(name):
    return replace(WORKLOADS[name], cases=(SMALL_CASES[name],))


def test_generator_matches_package_sampler_bit_for_bit():
    ours, theirs = XorShift64Star(7), _XorShift64Star(7)
    assert [ours.next64() for _ in range(1000)] == [theirs.next64() for _ in range(1000)]


def test_sparse_draw_order():
    rng = _XorShift64Star(7)
    expected = [tuple(rng.symbol(4) if rng.next64() % 8 == 0 else 0 for _ in range(31)) for _ in range(3)]
    assert payloads(31, 4, 7, 3, sparse=True) == expected


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracing.LAYER_METRICS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_emits_every_metric_with_no_failure(name):
    workload = _small(name)
    metrics, tally = measure.run_untraced(workload, 7, 0.5, lambda _: None)
    assert {(k, unit) for k, (_, unit) in metrics.items()} == {
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    }
    assert all(value > 0 for value, _ in metrics.values())
    assert tally.attempted > 0 and tally.failed == 0, tally.notes

    layers, tally = tracing.run_traced(workload, 7, lambda _: None)
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert tally.attempted > 0 and tally.failed == 0, tally.notes
    measure.clean_work_dir()


def test_broken_decode_is_counted_as_failure():
    items = measure.build_items(_small("stream"), 7)
    codec = items[0].codec
    flip = lambda word: (1 - word[0],) + word[1:-1]  # noqa: E731  unembed that corrupts one symbol
    items[0].codec = replace(codec, unembed=flip)
    tally = measure.Tally()
    measure.library_phase(items, 0.05, tally, measure.Reference())
    assert tally.failed > 0 and tally.failed / tally.attempted > 0


def test_wrong_codeword_fails_the_independent_predicate():
    items = measure.build_items(_small("stream"), 7)
    tally = measure.Tally()
    measure.library_phase(items, 0.05, tally, measure.Reference())
    assert tally.failed == 0
    items[0].outputs[0] = (0,) * items[0].codec.n  # all-zero word violates min weight
    measure.library_gate(items, 7, tally, lambda _: None)
    assert tally.failed == 1
