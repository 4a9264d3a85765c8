"""Child process for ``setup_s``: import the package and build one workload's codecs.

Usage: python3 perfbench/setup_probe.py WORKLOAD
Prints the seconds from before ``import parcodec`` until every codec is
built, then the same at reference speed (see ``reference.py``).
"""

import sys
from time import perf_counter

from reference import Reference
from workloads import SRC, WORKLOADS

cases = WORKLOADS[sys.argv[1]].cases
ref = Reference()
k = ref.burst()  # HALF ticks before the set-up and HALF after it
sys.path.insert(0, str(SRC))
t0 = perf_counter()
import parcodec.cli  # noqa: E402,F401  every workload drives the CLI too
from parcodec.specs import build_codec, parse_spec  # noqa: E402

for case in cases:
    build_codec(parse_spec(case.text), case.q)
seconds = perf_counter() - t0
ref.burst()
print(repr(seconds), repr(ref.scaled(seconds, k + Reference.HALF)))
