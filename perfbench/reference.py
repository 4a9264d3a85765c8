"""The reference kernel that scales measured times to a fixed machine speed.

It imports nothing of the package and little of the standard library, so
that ``setup_probe.py`` can tick it before timing ``import parcodec``.
"""

from time import perf_counter

from workloads import payloads

REF_NOMINAL_S = 1e-3  # kernel time figures are scaled to (0.4-1.1 ms on a 2-core x86-64 VM, Python 3.11)


def _light(window) -> bool:
    return sum(window) < 2


class Reference:
    """A fixed pure-Python kernel timed between the measured calls of a phase.

    The machine's speed drifts by 10-50% within seconds (frequency boost and
    neighbours on a shared host).  The drift moves this kernel and the
    package alike, so every measured time is scaled by ``REF_NOMINAL_S``
    over the kernel's local time (the median of the ticks around it): the
    figures read as on a machine where the kernel takes ``REF_NOMINAL_S``.
    The kernel is the benchmark's own code, so no change to the package can
    move it.  It mixes what the package does most: it slices every 17-window
    of a fixed word, calls a predicate on it, hashes it into a set and a
    dict of positions, and maps the word through a generator.  Of the
    kernels tried, this mix tracked the package's encode, decode, CLI and
    oracle times best as a whole.
    """

    HALF = 3  # ticks on each side of a measurement that set its local speed
    WORD = payloads(512, 2, 12345, 1, False)[0]

    def __init__(self):
        self.ticks: list[float] = []

    def tick(self) -> int:
        word = self.WORD
        t0 = perf_counter()
        seen, positions = set(), {}
        for i in range(len(word) - 16):
            window = word[i : i + 17]
            if not _light(window):
                seen.add(window)
            positions.setdefault(window, []).append(i)
        tuple(1 - s for s in word)
        self.ticks.append(perf_counter() - t0)
        return len(self.ticks) - 1

    def burst(self) -> int:
        """``HALF`` ticks in a row, around calls too long to tick between."""
        k = self.tick()
        for _ in range(self.HALF - 1):
            self.tick()
        return k

    def scaled(self, seconds: float, k: int) -> float:
        """``seconds`` measured just before tick ``k``, at reference speed."""
        local = _median(self.ticks[max(0, k - self.HALF) : k + self.HALF])
        return seconds * REF_NOMINAL_S / local


def _median(values: list[float]) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
