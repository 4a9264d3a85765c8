"""The benchmark's own seeded xorshift64* generator.

It is kept apart from the package so that the benchmark's inputs never move
when the package changes; ``selftest.py`` pins it bit for bit to the
package's sampling generator.
"""

MASK = (1 << 64) - 1
MULTIPLIER = 0x2545F4914F6CDD1D


class XorShift64Star:
    def __init__(self, seed: int):
        self._state = (seed & MASK) or 0x9E3779B97F4A7C15

    def next64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK
        x ^= x >> 27
        self._state = x
        return (x * MULTIPLIER) & MASK

    def symbol(self, q: int) -> int:
        return self.next64() % q
