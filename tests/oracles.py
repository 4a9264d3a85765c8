"""Independent checking oracles for the test suite.

Everything here is written directly from the constraint definitions as plain
scans, deliberately sharing no code with the package under test.
"""

from itertools import product
from math import comb

DNA_COMP = (3, 2, 1, 0)


def windows(word, ell):
    return [word[i : i + ell] for i in range(len(word) - ell + 1)]


def min_weight_ok(word, ell, p):
    return all(sum(w) >= p for w in windows(word, ell))


def weight_window_ok(word, ell, lo, hi):
    return all(lo <= sum(w) <= hi for w in windows(word, ell))


def has_period(w, p):
    """Direct reading of the period definition: w[i] == w[i+p] for all valid i."""
    return all(w[i] == w[i + p] for i in range(len(w) - p))


def min_period_ok(word, ell, p):
    return all(
        not any(has_period(w, pp) for pp in range(1, p)) for w in windows(word, ell)
    )


def kmp_minimal_period(w):
    """Minimal period via the KMP failure function: len - longest proper border."""
    fail = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = fail[k - 1]
        if w[i] == w[k]:
            k += 1
        fail[i] = k
    return len(w) - fail[-1] if w else 0

def is_palindrome(w, comp=None):
    if comp is None:
        return w == tuple(reversed(w))
    return all(w[i] == comp[w[len(w) - 1 - i]] for i in range(len(w)))


def no_palindrome_windows(word, ell, comp=None):
    return all(not is_palindrome(w, comp) for w in windows(word, ell))


def no_palindrome_of_length_at_least(word, lmin):
    n = len(word)
    for length in range(lmin, n + 1):
        for i in range(n - length + 1):
            if is_palindrome(word[i : i + length]):
                return False
    return True


def repeat_free_ok(word, ell):
    ws = windows(word, ell)
    return len(set(ws)) == len(ws)


def mapped_repeat_free_ok(word, ell, tables):
    ws = windows(word, ell)
    for i in range(len(ws)):
        mapped = tuple(tables[t][s] for t, s in enumerate(ws[i]))
        for j in range(i + 1, len(ws)):
            if mapped == ws[j]:
                return False
    return True


def rc(w, comp=DNA_COMP):
    return tuple(comp[s] for s in reversed(w))


def rc_pair_free(word, ell, require_gap):
    """No i < j with rc(window i) == window j; gap restricts to j >= i + ell."""
    ws = windows(word, ell)
    for i in range(len(ws)):
        start = i + ell if require_gap else i + 1
        for j in range(start, len(ws)):
            if rc(ws[i]) == ws[j]:
                return False
    return True


def weight_in(word, lo, hi):
    return lo <= sum(word) <= hi


def minimal_repeat_pair(word, ell):
    """Minimal (i, j), i primary, with equal windows at i and j; None if repeat-free."""
    ws = windows(word, ell)
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if ws[i] == ws[j]:
                return i, j
    return None


def all_binary_words(n):
    return product((0, 1), repeat=n)


def first_forbidden_window_ref(word, ell, forbidden):
    """Smallest i whose window word[i:i+ell] satisfies the ``forbidden`` definition."""
    for i, w in enumerate(windows(word, ell)):
        if forbidden(w):
            return i
    return None


def first_pair_ref(word, ell, transform, min_gap):
    """Brute-force minimal (i, j), i first, with transform(window i) == window j
    and j >= i + min_gap; None if there is no such pair."""
    ws = windows(word, ell)
    for i in range(len(ws)):
        source = transform(ws[i])
        for j in range(i + min_gap, len(ws)):
            if ws[j] == source:
                return i, j
    return None


def weight_class_table(n, weights):
    """Every binary n-word whose weight is in ``weights``, in rank order: the
    classes in the order given, each in itertools.product (lexicographic)
    order.  Small n only."""
    order = {w: i for i, w in enumerate(weights)}
    return sorted((w for w in all_binary_words(n) if sum(w) in order), key=lambda w: order[sum(w)])


def lex_rank_ref(word):
    """Lexicographic rank among words of the same length and weight: one
    binomial per 1, counting the words that have a 0 there instead."""
    rank, ones = 0, sum(word)
    for i, s in enumerate(word):
        if s:
            rank += comb(len(word) - i - 1, ones)
            ones -= 1
    return rank


def rank_by_weight_ref(word, weights):
    """Rank among the words of weight in ``weights``, classes in the order given."""
    n, weight = len(word), sum(word)
    before = list(weights)[: list(weights).index(weight)]
    return sum(comb(n, w) for w in before) + lex_rank_ref(word)
