"""Independent oracles for the benchmark's output checks.

Nothing here imports ``fcperm``.  Each fact is recomputed by a plain route
that shares no code with the library: row insertion by linear scan, pattern
tests by brute force over position tuples, crowdedness by scanning every
window, reduced words counted by memoized descent peeling, and 321-avoiders
generated from the left-to-right-maxima characterization.

Permutations are tuples of one-line values, 1-based.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb


# -- one-line notation ------------------------------------------------------


def parse_perm(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "," in text:
        return tuple(int(tok) for tok in text.split(","))
    return tuple(int(ch) for ch in text)


def perm_text(perm) -> str:
    if len(perm) <= 9:
        return "".join(str(v) for v in perm)
    return ",".join(str(v) for v in perm)


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return tuple(int(tok) for tok in text.split(","))
    return tuple(int(ch) for ch in text)


def length(perm) -> int:
    n = len(perm)
    return sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])


def descents(perm) -> list[int]:
    return [d for d in range(1, len(perm)) if perm[d - 1] > perm[d]]


def support(perm) -> list[int]:
    """Letters i whose first i positions do not hold exactly {1..i}."""
    return [i for i in range(1, len(perm)) if set(perm[:i]) != set(range(1, i + 1))]


def compose(left, right) -> tuple[int, ...]:
    """(left * right)(j) = left(right(j))."""
    return tuple(left[j - 1] for j in right)


def inverse(perm) -> tuple[int, ...]:
    out = [0] * len(perm)
    for pos, val in enumerate(perm, start=1):
        out[val - 1] = pos
    return tuple(out)


def swap(perm, i: int) -> tuple[int, ...]:
    """perm * s_i: swap positions i and i+1."""
    out = list(perm)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def evaluate(word, n: int) -> tuple[int, ...]:
    perm = tuple(range(1, n + 1))
    for i in word:
        if not 1 <= i < n:
            raise ValueError(f"letter {i} out of range for degree {n}")
        perm = swap(perm, i)
    return perm


# -- patterns ---------------------------------------------------------------


def contains_321(perm) -> bool:
    return any(perm[a] > perm[b] > perm[c] for a, b, c in combinations(range(len(perm)), 3))


def contains_3412(perm) -> bool:
    return any(
        perm[c] < perm[d] < perm[a] < perm[b]
        for a, b, c, d in combinations(range(len(perm)), 4)
    )


def is_boolean(perm) -> bool:
    return not contains_321(perm) and not contains_3412(perm)


# -- insertion --------------------------------------------------------------


def insert(values) -> tuple[list[list[int]], list[list[int]]]:
    """Row insertion: P and Q as lists of rows, by linear scan."""
    p: list[list[int]] = []
    q: list[list[int]] = []
    for step, value in enumerate(values, start=1):
        r = 0
        while True:
            if r == len(p):
                p.append([value])
                q.append([step])
                break
            row = p[r]
            col = next((c for c, v in enumerate(row) if v > value), None)
            if col is None:
                row.append(value)
                q[r].append(step)
                break
            row[col], value = value, row[col]
            r += 1
    return p, q


def row2(perm) -> tuple[int, ...]:
    p, _ = insert(perm)
    return tuple(p[1]) if len(p) > 1 else ()


# -- crowding ---------------------------------------------------------------


def crowded_window(values) -> tuple[int, ...] | None:
    """Members of the narrowest, leftmost window [y, y+2x] holding more than
    x+1 of them, or None when the set is uncrowded."""
    members = sorted(set(values))
    if len(members) < 3:
        return None
    lo, hi = members[0], members[-1]
    for x in range(1, hi - lo + 1):
        for y in range(lo, hi + 1):
            inside = tuple(v for v in members if y <= v <= y + 2 * x)
            if len(inside) > x + 1:
                return inside
    return None


def is_crowded_perm(perm) -> bool:
    return crowded_window(row2(perm)) is not None


# -- reduced words ----------------------------------------------------------


@lru_cache(maxsize=None)
def count_reduced_words(perm: tuple[int, ...]) -> int:
    """Reduced words of perm, by peeling each descent (memoized)."""
    total = 0
    for d in descents(perm):
        total += count_reduced_words(swap(perm, d))
    return total or 1


# -- fully commutative elements ----------------------------------------------


def avoiders_321(n: int):
    """321-avoiders of degree n in lexicographic order.

    A permutation avoids 321 exactly when the values that are not
    left-to-right maxima increase.  A prefix can be completed only while
    every unused value exceeds the largest such value placed so far.
    """
    used = [False] * (n + 2)
    prefix: list[int] = []

    def extend(top: int, low: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            if v < top and v < low:
                continue
            new_low = low if v > top else v
            used[v] = True
            smallest_free = next((u for u in range(1, n + 1) if not used[u]), n + 1)
            if smallest_free > new_low:
                prefix.append(v)
                yield from extend(max(top, v), new_low)
                prefix.pop()
            used[v] = False

    yield from extend(0, 0)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def involutions(n: int) -> int:
    """Standard Young tableaux of size n, one per involution."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n >= 1 else 1


def fc_cover_count(n: int) -> int:
    """Covers v < v*s_i of the right weak order with both ends 321-avoiding."""
    return sum(
        1
        for v in avoiders_321(n)
        for i in range(1, n)
        if v[i - 1] < v[i] and not contains_321(swap(v, i))
    )


def uncrowded_two_row_tableaux(n: int) -> int:
    """Standard tableaux of size n with at most two rows and an uncrowded
    second row."""
    total = 0
    for k in range(0, n // 2 + 1):
        for second in combinations(range(1, n + 1), k):
            first = [v for v in range(1, n + 1) if v not in second]
            if all(first[c] < second[c] for c in range(k)) and crowded_window(second) is None:
                total += 1
    return total


class FrontierOracle:
    """Crowded verdicts of the 321-avoiders of one degree, and the minimal
    crowded ones: crowded, with every lower cover uncrowded."""

    def __init__(self, n: int):
        self.n = n
        self.elements = list(avoiders_321(n))
        self.crowded = {w: is_crowded_perm(w) for w in self.elements}

    def is_minimal_crowded(self, w) -> bool:
        return self.crowded[w] and not any(self.crowded[swap(w, d)] for d in descents(w))

    def minimal_crowded(self) -> list[tuple[int, ...]]:
        return [w for w in self.elements if self.is_minimal_crowded(w)]

    def crowded_count(self) -> int:
        return sum(self.crowded.values())


def minimal_crowded_one(w) -> bool:
    """Minimal crowdedness of a single 321-avoider, from its lower covers."""
    return is_crowded_perm(w) and not any(is_crowded_perm(swap(w, d)) for d in descents(w))


# -- the paper's worked examples ----------------------------------------------

MINIMAL_CROWDED_COUNTS = {5: 0, 6: 1, 7: 2, 8: 6, 9: 10, 10: 21, 11: 32}


def self_check() -> list[str]:
    """Problems found when the oracles are run on the paper's examples."""
    problems = []
    w = parse_perm("41627385")
    if row2(w) != (4, 6, 7, 8):
        problems.append(f"row 2 of 41627385 is {row2(w)}, expected (4, 6, 7, 8)")
    if crowded_window(row2(w)) != (6, 7, 8):
        problems.append("41627385 is not crowded on (6, 7, 8)")
    if count_reduced_words(parse_perm("345619278")) != 1485:
        problems.append("345619278 does not have 1485 reduced words")
    for n in range(1, 8):
        brute = [p for p in permutations(range(1, n + 1)) if not contains_321(p)]
        if list(avoiders_321(n)) != brute or len(brute) != catalan(n):
            problems.append(f"321-avoider generator disagrees with brute force at n={n}")
    for n in range(1, 7):
        if sum(1 for p in permutations(range(1, n + 1)) if p == inverse(p)) != involutions(n):
            problems.append(f"involution count wrong at n={n}")
    # n = 10 and 11 are checked by every frontier-census run (check_census)
    for n in range(5, 10):
        if len(FrontierOracle(n).minimal_crowded()) != MINIMAL_CROWDED_COUNTS[n]:
            problems.append(f"minimal crowded count at n={n} is not {MINIMAL_CROWDED_COUNTS[n]}")
    return problems
