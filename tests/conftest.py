"""Shared brute-force oracles.

Everything here recomputes facts by the most naive route available so the
library implementations are checked against genuinely independent code.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations

from fcperm import Permutation


def brute_has_pattern(host: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    m = len(pattern)
    for positions in combinations(range(len(host)), m):
        values = [host[p] for p in positions]
        if all(
            (pattern[a] < pattern[b]) == (values[a] < values[b])
            for a in range(m)
            for b in range(a + 1, m)
        ):
            return True
    return False


def brute_occurrences(host: tuple[int, ...], pattern: tuple[int, ...]):
    """Every occurrence of pattern in host, as 1-based positions, in
    lexicographic order."""
    m = len(pattern)
    return [
        tuple(p + 1 for p in positions)
        for positions in combinations(range(len(host)), m)
        if all(
            (pattern[a] < pattern[b]) == (host[positions[a]] < host[positions[b]])
            for a in range(m)
            for b in range(a + 1, m)
        )
    ]


def brute_avoids_321(host: tuple[int, ...]) -> bool:
    return not any(
        host[a] > host[b] > host[c]
        for a, b, c in combinations(range(len(host)), 3)
    )


def brute_lis_ending_at(host: tuple[int, ...], q: int) -> int:
    stop = host.index(q)
    best = 0
    for size in range(1, stop + 2):
        for positions in combinations(range(stop + 1), size):
            if positions[-1] != stop:
                continue
            values = [host[p] for p in positions]
            if all(a < b for a, b in zip(values, values[1:])):
                best = max(best, size)
    return best


def list_row_insertion(host: tuple[int, ...]):
    """Row insertion by linear scans over plain lists.

    Returns the rows of P and Q as tuples, each step as (value, bumps) with
    bumps as (incoming, displaced, row) triples, and the first-row column
    (1-based) where each value landed.
    """
    p: list[list[int]] = []
    q: list[list[int]] = []
    steps = []
    first_column = {}
    for index, value in enumerate(host, start=1):
        incoming, bumps, r = value, [], 0
        while True:
            if r == len(p):
                p.append([])
                q.append([])
            larger = [c for c, entry in enumerate(p[r]) if entry > incoming]
            if r == 0:
                first_column[value] = (larger[0] if larger else len(p[r])) + 1
            if not larger:
                p[r].append(incoming)
                q[r].append(index)
                break
            c = larger[0]
            bumps.append((incoming, p[r][c], r + 1))
            p[r][c], incoming = incoming, p[r][c]
            r += 1
        steps.append((value, tuple(bumps)))
    return (
        tuple(tuple(row) for row in p),
        tuple(tuple(row) for row in q),
        steps,
        first_column,
    )


def bfs_reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word found by breadth-first search from the identity.

    Completely independent of descent peeling; the first time w is reached,
    the path is shortest, hence reduced.
    """
    start = Permutation.identity(w.n)
    if w == start:
        return ()
    parent: dict[Permutation, tuple[Permutation, int]] = {start: (start, 0)}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for i in range(1, w.n):
            nxt = current.times(i)
            if nxt not in parent:
                parent[nxt] = (current, i)
                if nxt == w:
                    word = []
                    node = nxt
                    while node != start:
                        node, letter = parent[node]
                        word.append(letter)
                    return tuple(reversed(word))
                queue.append(nxt)
    raise AssertionError("unreachable")


def count_reduced_words(w: Permutation) -> int:
    """Memoized count of reduced words, without materializing any."""

    @lru_cache(maxsize=None)
    def count(image: tuple[int, ...]) -> int:
        descents = [
            d for d in range(len(image) - 1) if image[d] > image[d + 1]
        ]
        if not descents:
            return 1
        total = 0
        for d in descents:
            lowered = list(image)
            lowered[d], lowered[d + 1] = lowered[d + 1], lowered[d]
            total += count(tuple(lowered))
        return total

    return count(w.image)


def wide_scan_is_uncrowded(values) -> bool:
    """Window scan with generous margins beyond the set's span."""
    members = sorted(set(values))
    if not members:
        return True
    lo, hi = members[0], members[-1]
    for x in range(1, hi - lo + 3):
        for y in range(lo - 2 * x - 2, hi + 3):
            if sum(1 for v in members if y <= v <= y + 2 * x) > x + 1:
                return False
    return True


def minimal_crowded_count(n: int) -> int:
    """How many minimal crowded elements S_n has, by the block count: each
    span 2k+2 <= n, k >= 2, carries 2^(k-1) - 1 blocks, each placed at
    n - 2k - 1 offsets."""
    return sum(
        (2 ** (k - 1) - 1) * (n - 2 * k - 1)
        for k in range(2, n)
        if 2 * k + 2 <= n
    )
