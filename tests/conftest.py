"""Shared brute-force oracles.

Everything here recomputes facts by the most naive route available so the
library implementations are checked against genuinely independent code.
``loose_fc_covers`` is the one deliberately wrong function here: a mutant
of ``fc_covers`` shared by the kill matrix and a CLI test.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations
from math import comb

from fcperm import CoverEdge, Permutation, fc_elements


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

    Returns the rows of P and Q as tuples, each letter's bumping route as a
    tuple (the letter, then the value displaced from each row in turn), and
    the first-row column (1-based) where each value landed.
    """
    p: list[list[int]] = []
    q: list[list[int]] = []
    paths = []
    first_column = {}
    for index, value in enumerate(host, start=1):
        incoming, path, r = value, [value], 0
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
            path.append(p[r][c])
            p[r][c], incoming = incoming, p[r][c]
            r += 1
        paths.append(tuple(path))
    return (
        tuple(tuple(row) for row in p),
        tuple(tuple(row) for row in q),
        tuple(paths),
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


def lehmer_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word of w read off its Lehmer code, with no descent peeled.

    c_i counts the values right of position i that are smaller than w(i).
    Build w from the identity position by position: positions i..n hold
    the values not yet placed in increasing order, so w(i) stands at
    position i + c_i and moves to i by the letters i+c_i-1, .., i.  The
    word has sum(c_i) = length(w) letters, so it is reduced.
    """
    image = w.image
    word: list[int] = []
    for i, value in enumerate(image, start=1):
        code = sum(1 for later in image[i:] if later < value)
        word.extend(range(i + code - 1, i - 1, -1))
    return tuple(word)


def braid_closure_words(w: Permutation) -> set[tuple[int, ...]]:
    """Every reduced word of w, as the closure of one of them under
    commutation moves (ij = ji, |i - j| > 1) and braid moves (i j i =
    j i j, |i - j| = 1).

    By Matsumoto-Tits, these moves connect all the reduced words of w.
    The closure starts from ``lehmer_word(w)`` and peels no descents, so
    it checks a listing by peeling independently.
    """
    start = lehmer_word(w)
    seen = {start}
    frontier = [start]
    while frontier:
        word = frontier.pop()
        moved = []
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if abs(a - b) > 1:
                moved.append(word[:k] + (b, a) + word[k + 2 :])
            elif k + 2 < len(word) and abs(a - b) == 1 and word[k + 2] == a:
                moved.append(word[:k] + (b, a, b) + word[k + 3 :])
        for other in moved:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def commutation_moves(word: tuple[int, ...]):
    """Words obtained by one swap of adjacent letters that commute."""
    for k in range(len(word) - 1):
        if abs(word[k] - word[k + 1]) > 1:
            yield word[:k] + (word[k + 1], word[k]) + word[k + 2 :]


def commutation_class(word) -> set[tuple[int, ...]]:
    """Closure of one word under commutation moves."""
    start = tuple(word)
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbor in commutation_moves(current):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def least_reduced_words(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The lexicographically least reduced word of every element of S_n,
    keyed by image, filled upward from the identity.

    Every reduced word of w ends in a right descent d of w and is a reduced
    word of w*s_d followed by d.  The words of w*s_d all have the same
    length, so least(w) is the least of least(w*s_d) + (d,) over the lower
    covers of w.  One length level at a time, each image offers its word
    plus d to the image one ascent d above it, which keeps the least offer.
    No descent is peeled, so this checks ``canonical_reduced_word``
    independently of ``iter_reduced_words``.
    """
    level = {tuple(range(1, n + 1)): ()}
    least = dict(level)
    while level:
        above: dict[tuple[int, ...], tuple[int, ...]] = {}
        for image, word in level.items():
            for d in range(1, n):
                if image[d - 1] < image[d]:
                    raised = list(image)
                    raised[d - 1], raised[d] = raised[d], raised[d - 1]
                    upper, offer = tuple(raised), word + (d,)
                    if upper not in above or offer < above[upper]:
                        above[upper] = offer
        least.update(above)
        level = above
    return least


def inversion_pairs(w: Permutation) -> frozenset[tuple[int, int]]:
    """Value pairs (a, b), a < b, appearing out of order in w."""
    image = w.image
    n = len(image)
    out = set()
    for p in range(n):
        for q in range(p + 1, n):
            if image[p] > image[q]:
                out.add((image[q], image[p]))
    return frozenset(out)


def right_weak_leq(v: Permutation, w: Permutation) -> bool:
    """Right weak order, as containment of inversion-pair sets.

    Covers add exactly one value pair, so reachability downward is the same
    as set containment.
    """
    if v.n != w.n:
        raise ValueError(f"degree mismatch: {v.n} vs {w.n}")
    return inversion_pairs(v) <= inversion_pairs(w)


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


def crowding_census_by_dp(n: int) -> tuple[int, int]:
    """(uncrowded, crowded) fully commutative elements of S_n, by a dynamic
    program over the possible second rows, with no window scan.

    A second row m_1 < .. < m_k is a ballot set (m_i >= 2i), and it is
    crowded exactly when some window of radius x holds x+2 consecutive
    members m_i..m_j, j = i+x+1: m_j - m_i <= 2(j-i-1), that is, m_j - 2j
    <= m_i - 2i - 2.  So one pass over the values 1..n carries, per prefix,
    the number of members so far, the running maximum of m_i - 2i and
    whether a member has fallen 2 below it.  Each row of k members is the
    second row of C(n, k) - C(n, k-1) elements, one per recording tableau.
    """
    states = {(0, None, False): 1}  # (members, max of m_i - 2i, crowded) -> rows
    for v in range(1, n + 1):
        grown: dict = {}
        for (k, high, crowded), rows in states.items():
            moves = [(k, high, crowded)]  # v stays in row 1
            drop = v - 2 * (k + 1)
            if drop >= 0:  # v may be member k+1 of row 2
                if high is None:
                    moves.append((k + 1, drop, crowded))
                else:
                    moves.append((k + 1, max(high, drop), crowded or drop <= high - 2))
            for state in moves:
                grown[state] = grown.get(state, 0) + rows
        states = grown
    census = [0, 0]
    for (k, _, crowded), rows in states.items():
        census[crowded] += rows * (comb(n, k) - (comb(n, k - 1) if k else 0))
    return census[0], census[1]


def prefix_walk_fc(n: int) -> list[tuple[int, ...]]:
    """The images of the 321-avoiders of S_n, in lexicographic order, by a
    recursive prefix walk that places one entry per call.

    The next entry is either the least free value, when it lies below the
    running maximum, or a new maximum; any other value below the maximum
    would leave the least free value to come later, below two larger
    entries.  It stamps no completions, so it checks ``fc_elements``
    independently of its table.
    """
    out: list[tuple[int, ...]] = []
    prefix = [0] * n
    free = [True] * (n + 2)  # free[n + 1] stops the scan for the least free value

    def extend(k: int, high: int, least: int) -> None:
        if k == n:
            out.append(tuple(prefix))
            return
        if least < high:
            prefix[k] = least
            free[least] = False
            following = least + 1
            while not free[following]:
                following += 1
            extend(k + 1, high, following)
            free[least] = True
        for v in range(high + 1, n + 1):
            prefix[k] = v
            free[v] = False
            following = least
            while not free[following]:
                following += 1
            extend(k + 1, v, following)
            free[v] = True

    extend(0, 0, 1)
    return out


def minimality_conditions(host: tuple[int, ...]) -> dict:
    """The five conditions of the direct test for minimal crowded elements,
    each read straight off the image, keyed by the fields of
    ``MinimalityReport``.

    The descents must be d, d+2, .., d+2k with k >= 2.  Off that form, the
    start and count are None, the conditions that need them are False, and
    ``descent_values_crowded`` reports on the second row of P instead.
    """
    n = len(host)
    descents = [p for p in range(1, n) if host[p - 1] > host[p]]
    occurrences = brute_occurrences(host, (4, 1, 5, 2, 6, 3))
    consecutive = bool(occurrences) and all(o[-1] - o[0] == 5 for o in occurrences)
    form = len(descents) >= 3 and descents == list(range(descents[0], descents[-1] + 1, 2))
    if not form:
        rows = list_row_insertion(host)[0]
        second = rows[1] if len(rows) > 1 else ()
        return {
            "descent_form": False,
            "descent_start": None,
            "descent_count": None,
            "descent_values_crowded": not wide_scan_is_uncrowded(second),
            "fixed_outside": False,
            "pattern_consecutive": consecutive,
            "window_patterns": False,
            "minimal": False,
        }
    block = range(descents[0], descents[-1] + 2)
    conditions = {
        "descent_form": True,
        "descent_start": descents[0],
        "descent_count": len(descents) - 1,
        "descent_values_crowded": not wide_scan_is_uncrowded({host[p - 1] for p in descents}),
        "fixed_outside": all(host[p - 1] == p for p in range(1, n + 1) if p not in block),
        "pattern_consecutive": consecutive,
        # the six letters from each descent but the last two
        "window_patterns": all(
            brute_has_pattern(host[p - 1 : p + 5], (4, 1, 5, 2, 6, 3))
            or brute_has_pattern(host[p - 1 : p + 5], (3, 1, 5, 2, 6, 4))
            for p in descents[:-2]
        ),
    }
    conditions["minimal"] = (
        conditions["descent_values_crowded"]
        and conditions["fixed_outside"]
        and conditions["pattern_consecutive"]
        and conditions["window_patterns"]
    )
    return conditions


def loose_fc_covers(n: int, bound: int = 9):
    """``fc_covers`` without the rule "no entry right of i+1 below v(i)", so
    some upper ends are not fully commutative."""
    for v in fc_elements(n, bound=bound):
        high = 0
        for i in range(1, n):
            if v(i) < v(i + 1) and high < v(i + 1):
                yield CoverEdge(v, v.times(i), i)
            high = max(high, v(i))
