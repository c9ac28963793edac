"""Right weak order on S_n and its fully commutative subposet.

Covers go up by one right multiplication at an ascent.  The fully
commutative permutations are exactly the 321-avoiding ones, and
``fc_elements`` generates them directly, in lexicographic order, by
extending prefixes; ``fc_crowding`` walks the same prefixes carrying the
two-row insertion along, so each element comes with its crowded verdict.
They are downward closed under covers (sorting an adjacent descent removes
an inversion pair and cannot create a decreasing triple), so every lower
cover of a fully commutative permutation is again one;
``uncrowded_frontier`` relies on this to test covers by swapping adjacent
entries, without materializing the poset's edges.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping

from .crowding import classify, is_minimal_crowded_direct, is_uncrowded_set
from .permutations import Permutation
from .words import BoundExceeded

DEFAULT_POSET_BOUND = 9
DEFAULT_IDEAL_LENGTH_BOUND = 24


@dataclass(frozen=True)
class CoverEdge:
    """upper = lower * s_index, with the length going up by one."""

    lower: Permutation
    upper: Permutation
    index: int


def up_covers(w: Permutation) -> list[CoverEdge]:
    """One edge per ascent.

    >>> [e.index for e in up_covers(Permutation.identity(4))]
    [1, 2, 3]
    """
    return [CoverEdge(w, w.times(i), i) for i in sorted(w.ascents())]


def down_covers(w: Permutation) -> list[CoverEdge]:
    """One edge per descent; the lower end is w with the descent sorted."""
    return [CoverEdge(w.times(d), w, d) for d in sorted(w.descents())]


def _inversion_pairs(w: Permutation) -> frozenset[tuple[int, int]]:
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
    return _inversion_pairs(v) <= _inversion_pairs(w)


def principal_ideal(
    w: Permutation, bound: int = DEFAULT_IDEAL_LENGTH_BOUND
) -> set[Permutation]:
    """Everything below w in the right weak order, by downward search.

    >>> len(principal_ideal(Permutation((4, 3, 2, 1))))
    24
    """
    length = w.length()
    if length > bound:
        raise BoundExceeded(
            f"length {length} exceeds bound {bound}; raise the bound to enumerate"
        )
    seen = {w}
    queue = deque([w])
    while queue:
        current = queue.popleft()
        for d in current.descents():
            lower = current.times(d)
            if lower not in seen:
                seen.add(lower)
                queue.append(lower)
    return seen


@dataclass(frozen=True)
class FcPoset:
    """The fully commutative permutations of S_n under the right weak order."""

    n: int
    elements: tuple[Permutation, ...]
    edges: tuple[CoverEdge, ...]
    up: Mapping[Permutation, tuple[CoverEdge, ...]]
    down: Mapping[Permutation, tuple[CoverEdge, ...]]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "nodes": [w.to_text() for w in self.elements],
            "edges": [
                [e.lower.to_text(), e.upper.to_text(), e.index] for e in self.edges
            ],
        }


def require_degree_within(n: int, bound: int) -> None:
    """Refuse to enumerate S_n, or a subset of it, when n exceeds ``bound``."""
    if n > bound:
        raise BoundExceeded(
            f"degree {n} exceeds bound {bound}; raise the bound to enumerate"
        )


def fc_elements(n: int, bound: int = DEFAULT_POSET_BOUND) -> list[Permutation]:
    """All fully commutative permutations of S_n, sorted lexicographically.

    A permutation avoids 321 exactly when its entries that are not
    left-to-right maxima increase.  Built left to right, the next entry is
    therefore either a new maximum or the smallest value still free: any
    other value below the maximum would leave that smaller free value to
    come later, below two larger entries.  Every prefix built this way
    completes, so nothing is searched, and trying candidates in increasing
    order yields lexicographic order.

    >>> [w.to_text(compact=True) for w in fc_elements(3)]
    ['123', '132', '213', '231', '312']
    """
    require_degree_within(n, bound)
    if n < 1:
        raise ValueError("a permutation needs degree at least 1")
    out: list[Permutation] = []
    prefix = [0] * n
    free = [True] * (n + 2)  # free[n + 1] stops the scan for the least free value

    def extend(k: int, high: int, least: int) -> None:
        if k == n:
            out.append(Permutation._trusted(tuple(prefix)))
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


def fc_crowding(
    n: int, bound: int = DEFAULT_POSET_BOUND
) -> Iterator[tuple[Permutation, bool]]:
    """``fc_elements(n)``, each paired with whether it is crowded, streamed.

    The walk extends prefixes exactly as ``fc_elements`` does and inserts
    each new entry into the two rows of the prefix's insertion tableau, so
    no element is tested for 321 or re-inserted.  A 321-avoider's tableau
    has at most two rows.  A new maximum appends to row 1; the least free
    value either appends to row 1 or bumps the least larger entry there,
    and the bumped entry is appended to row 2 (inserting it anywhere else
    would start a third row).  Each change is undone on the way back.
    The degree and the bound are checked at the call, not at the first step.

    >>> [w.to_text(compact=True) for w, crowded in fc_crowding(6) if crowded][:3]
    ['415263', '415623', '451263']
    """
    require_degree_within(n, bound)
    if n < 1:
        raise ValueError("a permutation needs degree at least 1")
    prefix = [0] * n
    free = [True] * (n + 2)  # free[n + 1] stops the scan for the least free value
    first: list[int] = []  # row 1 of the prefix's insertion tableau
    second: list[int] = []  # row 2

    def extend(k: int, high: int, least: int) -> Iterator[tuple[Permutation, bool]]:
        if k == n:
            yield Permutation._trusted(tuple(prefix)), not is_uncrowded_set(second)
            return
        if least < high:
            prefix[k] = least
            free[least] = False
            following = least + 1
            while not free[following]:
                following += 1
            col = bisect_right(first, least)
            if col == len(first):
                first.append(least)
                yield from extend(k + 1, high, following)
                first.pop()
            else:
                bumped = first[col]
                first[col] = least
                second.append(bumped)
                yield from extend(k + 1, high, following)
                second.pop()
                first[col] = bumped
            free[least] = True
        for v in range(high + 1, n + 1):
            prefix[k] = v
            free[v] = False
            first.append(v)
            following = least
            while not free[following]:
                following += 1
            yield from extend(k + 1, v, following)
            first.pop()
            free[v] = True

    return extend(0, 0, 1)


def build_fc_poset(n: int, bound: int = DEFAULT_POSET_BOUND) -> FcPoset:
    """Materialize the fully commutative subposet with all cover edges.

    >>> build_fc_poset(3).elements
    (Permutation('123'), Permutation('132'), Permutation('213'), Permutation('231'), Permutation('312'))
    """
    elements = fc_elements(n, bound=bound)
    members = set(elements)
    edges = []
    up: dict[Permutation, list[CoverEdge]] = {w: [] for w in elements}
    down: dict[Permutation, list[CoverEdge]] = {w: [] for w in elements}
    for w in elements:
        for edge in up_covers(w):
            if edge.upper in members:
                edges.append(edge)
                up[w].append(edge)
                down[edge.upper].append(edge)
    return FcPoset(
        n=n,
        elements=tuple(elements),
        edges=tuple(edges),
        up={w: tuple(es) for w, es in up.items()},
        down={w: tuple(es) for w, es in down.items()},
    )


def uncrowded_frontier(
    n: int, bound: int = DEFAULT_POSET_BOUND
) -> tuple[tuple[Permutation, ...], tuple[Permutation, ...]]:
    """Maximal uncrowded and minimal crowded elements of the subposet.

    Covers are found by swapping adjacent entries of each image: a lower
    cover sorts a descent and is always fully commutative, while an upper
    cover missing from the verdicts is not fully commutative and is skipped.

    >>> uncrowded_frontier(5)[1]
    ()
    """
    # images only, in lexicographic order: one Permutation is alive at a time
    crowded = {w.image: verdict for w, verdict in fc_crowding(n, bound=bound)}

    def swapped(image: tuple[int, ...], i: int) -> tuple[int, ...]:
        return image[: i - 1] + (image[i], image[i - 1]) + image[i + 1 :]

    maximal_uncrowded = []
    minimal_crowded = []
    for image, verdict in crowded.items():
        w = Permutation._trusted(image)
        if verdict:
            if not any(crowded[swapped(image, d)] for d in w.descents()):
                minimal_crowded.append(w)
        elif all(crowded.get(swapped(image, i), True) for i in w.ascents()):
            maximal_uncrowded.append(w)
    return tuple(maximal_uncrowded), tuple(minimal_crowded)


def knuth_neighbors(w: Permutation) -> list[Permutation]:
    """Permutations one Knuth relation away.

    A relation swaps the first two letters of a consecutive 312 or 132, or
    the last two letters of a consecutive 231 or 213.

    >>> knuth_neighbors(Permutation((3, 1, 2)))
    [Permutation('132')]
    """
    image = w.image
    n = len(image)
    out = set()
    for d in range(n - 2):
        a, b, c = image[d], image[d + 1], image[d + 2]
        ranks = tuple(sorted((a, b, c)).index(v) + 1 for v in (a, b, c))
        if ranks in ((3, 1, 2), (1, 3, 2)):
            out.add(w.times(d + 1))
        if ranks in ((2, 3, 1), (2, 1, 3)):
            out.add(w.times(d + 2))
    return sorted(out, key=lambda v: v.image)


def poset_to_dot(poset: FcPoset) -> str:
    """Graphviz digraph of the subposet, nodes tinted by crowdedness.

    Crowded nodes are filled, minimal crowded ones get a heavy border.
    """
    lines = ["digraph fc_poset {", "  rankdir=BT;", "  node [style=filled];"]
    for w in poset.elements:
        name = w.to_text(compact=True) if w.n <= 9 else w.to_text()
        verdict = classify(w)
        if not verdict.crowded:
            color = "white"
            extra = ""
        elif is_minimal_crowded_direct(w).minimal:
            color = "lightcoral"
            extra = " penwidth=3"
        else:
            color = "mistyrose"
            extra = ""
        lines.append(f'  "{name}" [fillcolor={color}{extra}];')
    for e in poset.edges:
        lo = e.lower.to_text(compact=True) if poset.n <= 9 else e.lower.to_text()
        hi = e.upper.to_text(compact=True) if poset.n <= 9 else e.upper.to_text()
        lines.append(f'  "{lo}" -> "{hi}" [label="{e.index}"];')
    lines.append("}")
    return "\n".join(lines)
