"""Right weak order on S_n and its fully commutative subposet.

Covers go up by one right multiplication at an ascent, and down by one at
a descent; the walks below take the downward step, on bare images, from
``descent_swaps`` in ``permutations``.  The fully commutative permutations
are exactly the 321-avoiding ones, and ``fc_elements`` generates them
directly, in lexicographic order, by extending prefixes until five values
are left, and then stamping every completion of the prefix at once from a
table.  It is a lazy view, like ``range``: the call checks the degree, the
bound and the size, and each pass over the view walks again, holding one
prefix's completions at a time; indexing walks once and lists everything.
Its length is the Catalan number C_n, from the recurrence, so counting walks
no prefix and builds no element.
Crowdedness depends on the second row of the insertion tableau alone:
``fc_crowding`` pairs each element with its verdict, deciding each
distinct ``row2`` once, and ``crowding_census`` counts the uncrowded
elements without visiting any, summing over the possible second rows
instead; the crowded ones are the rest of the C_n.
``fc_covers`` generates the subposet's covers by a local rule at each
ascent, with no membership set and no 321 test, and ``poset_to_dot`` draws
the elements and those covers.  The elements are downward closed under
covers (sorting an adjacent descent removes an inversion pair and cannot
create a decreasing triple), so every lower cover of a fully commutative
permutation is again one; ``uncrowded_frontier`` relies on this to read
the lower covers of each crowded element from ``descent_swaps``, without
materializing the poset's edges.  ``minimal_crowded`` builds the same
minimal crowded elements block by block instead, from the paper's
characterization, with no walk at all.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import chain, product
from math import comb
from operator import itemgetter
from typing import Iterator, NamedTuple

from .crowding import classify, is_minimal_crowded_direct, is_uncrowded_set
from .permutations import Permutation, descent_swaps
from .rsk import row2
from .words import BoundExceeded, require_length_within

DEFAULT_POSET_BOUND = 9
DEFAULT_IDEAL_LENGTH_BOUND = 24
DEFAULT_MINIMAL_CROWDED_BOUND = 24


class CoverEdge(NamedTuple):
    """upper = lower * s_index, with the length going up by one."""

    lower: Permutation
    upper: Permutation
    index: int


def principal_ideal(
    w: Permutation, bound: int = DEFAULT_IDEAL_LENGTH_BOUND
) -> set[Permutation]:
    """Everything below w in the right weak order, by downward search.

    The search walks bare images, one ``descent_swaps`` step at a time,
    and wraps what it found as ``Permutation``s once, at the end.

    >>> len(principal_ideal(Permutation((4, 3, 2, 1))))
    24
    """
    require_length_within(w, bound)
    seen = {w.image}
    pending = [w.image]
    while pending:
        for _, lower in descent_swaps(pending.pop()):
            if lower not in seen:
                seen.add(lower)
                pending.append(lower)
    return set(Permutation._trusted_many(list(seen)))


def require_degree_within(n: int, bound: int) -> None:
    """Refuse to enumerate S_n, or a subset of it, when n exceeds ``bound``
    (``BoundExceeded``) or when n < 1 (``ValueError``)."""
    if n > bound:
        raise BoundExceeded(
            f"degree {n} exceeds bound {bound}; raise the bound to enumerate"
        )
    if n < 1:
        raise ValueError("a permutation needs degree at least 1")


def _prefixes(
    free: tuple[int, ...], below: int, left: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every 321-avoiding prefix that leaves ``left`` of the sorted values
    ``free`` unplaced, as (prefix, free, below), in lexicographic order, by
    the rule ``fc_elements`` states; the first ``below`` free values lie
    under the prefix's maximum.  A stack holds the prefixes still to extend,
    each one's children pushed last first, so that they pop in order.
    """
    stack = [((), free, below)]
    while stack:
        prefix, free, below = stack.pop()
        if len(free) == left:
            yield prefix, free, below
            continue
        stack.extend(
            (prefix + free[i : i + 1], free[:i] + free[i + 1 :], i)
            for i in range(len(free) - 1, below - 1, -1)
        )
        if below:
            stack.append((prefix + free[:1], free[1:], below - 1))


# how many free values fc_elements completes from a table instead of
# walking.  The walk above the table visits each prefix of at most n - 5
# entries once; each prefix is handed its free values and their count below
# its maximum, so a leaf scans nothing and costs one stamp per completion.
# A larger tail leaves fewer leaves and walks a little faster at n = 11, but
# its table, built once per process, grows by the Catalan numbers: about
# 1.5 ms for 5 and 7 ms for 6, already more than the whole walk at n = 9,
# which is what a one-off command pays.
_STAMPED_TAIL = 5


@cache
def _stamps(j: int) -> tuple[tuple[itemgetter, ...], ...]:
    """For m = 0..j, one getter per completion of j free values, m of them
    below the maximum, as the walk finds it on the indices 0..j-1; each
    picks its entries out of the sorted free values as a tuple.  Built once
    per j, since it depends on nothing else."""
    return tuple(
        tuple(
            itemgetter(*t) if len(t) > 1 else itemgetter(slice(t[0], t[0] + 1))
            for t, _, _ in _prefixes(tuple(range(j)), m, 0)
        )
        for m in range(j + 1)
    )


class fc_elements:
    """All fully commutative permutations of S_n, sorted lexicographically,
    as a lazy view that walks them each time it is iterated.

    A permutation avoids 321 exactly when its entries that are not
    left-to-right maxima increase.  So, built left to right, the next entry
    is either the smallest free value or a new maximum.  With j values free
    and m of them below the prefix's maximum, the next entry is the first
    free value while m > 0, leaving m - 1 below, or the i-th for some
    i >= m, leaving i below.  Every prefix completes, nothing is searched,
    and trying candidates in increasing order yields lexicographic order.
    Once min(n, 5) values are left, every completion of the prefix is
    stamped at once from ``_stamps``, the same walk run on the indices.

    Like ``range``, calling it only checks the request: the degree, the
    bound and the size.  The length is the Catalan number C_n (Billey,
    Jockusch and Stanley, 1993), from C_j = C_{j-1} 2(2j-1)/(j+1), exact in
    integers; a degree with more than ``sys.maxsize`` elements (S_36 on a
    64-bit build) is refused with ``BoundExceeded`` at the first such j.
    Each pass walks again, holding one leaf's elements at a time; indexing
    lists everything.

    >>> [w.to_text(compact=True) for w in fc_elements(3)]
    ['123', '132', '213', '231', '312']
    >>> len(fc_elements(9))
    4862
    """

    __slots__ = ("n", "_length")

    def __init__(self, n: int, bound: int = DEFAULT_POSET_BOUND) -> None:
        require_degree_within(n, bound)
        length = 1  # C_0
        for j in range(1, n + 1):
            length = length * 2 * (2 * j - 1) // (j + 1)  # C_j, exactly
            if length > sys.maxsize:  # C_j only grows with j
                raise BoundExceeded(
                    f"S_{n} has {'' if j == n else 'at least '}{length} fully"
                    f" commutative elements, more than len() can return"
                    f" (sys.maxsize = {sys.maxsize})"
                )
        self.n = n
        self._length = length

    def __iter__(self) -> Iterator[Permutation]:
        return chain.from_iterable(self.batches())

    def __getitem__(self, key):
        return list(self)[key]

    def __len__(self) -> int:
        return self._length

    def batches(self) -> Iterator[list[Permutation]]:
        """The elements in order, as one list per leaf of the walk: the
        completions of one prefix with min(n, 5) values left.

        Iterating the view chains these lists.  This is a public method,
        so that perfbench's tracer, which wraps public functions
        and methods, times it under ``weak_order``.
        """
        n = self.n
        tail = min(n, _STAMPED_TAIL)
        stamps = _stamps(tail)
        trusted_many = Permutation._trusted_many
        for prefix, free, below in _prefixes(tuple(range(1, n + 1)), 0, tail):
            yield trusted_many([prefix + stamp(free) for stamp in stamps[below]])


def crowding_census(n: int, bound: int = DEFAULT_POSET_BOUND) -> tuple[int, int]:
    """How many fully commutative elements of S_n are (uncrowded, crowded).

    A 321-avoider's insertion tableau P has at most two rows, and a set S
    of k values is the second row of a standard P exactly when it is a
    ballot set: its i-th smallest member is at least 2i.  Through RSK, the
    elements with a given P are one for each standard recording tableau of
    the same shape (n-k, k), which number C(n, k) - C(n, k-1).  Crowdedness
    reads the second row alone, so each uncrowded ballot set is weighted by
    that count, and no element is visited.  The ballot sets are grown one
    largest member at a time, and only uncrowded ones are grown: every
    extension of a crowded set keeps its overfull window.  The crowded
    count is C_n, the length of ``fc_elements(n)``, minus the uncrowded one.

    Each grown set carries its reach, the largest m_i - 2i over its
    members m_0 < .. < m_{k-1} (-2 for the empty set).  A window of radius
    x is overfull when it holds members m_i..m_j with j = i + x + 1 and
    m_j - m_i <= 2x, that is m_j - 2j <= m_i - 2i - 2.  The set is
    uncrowded, so a new largest member m_k can close such a window only as
    its m_j: the child is crowded exactly when m_k <= reach + 2k - 2.  Only
    those children are handed to ``is_uncrowded_set``, looked up when the
    call runs, which decides every crowded verdict; a child it calls
    uncrowded is grown, as is every child above the bound, with no call.
    The degree, the bound and the size are checked by ``fc_elements``.

    >>> crowding_census(6)
    (127, 5)
    """
    total = len(fc_elements(n, bound=bound))
    weights = [comb(n, k) - comb(n, k - 1) if k else 1 for k in range(n // 2 + 1)]
    uncrowded = 0
    pending: list[tuple[tuple[int, ...], int]] = [((), -2)]  # uncrowded sets, with reach
    while pending:
        second, reach = pending.pop()
        k = len(second)
        uncrowded += weights[k]
        closing = reach + 2 * k - 2  # no larger child can close a window
        for m in range(max(second[-1] + 1 if second else 0, 2 * k + 2), n + 1):
            child = second + (m,)
            if m > closing or is_uncrowded_set(child):
                pending.append((child, max(reach, m - 2 * k)))
    return uncrowded, total - uncrowded


def fc_covers(n: int, bound: int = DEFAULT_POSET_BOUND) -> Iterator[CoverEdge]:
    """Every cover of the fully commutative subposet of S_n: lower ends in
    ``fc_elements`` order, then the index ascending.

    Swapping the ascent v(i) < v(i+1) of a 321-avoider v creates a 321 only
    through the swapped pair, now a descent v(i+1) v(i): with an entry left
    of position i above v(i+1), or an entry right of i+1 below v(i).  So
    the cover is fully commutative exactly when neither exists.

    >>> [(v.to_text(compact=True), w.to_text(compact=True), i) for v, w, i in fc_covers(3)]
    [('123', '213', 1), ('123', '132', 2), ('132', '312', 1), ('213', '231', 2)]
    """
    for v in fc_elements(n, bound=bound):
        image = v.image
        high = 0  # the largest entry left of position i
        for i in range(1, n):
            left, right = image[i - 1], image[i]
            if left < right and high < right and left < min(image[i + 1 :], default=n + 1):
                yield CoverEdge(v, v.times(i), i)
            high = max(high, left)


def fc_crowding(
    n: int, bound: int = DEFAULT_POSET_BOUND
) -> Iterator[tuple[Permutation, bool]]:
    """Each element of ``fc_elements(n)``, in order, with True when it is
    crowded.

    Crowdedness reads the second row alone, and S_11's 58,786 elements
    share 462 second rows, so each row is decided once per call.  The call
    checks the degree and the bound as ``fc_elements`` does; ``row2`` and
    ``is_uncrowded_set`` are looked up when it runs, so a patched one takes
    effect.

    >>> [w.to_text(compact=True) for w, crowded in fc_crowding(6) if crowded]
    ['415263', '415623', '451263', '451623', '456123']
    """
    uncrowded = cache(is_uncrowded_set)  # one verdict per second row, for this call
    return ((w, not uncrowded(row2(w))) for w in fc_elements(n, bound=bound))


def uncrowded_frontier(n: int, bound: int = DEFAULT_POSET_BOUND) -> tuple[Permutation, ...]:
    """The minimal crowded elements of the subposet, sorted
    lexicographically: the frontier of the uncrowded order ideal.

    A crowded element is minimal unless one of its lower covers is crowded.
    Lower covers are read from ``descent_swaps``, for crowded elements
    only: sorting a descent lowers the entry at its position, so every
    lower cover comes earlier in ``fc_crowding``'s order, and the crowded
    images seen so far hold its verdict.

    >>> uncrowded_frontier(5)
    ()
    """
    crowded: set[tuple[int, ...]] = set()
    minimal = []
    for w, is_crowded in fc_crowding(n, bound=bound):
        if is_crowded:
            if not any(v in crowded for _, v in descent_swaps(w.image)):
                minimal.append(w)
            crowded.add(w.image)
    return tuple(minimal)


def _primitive_block(letters: tuple[str, ...]) -> tuple[int, ...]:
    """The block of span 2k+2 named by a word of k-1 letters A and B.

    Merges the odd-position values o_1 < .. < o_{k+1} with the even-position
    values e_1 < .. < e_{k+1}, taking e_i before o_j exactly when
    i <= j+1, or i = j+2 and letter j is A.
    """
    k = len(letters) + 1
    odd: list[int] = []
    even: list[int] = []
    i = j = 1
    for value in range(1, 2 * k + 3):
        if i <= k + 1 and (
            j > k + 1 or i <= j + 1 or (i == j + 2 and letters[j - 1] == "A")
        ):
            even.append(value)
            i += 1
        else:
            odd.append(value)
            j += 1
    return tuple(v for pair in zip(odd, even) for v in pair)


def minimal_crowded(
    n: int, bound: int = DEFAULT_MINIMAL_CROWDED_BOUND
) -> tuple[Permutation, ...]:
    """The minimal crowded elements of S_n, built directly, sorted lexicographically.

    By Thm 5.10 (the five conditions) and Cor 5.6 (a minimal crowded element
    is fixed outside its descent span), each one is a single block of span
    2k+2, k >= 2, placed among fixed points.  For each such k with
    2k+2 <= n and each word L in {A, B}^(k-1) holding at least one A, there
    is one block:

    - it interleaves o_1 < .. < o_{k+1}, at its odd positions, with
      e_1 < .. < e_{k+1}, at its even positions;
    - e_i < o_j exactly when i <= j+1, or when i = j+2 and L_j = A;
    - so its six-letter window at positions 2j-1..2j+4 is the pattern
      415263 where L_j = A and 315264 where L_j = B.

    Each block is shifted to every offset d = 0..n-2k-2, with the points
    outside it fixed, so S_n has sum over k of (2^(k-1) - 1)(n - 2k - 1)
    minimal crowded elements.  No poset is built and no fully commutative
    element is visited, so this stays an independent computation of what
    ``uncrowded_frontier(n)`` finds by a walk.

    >>> [w.to_text(compact=True) for w in minimal_crowded(8)]
    ['12637485', '15263748', '31627485', '41526378', '41527386', '41627385']
    """
    require_degree_within(n, bound)
    images = []
    for k in range(2, n // 2):
        span = 2 * k + 2
        for letters in product("AB", repeat=k - 1):
            if "A" not in letters:
                continue
            block = _primitive_block(letters)
            for d in range(n - span + 1):
                images.append(
                    tuple(range(1, d + 1))
                    + tuple(d + v for v in block)
                    + tuple(range(d + span + 1, n + 1))
                )
    return tuple(Permutation._trusted(image) for image in sorted(images))


def knuth_neighbors(w: Permutation) -> list[Permutation]:
    """Permutations one Knuth relation away.

    A relation swaps the first two of three consecutive letters when the
    third lies strictly between them (a 312 or 132), or the last two when
    the first does (a 231 or 213); see Knuth, *Permutations, matrices, and
    generalized Young tableaux*, 1970.

    >>> knuth_neighbors(Permutation((3, 1, 2)))
    [Permutation('132')]
    """
    image = w.image
    n = len(image)
    out = set()
    for d in range(n - 2):
        a, b, c = image[d], image[d + 1], image[d + 2]
        if min(a, b) < c < max(a, b):
            out.add(w.times(d + 1))
        if min(b, c) < a < max(b, c):
            out.add(w.times(d + 2))
    return sorted(out, key=lambda v: v.image)


def poset_to_dot(n: int, bound: int = DEFAULT_POSET_BOUND) -> str:
    """Graphviz digraph of the fully commutative subposet of S_n, its
    nodes from ``fc_elements`` and its edges from ``fc_covers``, tinted by
    crowdedness.  The degree and the bound are checked as ``fc_elements``
    checks them.

    Crowded nodes are filled, minimal crowded ones get a heavy border.
    """
    names: dict[tuple[int, ...], str] = {}  # image -> the name its node line spells
    lines = ["digraph fc_poset {", "  rankdir=BT;", "  node [style=filled];"]
    for w in fc_elements(n, bound=bound):
        name = names[w.image] = w.to_text(compact=True)
        if classify(w) is None:
            color = "white"
            extra = ""
        elif is_minimal_crowded_direct(w).minimal:
            color = "lightcoral"
            extra = " penwidth=3"
        else:
            color = "mistyrose"
            extra = ""
        lines.append(f'  "{name}" [fillcolor={color}{extra}];')
    for v, w, i in fc_covers(n, bound=bound):
        lines.append(f'  "{names[v.image]}" -> "{names[w.image]}" [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)
