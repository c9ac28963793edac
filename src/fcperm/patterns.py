"""Classical permutation pattern containment, and the 321 and boolean tests.

The searches are plain backtracking over positions; at the sizes this
library targets (hosts of degree <= 9, patterns of degree <= 6) nothing
fancier pays off.  ``iter_occurrences`` yields occurrences in lexicographic
position order so golden outputs are stable.
"""

from __future__ import annotations

from typing import Iterator

from .permutations import Permutation


def iter_occurrences(w: Permutation, p: Permutation) -> Iterator[tuple[int, ...]]:
    """All occurrences of p in w, in lexicographic position order, each as
    its positions (1-based, strictly increasing).

    The pattern letters are placed left to right.  A candidate for letter k
    only has to lie between the values chosen for the earlier pattern
    letters just below and just above p(k): those two already sit in the
    right order against every other earlier letter.  The search keeps its
    own stack of chosen positions.

    >>> w = Permutation.from_text("314592687")
    >>> next(iter_occurrences(w, Permutation.from_text("1423")))
    (1, 5, 7, 8)
    """
    host = w.image
    pat = p.image
    n, m = len(host), len(pat)
    if m > n:
        raise ValueError(f"pattern degree {m} exceeds host degree {n}")
    # for each pattern letter k, the earlier letters with the nearest value
    # below and above it; m and m+1 stand for the bounds 0 and n+1
    low, high = [], []
    for k, v in enumerate(pat):
        below = [t for t in range(k) if pat[t] < v]
        above = [t for t in range(k) if pat[t] > v]
        low.append(max(below, key=pat.__getitem__) if below else m)
        high.append(min(above, key=pat.__getitem__) if above else m + 1)
    chosen = [0] * (m + 2)  # the value chosen for each pattern letter
    chosen[m + 1] = n + 1
    positions = [0] * m  # 0-based
    k = j = 0  # the letter being placed, and the next position to try
    while True:
        lo, hi = chosen[low[k]], chosen[high[k]]
        last = n - m + k  # leave room for the letters after k
        while j <= last and not lo < host[j] < hi:
            j += 1
        if j > last:  # letter k has no candidate left: back up
            if k == 0:
                return
            k -= 1
            j = positions[k] + 1
            continue
        positions[k] = j
        chosen[k] = host[j]
        j += 1
        if k == m - 1:
            yield tuple(q + 1 for q in positions)
        else:
            k += 1


def is_fully_commutative(w: Permutation) -> bool:
    """True when w avoids 321.

    One pass: w avoids 321 exactly when its entries that are not
    left-to-right maxima increase.  Two such entries in decreasing order
    are the 2 and the 1 of a 321 whose 3 is the maximum before the first
    of them.  Conversely, the 2 and the 1 of any 321 both sit below the 3
    before them, so they are two such entries in decreasing order.

    >>> is_fully_commutative(Permutation.from_text("345619278"))
    True
    >>> is_fully_commutative(Permutation((4, 3, 2, 1)))
    False
    """
    high = low = 0  # running maximum; last entry below the maximum
    for v in w.image:
        if v > high:
            high = v
        elif v < low:
            return False
        else:
            low = v
    return True


def is_boolean(w: Permutation) -> bool:
    """True when w avoids both 321 and 3412.

    Boolean permutations are exactly those whose reduced words repeat no
    letter (Tenner, *Pattern avoidance and the Bruhat order*, 2007).  A
    reduced word uses every support letter at least once, so that means
    the length equals the size of the support.

    >>> is_boolean(Permutation.from_text("314569278"))
    True
    >>> is_boolean(Permutation.from_text("51342"))
    False
    >>> is_boolean(Permutation.from_text("3412"))
    False
    """
    return w.length() == len(w.support())
