"""Classical permutation pattern containment, and the 321 and boolean tests.

The searches are plain backtracking over positions; at the sizes this
library targets (hosts of degree <= 9, patterns of degree <= 6) nothing
fancier pays off.  ``iter_occurrences`` yields occurrences in lexicographic
position order so golden outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .permutations import Permutation


@dataclass(frozen=True, slots=True)
class PatternOccurrence:
    """Positions (1-based, strictly increasing) realizing a pattern."""

    positions: tuple[int, ...]
    pattern: Permutation


def iter_occurrences(w: Permutation, p: Permutation) -> Iterator[PatternOccurrence]:
    """All occurrences of p in w, in lexicographic position order.

    >>> w = Permutation.from_text("314592687")
    >>> next(iter_occurrences(w, Permutation.from_text("1423"))).positions
    (1, 5, 7, 8)
    """
    host = w.image
    pat = p.image
    n, m = len(host), len(pat)
    if m > n:
        raise ValueError(f"pattern degree {m} exceeds host degree {n}")
    chosen_pos: list[int] = []
    chosen_val: list[int] = []

    def extend(start: int) -> Iterator[PatternOccurrence]:
        k = len(chosen_pos)
        if k == m:
            yield PatternOccurrence(tuple(chosen_pos), p)
            return
        # 0-based scan; keep enough room for the remaining pattern letters
        for j in range(start, n - (m - k) + 1):
            val = host[j]
            if all(
                (pat[t] < pat[k]) == (chosen_val[t] < val) for t in range(k)
            ):
                chosen_pos.append(j + 1)
                chosen_val.append(val)
                yield from extend(j + 1)
                chosen_pos.pop()
                chosen_val.pop()

    yield from extend(0)


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
