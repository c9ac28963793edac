"""Heaps of reduced words and the boolean core of a fully commutative element.

The heap of a reduced word ``u_1 .. u_l`` is the partial order on positions
{1, .., l} generated by x < y whenever x comes earlier and |u_x - u_y| <= 1.
Its labeled linear extensions are exactly the commutation class of the word,
so for a fully commutative permutation the heap is a complete, word-free
picture of the whole reduced-word set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .patterns import is_boolean, is_fully_commutative
from .permutations import Permutation
from .words import (
    BoundExceeded,
    canonical_reduced_word,
    evaluate_word,
    is_reduced,
    word_to_text,
)

DEFAULT_HEAP_BOUND = 14


@dataclass(frozen=True)
class Heap:
    """Labeled poset on the letter positions of a reduced word.

    ``below[k]`` holds every element strictly under element k+1, so order
    queries are set lookups.  ``covers`` is the transitive reduction, stored
    as sorted (lower, upper) pairs.
    """

    labels: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    below: tuple[frozenset[int], ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def label(self, x: int) -> int:
        return self.labels[x - 1]

    def less(self, x: int, y: int) -> bool:
        return x in self.below[y - 1]

    def elements_with_label(self, j: int) -> tuple[int, ...]:
        return tuple(x for x in range(1, self.size + 1) if self.labels[x - 1] == j)

    def to_dot(self) -> str:
        """Graphviz digraph, edges from covered to covering, drawn upward."""
        lines = ["digraph heap {", "  rankdir=BT;"]
        for x, label in enumerate(self.labels, start=1):
            lines.append(f'  n{x} [label="{label} ({x})"];')
        for x, y in self.covers:
            lines.append(f"  n{x} -> n{y};")
        lines.append("}")
        return "\n".join(lines)


def build_heap(letters: tuple[int, ...] | list[int]) -> Heap:
    """Heap of a reduced word.  Raises ValueError on a non-reduced word.

    Covers follow a local rule: x is covered by y exactly when x < y,
    |u_x - u_y| <= 1, and no letter strictly between positions x and y is
    within 1 of both.  Any longer chain from x to y would pass through
    such a letter.

    >>> h = build_heap((2, 1, 3))
    >>> h.covers
    ((1, 2), (1, 3))
    """
    letters = tuple(letters)
    if not letters:
        return Heap(labels=(), covers=(), below=())
    n = max(letters) + 1
    if not is_reduced(letters, n):
        raise ValueError(f"word {word_to_text(letters)} is not reduced")
    size = len(letters)
    below: list[frozenset[int]] = []
    for y in range(1, size + 1):
        acc: set[int] = set()
        for x in range(1, y):
            if abs(letters[x - 1] - letters[y - 1]) <= 1:
                acc.add(x)
                acc |= below[x - 1]
        below.append(frozenset(acc))
    covers = [
        (x, y)
        for x, ux in enumerate(letters, start=1)
        for y, uy in enumerate(letters[x:], start=x + 1)
        if abs(ux - uy) <= 1
        and not any(abs(uz - ux) <= 1 and abs(uz - uy) <= 1 for uz in letters[x : y - 1])
    ]
    return Heap(labels=letters, covers=tuple(covers), below=tuple(below))


def heap_of(w: Permutation) -> Heap:
    """The heap of a fully commutative permutation (word-independent)."""
    if not is_fully_commutative(w):
        raise ValueError(
            f"{w.to_text()} is not fully commutative; build a heap from an explicit word"
        )
    return build_heap(canonical_reduced_word(w))


def labeled_linear_extensions(
    heap: Heap, bound: int = DEFAULT_HEAP_BOUND
) -> set[tuple[int, ...]]:
    """All words read off linear extensions of the heap.

    This set is the commutation class of the generating word; for a fully
    commutative permutation it is the full reduced-word set.
    """
    if heap.size > bound:
        raise BoundExceeded(
            f"heap size {heap.size} exceeds bound {bound}; raise the bound to enumerate"
        )
    size = heap.size
    pending = [0] * size
    above: list[list[int]] = [[] for _ in range(size)]
    for x, y in heap.covers:
        above[x - 1].append(y)
        pending[y - 1] += 1
    ready = sorted(x for x in range(1, size + 1) if pending[x - 1] == 0)
    out: set[tuple[int, ...]] = set()
    word: list[int] = []

    def grow(ready: list[int]) -> None:
        if len(word) == size:
            out.add(tuple(word))
            return
        for idx, x in enumerate(ready):
            rest = ready[:idx] + ready[idx + 1 :]
            released = []
            for y in above[x - 1]:
                pending[y - 1] -= 1
                if pending[y - 1] == 0:
                    released.append(y)
            word.append(heap.labels[x - 1])
            grow(rest + released)
            word.pop()
            for y in above[x - 1]:
                pending[y - 1] += 1

    grow(ready)
    return out


def count_linear_extensions(heap: Heap) -> int:
    """The number of linear extensions of the heap, listing none of them.

    This is the size of the generating word's commutation class.  A dynamic
    program over order ideals, each stored as a bitmask (bit x-1 for element
    x): one size at a time, each ideal is stored once with the number of
    orders in which it can be built, and grows by every element whose lower
    set it already holds.  The memo lives for one call only.

    >>> count_linear_extensions(build_heap((2, 1, 3)))
    2
    >>> count_linear_extensions(build_heap((1, 2, 1)))
    1
    >>> count_linear_extensions(Heap((), (), ()))
    1
    """
    needs = [sum(1 << (x - 1) for x in below) for below in heap.below]
    level = {0: 1}
    for _ in range(heap.size):
        bigger: dict[int, int] = {}
        for ideal, ways in level.items():
            for y, need in enumerate(needs):
                if not ideal >> y & 1 and ideal & need == need:
                    grown = ideal | 1 << y
                    bigger[grown] = bigger.get(grown, 0) + ways
        level = bigger
    (ways,) = level.values()  # the whole heap
    return ways


@dataclass(frozen=True)
class CoreDecomposition:
    """w split as core * remainder with lengths adding up.

    The core is boolean, has the same support as w, and is the largest
    boolean permutation under w in the right weak order.
    """

    core: Permutation
    remainder: Permutation
    core_word: tuple[int, ...]
    remainder_word: tuple[int, ...]


def boolean_core(w: Permutation) -> CoreDecomposition:
    """Boolean core of a fully commutative permutation.

    The core word is the first occurrence of each letter of the canonical
    reduced word, in order; the remainder word is the other letters, in
    order.  Same-label elements of a heap form a chain, so the first
    occurrences are the label minima, which form an order ideal: reading
    them first gives a reduced word whose prefix is the core.

    >>> boolean_core(Permutation.from_text("345619278")).core.to_text(compact=True)
    '314569278'
    """
    if not is_fully_commutative(w):
        raise ValueError(f"{w.to_text()} is not fully commutative")
    n = w.n
    core_word: list[int] = []
    remainder_word: list[int] = []
    for j in canonical_reduced_word(w):
        (remainder_word if j in core_word else core_word).append(j)
    core = evaluate_word(core_word, n)
    remainder = evaluate_word(remainder_word, n)
    if core.compose(remainder) != w:
        raise RuntimeError(f"core split failed for {w.to_text()}")
    if not is_boolean(core) or core.support() != w.support():
        raise RuntimeError(f"core of {w.to_text()} is not a same-support boolean")
    return CoreDecomposition(
        core=core,
        remainder=remainder,
        core_word=tuple(core_word),
        remainder_word=tuple(remainder_word),
    )
