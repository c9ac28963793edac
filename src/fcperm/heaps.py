"""Heaps of reduced words and the boolean core of a fully commutative element.

The heap of a reduced word ``u_1 .. u_l`` is the partial order on positions
{1, .., l} generated by x < y whenever x comes earlier and |u_x - u_y| <= 1.
Element y with label j covers the latest earlier j, unless a later j-1 or
j+1 lies between the two; then it covers those neighbours instead, as any
longer chain passes through such a letter.  The labeled linear extensions
are exactly the commutation class of the word, so for a fully commutative
permutation the heap is a complete, word-free picture of the whole
reduced-word set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .patterns import is_boolean, is_fully_commutative
from .permutations import Permutation
from .words import (
    BoundExceeded,
    canonical_reduced_word,
    is_reduced,
    word_to_text,
)

DEFAULT_HEAP_BOUND = 14


@dataclass(frozen=True, slots=True)
class Heap:
    """Labeled poset on the letter positions of a reduced word, stored as
    its covers, sorted (lower, upper) pairs; ``below`` is built when read.
    """

    labels: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    @property
    def below(self) -> tuple[frozenset[int], ...]:
        """``below[k]``: every element under element k+1, built on each read
        from the covers, which reach an element before they leave it."""
        below: list[frozenset[int]] = [frozenset()] * self.size
        for x, y in self.covers:
            below[y - 1] |= below[x - 1] | {x}
        return tuple(below)

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

    >>> h = build_heap((2, 1, 3))
    >>> h.covers
    ((1, 2), (1, 3))
    >>> h.below
    (frozenset(), frozenset({1}), frozenset({1}))
    """
    letters = tuple(letters)
    if letters and not is_reduced(letters, max(letters) + 1):
        raise ValueError(f"word {word_to_text(letters)} is not reduced")
    return heap_of_reduced(letters)


def heap_of_reduced(letters: tuple[int, ...]) -> Heap:
    """Heap of a word that is reduced by construction, such as a
    ``canonical_reduced_word``: ``build_heap`` without its ``is_reduced``
    test, for callers that never hold an unchecked word.

    >>> heap_of_reduced((1, 2, 1)).covers
    ((1, 2), (2, 3))
    """
    latest: dict[int, int] = {}  # label -> its latest position so far
    covers: list[tuple[int, int]] = []
    for y, j in enumerate(letters, start=1):
        same = latest.get(j, 0)
        lower = [x for x in (latest.get(j - 1, 0), latest.get(j + 1, 0)) if x > same]
        covers += ((x, y) for x in lower or [same] if x)
        latest[j] = y
    return Heap(labels=letters, covers=tuple(sorted(covers)))


def heap_of(w: Permutation) -> Heap:
    """The heap of a fully commutative permutation (word-independent),
    built from its canonical reduced word, which needs no ``is_reduced``
    test."""
    if not is_fully_commutative(w):
        raise ValueError(
            f"{w.to_text()} is not fully commutative; build a heap from an explicit word"
        )
    return heap_of_reduced(canonical_reduced_word(w))


def labeled_linear_extensions(
    heap: Heap, bound: int = DEFAULT_HEAP_BOUND
) -> set[tuple[int, ...]]:
    """All words read off linear extensions of the heap.

    This set is the commutation class of the generating word; for a fully
    commutative permutation it is the full reduced-word set.  Extensions
    grow order ideals, each held as a bitmask (bit x-1 for element x): an
    element can come next once its lower covers are placed.

    >>> sorted(labeled_linear_extensions(build_heap((2, 1, 3))))
    [(2, 1, 3), (2, 3, 1)]
    """
    if heap.size > bound:
        raise BoundExceeded(
            f"heap size {heap.size} exceeds bound {bound}; raise the bound to enumerate"
        )
    needs = [sum(1 << (x - 1) for x, z in heap.covers if z == y) for y in range(1, heap.size + 1)]
    whole = (1 << heap.size) - 1
    out: set[tuple[int, ...]] = set()
    pending: list[tuple[int, tuple[int, ...]]] = [(0, ())]  # (ideal, its word)
    while pending:
        ideal, word = pending.pop()
        if ideal == whole:
            out.add(word)
            continue
        for y, need in enumerate(needs):
            if not ideal >> y & 1 and ideal & need == need:
                pending.append((ideal | 1 << y, word + (heap.labels[y],)))
    return out


@dataclass(frozen=True, slots=True)
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
    core_word: list[int] = []
    remainder_word: list[int] = []
    # both words are multiplied out as they are read: their letters come
    # from a reduced word of w, so each is in range 1..n-1
    core_image = list(range(1, w.n + 1))
    remainder_image = core_image[:]
    seen = 0  # bit j set once the letter j is in the core word
    for j in canonical_reduced_word(w):
        if seen >> j & 1:
            remainder_word.append(j)
            remainder_image[j - 1], remainder_image[j] = remainder_image[j], remainder_image[j - 1]
        else:
            seen |= 1 << j
            core_word.append(j)
            core_image[j - 1], core_image[j] = core_image[j], core_image[j - 1]
    core = Permutation._trusted(tuple(core_image))
    remainder = Permutation._trusted(tuple(remainder_image))
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
