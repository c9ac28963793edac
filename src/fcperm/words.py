"""Reduced words: evaluation, enumeration, counting, and text form.

A word is a plain tuple of reflection indices.  ``evaluate_word`` applies the
letters left to right as right multiplications, so the word ``(3, 2, 1)``
means "swap positions 3,4, then 2,3, then 1,2" starting from the identity.

Enumeration of a full reduced-word set grows explosively with length, so the
enumerating operations take a ``bound`` argument and refuse (with
``BoundExceeded``) rather than silently truncate.  ``count_reduced_words``
counts the set without listing it, stepping down the weak order by
``descent_swaps`` of ``permutations``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .permutations import Permutation, _numbers_from_text, descent_swaps

DEFAULT_WORD_BOUND = 12


class BoundExceeded(ValueError):
    """An enumeration guard tripped; pass a larger ``bound`` to override."""


def evaluate_word(letters: Sequence[int], n: int) -> Permutation:
    """Multiply out a word of reflection indices in S_n.

    >>> evaluate_word((3, 2, 1, 5, 4, 6, 7), 8).to_text(compact=True)
    '41263785'
    >>> evaluate_word((), 5).is_identity()
    True
    """
    image = list(range(1, n + 1))
    for i in letters:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {i} out of range 1..{n - 1}")
        image[i - 1], image[i] = image[i], image[i - 1]
    return Permutation(tuple(image))


def is_reduced(letters: Sequence[int], n: int) -> bool:
    """True when the word realizes the Coxeter length of its product.

    >>> is_reduced((4, 2, 3, 2, 4, 1), 5)
    True
    >>> is_reduced((1, 1), 3)
    False

    A position the word never touches is never crossed, so no inversion
    involves it.  The touched positions are relabeled 1..k in order and
    the inversions counted in S_k, so the cost depends on the word alone,
    not on n.

    >>> is_reduced((40720, 5), 40721)
    True
    """
    for i in letters:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {i} out of range 1..{n - 1}")
    touched = sorted({p for i in letters for p in (i, i + 1)})
    rank = {p: k for k, p in enumerate(touched, start=1)}
    relabeled = [rank[i] for i in letters]
    return not letters or evaluate_word(relabeled, len(touched)).length() == len(letters)


def canonical_reduced_word(w: Permutation) -> tuple[int, ...]:
    """The lexicographically least reduced word of w: the first word
    ``iter_reduced_words`` yields, found greedily without a generator.

    Every reduced word of w starts with a left descent d (d+1 stands left
    of d), and the least one starts with the lowest, then continues with
    the least word of s_d*w.  Swapping the values d and d+1 clears descent
    d and can create only d-1 or d+1, so below d-1 there is still no
    descent, and the scan for the next one resumes at d-1.

    >>> canonical_reduced_word(Permutation((3, 2, 1)))
    (1, 2, 1)
    """
    n = w.n
    pos = [0] * (n + 1)  # pos[v]: the position of the value v
    for p, v in enumerate(w.image):
        pos[v] = p
    word: list[int] = []
    d = 1
    while d < n:
        if pos[d] > pos[d + 1]:
            word.append(d)
            pos[d], pos[d + 1] = pos[d + 1], pos[d]
            if d > 1:
                d -= 1
        else:
            d += 1
    return tuple(word)


def iter_reduced_words(w: Permutation) -> Iterator[tuple[int, ...]]:
    """Yield every reduced word of w exactly once, in lexicographic order.

    Peels left descents: each word is (d,) + (word of s_d*w), where d is a
    left descent of w (d+1 stands left of d) and s_d*w swaps the values d
    and d+1.  The left descents of each head are kept as a bitmask (bit d
    for descent d), and the peel takes its lowest set bit first.  Since
    every word of s_d*w follows d, the words starting with a smaller letter
    all come first, and the same holds one letter deeper, so the words
    come out in lexicographic order.

    Peeling d moves only the values d and d+1, so only the descents that
    compare one of them with a neighbour can change: d-1, d and d+1.  Bit
    d clears (d now stands left of d+1), and bits d-1 and d+1 are
    recomputed from three positions; the other bits are the parent's.  A
    head whose last peel leaves no descent is yielded as it is, without
    moving a value or growing the stack.  The peel keeps its own stack, so
    a long w does not run into Python's recursion limit.  One word is
    alive at a time.

    >>> list(iter_reduced_words(Permutation((3, 2, 1))))
    [(1, 2, 1), (2, 1, 2)]
    """
    n = w.n
    # pos[v]: the position of the value v, with pos[0] = -1 and pos[n+1] = n
    # standing in for descents 0 and n, which never hold
    pos = [-1] * (n + 2)
    for p, v in enumerate(w.image):
        pos[v] = p
    pos[n + 1] = n
    descents = 0
    for d in range(1, n):
        if pos[d] > pos[d + 1]:
            descents |= 1 << d
    if not descents:
        yield ()
        return
    head: list[int] = []
    # level k is the head head[:k]: its left descents, and those of them
    # still to peel
    masks = [descents]
    pending = [descents]
    while pending:
        rest = pending[-1]
        if not rest:
            pending.pop()
            masks.pop()
            if head:  # undo the letter that led here
                d = head.pop()
                pos[d], pos[d + 1] = pos[d + 1], pos[d]
            continue
        bit = rest & -rest
        pending[-1] = rest ^ bit
        d = bit.bit_length() - 1
        at_d, at_next = pos[d], pos[d + 1]  # at_next < at_d: a descent
        # the descents once the values d and d+1 trade places: bit d clears,
        # bit d-1 compares d-1 with d, now at at_next, and bit d+1 compares
        # d+1, now at at_d, with d+2
        mask = masks[-1] & ~(7 * bit >> 1)
        if pos[d - 1] > at_next:
            mask |= bit >> 1
        if at_d > pos[d + 2]:
            mask |= bit << 1
        head.append(d)
        if mask:
            pos[d], pos[d + 1] = at_next, at_d
            masks.append(mask)
            pending.append(mask)
        else:
            yield tuple(head)
            head.pop()


def count_reduced_words(w: Permutation) -> int:
    """The number of reduced words of w, counted without listing any.

    Peels right descents (each word is (word of w*s_d) + (d,)), memoized on
    the image: one length level at a time, each image below w is stored once
    with the number of ways to peel down to it from w.  The work follows the
    size of the weak-order interval below w rather than the number of words,
    and the memo lives for one call only.

    >>> count_reduced_words(Permutation((6, 5, 4, 3, 2, 1)))
    292864
    >>> count_reduced_words(Permutation((5, 1, 3, 4, 2)))
    10
    >>> count_reduced_words(Permutation((1, 2, 3)))
    1
    """
    level = {w.image: 1}
    while True:
        below: dict[tuple[int, ...], int] = {}
        for image, paths in level.items():
            for _, lower in descent_swaps(image):
                below[lower] = below.get(lower, 0) + paths
        if not below:
            (paths,) = level.values()  # the identity alone
            return paths
        level = below


def require_length_within(w: Permutation, bound: int) -> None:
    """Refuse, with ``BoundExceeded``, a w longer than ``bound``.

    Listing the reduced words of w, and even counting them, takes work that
    grows explosively with the length of w.
    """
    length = w.length()
    if length > bound:
        raise BoundExceeded(
            f"length {length} exceeds bound {bound}; raise the bound to enumerate"
        )


def all_reduced_words(
    w: Permutation, bound: int = DEFAULT_WORD_BOUND
) -> set[tuple[int, ...]]:
    """The complete reduced-word set of w.

    >>> (4, 2, 3, 2, 4, 1) in all_reduced_words(Permutation((5, 1, 3, 4, 2)))
    True
    """
    require_length_within(w, bound)
    return set(iter_reduced_words(w))


# byte i -> its digit for i = 0..9, and a comma for every other byte: a comma
# never occurs in the digit form, so it marks a letter past 9
_DIGIT_BYTES = b"0123456789".ljust(256, b",")


def word_to_text(letters: Sequence[int]) -> str:
    """Digits run together when every letter is a single digit, else commas.

    The letters are spelled as bytes and translated through a 256-entry
    table, in one pass of C code for the whole word.

    >>> word_to_text((4, 2, 3, 2, 4, 1))
    '423241'
    >>> word_to_text((10, 2))
    '10,2'
    >>> word_to_text((48,))  # the byte of "0" is a letter past 9
    '48'
    """
    try:
        text = bytes(letters).translate(_DIGIT_BYTES).decode()
    except ValueError:  # a letter past 255, or a negative one: no byte
        text = ","
    if "," in text:  # a letter past 9
        return ",".join(map(str, letters))
    return text


def word_from_text(text: str) -> tuple[int, ...]:
    """Parse a word as ``word_to_text`` writes it; blank text is ()."""
    return _numbers_from_text(text, "word")
