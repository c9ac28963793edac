"""Reduced words: evaluation, enumeration, counting, and commutation classes.

A word is a plain tuple of reflection indices.  ``evaluate_word`` applies the
letters left to right as right multiplications, so the word ``(3, 2, 1)``
means "swap positions 3,4, then 2,3, then 1,2" starting from the identity.

Enumeration of a full reduced-word set grows explosively with length, so the
enumerating operations take a ``bound`` argument and refuse (with
``BoundExceeded``) rather than silently truncate.  ``count_reduced_words``
counts the set without listing it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .permutations import Permutation

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
    """The lexicographically least reduced word of w.

    Built greedily: the smallest valid first letter of a reduced word is the
    smallest left descent, so peel those off one at a time.
    """
    image = list(w.image)
    n = len(image)
    pos = [0] * (n + 1)
    for p, v in enumerate(image, start=1):
        pos[v] = p
    word = []
    while True:
        best = 0
        for i in range(1, n):
            if pos[i] > pos[i + 1]:
                best = i
                break
        if best == 0:
            return tuple(word)
        word.append(best)
        # left multiplication by s_best swaps the values best and best+1
        pa, pb = pos[best], pos[best + 1]
        image[pa - 1], image[pb - 1] = best + 1, best
        pos[best], pos[best + 1] = pb, pa


def iter_reduced_words(w: Permutation) -> Iterator[tuple[int, ...]]:
    """Yield every reduced word of w exactly once.

    Peels descents recursively: each word arises as (word of w*s_d) + (d,).
    """
    image = list(w.image)
    n = len(image)
    tail: list[int] = []

    def peel() -> Iterator[tuple[int, ...]]:
        descents = [d for d in range(1, n) if image[d - 1] > image[d]]
        if not descents:
            yield tuple(reversed(tail))
            return
        for d in descents:
            image[d - 1], image[d] = image[d], image[d - 1]
            tail.append(d)
            yield from peel()
            tail.pop()
            image[d - 1], image[d] = image[d], image[d - 1]

    yield from peel()


def count_reduced_words(w: Permutation) -> int:
    """The number of reduced words of w, counted without listing any.

    Peels descents as ``iter_reduced_words`` does, but memoized on the image:
    one length level at a time, each image below w is stored once with the
    number of ways to peel down to it from w.  The work follows the size of
    the weak-order interval below w rather than the number of words, and
    the memo lives for one call only.

    >>> count_reduced_words(Permutation((6, 5, 4, 3, 2, 1)))
    292864
    >>> count_reduced_words(Permutation((5, 1, 3, 4, 2)))
    10
    >>> count_reduced_words(Permutation((1, 2, 3)))
    1
    """
    n = w.n
    level = {w.image: 1}
    while True:
        below: dict[tuple[int, ...], int] = {}
        for image, paths in level.items():
            for d in range(1, n):
                if image[d - 1] > image[d]:
                    lower = image[: d - 1] + (image[d], image[d - 1]) + image[d + 1 :]
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


def commutation_moves(word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Words obtained by one swap of adjacent letters that commute."""
    for k in range(len(word) - 1):
        if abs(word[k] - word[k + 1]) > 1:
            yield word[:k] + (word[k + 1], word[k]) + word[k + 2 :]


def commutation_class(word: Sequence[int]) -> set[tuple[int, ...]]:
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


def word_to_text(letters: Iterable[int]) -> str:
    """Digits run together when every letter is a single digit, else commas.

    >>> word_to_text((4, 2, 3, 2, 4, 1))
    '423241'
    """
    letters = tuple(letters)
    if letters and max(letters) <= 9:
        return "".join(str(i) for i in letters)
    return ",".join(str(i) for i in letters)


def word_from_text(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        out = []
        for token in text.split(","):
            token = token.strip()
            if not token.isdigit():
                raise ValueError(f"bad word token {token!r}")
            out.append(int(token))
        return tuple(out)
    if not text.isdigit():
        raise ValueError(f"bad word token {text!r}")
    return tuple(int(ch) for ch in text)
