"""Permutations of {1, .., n} in one-line notation.

Positions and values are 1-based everywhere in the public interface, so
``w(i)`` reads exactly like the usual functional notation.  Instances are
immutable and hashable, and every operation returns a new value; it is safe
to share permutations across threads or workers without coordination.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice, permutations, repeat
from typing import Iterator


def _numbers_from_text(text: str, kind: str) -> tuple[int, ...]:
    """Read the comma-separated form, or one digit per number.  Blank text
    is ``()``; a token that is not all digits is a bad ``kind`` token."""
    text = text.strip()
    if "," in text:
        values = []
        for token in text.split(","):
            token = token.strip()
            if not token.isdigit():
                raise ValueError(f"bad {kind} token {token!r}")
            values.append(int(token))
        return tuple(values)
    if text and not text.isdigit():
        raise ValueError(f"bad {kind} token {text!r}")
    return tuple(int(ch) for ch in text)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation stored as its one-line notation.

    >>> w = Permutation((5, 1, 3, 4, 2))
    >>> w(1), w(5)
    (5, 2)
    >>> w.n
    5
    """

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        n = len(image)
        if n == 0:
            raise ValueError("a permutation needs degree at least 1")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(
                f"one-line notation must use each of 1..{n} exactly once, got {image}"
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def _trusted(cls, image: tuple[int, ...]) -> "Permutation":
        """Wrap ``image`` without validation.

        Only for images already known to use each of 1..n once: those
        rearranged from a valid permutation, or built by a generator of
        permutations.
        """
        w = object.__new__(cls)
        object.__setattr__(w, "image", image)
        return w

    @classmethod
    def _trusted_many(cls, images: list[tuple[int, ...]]) -> list["Permutation"]:
        """``_trusted`` over a list of images, with no Python-level call per
        image: the instances are made by ``object.__new__`` and their
        ``image`` slots filled through the slot's own setter, both mapped
        at C level."""
        out = list(map(object.__new__, repeat(cls, len(images))))
        deque(map(_set_image, out, images), maxlen=0)
        return out

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse either the compact digit form or the comma-separated form.

        The compact form (one digit per value) is only meaningful for n <= 9.

        >>> Permutation.from_text("41627385").image
        (4, 1, 6, 2, 7, 3, 8, 5)
        >>> Permutation.from_text("4,1,6,2,7,3,8,5") == Permutation.from_text("41627385")
        True
        """
        values = _numbers_from_text(text, "permutation")
        if not values:
            raise ValueError("empty permutation text")
        return cls(values)

    def to_text(self, compact: bool = False) -> str:
        """Comma-separated by default; single digits when asked and n <= 9."""
        if compact and self.n <= 9:
            return "".join(str(v) for v in self.image)
        return ",".join(str(v) for v in self.image)

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range 1..{self.n}")
        return self.image[i - 1]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image, start=1))

    def length(self) -> int:
        """Number of inversions, which is also the Coxeter length.

        >>> Permutation((5, 1, 3, 4, 2)).length()
        6
        >>> Permutation((4, 3, 2, 1)).length()
        6
        """
        seen: list[int] = []  # the values so far, sorted
        inversions = 0
        for v in self.image:
            k = bisect_right(seen, v)
            inversions += len(seen) - k  # the earlier values above v
            seen.insert(k, v)
        return inversions

    def times(self, i: int) -> "Permutation":
        """Right product with the adjacent transposition swapping i and i+1.

        In one-line notation this swaps positions ``i`` and ``i + 1``.

        >>> Permutation.from_text("41623785").times(5).to_text(compact=True)
        '41627385'
        """
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"reflection index {i} out of range 1..{self.n - 1}")
        image = list(self.image)
        image[i - 1], image[i] = image[i], image[i - 1]
        return Permutation._trusted(tuple(image))

    def inverse(self) -> "Permutation":
        """The positional inverse.

        >>> Permutation((5, 1, 3, 4, 2)).inverse().image
        (2, 5, 3, 4, 1)
        """
        inv = [0] * self.n
        for pos, val in enumerate(self.image, start=1):
            inv[val - 1] = pos
        return Permutation._trusted(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Product self * other, acting on positions right-to-left."""
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return Permutation._trusted(tuple(self.image[j - 1] for j in other.image))

    # -- descents and support ------------------------------------------------

    def descents(self) -> frozenset[int]:
        """Positions d with w(d) > w(d+1).

        >>> sorted(Permutation.from_text("41627385").descents())
        [1, 3, 5, 7]
        """
        image = self.image
        return frozenset(
            d for d in range(1, self.n) if image[d - 1] > image[d]
        )

    def support(self) -> frozenset[int]:
        """Letters occurring in reduced words, via the prefix-set test.

        A letter i is in the support exactly when the first i positions do
        not hold the values {1..i}, i.e. when the running maximum exceeds i.

        >>> sorted(Permutation((5, 1, 3, 4, 2)).support())
        [1, 2, 3, 4]
        >>> Permutation.identity(6).support()
        frozenset()
        """
        running = 0
        out = []
        for i, v in enumerate(self.image[:-1], start=1):
            if v > running:
                running = v
            if running > i:
                out.append(i)
        return frozenset(out)

    def support_stats(self, i: int) -> tuple[int, int]:
        """(prefix_max, suffix_min): the largest of the first i values and
        the smallest of the rest.

        The letter i occurs in reduced words exactly when
        prefix_max > suffix_min (equivalently prefix_max > i, or
        suffix_min < i + 1).

        >>> w = Permutation.from_text("41623785")
        >>> w.support_stats(5), 5 in w.support()
        ((6, 5), True)
        >>> Permutation.identity(4).support_stats(2)
        (2, 3)
        """
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"reflection index {i} out of range 1..{self.n - 1}")
        return max(self.image[:i]), min(self.image[i:])

    # -- plumbing -------------------------------------------------------------

    def __repr__(self) -> str:  # keeps goldens and failure output readable
        return f"Permutation({self.to_text(compact=True)!r})"


# the ``image`` slot's setter, which a frozen instance's ``__setattr__`` refuses
_set_image = Permutation.__dict__["image"].__set__


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order.

    ``itertools.permutations`` only rearranges 1..n, so its images are
    wrapped without validation, a block at a time by ``_trusted_many``; a
    degree below 1 is refused as the constructor refuses it.
    """
    if n < 1:
        raise ValueError("a permutation needs degree at least 1")
    images = permutations(range(1, n + 1))
    while block := list(islice(images, 1024)):
        yield from Permutation._trusted_many(block)


def descent_swaps(image: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(d, image of w*s_d)`` for each right descent d of the image w, d
    ascending: one step down the right weak order per descent, swapping
    positions d and d+1 of a bare image.

    >>> list(descent_swaps((3, 1, 2)))
    [(1, (1, 3, 2))]
    """
    for d in range(1, len(image)):
        if image[d - 1] > image[d]:
            yield d, image[: d - 1] + (image[d], image[d - 1]) + image[d + 1 :]
