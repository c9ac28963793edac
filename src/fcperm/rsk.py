"""Row insertion with a full bump trace, built on read.

Insertion is ordinary unbounded RSK, so arbitrary permutations are handled
correctly; the operations whose statements only make sense in the two-row
world (``bump_pairs``) enforce full commutativity at their boundary.

``rsk`` runs the insertion once per call and keeps only its own lists: the
rows, the recording rows, each letter's first-row column and each letter's
bumping route.  The insertion tableau, the recording tableau and the
trace are each built from those lists when first read, and cached; every
tableau read is still validated by the one ``Tableau`` constructor.

The trace records, for each inserted letter, its bumping route (the letter,
then the value it displaced from each row in turn) and the first-row column
where the letter landed.  That column always equals the
length of a longest increasing subsequence ending at the letter, which is
the bridge between tableau shape and one-line combinatorics used throughout
this library.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import lt
from typing import Mapping

from .patterns import is_fully_commutative
from .permutations import Permutation


@dataclass(frozen=True, slots=True)
class Tableau:
    """Rows of strictly increasing integers, weakly shrinking in length.

    >>> Tableau(((1, 2, 4), (3, 5, 6))).shape
    (3, 3)
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        upper: tuple[int, ...] = ()
        for r, row in enumerate(rows):
            if not row:
                raise ValueError("empty tableau row")
            if not all(map(lt, row, row[1:])):
                raise ValueError(f"row {r + 1} is not strictly increasing: {row}")
            if r > 0:
                if len(row) > len(upper):
                    raise ValueError("row lengths must weakly decrease")
                # map stops at the shorter row, which is this one
                if not all(map(lt, upper, row)):
                    raise ValueError("columns must strictly increase downward")
            upper = row

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def row(self, r: int) -> tuple[int, ...]:
        """Row r (1-based); empty when the tableau has fewer rows."""
        if r < 1:
            raise ValueError("rows are numbered from 1")
        return self.rows[r - 1] if r <= len(self.rows) else ()

    def to_text(self) -> str:
        """Rows top to bottom, commas inside rows, '/' between rows.

        >>> Tableau(((1, 2, 3, 5), (4, 6, 7, 8))).to_text()
        '1,2,3,5/4,6,7,8'
        """
        return "/".join(",".join(str(v) for v in row) for row in self.rows)

    def to_json_dict(self) -> dict:
        return {"rows": [list(row) for row in self.rows]}


@dataclass(frozen=True, slots=True)
class BumpTrace:
    """Each letter's bumping route, and the row-1 column where it landed.

    ``paths[k]`` is the route of the letter w(k+1): the letter, then the
    value it displaced from row 1, then the value that one displaced from
    row 2, and so on.  It is ``(w(k+1),)`` when the letter was appended to
    row 1.  ``first_column[v]`` is that row-1 column of v, from 1.
    """

    paths: tuple[tuple[int, ...], ...]
    first_column: Mapping[int, int]

    def row_bump_map(self) -> dict[int, int]:
        """displaced value -> the value that pushed it out of row 1."""
        return {path[1]: path[0] for path in self.paths if len(path) > 1}


@dataclass(frozen=True, slots=True)
class RskResult:
    """The insertion tableau ``p``, the recording tableau ``q`` and the
    ``trace`` of one insertion.

    ``rsk`` fills only ``_raw``, the insertion's lists; a field's slot stays
    empty until its first read, when ``__getattr__`` builds and caches it.
    A result built with all three fields, as ``dataclasses.replace`` builds
    one, needs no ``_raw``.
    """

    p: Tableau
    q: Tableau
    trace: BumpTrace
    _raw: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        # only reached when a slot is empty: the first read of a field
        build = _BUILDERS.get(name)
        if build is None or self._raw is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = build(self._raw)
        object.__setattr__(self, name, value)
        return value


# field name -> builder from RskResult._raw, which is
# (rows of P, rows of Q, the letters' bumping routes, first_column)
_BUILDERS = {
    "p": lambda raw: Tableau(raw[0]),
    "q": lambda raw: Tableau(raw[1]),
    "trace": lambda raw: BumpTrace(tuple(map(tuple, raw[2])), raw[3]),
}


def rsk(w: Permutation) -> RskResult:
    """Insertion tableau, recording tableau, and the full trace.

    The insertion runs once, here, and records only plain lists; ``p``,
    ``q`` and ``trace`` are built from them on first read, each tableau
    through the validating ``Tableau`` constructor.

    >>> rsk(Permutation.from_text("315264")).p.to_text()
    '1,2,4/3,5,6'
    >>> rsk(Permutation.from_text("41627385")).p.to_text()
    '1,2,3,5/4,6,7,8'
    """
    first: list[int] = []
    rows: list[list[int]] = [first]
    qfirst: list[int] = []
    qrows: list[list[int]] = [qfirst]
    paths: list = []  # per letter: its bumping route
    first_column: dict[int, int] = {}
    for step_index, value in enumerate(w.image, start=1):
        # every letter lands in row 1; only a bumped one cascades further
        col = bisect_right(first, value)
        first_column[value] = col + 1
        if col == len(first):
            first.append(value)
            qfirst.append(step_index)
            paths.append((value,))
            continue
        incoming, first[col] = first[col], value
        path = [value, incoming]
        for r in range(1, len(rows)):
            row = rows[r]
            col = bisect_right(row, incoming)
            if col == len(row):
                row.append(incoming)
                qrows[r].append(step_index)
                break
            incoming, row[col] = row[col], incoming
            path.append(incoming)
        else:  # fell off the bottom: a new row holds it
            rows.append([incoming])
            qrows.append([step_index])
        paths.append(path)
    result = object.__new__(RskResult)
    object.__setattr__(result, "_raw", (rows, qrows, paths, first_column))
    return result


def row2(w: Permutation) -> tuple[int, ...]:
    """Second row of the insertion tableau, sorted ascending.

    Row insertion on plain lists, without a trace.  Only rows 1 and 2 are
    kept: a value bumped out of row 2 cascades into row 3 or lower and
    never comes back, so dropping it leaves row 2 exact for any
    permutation, fully commutative or not.

    >>> row2(Permutation.from_text("41627385"))
    (4, 6, 7, 8)
    >>> row2(Permutation.from_text("4321"))
    (2,)
    """
    first: list[int] = []
    second: list[int] = []
    for value in w.image:
        col = bisect_right(first, value)
        if col == len(first):
            first.append(value)
            continue
        value, first[col] = first[col], value
        col = bisect_right(second, value)
        if col == len(second):
            second.append(value)
        else:
            second[col] = value
    return tuple(second)


def bump_pairs(w: Permutation) -> list[tuple[int, int]]:
    """The (bumper, bumped) pairs of a fully commutative permutation, in
    bump order.

    >>> bump_pairs(Permutation.from_text("41627385"))
    [(1, 4), (2, 6), (3, 7), (5, 8)]
    """
    if not is_fully_commutative(w):
        raise ValueError(f"{w.to_text()} is not fully commutative")
    pairs = []
    for path in rsk(w).trace.paths:
        if len(path) > 2:
            raise RuntimeError(f"two-row insertion of {w.to_text()} cascaded past row 1")
        if len(path) == 2:
            pairs.append(path)
    return pairs
