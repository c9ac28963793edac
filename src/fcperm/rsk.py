"""Row insertion with a full bump trace, built on read.

Insertion is ordinary unbounded RSK, so arbitrary permutations are handled
correctly; the operations whose statements only make sense in the two-row
world (``bump_pairs``) enforce full commutativity at their boundary.

``rsk`` runs the insertion once per call and keeps a compact record of it
in five plain sequences: the letters, the rows of P, each letter's landing
row (the row, from 0, that gained a cell: 0 when the letter was appended to
row 1), the row-1 column (from 0) of each letter that bumped, and one flat
list of the values displaced along every bumping route.  The insertion
tableau, the recording tableau and the trace are each built from the
record when first read, and cached; every tableau read is still validated
by the one ``Tableau`` constructor.

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

    ``rsk`` fills only ``_raw``, the insertion's record; a field's slot stays
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


# object.__new__, and the slot setter that a frozen instance's
# ``__setattr__`` refuses: a result is filled through it
_new = object.__new__
_set_raw = RskResult.__dict__["_raw"].__set__


def _recording_rows(raw) -> list[list[int]]:
    """Q's rows: each step index goes to the row where its letter landed."""
    qrows: list[list[int]] = [[] for _ in raw[1]]
    for step_index, row in enumerate(raw[2], start=1):
        qrows[row].append(step_index)
    return qrows


def _bump_trace(raw) -> BumpTrace:
    """Each letter's route and row-1 column: a letter that landed in row r
    displaced the next r values of the flat route list, and an appended
    letter took the next column at the end of row 1."""
    image, _, landing, columns, routes = raw
    paths = []
    first_column = {}
    top = k = at = 0  # the length of row 1; the next index into columns, routes
    for value, row in zip(image, landing):
        if row:
            first_column[value] = columns[k] + 1
            k += 1
            paths.append((value, *routes[at : at + row]))
            at += row
        else:
            top += 1
            first_column[value] = top
            paths.append((value,))
    return BumpTrace(tuple(paths), first_column)


# field name -> builder from RskResult._raw, the record the module
# docstring describes
_BUILDERS = {
    "p": lambda raw: Tableau(raw[1]),
    "q": lambda raw: Tableau(_recording_rows(raw)),
    "trace": _bump_trace,
}


def rsk(w: Permutation) -> RskResult:
    """Insertion tableau, recording tableau, and the full trace.

    The insertion runs once, here, and keeps only its compact record (see
    the module docstring); ``p``, ``q`` and ``trace`` are built from it on
    first read, each tableau through the validating ``Tableau``
    constructor.

    >>> rsk(Permutation.from_text("315264")).p.to_text()
    '1,2,4/3,5,6'
    >>> rsk(Permutation.from_text("41627385")).p.to_text()
    '1,2,3,5/4,6,7,8'
    """
    image = w.image
    first: list[int] = []
    rows: list[list[int]] = [first]
    landing: list[int] = []  # per letter: the row, from 0, that gained a cell
    columns: list[int] = []  # per bumping letter: its row-1 column
    routes: list[int] = []  # every displaced value, in bump order
    last = 0  # the last entry of row 1
    for value in image:
        # every letter lands in row 1; only a bumped one cascades further
        if value > last:
            first.append(value)
            landing.append(0)
            last = value
            continue
        col = bisect_right(first, value)
        columns.append(col)
        incoming, first[col] = first[col], value
        if incoming == last:
            last = value
        routes.append(incoming)
        for r in range(1, len(rows)):
            row = rows[r]
            col = bisect_right(row, incoming)
            if col == len(row):
                row.append(incoming)
                landing.append(r)
                break
            incoming, row[col] = row[col], incoming
            routes.append(incoming)
        else:  # fell off the bottom: a new row holds it
            landing.append(len(rows))
            rows.append([incoming])
    result = _new(RskResult)
    _set_raw(result, (image, rows, landing, columns, routes))
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
