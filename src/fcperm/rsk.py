"""Row insertion with a full bump trace.

Insertion is ordinary unbounded RSK, so arbitrary permutations are handled
correctly; the operations whose statements only make sense in the two-row
world (``bump_pairs``) enforce full commutativity at their boundary.

The trace records, for each inserted letter, the whole bump cascade and the
first-row column where the letter landed.  That column always equals the
length of a longest increasing subsequence ending at the letter, which is
the bridge between tableau shape and one-line combinatorics used throughout
this library.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import lt
from typing import Mapping, NamedTuple

from .patterns import is_fully_commutative
from .permutations import Permutation


@dataclass(frozen=True)
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


class InsertionStep(NamedTuple):
    """What happened when one letter entered the tableau: a named tuple
    ``(value, bumps)``.

    ``bumps`` lists the cascade as (incoming, displaced, row) triples; it is
    empty when the letter was appended to row 1.
    """

    value: int
    bumps: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class BumpTrace:
    events: tuple[InsertionStep, ...]
    first_column: Mapping[int, int]

    def row_bump_map(self) -> dict[int, int]:
        """displaced value -> the value that pushed it out of row 1."""
        out = {}
        for step in self.events:
            if step.bumps:
                b, z, _ = step.bumps[0]  # every cascade starts in row 1
                out[z] = b
        return out


@dataclass(frozen=True)
class RskResult:
    p: Tableau
    q: Tableau
    trace: BumpTrace


def rsk(w: Permutation) -> RskResult:
    """Insertion tableau, recording tableau, and the full trace.

    >>> rsk(Permutation.from_text("315264")).p.to_text()
    '1,2,4/3,5,6'
    >>> rsk(Permutation.from_text("41627385")).p.to_text()
    '1,2,3,5/4,6,7,8'
    """
    rows: list[list[int]] = []
    qrows: list[list[int]] = []
    events = []
    first_column: dict[int, int] = {}
    for step_index, value in enumerate(w.image, start=1):
        incoming = value
        bumps = []
        r = 0
        while True:
            if r == len(rows):
                rows.append([])
                qrows.append([])
            row = rows[r]
            col = bisect_right(row, incoming)
            if r == 0:
                first_column[value] = col + 1
            if col == len(row):
                row.append(incoming)
                qrows[r].append(step_index)
                break
            displaced = row[col]
            row[col] = incoming
            bumps.append((incoming, displaced, r + 1))
            incoming = displaced
            r += 1
        events.append(InsertionStep(value, tuple(bumps)))
    return RskResult(
        p=Tableau(tuple(map(tuple, rows))),
        q=Tableau(tuple(map(tuple, qrows))),
        trace=BumpTrace(events=tuple(events), first_column=first_column),
    )


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
    for step in rsk(w).trace.events:
        if step.bumps:
            # two-row insertion never cascades past row 1
            assert len(step.bumps) == 1
            b, z, _ = step.bumps[0]
            pairs.append((b, z))
    return pairs

