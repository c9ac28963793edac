"""Crowded and uncrowded permutations, transition analysis, and minimality.

A set L of integers is *uncrowded* when every window [y, y+2x] (x positive)
meets L in at most x+1 points, and *crowded* otherwise.  A fully commutative
permutation inherits the adjective of the second row of its insertion
tableau, and ``classify`` returns that row's overfull window, or None.
Crowdedness is exactly the obstruction to sharing an insertion tableau
with a boolean permutation, and it appears along weak-order covers
in a completely controlled way; ``analyze_transition`` checks every step
of that control along one cover step and reports the witness it finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .patterns import is_fully_commutative, iter_occurrences
from .permutations import Permutation
from .rsk import rsk, row2


class InvariantViolation(RuntimeError):
    """An internal deduction failed; the inputs are a counterexample to
    something this library believes is a theorem.  Please report them."""


@dataclass(frozen=True, slots=True)
class CrowdedWitness:
    """A window [y, y+2x] holding more than x+1 members of the set."""

    x: int
    y: int
    window: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.window) <= self.x + 1:
            raise ValueError("witness window does not violate the bound")


def find_crowded_witness(values) -> CrowdedWitness | None:
    """A violating window for a crowded set, or None for an uncrowded one.

    With members m_0 < m_1 < ..., a window of radius x is overfull exactly
    when it holds x+2 consecutive members m_i..m_{i+x+1}, which fit in it
    when m_{i+x+1} - m_i <= 2x.  One scan tries x upward, then i upward, so
    the reported witness is the tightest leftmost one: at the first hit the
    window starts at y = max(m_0, m_{i+x+1} - 2x).

    >>> find_crowded_witness({3, 5, 6}) is None
    True
    >>> find_crowded_witness({4, 5, 6})
    CrowdedWitness(x=1, y=4, window=(4, 5, 6))
    """
    members = sorted(set(values))
    for x in range(1, len(members) - 1):
        for i in range(len(members) - x - 1):
            last = members[i + x + 1]
            if last - members[i] <= 2 * x:
                y = max(members[0], last - 2 * x)
                window = tuple(v for v in members if y <= v <= y + 2 * x)
                return CrowdedWitness(x=x, y=y, window=window)
    return None


def is_uncrowded_set(values) -> bool:
    """True when no window violates the density bound.

    >>> is_uncrowded_set(set())
    True
    >>> is_uncrowded_set({6, 7, 8})
    False
    """
    return find_crowded_witness(values) is None


def minimal_crowded_window(x: int, y: int) -> tuple[int, ...]:
    """The inclusion-minimal crowded set with window [y, y+2x].

    y, y+1, then every second value up to y+2x-1, then y+2x; that is
    {y, y+1, y+2} for x = 1.
    """
    if x < 1:
        raise ValueError("window radius must be positive")
    return (y, y + 1) + tuple(range(y + 3, y + 2 * x, 2)) + (y + 2 * x,)


def minimal_crowded_subset(values) -> CrowdedWitness:
    """An inclusion-wise minimal crowded subset of a crowded set.

    The candidates are exactly the sets ``minimal_crowded_window(x, y)``.
    They are pairwise incomparable: each has exactly two adjacent pairs,
    (y, y+1) and (y+2x-1, y+2x), and those fix x and y.  So the first one
    contained in the input, scanning y down from max L - 2 and then x up
    from 1, is the one with largest y, then smallest x.  It comes back as
    the witness whose window is that set.

    >>> minimal_crowded_subset({4, 6, 7, 8})
    CrowdedWitness(x=1, y=6, window=(6, 7, 8))
    """
    members = frozenset(values)
    if is_uncrowded_set(members):
        raise ValueError(f"{sorted(members)} is uncrowded")
    lo, hi = min(members), max(members)
    found = next(
        (
            (x, y)
            for y in range(hi - 2, lo - 1, -1)
            for x in range(1, (hi - y) // 2 + 1)
            if members.issuperset(minimal_crowded_window(x, y))
        ),
        None,
    )
    if found is None:
        raise InvariantViolation(f"crowded set {sorted(members)} holds no standard window")
    x, y = found
    return CrowdedWitness(x, y, window=minimal_crowded_window(x, y))


def classify(w: Permutation) -> CrowdedWitness | None:
    """The crowding verdict for a fully commutative permutation: the
    witness window in the second row of its insertion tableau when w is
    crowded, None when it is uncrowded.  By Thm 4.12 (the ``cor-4.12``
    check), w is uncrowded exactly when it shares that tableau with its
    boolean core.

    >>> classify(Permutation.from_text("41627385")).window
    (6, 7, 8)
    >>> classify(Permutation.from_text("41623785")) is None
    True
    """
    if not is_fully_commutative(w):
        raise ValueError(f"{w.to_text()} is not fully commutative")
    return find_crowded_witness(row2(w))


@dataclass(frozen=True, slots=True)
class TransitionReport:
    """What one tableau-changing cover step v -> v*s_i shows.

    ``prefix_max``/``suffix_min`` are the extremes around the swap and
    ``pattern_3142`` the positions of the occurrence they force.
    ``moved_value`` is the entry that moves into the second row, and the
    window [prefix_max, moved_value] then holds ``chain_length + 3``
    second-row entries of P(v*s_i), one more than it may.
    """

    prefix_max: int
    suffix_min: int
    pattern_3142: tuple[int, int, int, int]
    moved_value: int
    chain_length: int


def analyze_transition(v: Permutation, i: int) -> TransitionReport:
    """Witness data for a cover step that changes the insertion tableau
    without changing support.  Such a step always lands on a crowded
    permutation, and every deduction on the way there is checked: a
    broken one raises ``InvariantViolation`` with v, i and its reason.

    >>> report = analyze_transition(Permutation.from_text("41623785"), 5)
    >>> report.prefix_max, report.suffix_min, report.moved_value, report.chain_length
    (6, 5, 8, 0)
    """

    def require(condition: bool, reason: str) -> None:
        if not condition:
            raise ValueError(f"precondition failed: {reason}")

    def demand(condition: bool, reason: str) -> None:
        if not condition:
            raise InvariantViolation(f"{v.to_text()}@{i}: {reason}")

    require(is_fully_commutative(v), f"{v.to_text()} is not fully commutative")
    require(1 <= i <= v.n - 1, f"index {i} out of range 1..{v.n - 1}")
    require(v(i) < v(i + 1), f"{i} is not an ascent of {v.to_text()}")
    w = v.times(i)
    require(is_fully_commutative(w), f"{w.to_text()} is not fully commutative")
    require(i in v.support(), f"{i} is not in the support of {v.to_text()}")
    rv, rw = rsk(v), rsk(w)
    require(rv.p != rw.p, f"the insertion tableau does not change at index {i}")

    prefix_max, suffix_min = v.support_stats(i)
    pos = {val: p for p, val in enumerate(v.image, start=1)}

    # the extremes straddle the swapped pair as a 3142 occurrence
    demand(
        v(i) < suffix_min < prefix_max < v(i + 1),
        "expected v(i) < suffix_min < prefix_max < v(i+1)",
    )
    pattern = (pos[prefix_max], i, i + 1, pos[suffix_min])

    # the stretches next to the swap are increasing and squeezed by the extremes
    run_before = tuple(v(p) for p in range(pos[prefix_max] + 1, i))
    run_after = tuple(v(p) for p in range(i + 2, pos[suffix_min]))
    demand(len(run_before) >= 1, "run before the swap is empty")
    demand(len(run_after) >= 1, "run after the swap is empty")
    chain = run_before + (v(i), suffix_min, prefix_max, v(i + 1)) + run_after
    demand(all(a < b for a, b in zip(chain, chain[1:])), "squeezed runs are not increasing")

    row2_v, row2_w = set(rv.p.row(2)), set(rw.p.row(2))
    moved = set(rv.p.row(1)) & row2_w
    demand(len(moved) == 1, f"expected a unique value moving to row 2, got {sorted(moved)}")
    moved_value = moved.pop()

    bumped_by_v = rv.trace.row_bump_map()
    bumped_by_w = rw.trace.row_bump_map()

    # the prefix maximum is pushed down by the run before the swap, same in both
    demand(
        bumped_by_v.get(prefix_max) in set(run_before),
        "prefix_max not bumped by the run before the swap",
    )
    demand(
        bumped_by_w.get(prefix_max) == bumped_by_v.get(prefix_max),
        "prefix_max bumped differently after the swap",
    )
    # the suffix minimum pushes v(i+1) down on the unswapped side
    demand(bumped_by_v.get(v(i + 1)) == suffix_min, "v(i+1) is not bumped by suffix_min")
    # the moved value sits after the swap and never displaces anyone
    demand(pos[moved_value] > i + 1, "moved value appears before the swap")
    demand(
        rv.trace.paths[pos[moved_value] - 1] == (moved_value,),
        "moved value displaces something in P(v)",
    )

    # chain of first-insertion columns starting at v(i+1)
    col_v, col_w = rv.trace.first_column, rw.trace.first_column
    base = col_v[v(i + 1)]
    for offset, value in enumerate(run_after, start=1):
        demand(col_v[value] == base + offset, f"run column drifts at {value}")
    first_in_column: dict[int, int] = {}
    for value in v.image:
        first_in_column.setdefault(col_v[value], value)

    def chain_value(k: int) -> int | None:
        if k == 0:
            return v(i + 1)
        if k <= len(run_after):
            return run_after[k - 1]
        return first_in_column.get(base + k)

    demand(v(i + 1) in row2_v, "v(i+1) missed row 2 of P(v)")
    r = 0
    while chain_value(r + 1) in row2_v:
        r += 1
    tail = chain_value(r + 1)
    demand(tail is not None, f"no value lands in column {base + r + 1} of P(v)")
    column_chain = tuple(chain_value(k) for k in range(r + 2))

    # the chain ends exactly at the moved value, one past the last row-2 link
    demand(
        tail == moved_value,
        f"chain ends at {tail}, not at the moved value {moved_value}",
    )
    demand(
        moved_value == column_chain[r] + 1,
        "moved value is not adjacent to the last chain link",
    )

    bumpers = [suffix_min] + [bumped_by_v[column_chain[k]] for k in range(1, r + 1)]
    demand(all(a < b for a, b in zip(bumpers, bumpers[1:])), "bumpers are not increasing")
    demand(
        all(pos[a] < pos[b] for a, b in zip(bumpers, bumpers[1:])),
        "bumpers are not left to right",
    )
    # after the swap the suffix minimum pushes down the next chain link instead
    demand(
        bumped_by_w.get(column_chain[1]) == suffix_min,
        "suffix_min does not bump the next link in P(w)",
    )
    for t in bumpers:
        demand(col_w[t] == col_v[t], f"bumper {t} changes first column after the swap")

    # the window [prefix_max, moved_value] is short but rich in row-2 entries
    demand(column_chain[r] - prefix_max <= 2 * r + 1, "window is too wide for the chain")
    packed = {prefix_max, *column_chain[: r + 1]}
    demand(
        packed <= row2_v and len(packed) == r + 2,
        f"expected {r + 2} second-row entries in the window",
    )
    inside_w = sum(prefix_max <= z <= moved_value for z in row2_w)
    demand(
        inside_w >= r + 3,
        f"second row of P(w) is not overfull on {(prefix_max, moved_value)}",
    )
    demand(classify(w) is not None, "transition target is not crowded")

    return TransitionReport(prefix_max, suffix_min, pattern, moved_value, r)


_PATTERN_415263 = Permutation((4, 1, 5, 2, 6, 3))
_PATTERN_315264 = Permutation((3, 1, 5, 2, 6, 4))


def _ranks(values) -> tuple[int, ...]:
    """The pattern that distinct values form: each one's rank among them."""
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


@dataclass(frozen=True, slots=True)
class MinimalityReport:
    """Outcome of the five-part direct test for minimal crowdedness.

    ``descent_start``/``descent_count`` hold d and k when the descent set is
    {d, d+2, .., d+2k}; the window conditions are only meaningful then.
    """

    minimal: bool
    descent_form: bool
    descent_values_crowded: bool
    fixed_outside: bool
    pattern_consecutive: bool
    window_patterns: bool
    descent_start: int | None
    descent_count: int | None


def is_minimal_crowded_direct(w: Permutation) -> MinimalityReport:
    """Direct characterization of the minimal crowded permutations.

    The five conditions: descents form {d, d+2, .., d+2k} with k >= 2; the
    values at those descents form a crowded set; everything outside
    [d, d+2k+1] is fixed; 415263 occurs and only consecutively; and each
    six-letter window starting at a descent is a 415263 or 315264 pattern.

    >>> is_minimal_crowded_direct(Permutation.from_text("41627385")).minimal
    True
    """
    if not is_fully_commutative(w):
        raise ValueError(f"{w.to_text()} is not fully commutative")
    descents = sorted(w.descents())
    descent_form = (
        len(descents) >= 3
        and all(b - a == 2 for a, b in zip(descents, descents[1:]))
    )

    if descent_form:
        d, k = descents[0], len(descents) - 1
        descent_values = {w(p) for p in descents}
        inside = range(d, d + 2 * k + 2)
        fixed_outside = all(
            w(p) == p for p in range(1, w.n + 1) if p not in inside
        )
        window_patterns = all(
            _ranks(w.image[start - 1 : start + 5])
            in (_PATTERN_415263.image, _PATTERN_315264.image)
            for start in range(d, d + 2 * k - 2, 2)
        )
    else:
        d = k = None
        descent_values = set(row2(w))
        fixed_outside = window_patterns = False
    descent_values_crowded = find_crowded_witness(descent_values) is not None

    if w.n >= _PATTERN_415263.n:
        # stop at the first spread-out occurrence: a large input has
        # on the order of n^6 of them
        occurrences = iter_occurrences(w, _PATTERN_415263)
        first = next(occurrences, None)
        pattern_consecutive = first is not None and all(
            occ[-1] - occ[0] == 5 for occ in chain((first,), occurrences)
        )
    else:
        pattern_consecutive = False

    minimal = (
        descent_form
        and descent_values_crowded
        and fixed_outside
        and pattern_consecutive
        and window_patterns
    )
    return MinimalityReport(
        minimal=minimal,
        descent_form=descent_form,
        descent_values_crowded=descent_values_crowded,
        fixed_outside=fixed_outside,
        pattern_consecutive=pattern_consecutive,
        window_patterns=window_patterns,
        descent_start=d,
        descent_count=k,
    )
