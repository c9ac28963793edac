"""Named exhaustive verification checks.

Each check sweeps a whole symmetric group (or its fully commutative part)
and confirms one structural fact this library relies on.  A check is a
generator over the degree ``n`` that yields one verdict per case: ``None``
when the case holds, or the counterexample text when it fails.  ``CHECKS``
maps each check id accepted by ``fcperm verify`` to the degree the check is
normally run at and its generator; ``run_check`` picks the degree, counts
the cases, stops at the first counterexample and builds the ``CheckResult``.
A ``ValueError`` raised while a sweep runs, such as a library call refusing
a case that breaks its precondition, is that case's counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Iterator

from .crowding import (
    analyze_transition, classify, find_crowded_witness, is_minimal_crowded_direct,
    minimal_crowded_subset,
)
from .heaps import boolean_core, heap_of, labeled_linear_extensions
from .patterns import is_boolean, is_fully_commutative
from .permutations import Permutation, all_permutations, descent_swaps
from .rsk import bump_pairs, row2, rsk
from .weak_order import (
    DEFAULT_POSET_BOUND, fc_covers, fc_elements, knuth_neighbors, principal_ideal,
    require_degree_within, uncrowded_frontier,
)
from .words import BoundExceeded, all_reduced_words

# one verdict per case: None when it holds, else the counterexample
Verdicts = Iterator[str | None]


@dataclass(frozen=True, slots=True)
class CheckResult:
    check: str
    n: int
    passed: bool
    cases: int
    counterexample: str | None = None

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.check} @ S_{self.n}: {status} ({self.cases} cases)"
        if self.counterexample:
            line += f" counterexample: {self.counterexample}"
        return line


# -- oracles used only inside checks ---------------------------------------


def _lis_ending(seq: tuple[int, ...]) -> list[int]:
    """The length of a longest increasing subsequence of ``seq`` ending at
    each position, by direct dynamic programming, independent of insertion.

    >>> _lis_ending((4, 1, 6, 2, 3, 7, 8, 5))
    [1, 1, 2, 2, 3, 4, 5, 4]
    """
    best: list[int] = []
    for v in seq:
        length = 0
        for b, u in zip(best, seq):
            if u < v and b > length:
                length = b
        best.append(length + 1)
    return best


def _longest_increasing(
    seq: tuple[int, ...], best: list[int] | None = None
) -> list[tuple[int, ...]]:
    """Every longest increasing subsequence of ``seq``, as value tuples,
    traced back through ``best``, its ``_lis_ending`` table, which is
    computed here when the caller does not already hold it.

    >>> sorted(_longest_increasing((2, 1, 3)))
    [(1, 3), (2, 3)]
    """
    if best is None:
        best = _lis_ending(seq)
    out: list[tuple[int, ...]] = []

    def extend(k: int, tail: tuple[int, ...]) -> None:
        tail = (seq[k],) + tail
        if best[k] == 1:
            out.append(tail)
        for t in range(k):
            if seq[t] < seq[k] and best[t] == best[k] - 1:
                extend(t, tail)

    target = max(best, default=0)
    for k in range(len(seq)):
        if best[k] == target:
            extend(k, ())
    return out


def _two_row_standard_tableaux(n: int) -> set[tuple[tuple[int, ...], ...]]:
    out: set[tuple[tuple[int, ...], ...]] = set()
    values = range(1, n + 1)
    for k in range(0, n // 2 + 1):
        for second in combinations(values, k):
            first = tuple(v for v in values if v not in second)
            if all(first[c] < second[c] for c in range(k)):
                out.add((first, second) if k else (first,))
    return out


def _commutation_classes() -> Callable[[tuple[int, ...]], int]:
    """A memo of h(w), the number of commutation classes of the reduced
    words of w, keyed by image; each sweep makes its own.

    The maximal elements of a heap of w carry pairwise commuting letters,
    all of them right descents of w, and removing a set J of them leaves a
    heap of w*w_J, where w_J is the product of the s_d for d in J.  By
    Möbius inversion in the trace monoid (Cartier and Foata, *Problèmes
    combinatoires de commutation et réarrangements*, 1969), h(id) = 1 and
    h(w) is the sum of (-1)^(|J|+1) h(w*w_J) over the nonempty sets J of
    pairwise non-adjacent right descents.  The descents of w are read
    once, from ``descent_swaps``: the swaps of J leave every descent
    d >= max(J) + 2 of w a descent of w*w_J, so each set grows upward
    from them.  No heap, word or 321 test is read.

    >>> classes = _commutation_classes()
    >>> classes((3, 2, 1)), classes((2, 1, 4, 3)), classes((4, 3, 2, 1))
    (2, 1, 8)
    """

    @cache
    def classes(image: tuple[int, ...]) -> int:
        descents = [d for d, _ in descent_swaps(image)]
        total = 0
        # (w*w_J, the least descent J may still take, the sign of J with one more)
        pending = [(image, 1, 1)]
        while pending:
            lower, low, sign = pending.pop()
            for d in descents:
                if d >= low:
                    smaller = lower[: d - 1] + (lower[d], lower[d - 1]) + lower[d + 1 :]
                    total += sign * classes(smaller)
                    pending.append((smaller, d + 2, -sign))
        return total or 1  # only the identity has no descent, and one class

    return classes


# -- the checks --------------------------------------------------------------


def _lemma_2_1(n: int) -> Verdicts:
    """Support membership matches the prefix-max / suffix-min tests.

    The last n - i entries are {i+1..n} exactly when the first i are
    {1..i}, so the suffix set is not compared: it could never disagree
    with the prefix set.
    """
    heads = [set(range(1, i + 1)) for i in range(n)]  # heads[i] = {1..i}
    for w in all_permutations(n):
        supp = w.support()
        for i in range(1, n):
            prefix_max, suffix_min = w.support_stats(i)
            verdicts = {
                i in supp,
                set(w.image[:i]) != heads[i],
                prefix_max > i,
                suffix_min < i + 1,
                prefix_max > suffix_min,
            }
            yield None if len(verdicts) == 1 else f"{w.to_text()} at {i}"


def _prop_2_2_verdicts(n: int) -> Iterator[tuple[Permutation, bool, bool, bool]]:
    """(w, fc, braid_free, single) for every w in S_n, listing no words.

    A braid factor a b a is found by peeling descents from the right end of
    the word, memoized on (image, last two letters peeled) for the sweep.
    """

    @cache
    def has_braid(image: tuple[int, ...], older: int, newer: int) -> bool:
        return any(
            (d == older and abs(newer - d) == 1) or has_braid(lower, newer, d)
            for d, lower in descent_swaps(image)
        )

    classes = _commutation_classes()
    for w in all_permutations(n):
        yield w, is_fully_commutative(w), not has_braid(w.image, 0, 0), classes(w.image) == 1


def _prop_2_2(n: int) -> Verdicts:
    """321-avoidance, single commutation class, and no braid factor agree."""
    for w, fc, braid_free, single in _prop_2_2_verdicts(n):
        yield None if fc == braid_free == single else (
            f"{w.to_text()}: fc={fc} braid_free={braid_free} single={single}"
        )


def _prop_2_3_verdicts(n: int) -> Iterator[tuple[Permutation, bool, bool, bool]]:
    """(w, boolean, some word distinct-lettered, every word distinct-lettered)
    for every w in S_n, listing no words.

    Peels descents memoized on (image, letters used so far as a bitmask) for
    the sweep, answering at once whether some completion repeats no letter
    and whether some completion repeats one.
    """

    @cache
    def letter_use(image: tuple[int, ...], used: int) -> tuple[bool, bool]:
        lower_covers = list(descent_swaps(image))
        some_distinct, some_repeated = not lower_covers, False
        for d, lower in lower_covers:
            if used >> d & 1:
                some_repeated = True
            else:
                distinct, repeated = letter_use(lower, used | 1 << d)
                some_distinct |= distinct
                some_repeated |= repeated
        return some_distinct, some_repeated

    for w in all_permutations(n):
        some_distinct, some_repeated = letter_use(w.image, 0)
        yield w, is_boolean(w), some_distinct, not some_repeated


def _prop_2_3(n: int) -> Verdicts:
    """Boolean, some word distinct-lettered, and all words distinct agree."""
    for w, boolean, some_distinct, all_distinct in _prop_2_3_verdicts(n):
        yield None if boolean == some_distinct == all_distinct else (
            f"{w.to_text()}: boolean={boolean} some={some_distinct} all={all_distinct}"
        )


def _lemma_2_5(n: int) -> Verdicts:
    """Heap covers always join labels differing by exactly one."""
    for w in fc_elements(n):
        heap = heap_of(w)
        for x, y in heap.covers:
            ok = abs(heap.label(x) - heap.label(y)) == 1
            yield None if ok else f"{w.to_text()} cover {(x, y)}"


def _prop_2_7(n: int) -> Verdicts:
    """Labeled linear extensions of the heap are the reduced-word set."""
    bound = n * (n - 1) // 2
    for w in fc_elements(n):
        if w.is_identity():
            continue
        words = all_reduced_words(w, bound=bound)
        extensions = labeled_linear_extensions(heap_of(w), bound=bound)
        yield None if words == extensions else w.to_text()


def _prop_2_9(n: int) -> Verdicts:
    """The insertion tableau of the inverse is the recording tableau.

    Each pair {w, w^-1} is inserted once, when the sweep first reaches it:
    w's verdict is given then, and w^-1's is kept, keyed by its image,
    until the sweep gets there.  An involution is its own pair, so its P
    is compared with its own Q.
    """
    kept: dict[tuple[int, ...], bool] = {}
    for w in all_permutations(n):
        holds = kept.pop(w.image, None)
        if holds is None:
            v = w.inverse()
            result = rsk(w)
            if v.image == w.image:
                holds = result.p == result.q
            else:
                inverse = rsk(v)
                holds = inverse.p == result.q
                kept[v.image] = result.p == inverse.q
        yield None if holds else w.to_text()


def _thm_2_10(n: int) -> Verdicts:
    """First row and column lengths match the longest monotone runs."""
    for w in all_permutations(n):
        p = rsk(w).p
        rows = len(p.rows)
        if len(p.row(1)) != max(_lis_ending(w.image)):
            yield f"{w.to_text()} (row)"
        elif rows != max(_lis_ending(w.image[::-1])):
            yield f"{w.to_text()} (column)"
        elif is_fully_commutative(w) != (rows <= 2):
            yield f"{w.to_text()} (two-row test)"
        else:
            yield None


def _lemma_2_11(n: int) -> Verdicts:
    """An inserted letter evicts a larger, earlier letter from row 1.

    The whole bumping route increases, but its later displacements can sit
    either way around in the one-line notation, so the position claim is
    only about row 1.
    """
    for w in all_permutations(n):
        pos = {val: p for p, val in enumerate(w.image, start=1)}
        for path in rsk(w).trace.paths:
            if len(path) == 1:
                continue
            b, z = path[:2]
            if not (b < z and pos[b] > pos[z]):
                yield f"{w.to_text()} bump {(b, z)}"
            elif any(a >= c for a, c in zip(path, path[1:])):
                yield f"{w.to_text()} cascade"
            else:
                yield None


def _lemma_2_12(n: int) -> Verdicts:
    """First-insertion column equals the longest increasing run ending there."""
    for w in all_permutations(n):
        first_column = rsk(w).trace.first_column
        lis_ending = dict(zip(w.image, _lis_ending(w.image)))
        for q in range(1, n + 1):
            ok = first_column[q] == lis_ending[q]
            yield None if ok else f"{w.to_text()} value {q}"


def _cor_lis(n: int) -> Verdicts:
    """A value alone in its first-insertion column lies on every longest
    increasing subsequence.  Its column is also compared with the longest
    increasing run ending at it, so columns that are all off by the same
    amount cannot pass.

    Supports Lemma 2.12 (the column is the longest run ending at the
    value), from which it follows, and Cor 3.5, whose "every longest run
    uses the pair" it states for one value."""
    for w in all_permutations(n):
        trace = rsk(w).trace
        counts: dict[int, int] = {}
        for q, col in trace.first_column.items():
            counts[col] = counts.get(col, 0) + 1
        best = _lis_ending(w.image)
        lis_ending = dict(zip(w.image, best))
        longest = _longest_increasing(w.image, best)
        for q, col in trace.first_column.items():
            if counts[col] == 1:
                ok = col == lis_ending[q] and all(q in subseq for subseq in longest)
                yield None if ok else f"{w.to_text()} value {q}"


def _lemma_row2(n: int) -> Verdicts:
    """Second-row structure of two-row insertion: the bumped values appear
    left to right, bumpers are increasing and disjoint from them, and bumps
    happen in second-row order.

    Supports Lemma 2.11 (a bump moves a larger, earlier value), here for
    the whole second row of a fully commutative element, and the bump
    pairs that Lemmas 5.7 and 5.8 read."""
    for w in fc_elements(n):
        pairs = bump_pairs(w)
        zs = [z for _, z in pairs]
        bs = [b for b, _ in pairs]
        pos = {val: p for p, val in enumerate(w.image, start=1)}
        ok = (
            zs == sorted(zs)
            and list(row2(w)) == sorted(zs)
            and all(pos[a] < pos[b] for a, b in zip(zs, zs[1:]))
            and not (set(zs) & set(bs))
            and bs == sorted(bs)
            and all(pos[a] < pos[b] for a, b in zip(bs, bs[1:]))
        )
        yield None if ok else w.to_text()


def _lemma_3_1(n: int) -> Verdicts:
    """Equal-label heap elements are separated by both adjacent labels.

    "Between" reads the order ``below``, so each pair also requires that
    order to be transitive; a heap of direct relations only passes the
    label test."""
    for w in fc_elements(n):
        heap = heap_of(w)
        transitive = all(heap.below[x - 1] <= below for below in heap.below for x in below)
        for j in set(heap.labels):
            chain = heap.elements_with_label(j)
            for x, y in combinations(chain, 2):
                lo, hi = (x, y) if heap.less(x, y) else (y, x)
                between = {
                    heap.label(z)
                    for z in range(1, heap.size + 1)
                    if heap.less(lo, z) and heap.less(z, hi)
                }
                if not {j - 1, j + 1} <= between:
                    yield f"{w.to_text()} label {j} pair {(lo, hi)}"
                elif not transitive:
                    yield f"{w.to_text()} (order not transitive)"
                else:
                    yield None


def _thm_3_2(n: int) -> Verdicts:
    """The boolean core exists, splits the length, keeps the support, and is
    the unique maximal same-support boolean below.

    Only uniqueness is compared, since maximality follows from it: the
    support only grows up the right weak order, so a boolean c with
    core <= c <= w has supp(w) = supp(core) inside supp(c) inside supp(w),
    and then c, having w's support, is the core.  Ideals overlap, so the
    boolean test and the support are worked out once per element.
    """
    boolean = cache(is_boolean)
    support = cache(Permutation.support)
    for w in fc_elements(n):
        dec = boolean_core(w)
        supp = support(w)
        same_support = {b for b in principal_ideal(w) if boolean(b) and support(b) == supp}
        if not (
            boolean(dec.core)
            and support(dec.core) == supp
            and dec.core.length() + dec.remainder.length() == w.length()
            and dec.core.compose(dec.remainder) == w
        ):
            yield w.to_text()
        elif same_support != {dec.core}:
            yield f"{w.to_text()} (uniqueness)"
        else:
            yield None


def _thm_3_4(n: int) -> Verdicts:
    """Second rows only grow along fully commutative covers."""
    p_of = cache(lambda w: rsk(w).p)
    for v, w, _i in fc_covers(n):
        pv, pw = p_of(v), p_of(w)
        if not set(pv.row(2)) <= set(pw.row(2)):
            yield f"{v.to_text()} -> {w.to_text()}"
        elif not set(pv.row(1)) >= set(pw.row(1)):
            yield f"{v.to_text()} -> {w.to_text()} (row 1)"
        else:
            yield None


def _cor_3_5(n: int) -> Verdicts:
    """The tableau changes along a cover exactly when every longest
    increasing run uses both swapped letters, and then row 2 grows by one."""
    p_of = cache(lambda w: rsk(w).p)
    longest = cache(lambda v: _longest_increasing(v.image))  # once per lower end
    for v, w, i in fc_covers(n):
        changed = p_of(v) != p_of(w)
        both = all(v(i) in subseq and v(i + 1) in subseq for subseq in longest(v))
        if changed != both:
            yield f"{v.to_text()} at {i}"
        elif changed and len(row2(w)) != len(row2(v)) + 1:
            yield f"{v.to_text()} at {i} (row growth)"
        else:
            yield None


def _cor_3_7(n: int) -> Verdicts:
    """The core's second row sits inside the element's second row."""
    for w in fc_elements(n):
        core = boolean_core(w).core
        yield None if set(row2(core)) <= set(row2(w)) else w.to_text()


def _thm_4_11(n: int) -> Verdicts:
    """Tableau-changing, support-preserving covers always land crowded,
    with every intermediate deduction intact: ``analyze_transition``
    raises on a broken one, the crowded target last among them."""
    p_of = cache(lambda w: rsk(w).p)
    for v, w, i in fc_covers(n):
        if i not in v.support() or p_of(v) == p_of(w):
            continue
        analyze_transition(v, i)
        yield None


def _cor_4_12(n: int) -> Verdicts:
    """Uncrowded means sharing the insertion tableau with the core."""
    p_of = cache(lambda w: rsk(w).p)  # boolean cores are fully commutative too
    for w in fc_elements(n):
        uncrowded = classify(w) is None
        same = p_of(boolean_core(w).core) == p_of(w)
        yield None if uncrowded == same else w.to_text()


def _prop_2_14(n: int) -> Verdicts:
    """Boolean insertion tableaux are exactly the uncrowded two-row ones."""
    boolean_tableaux = {rsk(w).p.rows for w in fc_elements(n) if is_boolean(w)}
    uncrowded_tableaux = {
        rows
        for rows in _two_row_standard_tableaux(n)
        if find_crowded_witness(rows[1] if len(rows) > 1 else ()) is None
    }
    for rows in sorted(boolean_tableaux | uncrowded_tableaux):
        boolean, uncrowded = rows in boolean_tableaux, rows in uncrowded_tableaux
        yield None if boolean == uncrowded else (
            f"tableau {rows}: boolean={boolean} uncrowded={uncrowded}"
        )


def _lemma_5_1(n: int) -> Verdicts:
    """Uncrowded elements form an order ideal, crowded ones a filter."""
    crowded = cache(lambda w: classify(w) is not None)  # each element ends many covers
    for v, w, _i in fc_covers(n):
        if crowded(v) and not crowded(w):
            yield f"{v.to_text()} -> {w.to_text()}"
        else:
            yield None


def _lemma_5_2(n: int) -> Verdicts:
    """A descent whose right letter does not bump its left letter leaves
    the insertion tableau unchanged."""
    rsk_of = cache(rsk)  # lower covers are fully commutative too
    for w in fc_elements(n):
        result = rsk_of(w)
        bumped_by = result.trace.row_bump_map()
        for d in w.descents():
            if bumped_by.get(w(d)) == w(d + 1):
                continue
            yield None if result.p == rsk_of(w.times(d)).p else f"{w.to_text()} at {d}"


def _lemma_5_4(n: int) -> Verdicts:
    """A descent followed by a smaller letter leaves the tableau unchanged."""
    p_of = cache(lambda w: rsk(w).p)  # lower covers are fully commutative too
    for w in fc_elements(n):
        for d in w.descents():
            if d + 2 > n or w(d + 2) >= w(d):
                continue
            yield None if p_of(w) == p_of(w.times(d)) else f"{w.to_text()} at {d}"


def _knuth_classes(n: int) -> Verdicts:
    """Connected components under Knuth relations are the insertion fibers:
    each fiber lies in one component, and no two fibers share one.

    Supports Lemmas 5.2 and 5.4: this is Knuth's theorem, which makes a
    descent that is a Knuth move keep the insertion tableau."""
    component: dict[Permutation, Permutation] = {}
    for w in all_permutations(n):
        if w in component:
            continue
        frontier = [w]
        component[w] = w
        while frontier:
            current = frontier.pop()
            for neighbor in knuth_neighbors(current):
                if neighbor not in component:
                    component[neighbor] = w
                    frontier.append(neighbor)
    fibers: dict[tuple, set[Permutation]] = {}
    for w in all_permutations(n):
        fibers.setdefault(rsk(w).p.rows, set()).add(w)
    claimed: set[Permutation] = set()
    for members in fibers.values():
        roots = {component[w] for w in members}
        if len(roots) != 1 or roots & claimed:
            yield f"fiber of {min(members, key=lambda w: w.image).to_text()}"
        else:
            claimed |= roots
            yield None


def _cor_left_q(n: int) -> Verdicts:
    """Along left-order covers of fully commutative elements, the second
    rows of the recording tableaux grow.

    Supports Thm 3.4 (second rows grow along right covers), read through
    Prop 2.9: Q(w) is P of the inverse, and a left cover of w is a right
    cover of its inverse."""
    q_of = cache(lambda w: rsk(w).q)  # each upper end is also some v of the sweep
    for v in fc_elements(n):
        inverse, length = v.inverse(), v.length()
        for i in range(1, n):
            w = inverse.times(i).inverse()  # left multiplication by s_i
            if w.length() != length + 1 or not is_fully_commutative(w):
                continue
            ok = set(q_of(v).row(2)) <= set(q_of(w).row(2))
            yield None if ok else f"{v.to_text()} at {i}"


def _downward_closure(n: int) -> Verdicts:
    """Sorting a descent of a fully commutative element stays fully
    commutative.

    Supports Lemma 5.1 and the poset of Section 5: the fully commutative
    elements form an order ideal of the right weak order, as Prop 2.2 gives
    (a reduced word with no braid factor has none in its prefixes)."""
    for w in fc_elements(n):
        for d in sorted(w.descents()):
            yield None if is_fully_commutative(w.times(d)) else f"{w.to_text()} at {d}"


def _cor_5_5(n: int) -> Verdicts:
    """In a minimal crowded element, descents and adjacent bumps coincide."""
    for w in uncrowded_frontier(n):
        bumped_by = rsk(w).trace.row_bump_map()
        descents = w.descents()
        pos = {val: p for p, val in enumerate(w.image, start=1)}
        bad_descents = (
            d for d in range(1, n) if (d in descents) != (bumped_by.get(w(d)) == w(d + 1))
        )
        bad_bumps = (z for z in row2(w) if bumped_by.get(z) != w(pos[z] + 1))
        if (d := next(bad_descents, None)) is not None:
            yield f"{w.to_text()} at {d}"
        elif (z := next(bad_bumps, None)) is not None:
            yield f"{w.to_text()} value {z}"
        else:
            yield None


def _cor_5_6(n: int) -> Verdicts:
    """A minimal crowded element fixes everything outside its descent span.

    Each element the frontier returns is first confirmed through
    ``classify`` to be crowded with no crowded lower cover, so a frontier
    that decides on a wrong second row cannot pass on vacuous descents.
    """
    for w in uncrowded_frontier(n):
        descents = sorted(w.descents())
        if classify(w) is None or any(classify(w.times(d)) is not None for d in descents):
            yield f"{w.to_text()} (not minimal crowded)"
            continue
        d, last = descents[0], descents[-1]
        outside = list(range(1, d)) + list(range(last + 2, n + 1))
        yield None if all(w(p) == p for p in outside) else w.to_text()


def _lemma_5_7(n: int) -> Verdicts:
    """The interleaved bumped/bumper word is consecutive in the one-line
    notation of a minimal crowded element."""
    for w in uncrowded_frontier(n):
        pairs = bump_pairs(w)
        interleaved = tuple(x for b, z in pairs for x in (z, b))
        pos = {val: p for p, val in enumerate(w.image, start=1)}
        start = pos[interleaved[0]]
        window = w.image[start - 1 : start - 1 + len(interleaved)]
        yield None if window == interleaved else w.to_text()


def _lemma_5_8(n: int) -> Verdicts:
    """Bumpers eventually overtake earlier bumped values: z_i < b_{i+3}."""
    for w in uncrowded_frontier(n):
        pairs = bump_pairs(w)
        for i in range(len(pairs) - 3):
            yield None if pairs[i][1] < pairs[i + 3][0] else f"{w.to_text()} index {i + 1}"


def _cor_5_9(n: int) -> Verdicts:
    """A minimal crowded element has exactly one inclusion-minimal crowded
    subset of its second row, and it contains the largest entry."""
    for w in uncrowded_frontier(n):
        second = row2(w)
        crowded_subsets = [
            frozenset(s)
            for size in range(1, len(second) + 1)
            for s in combinations(second, size)
            if find_crowded_witness(s) is not None
        ]
        minimal = [s for s in crowded_subsets if not any(t < s for t in crowded_subsets)]
        if len(minimal) != 1 or max(second) not in minimal[0]:
            yield w.to_text()
        elif frozenset(minimal_crowded_subset(second).window) != minimal[0]:
            yield f"{w.to_text()} (extractor mismatch)"
        else:
            yield None


def _thm_5_10(n: int) -> Verdicts:
    """The five-condition test agrees with poset minimality, as the walk in
    ``uncrowded_frontier`` finds it."""
    by_poset = set(uncrowded_frontier(n))
    for w in fc_elements(n):
        by_conditions = is_minimal_crowded_direct(w).minimal
        yield None if (w in by_poset) == by_conditions else w.to_text()


CHECKS: dict[str, tuple[int, Callable[[int], Verdicts]]] = {
    "lemma-2.1": (7, _lemma_2_1),
    "prop-2.2": (7, _prop_2_2),
    "prop-2.3": (7, _prop_2_3),
    "lemma-2.5": (7, _lemma_2_5),
    "prop-2.7": (6, _prop_2_7),
    "prop-2.9": (7, _prop_2_9),
    "thm-2.10": (7, _thm_2_10),
    "lemma-2.11": (6, _lemma_2_11),
    "lemma-2.12": (7, _lemma_2_12),
    "cor-lis": (6, _cor_lis),
    "lemma-row2": (7, _lemma_row2),
    "lemma-3.1": (7, _lemma_3_1),
    "thm-3.2": (7, _thm_3_2),
    "thm-3.4": (8, _thm_3_4),
    "cor-3.5": (7, _cor_3_5),
    "cor-3.7": (8, _cor_3_7),
    "thm-4.11": (9, _thm_4_11),
    "cor-4.12": (8, _cor_4_12),
    "prop-2.14": (7, _prop_2_14),
    "lemma-5.1": (8, _lemma_5_1),
    "lemma-5.2": (7, _lemma_5_2),
    "lemma-5.4": (7, _lemma_5_4),
    "knuth-classes": (6, _knuth_classes),
    "cor-left-q": (6, _cor_left_q),
    "downward-closure": (8, _downward_closure),
    "cor-5.5": (9, _cor_5_5),
    "cor-5.6": (9, _cor_5_6),
    "lemma-5.7": (9, _lemma_5_7),
    "lemma-5.8": (9, _lemma_5_8),
    "cor-5.9": (9, _cor_5_9),
    "thm-5.10": (8, _thm_5_10),
}


def run_check(name: str, n: int | None = None) -> CheckResult:
    """Run one registered check, at its default degree unless told otherwise.

    >>> run_check("thm-4.11").summary()
    'thm-4.11 @ S_9: pass (102 cases)'
    """
    if name not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        raise ValueError(f"unknown check {name!r}; known checks: {known}")
    default_n, sweep = CHECKS[name]
    n = default_n if n is None else n
    if n > DEFAULT_POSET_BOUND:  # verify has no --bound to raise
        raise BoundExceeded(
            f"degree {n} exceeds bound {DEFAULT_POSET_BOUND};"
            f" verify sweeps S_n only up to n = {DEFAULT_POSET_BOUND}"
        )
    require_degree_within(n, DEFAULT_POSET_BOUND)
    cases, counterexample = 0, None
    try:
        for verdict in sweep(n):
            cases += 1
            if verdict is not None:
                counterexample = verdict
                break
    except ValueError as exc:  # the case being decided raised it
        cases += 1
        counterexample = str(exc)
    return CheckResult(name, n, counterexample is None, cases, counterexample)
