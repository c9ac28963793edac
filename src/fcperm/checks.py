"""Named exhaustive verification checks.

Each check sweeps a whole symmetric group (or its fully commutative part)
and confirms one structural fact this library relies on, reporting the
first counterexample if there is one.  The registry keys are the check ids
accepted by ``fcperm verify``; ``DEFAULT_SCOPES`` records the degree each
check is normally run at.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from .crowding import (
    classify,
    find_crowded_witness,
    is_minimal_crowded_direct,
    analyze_transition,
    minimal_crowded_subset,
)
from .heaps import (
    boolean_core,
    build_heap,
    count_linear_extensions,
    heap_of,
    labeled_linear_extensions,
)
from .patterns import is_boolean, is_fully_commutative
from .permutations import Permutation, all_permutations
from .rsk import (
    bump_pairs,
    lis_ending_at,
    max_increasing_subsequences,
    row2,
    rsk,
)
from .weak_order import (
    build_fc_poset,
    down_covers,
    fc_elements,
    knuth_neighbors,
    principal_ideal,
    right_weak_leq,
    uncrowded_frontier,
    up_covers,
)
from .words import all_reduced_words, canonical_reduced_word, count_reduced_words


@dataclass(frozen=True)
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


def _done(check: str, n: int, cases: int) -> CheckResult:
    return CheckResult(check=check, n=n, passed=True, cases=cases)


def _fail(check: str, n: int, cases: int, counterexample: str) -> CheckResult:
    return CheckResult(
        check=check, n=n, passed=False, cases=cases, counterexample=counterexample
    )


# -- oracles used only inside checks ---------------------------------------


def _longest_monotone(values, increasing: bool) -> int:
    seq = list(values)
    n = len(seq)
    best = [1] * n
    for k in range(n):
        for t in range(k):
            if (seq[t] < seq[k]) == increasing and seq[t] != seq[k]:
                best[k] = max(best[k], best[t] + 1)
    return max(best, default=0)


def _fc_cover_pairs(n: int) -> Iterator[tuple[Permutation, Permutation, int]]:
    for v in fc_elements(n):
        for edge in up_covers(v):
            if is_fully_commutative(edge.upper):
                yield v, edge.upper, edge.index


def _two_row_standard_tableaux(n: int) -> set[tuple[tuple[int, ...], ...]]:
    out: set[tuple[tuple[int, ...], ...]] = set()
    values = range(1, n + 1)
    for k in range(0, n // 2 + 1):
        for second in combinations(values, k):
            first = tuple(v for v in values if v not in second)
            if all(first[c] < second[c] for c in range(k)):
                out.add((first, second) if k else (first,))
    return out


# -- the checks --------------------------------------------------------------


def check_lemma_2_1(n: int) -> CheckResult:
    """Support membership matches the prefix-max / suffix-min tests."""
    cases = 0
    for w in all_permutations(n):
        supp = w.support()
        for i in range(1, n):
            cases += 1
            stats = w.support_stats(i)
            prefix_set = set(w.image[:i]) != set(range(1, i + 1))
            suffix_set = set(w.image[i:]) != set(range(i + 1, n + 1))
            verdicts = {
                i in supp,
                prefix_set,
                suffix_set,
                stats.prefix_max > i,
                stats.suffix_min < i + 1,
                stats.prefix_max > stats.suffix_min,
            }
            if len(verdicts) != 1:
                return _fail("lemma-2.1", n, cases, f"{w.to_text()} at {i}")
    return _done("lemma-2.1", n, cases)


def _peel(image: tuple[int, ...], d: int) -> tuple[int, ...]:
    """The image of w * s_d."""
    return image[: d - 1] + (image[d], image[d - 1]) + image[d + 1 :]


def _prop_2_2_verdicts(n: int) -> Iterator[tuple[Permutation, bool, bool, bool]]:
    """(w, fc, braid_free, single) for every w in S_n, listing no words.

    A braid factor a b a is found by peeling descents from the right end of
    the word, memoized on (image, last two letters peeled) for the sweep.
    """
    memo: dict[tuple[tuple[int, ...], int, int], bool] = {}

    def has_braid(image: tuple[int, ...], older: int, newer: int) -> bool:
        key = (image, older, newer)
        found = memo.get(key)
        if found is None:
            found = any(
                (d == older and abs(newer - d) == 1) or has_braid(_peel(image, d), newer, d)
                for d in range(1, n)
                if image[d - 1] > image[d]
            )
            memo[key] = found
        return found

    for w in all_permutations(n):
        class_size = count_linear_extensions(build_heap(canonical_reduced_word(w)))
        single = class_size == count_reduced_words(w)
        yield w, is_fully_commutative(w), not has_braid(w.image, 0, 0), single


def check_prop_2_2(n: int) -> CheckResult:
    """321-avoidance, single commutation class, and no braid factor agree."""
    cases = 0
    for w, fc, braid_free, single in _prop_2_2_verdicts(n):
        cases += 1
        if not (fc == braid_free == single):
            return _fail(
                "prop-2.2",
                n,
                cases,
                f"{w.to_text()}: fc={fc} braid_free={braid_free} single={single}",
            )
    return _done("prop-2.2", n, cases)


def _prop_2_3_verdicts(n: int) -> Iterator[tuple[Permutation, bool, bool, bool]]:
    """(w, boolean, some word distinct-lettered, every word distinct-lettered)
    for every w in S_n, listing no words.

    Peels descents memoized on (image, letters used so far as a bitmask) for
    the sweep, answering at once whether some completion repeats no letter
    and whether some completion repeats one.
    """
    memo: dict[tuple[tuple[int, ...], int], tuple[bool, bool]] = {}

    def letter_use(image: tuple[int, ...], used: int) -> tuple[bool, bool]:
        key = (image, used)
        found = memo.get(key)
        if found is None:
            some_distinct = some_repeated = False
            descents = [d for d in range(1, n) if image[d - 1] > image[d]]
            if not descents:
                some_distinct = True
            for d in descents:
                if used >> d & 1:
                    some_repeated = True
                else:
                    distinct, repeated = letter_use(_peel(image, d), used | 1 << d)
                    some_distinct |= distinct
                    some_repeated |= repeated
            found = memo[key] = (some_distinct, some_repeated)
        return found

    for w in all_permutations(n):
        some_distinct, some_repeated = letter_use(w.image, 0)
        yield w, is_boolean(w), some_distinct, not some_repeated


def check_prop_2_3(n: int) -> CheckResult:
    """Boolean, some word distinct-lettered, and all words distinct agree."""
    cases = 0
    for w, boolean, some_distinct, all_distinct in _prop_2_3_verdicts(n):
        cases += 1
        if not (boolean == some_distinct == all_distinct):
            return _fail(
                "prop-2.3",
                n,
                cases,
                f"{w.to_text()}: boolean={boolean} some={some_distinct} all={all_distinct}",
            )
    return _done("prop-2.3", n, cases)


def check_lemma_2_5(n: int) -> CheckResult:
    """Heap covers always join labels differing by exactly one."""
    cases = 0
    for w in fc_elements(n):
        if w.is_identity():
            continue
        heap = heap_of(w)
        for x, y in heap.covers:
            cases += 1
            if abs(heap.label(x) - heap.label(y)) != 1:
                return _fail("lemma-2.5", n, cases, f"{w.to_text()} cover {(x, y)}")
    return _done("lemma-2.5", n, cases)


def check_prop_2_7(n: int) -> CheckResult:
    """Labeled linear extensions of the heap are the reduced-word set."""
    cases = 0
    bound = n * (n - 1) // 2
    for w in fc_elements(n):
        if w.is_identity():
            continue
        cases += 1
        words = all_reduced_words(w, bound=bound)
        extensions = labeled_linear_extensions(heap_of(w), bound=bound)
        if words != extensions:
            return _fail("prop-2.7", n, cases, w.to_text())
    return _done("prop-2.7", n, cases)


def check_prop_2_9(n: int) -> CheckResult:
    """The insertion tableau of the inverse is the recording tableau."""
    cases = 0
    for w in all_permutations(n):
        cases += 1
        if rsk(w.inverse()).p != rsk(w).q:
            return _fail("prop-2.9", n, cases, w.to_text())
    return _done("prop-2.9", n, cases)


def check_thm_2_10(n: int) -> CheckResult:
    """First row and column lengths match the longest monotone runs."""
    cases = 0
    for w in all_permutations(n):
        cases += 1
        p = rsk(w).p
        rows = len(p.rows)
        if len(p.row(1)) != _longest_monotone(w.image, increasing=True):
            return _fail("thm-2.10", n, cases, f"{w.to_text()} (row)")
        if rows != _longest_monotone(w.image, increasing=False):
            return _fail("thm-2.10", n, cases, f"{w.to_text()} (column)")
        if is_fully_commutative(w) != (rows <= 2):
            return _fail("thm-2.10", n, cases, f"{w.to_text()} (two-row test)")
    return _done("thm-2.10", n, cases)


def check_lemma_2_11(n: int) -> CheckResult:
    """An inserted letter evicts a larger, earlier letter from row 1.

    Down-cascade displacements keep b < z but can sit either way around in
    the one-line notation, so the position claim is only about row 1.
    """
    cases = 0
    for w in all_permutations(n):
        pos = {val: p for p, val in enumerate(w.image, start=1)}
        for step in rsk(w).trace.events:
            if not step.bumps:
                continue
            cases += 1
            b, z, row = step.bumps[0]
            if not (row == 1 and b == step.value and b < z and pos[b] > pos[z]):
                return _fail("lemma-2.11", n, cases, f"{w.to_text()} bump {(b, z)}")
            if any(bb >= zz for bb, zz, _ in step.bumps):
                return _fail("lemma-2.11", n, cases, f"{w.to_text()} cascade")
    return _done("lemma-2.11", n, cases)


def check_lemma_2_12(n: int) -> CheckResult:
    """First-insertion column equals the longest increasing run ending there."""
    cases = 0
    for w in all_permutations(n):
        trace = rsk(w).trace
        for q in range(1, n + 1):
            cases += 1
            if trace.first_column[q] != lis_ending_at(w, q):
                return _fail("lemma-2.12", n, cases, f"{w.to_text()} value {q}")
    return _done("lemma-2.12", n, cases)


def check_cor_lis(n: int) -> CheckResult:
    """A value alone in its first-insertion column lies on every longest
    increasing subsequence."""
    cases = 0
    for w in all_permutations(n):
        trace = rsk(w).trace
        counts: dict[int, int] = {}
        for q, col in trace.first_column.items():
            counts[col] = counts.get(col, 0) + 1
        longest = max_increasing_subsequences(w.image)
        for q, col in trace.first_column.items():
            if counts[col] == 1:
                cases += 1
                if not all(q in subseq for subseq in longest):
                    return _fail("cor-lis", n, cases, f"{w.to_text()} value {q}")
    return _done("cor-lis", n, cases)


def check_lemma_row2(n: int) -> CheckResult:
    """Second-row structure of two-row insertion: the bumped values appear
    left to right, bumpers are increasing and disjoint from them, and bumps
    happen in second-row order."""
    cases = 0
    for w in fc_elements(n):
        cases += 1
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
        if not ok:
            return _fail("lemma-row2", n, cases, w.to_text())
    return _done("lemma-row2", n, cases)


def check_lemma_3_1(n: int) -> CheckResult:
    """Equal-label heap elements are separated by both adjacent labels."""
    cases = 0
    for w in fc_elements(n):
        if w.is_identity():
            continue
        heap = heap_of(w)
        for j in set(heap.labels):
            chain = heap.elements_with_label(j)
            for x, y in combinations(chain, 2):
                lo, hi = (x, y) if heap.less(x, y) else (y, x)
                cases += 1
                between = {
                    heap.label(z)
                    for z in range(1, heap.size + 1)
                    if heap.less(lo, z) and heap.less(z, hi)
                }
                if not {j - 1, j + 1} <= between:
                    return _fail(
                        "lemma-3.1", n, cases, f"{w.to_text()} label {j} pair {(lo, hi)}"
                    )
    return _done("lemma-3.1", n, cases)


def check_thm_3_2(n: int) -> CheckResult:
    """The boolean core exists, splits the length, keeps the support, and is
    the unique maximal same-support boolean below."""
    cases = 0
    for w in fc_elements(n):
        cases += 1
        dec = boolean_core(w)
        ok = (
            is_boolean(dec.core)
            and dec.core.support() == w.support()
            and dec.core.length() + dec.remainder.length() == w.length()
            and dec.core.compose(dec.remainder) == w
        )
        if not ok:
            return _fail("thm-3.2", n, cases, w.to_text())
        ideal = principal_ideal(w)
        booleans = {b for b in ideal if is_boolean(b)}
        same_support = {b for b in booleans if b.support() == w.support()}
        maximal = {
            b
            for b in booleans
            if not any(b != c and right_weak_leq(b, c) for c in booleans)
        }
        if same_support != {dec.core} or dec.core not in maximal:
            return _fail("thm-3.2", n, cases, f"{w.to_text()} (uniqueness)")
    return _done("thm-3.2", n, cases)


def check_thm_3_4(n: int) -> CheckResult:
    """Second rows only grow along fully commutative covers."""
    cases = 0
    for v, w, _i in _fc_cover_pairs(n):
        cases += 1
        pv, pw = rsk(v).p, rsk(w).p
        if not set(pv.row(2)) <= set(pw.row(2)):
            return _fail("thm-3.4", n, cases, f"{v.to_text()} -> {w.to_text()}")
        if not set(pv.row(1)) >= set(pw.row(1)):
            return _fail("thm-3.4", n, cases, f"{v.to_text()} -> {w.to_text()} (row 1)")
    return _done("thm-3.4", n, cases)


def check_cor_3_5(n: int) -> CheckResult:
    """The tableau changes along a cover exactly when every longest
    increasing run uses both swapped letters, and then row 2 grows by one."""
    cases = 0
    for v, w, i in _fc_cover_pairs(n):
        cases += 1
        changed = rsk(v).p != rsk(w).p
        both = all(
            v(i) in subseq and v(i + 1) in subseq
            for subseq in max_increasing_subsequences(v.image)
        )
        if changed != both:
            return _fail("cor-3.5", n, cases, f"{v.to_text()} at {i}")
        if changed and len(row2(w)) != len(row2(v)) + 1:
            return _fail("cor-3.5", n, cases, f"{v.to_text()} at {i} (row growth)")
    return _done("cor-3.5", n, cases)


def check_cor_3_7(n: int) -> CheckResult:
    """The core's second row sits inside the element's second row."""
    cases = 0
    for w in fc_elements(n):
        cases += 1
        core = boolean_core(w).core
        if not set(row2(core)) <= set(row2(w)):
            return _fail("cor-3.7", n, cases, w.to_text())
    return _done("cor-3.7", n, cases)


def check_thm_4_11(n: int) -> CheckResult:
    """Tableau-changing, support-preserving covers always land crowded,
    with every intermediate deduction intact."""
    cases = 0
    for v, w, i in _fc_cover_pairs(n):
        if i not in v.support() or rsk(v).p == rsk(w).p:
            continue
        cases += 1
        report = analyze_transition(v, i)  # raises on any broken deduction
        if not classify(report.w).crowded:
            return _fail("thm-4.11", n, cases, f"{v.to_text()} at {i}")
    return _done("thm-4.11", n, cases)


def check_cor_4_12(n: int) -> CheckResult:
    """Uncrowded means sharing the insertion tableau with the core."""
    cases = 0
    for w in fc_elements(n):
        cases += 1
        uncrowded = not classify(w).crowded
        same = rsk(boolean_core(w).core).p == rsk(w).p
        if uncrowded != same:
            return _fail("cor-4.12", n, cases, w.to_text())
    return _done("cor-4.12", n, cases)


def check_prop_2_14(n: int) -> CheckResult:
    """Boolean insertion tableaux are exactly the uncrowded two-row ones."""
    boolean_tableaux = {
        rsk(w).p.rows for w in fc_elements(n) if is_boolean(w)
    }
    uncrowded_tableaux = {
        rows
        for rows in _two_row_standard_tableaux(n)
        if find_crowded_witness(rows[1] if len(rows) > 1 else ()) is None
    }
    cases = len(uncrowded_tableaux)
    if boolean_tableaux != uncrowded_tableaux:
        difference = boolean_tableaux ^ uncrowded_tableaux
        return _fail("prop-2.14", n, cases, f"symmetric difference {sorted(difference)}")
    return _done("prop-2.14", n, cases)


def check_lemma_5_1(n: int) -> CheckResult:
    """Uncrowded elements form an order ideal, crowded ones a filter."""
    cases = 0
    for v, w, _i in _fc_cover_pairs(n):
        cases += 1
        if classify(v).crowded and not classify(w).crowded:
            return _fail("lemma-5.1", n, cases, f"{v.to_text()} -> {w.to_text()}")
    return _done("lemma-5.1", n, cases)


def check_lemma_5_2(n: int) -> CheckResult:
    """A descent whose right letter does not bump its left letter leaves
    the insertion tableau unchanged."""
    cases = 0
    for w in fc_elements(n):
        bumped_by = rsk(w).trace.row_bump_map()
        for d in w.descents():
            if bumped_by.get(w(d)) == w(d + 1):
                continue
            cases += 1
            if rsk(w).p != rsk(w.times(d)).p:
                return _fail("lemma-5.2", n, cases, f"{w.to_text()} at {d}")
    return _done("lemma-5.2", n, cases)


def check_lemma_5_4(n: int) -> CheckResult:
    """A descent followed by a smaller letter leaves the tableau unchanged."""
    cases = 0
    for w in fc_elements(n):
        for d in w.descents():
            if d + 2 > n or w(d + 2) >= w(d):
                continue
            cases += 1
            if rsk(w).p != rsk(w.times(d)).p:
                return _fail("lemma-5.4", n, cases, f"{w.to_text()} at {d}")
    return _done("lemma-5.4", n, cases)


def check_knuth_classes(n: int) -> CheckResult:
    """Connected components under Knuth relations are the insertion fibers."""
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
    cases = len(fibers)
    for members in fibers.values():
        roots = {component[w] for w in members}
        if len(roots) != 1:
            return _fail("knuth-classes", n, cases, f"fiber of {sorted(members)[0]}")
    if len({component[w] for w in component}) != cases:
        return _fail("knuth-classes", n, cases, "component/fiber counts differ")
    return _done("knuth-classes", n, cases)


def check_cor_left_q(n: int) -> CheckResult:
    """Along left-order covers of fully commutative elements, the second
    rows of the recording tableaux grow."""
    cases = 0
    for v in fc_elements(n):
        for i in range(1, n):
            w = (v.inverse().times(i)).inverse()  # left multiplication by s_i
            if w.length() != v.length() + 1 or not is_fully_commutative(w):
                continue
            cases += 1
            if not set(rsk(v).q.row(2)) <= set(rsk(w).q.row(2)):
                return _fail("cor-left-q", n, cases, f"{v.to_text()} at {i}")
    return _done("cor-left-q", n, cases)


def check_downward_closure(n: int) -> CheckResult:
    """Sorting a descent of a fully commutative element stays fully
    commutative."""
    cases = 0
    for w in fc_elements(n):
        for edge in down_covers(w):
            cases += 1
            if not is_fully_commutative(edge.lower):
                return _fail("downward-closure", n, cases, f"{w.to_text()} at {edge.index}")
    return _done("downward-closure", n, cases)


def _minimal_crowded(n: int) -> list[Permutation]:
    return list(uncrowded_frontier(n)[1])


def check_cor_5_5(n: int) -> CheckResult:
    """In a minimal crowded element, descents and adjacent bumps coincide."""
    cases = 0
    for w in _minimal_crowded(n):
        cases += 1
        bumped_by = rsk(w).trace.row_bump_map()
        descents = w.descents()
        for d in range(1, n):
            bumps_adjacent = bumped_by.get(w(d)) == w(d + 1)
            if (d in descents) != bumps_adjacent:
                return _fail("cor-5.5", n, cases, f"{w.to_text()} at {d}")
        pos = {val: p for p, val in enumerate(w.image, start=1)}
        for z in row2(w):
            if bumped_by.get(z) != w(pos[z] + 1):
                return _fail("cor-5.5", n, cases, f"{w.to_text()} value {z}")
    return _done("cor-5.5", n, cases)


def check_cor_5_6(n: int) -> CheckResult:
    """A minimal crowded element fixes everything outside its descent span."""
    cases = 0
    for w in _minimal_crowded(n):
        cases += 1
        descents = sorted(w.descents())
        d, last = descents[0], descents[-1]
        outside = list(range(1, d)) + list(range(last + 2, n + 1))
        if any(w(p) != p for p in outside):
            return _fail("cor-5.6", n, cases, w.to_text())
    return _done("cor-5.6", n, cases)


def check_lemma_5_7(n: int) -> CheckResult:
    """The interleaved bumped/bumper word is consecutive in the one-line
    notation of a minimal crowded element."""
    cases = 0
    for w in _minimal_crowded(n):
        cases += 1
        pairs = bump_pairs(w)
        interleaved = [x for b, z in pairs for x in (z, b)]
        pos = {val: p for p, val in enumerate(w.image, start=1)}
        start = pos[interleaved[0]]
        window = [w(p) for p in range(start, start + len(interleaved))]
        if window != interleaved:
            return _fail("lemma-5.7", n, cases, w.to_text())
    return _done("lemma-5.7", n, cases)


def check_lemma_5_8(n: int) -> CheckResult:
    """Bumpers eventually overtake earlier bumped values: z_i < b_{i+3}."""
    cases = 0
    for w in _minimal_crowded(n):
        pairs = bump_pairs(w)
        for i in range(len(pairs) - 3):
            cases += 1
            if pairs[i][1] >= pairs[i + 3][0]:
                return _fail("lemma-5.8", n, cases, f"{w.to_text()} index {i + 1}")
    return _done("lemma-5.8", n, cases)


def check_cor_5_9(n: int) -> CheckResult:
    """A minimal crowded element has exactly one inclusion-minimal crowded
    subset of its second row, and it contains the largest entry."""
    cases = 0
    for w in _minimal_crowded(n):
        cases += 1
        second = row2(w)
        crowded_subsets = [
            frozenset(s)
            for size in range(1, len(second) + 1)
            for s in combinations(second, size)
            if find_crowded_witness(s) is not None
        ]
        minimal = [
            s for s in crowded_subsets if not any(t < s for t in crowded_subsets)
        ]
        if len(minimal) != 1 or max(second) not in minimal[0]:
            return _fail("cor-5.9", n, cases, w.to_text())
        if frozenset(minimal_crowded_subset(second).elements) != minimal[0]:
            return _fail("cor-5.9", n, cases, f"{w.to_text()} (extractor mismatch)")
    return _done("cor-5.9", n, cases)


def check_thm_5_10(n: int) -> CheckResult:
    """The five-condition test agrees with poset minimality."""
    poset = build_fc_poset(n)
    crowded = {w: classify(w).crowded for w in poset.elements}
    cases = 0
    for w in poset.elements:
        cases += 1
        by_poset = crowded[w] and all(
            not crowded[e.lower] for e in poset.down[w]
        )
        by_conditions = is_minimal_crowded_direct(w).minimal
        if by_poset != by_conditions:
            return _fail("thm-5.10", n, cases, w.to_text())
    return _done("thm-5.10", n, cases)


CHECKS: dict[str, tuple[int, Callable[[int], CheckResult]]] = {
    "lemma-2.1": (7, check_lemma_2_1),
    "prop-2.2": (7, check_prop_2_2),
    "prop-2.3": (7, check_prop_2_3),
    "lemma-2.5": (7, check_lemma_2_5),
    "prop-2.7": (6, check_prop_2_7),
    "prop-2.9": (7, check_prop_2_9),
    "thm-2.10": (7, check_thm_2_10),
    "lemma-2.11": (6, check_lemma_2_11),
    "lemma-2.12": (7, check_lemma_2_12),
    "cor-lis": (6, check_cor_lis),
    "lemma-row2": (7, check_lemma_row2),
    "lemma-3.1": (7, check_lemma_3_1),
    "thm-3.2": (7, check_thm_3_2),
    "thm-3.4": (8, check_thm_3_4),
    "cor-3.5": (7, check_cor_3_5),
    "cor-3.7": (8, check_cor_3_7),
    "thm-4.11": (7, check_thm_4_11),
    "cor-4.12": (8, check_cor_4_12),
    "prop-2.14": (7, check_prop_2_14),
    "lemma-5.1": (8, check_lemma_5_1),
    "lemma-5.2": (7, check_lemma_5_2),
    "lemma-5.4": (7, check_lemma_5_4),
    "knuth-classes": (6, check_knuth_classes),
    "cor-left-q": (6, check_cor_left_q),
    "downward-closure": (8, check_downward_closure),
    "cor-5.5": (8, check_cor_5_5),
    "cor-5.6": (8, check_cor_5_6),
    "lemma-5.7": (8, check_lemma_5_7),
    "lemma-5.8": (9, check_lemma_5_8),
    "cor-5.9": (8, check_cor_5_9),
    "thm-5.10": (8, check_thm_5_10),
}


def run_check(name: str, n: int | None = None) -> CheckResult:
    """Run one registered check, at its default degree unless told otherwise."""
    if name not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        raise ValueError(f"unknown check {name!r}; known checks: {known}")
    default_n, fn = CHECKS[name]
    return fn(n if n is not None else default_n)
