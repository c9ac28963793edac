import dataclasses
import json
import pickle
import subprocess
import sys
import tracemalloc
from itertools import combinations, permutations
from math import comb

import pytest

from fcperm import cli, weak_order
from fcperm.weak_order import fc_crowding
from fcperm import (
    BoundExceeded,
    Permutation,
    all_permutations,
    classify,
    crowding_census,
    fc_covers,
    fc_elements,
    find_crowded_witness,
    is_boolean,
    is_fully_commutative,
    is_minimal_crowded_direct,
    is_uncrowded_set,
    knuth_neighbors,
    minimal_crowded,
    poset_to_dot,
    principal_ideal,
    rsk,
    uncrowded_frontier,
)

from conftest import (
    brute_avoids_321,
    crowding_census_by_dp,
    fcperm_env,
    minimal_crowded_count,
    prefix_walk_fc,
    right_weak_leq,
    wide_scan_is_uncrowded,
)


P = Permutation.from_text


class TestCovers:
    def test_golden_edge(self):
        lifted = {i: w for v, w, i in fc_covers(8) if v == P("41623785")}
        assert lifted[5] == P("41627385")

    def test_identity_covers(self):
        identity = Permutation.identity(6)
        edges = [(w, i) for v, w, i in fc_covers(6) if v == identity]
        assert edges == [(identity.times(i), i) for i in range(1, 6)]
        assert not any(w == identity for _, w, _ in fc_covers(6))

    def test_down_cover_indices(self):
        w = P("41627385")
        assert [i for _, upper, i in fc_covers(8) if upper == w] == [1, 3, 5, 7]

    def test_up_plus_down_is_everything(self):
        # every ascent is a cover or leaves the subposet; every descent is one
        degree = {w: 0 for w in fc_elements(6)}
        for v, w, _ in fc_covers(6):
            degree[v] += 1
            degree[w] += 1
        for w, covers in degree.items():
            ascents = [i for i in range(1, 6) if w(i) < w(i + 1)]
            leaving = sum(not is_fully_commutative(w.times(i)) for i in ascents)
            assert covers + leaving == 5

    def test_edges_recombine(self):
        for v, w, i in fc_covers(5):
            assert v.times(i) == w and w.times(i) == v
            assert w.length() == v.length() + 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_local_rule_matches_pair_scan(self, n):
        expected = [
            (v, v.times(i), i)
            for v in fc_elements(n)
            for i in range(1, n)
            if v(i) < v(i + 1) and is_fully_commutative(v.times(i))
        ]
        assert list(fc_covers(n)) == expected

    def test_bound_guard(self):
        with pytest.raises(BoundExceeded, match="degree 10 exceeds bound 9"):
            list(fc_covers(10))
        assert len(list(fc_covers(10, bound=10))) == 43758


class TestLeqQueries:
    def test_right_leq_matches_ideal_oracle(self):
        ideals = {w: principal_ideal(w) for w in all_permutations(5)}
        for v in all_permutations(5):
            for w in all_permutations(5):
                assert right_weak_leq(v, w) == (v in ideals[w])

    def test_reflexive_and_identity_bottom(self):
        for w in all_permutations(4):
            assert right_weak_leq(w, w)
            assert right_weak_leq(Permutation.identity(4), w)

    def test_antisymmetry_and_transitivity(self):
        everyone = list(all_permutations(4))
        for v in everyone:
            for w in everyone:
                if right_weak_leq(v, w) and right_weak_leq(w, v):
                    assert v == w
        for u in everyone:
            for v in everyone:
                if not right_weak_leq(u, v):
                    continue
                for w in everyone:
                    if right_weak_leq(v, w):
                        assert right_weak_leq(u, w)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            right_weak_leq(Permutation.identity(3), Permutation.identity(4))


class TestPrincipalIdeal:
    def test_identity(self):
        w = Permutation.identity(5)
        assert principal_ideal(w) == {w}

    def test_golden_chain(self):
        core, v, w = P("41263785"), P("41623785"), P("41627385")
        assert core in principal_ideal(v)
        assert principal_ideal(v) <= principal_ideal(w)

    def test_long_element_dominates(self):
        assert len(principal_ideal(Permutation((4, 3, 2, 1)))) == 24

    def test_bound_guard(self):
        with pytest.raises(BoundExceeded):
            principal_ideal(Permutation((4, 3, 2, 1)), bound=3)


def _poset_json(n, capsys):
    """The JSON that ``dot poset n --json`` writes."""
    assert cli.main(["dot", "poset", str(n), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestFcPoset:
    """The subposet as ``dot poset`` writes it: ``fc_elements`` as nodes and
    ``fc_covers`` as edges."""

    def test_small_sizes(self, capsys):
        assert len(_poset_json(3, capsys)["nodes"]) == 5
        assert len(_poset_json(1, capsys)["nodes"]) == 1
        assert len(_poset_json(5, capsys)["nodes"]) == 42

    def test_elements_are_the_321_avoiders(self, capsys):
        expected = {w.to_text() for w in all_permutations(6) if brute_avoids_321(w.image)}
        assert set(_poset_json(6, capsys)["nodes"]) == expected

    def test_edge_count_against_pair_scan(self, capsys):
        # the exact edge list, from every pair of S_n one swap apart
        for n in range(1, 8):
            expected = [
                [v.to_text(), v.times(i).to_text(), i]
                for v in all_permutations(n)
                if is_fully_commutative(v)
                for i in range(1, n)
                if v.times(i).length() == v.length() + 1
                and is_fully_commutative(v.times(i))
            ]
            assert _poset_json(n, capsys)["edges"] == expected, n

    def test_bound_guard(self):
        with pytest.raises(BoundExceeded):
            poset_to_dot(10)

    def test_json_round_trip(self, capsys):
        blob = _poset_json(4, capsys)
        assert json.loads(json.dumps(blob)) == blob
        assert blob["n"] == 4 and len(blob["nodes"]) == 14

    def test_downward_closure(self):
        for w in fc_elements(7):
            for d in w.descents():
                assert is_fully_commutative(w.times(d))


class TestFcElements:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_lexicographic_321_avoiders(self, n):
        expected = [p for p in permutations(range(1, n + 1)) if brute_avoids_321(p)]
        assert [w.image for w in fc_elements(n)] == expected

    def test_elements_are_valid_permutations(self):
        # the elements are built in bulk, past the constructor and its
        # frozen __setattr__, so each must still behave like a built one
        for n in range(1, 12):
            elements = fc_elements(n, bound=n)
            for w in elements:
                assert type(w) is Permutation and type(w.image) is tuple
                built = Permutation(w.image)
                assert built == w
                assert (hash(built), repr(built)) == (hash(w), repr(w))
                try:
                    w.image = built.image
                except dataclasses.FrozenInstanceError:
                    pass
                else:
                    pytest.fail(f"{w!r} accepted a new image")
            listed = list(elements)
            restored = pickle.loads(pickle.dumps(listed))
            assert restored == listed
            assert all(type(v) is Permutation for v in restored)

    # the last five values come from a table: for n <= 5 it completes the
    # empty prefix alone, and n = 6 is the first degree that walks
    @pytest.mark.parametrize("n", [1, 5, 6, 10, 11])
    def test_matches_the_recursive_prefix_walk(self, n):
        assert [w.image for w in fc_elements(n, bound=n)] == prefix_walk_fc(n)

    def test_images_strictly_increase(self):
        images = [w.image for w in fc_elements(11, bound=11)]
        assert all(a < b for a, b in zip(images, images[1:]))

    def test_catalan_counts_past_the_brute_force_range(self):
        assert sum(1 for _ in fc_elements(10, bound=10)) == 16796
        assert sum(1 for _ in fc_elements(11, bound=11)) == 58786

    def test_bound_guard(self):
        for enumerate_ in (fc_elements, fc_crowding, crowding_census):
            with pytest.raises(BoundExceeded, match="degree 10 exceeds bound 9"):
                enumerate_(10)
        with pytest.raises(BoundExceeded, match="degree 25 exceeds bound 24"):
            minimal_crowded(25)
        with pytest.raises(BoundExceeded, match="degree 10 exceeds bound 9"):
            minimal_crowded(10, bound=9)

    @pytest.mark.parametrize("n", [0, -1])
    def test_degree_below_one(self, n):
        for enumerate_ in (
            fc_elements,
            fc_crowding,
            crowding_census,
            uncrowded_frontier,
            poset_to_dot,
            minimal_crowded,
        ):
            with pytest.raises(ValueError, match="degree at least 1"):
                enumerate_(n)


def _count_walks(monkeypatch) -> list[int]:
    """Record the degree of every pass over an ``fc_elements`` view."""
    walks: list[int] = []
    original = fc_elements.__iter__

    def counted(self):
        walks.append(self.n)
        return original(self)

    monkeypatch.setattr(fc_elements, "__iter__", counted)
    return walks


class TestFcElementsView:
    def test_refusals_come_from_the_call(self, monkeypatch):
        batches = []
        original = fc_elements.batches
        monkeypatch.setattr(
            fc_elements, "batches", lambda self: batches.append(self.n) or original(self)
        )
        with pytest.raises(BoundExceeded, match="degree 10 exceeds bound 9"):
            fc_elements(10)
        with pytest.raises(ValueError, match="degree at least 1"):
            fc_elements(0)
        with pytest.raises(BoundExceeded, match=f"sys.maxsize = {sys.maxsize}"):
            fc_elements(1100, bound=2000)  # too many elements, and counted, not walked
        fc_elements(11, bound=11)  # accepted, and nothing walked yet
        assert batches == []

    def test_two_passes_agree(self):
        view = fc_elements(7)
        first = list(view)
        assert len(first) == 429 and list(view) == first

    @pytest.mark.parametrize("n", range(1, 12))
    def test_length_counts_the_prefix_walk(self, monkeypatch, n):
        walks = _count_walks(monkeypatch)
        assert len(fc_elements(n, bound=n)) == len(prefix_walk_fc(n))
        assert walks == []  # the length comes from the Catalan recurrence, not a pass

    @pytest.mark.parametrize("n", range(12, 36))
    def test_length_is_the_catalan_number(self, n):
        # the n-th Catalan number, by its closed form
        assert len(fc_elements(n, bound=n)) == comb(2 * n, n) // (n + 1)

    def test_counting_walks_nothing(self, monkeypatch):
        def refused(self):
            raise AssertionError(f"walked S_{self.n}")

        monkeypatch.setattr(fc_elements, "batches", refused)
        monkeypatch.setattr(fc_elements, "__iter__", refused)
        assert [len(fc_elements(n, bound=20)) for n in (1, 5, 6, 11, 20)] == [
            1, 42, 132, 58786, 6564120420,
        ]

    def test_length_refuses_past_sys_maxsize(self):
        # len() cannot return more than sys.maxsize, so the call refuses a
        # degree with more elements, and a larger one at the same row of the
        # count, however large
        n = next(n for n in range(1, 100) if comb(2 * n, n) // (n + 1) > sys.maxsize)
        if sys.maxsize == 2**63 - 1:
            assert (n, len(fc_elements(35, bound=35))) == (36, 3116285494907301262)
        for degree in (n, n + 1, 10**6):
            with pytest.raises(BoundExceeded, match=f"sys.maxsize = {sys.maxsize}"):
                fc_elements(degree, bound=degree)

    def test_the_walk_needs_no_recursion(self):
        # _prefixes keeps its own stack, so listing S_11 takes no more stack
        # than listing S_6, whose walk is one level deep, and a recursion
        # limit of 60 is not refused
        script = (
            "import sys\n"
            "from fcperm import fc_elements\n"
            "def listed(n, limit):\n"
            "    try:\n"
            "        sys.setrecursionlimit(limit)\n"
            "        return len([w.image for w in fc_elements(n, bound=n)])\n"
            "    except RecursionError:\n"
            "        return None\n"
            "    finally:\n"
            "        sys.setrecursionlimit(1000)\n"
            "listed(6, 1000)  # builds the stamp table\n"
            "low = next(limit for limit in range(2, 100) if listed(6, limit))\n"
            "print(listed(11, low), listed(11, 60))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=fcperm_env(), timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "58786 58786\n", "")

    @pytest.mark.parametrize("n", [5, 8])
    def test_a_lost_stamp_shows_in_the_listing_not_the_length(self, monkeypatch, n):
        # the listing reads the stamp table and the length the Catalan
        # recurrence, so a completion missing from the table is missing from
        # the listing alone
        original = weak_order._stamps

        def without_the_last_of_row_zero(j):
            table = original(j)
            return (table[0][:-1],) + table[1:]

        monkeypatch.setattr(weak_order, "_stamps", without_the_last_of_row_zero)
        view = fc_elements(n, bound=n)
        walked = prefix_walk_fc(n)
        listed = [w.image for w in view]
        assert len(view) == len(walked) > len(listed)
        assert listed != walked and set(listed) < set(walked)

    def test_indexing_reads_the_listed_elements(self):
        view = fc_elements(6)
        assert view[:-1] == list(view)[:-1] and len(view[:-1]) == 131
        assert view[0].is_identity()
        assert view[-1] == Permutation((6, 1, 2, 3, 4, 5))

    def test_tuple_walks_once(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        assert len(tuple(fc_elements(8))) == 1430
        assert walks == [8]

    def test_frontier_walks_once(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        uncrowded_frontier(9)
        assert walks == [9]

    def test_counting_holds_no_list(self, capsys):
        # a list of all 58,786 elements peaked at 10.1 MiB here
        tracemalloc.start()
        try:
            code = cli.main(["enumerate", "11", "--filter", "fc", "--bound", "11", "--count"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().out) == (0, "58786\n")
        assert peak < 2**20, peak


class TestCrowdingCensus:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_the_dynamic_program(self, n):
        assert crowding_census(n, bound=20) == crowding_census_by_dp(n)

    def test_a_crowded_set_is_counted_with_its_extensions(self, monkeypatch):
        # a crowded ballot set's extensions are neither grown nor decided,
        # since the crowded count is C_n minus the uncrowded one, and an
        # uncrowded set's child is decided only when it can close an
        # overfull window: S_11 decides 58 of its 462 sets
        decided = []
        original = weak_order.is_uncrowded_set

        def counted(values):
            decided.append(values)
            return original(values)

        monkeypatch.setattr(weak_order, "is_uncrowded_set", counted)
        assert crowding_census(11, bound=11) == crowding_census_by_dp(11)
        crowded = [values for values in decided if not original(values)]
        assert len(decided) == len(set(decided)) == 58
        assert all(original(values[:-1]) for values in crowded)

    def test_decides_exactly_the_crowded_children(self, monkeypatch):
        # a census that decides too few sets miscounts; one that decides an
        # uncrowded child it could have grown shows only here
        ballot_sets = [
            members
            for k in range(1, 9)
            for members in combinations(range(1, 17), k)
            if all(m >= 2 * i for i, m in enumerate(members, start=1))
        ]
        crowded_children = [
            members
            for members in ballot_sets
            if find_crowded_witness(members) is not None
            and find_crowded_witness(members[:-1]) is None
        ]
        decided = []
        original = weak_order.is_uncrowded_set

        def counted(values):
            decided.append(values)
            return original(values)

        monkeypatch.setattr(weak_order, "is_uncrowded_set", counted)
        for n in range(1, 17):
            decided.clear()
            crowding_census(n, bound=16)
            expected = sorted(members for members in crowded_children if members[-1] <= n)
            assert sorted(decided) == expected, n

    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_the_walk(self, n):
        crowded = [classify(w) is not None for w in fc_elements(n, bound=11)]
        assert crowding_census(n, bound=11) == (crowded.count(False), crowded.count(True))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_uncrowded_ballot_sets_count_the_boolean_tableaux(self, n):
        # prop-2.14: the boolean insertion tableaux are the uncrowded two-row
        # ones, and a two-row standard P is fixed by its second row, a
        # ballot set (its i-th smallest member is at least 2i)
        ballot_sets = [
            members
            for k in range(n // 2 + 1)
            for members in combinations(range(1, n + 1), k)
            if all(m >= 2 * i for i, m in enumerate(members, start=1))
        ]
        uncrowded = sum(1 for members in ballot_sets if is_uncrowded_set(members))
        boolean = {rsk(w).p for w in fc_elements(n, bound=11) if is_boolean(w)}
        assert uncrowded == len(boolean)

    def test_refuses_past_sys_maxsize(self):
        # the census reads C_n from fc_elements, which refuses S_36 by size
        with pytest.raises(BoundExceeded, match=f"sys.maxsize = {sys.maxsize}"):
            crowding_census(36, bound=36)

    def test_halves_add_up_to_catalan(self):
        for n in range(1, 21):
            assert sum(crowding_census(n, bound=20)) == comb(2 * n, n) // (n + 1), n

    def test_pinned_counts(self):
        assert crowding_census(12, bound=12) == (141_671, 66_341)
        assert crowding_census(16, bound=16) == (17_346_838, 18_010_832)


def _frontier_from_poset_edges(n):
    """The minimal crowded elements read off fc_covers' cover edges, with
    verdicts from a wide window scan of the tableau's second row."""
    elements = tuple(fc_elements(n))
    crowded = {w: not wide_scan_is_uncrowded(rsk(w).p.row(2)) for w in elements}
    down = {w: [] for w in elements}
    for v, w, _ in fc_covers(n):
        down[w].append(v)
    return tuple(w for w in elements if crowded[w] and not any(crowded[d] for d in down[w]))


class TestFrontier:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_frontier_from_poset_edges(self, n):
        assert uncrowded_frontier(n) == _frontier_from_poset_edges(n)

    def test_each_second_row_is_decided_once(self, monkeypatch):
        # S_11 has 58,786 fully commutative elements and 462 second rows
        rows = []
        original = weak_order.is_uncrowded_set

        def counted(values):
            rows.append(values)
            return original(values)

        monkeypatch.setattr(weak_order, "is_uncrowded_set", counted)
        uncrowded_frontier(11, bound=11)
        assert len(rows) == len(set(rows)) == 462

    def test_minimal_crowded_counts(self):
        counts = [len(uncrowded_frontier(n, bound=11)) for n in range(5, 12)]
        assert counts == [0, 1, 2, 6, 10, 21, 32]

    def test_no_crowded_elements_below_degree_six(self):
        for n in range(1, 6):
            assert uncrowded_frontier(n) == ()
            assert not any(crowded for _, crowded in fc_crowding(n))

    def test_golden_member(self):
        assert P("41627385") in uncrowded_frontier(8)

    def test_frontier_matches_direct_test(self):
        for n in (6, 7):
            direct = {
                w
                for w in fc_elements(n)
                if is_minimal_crowded_direct(w).minimal
            }
            assert set(uncrowded_frontier(n)) == direct


class TestMinimalCrowded:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_frontier(self, n):
        assert minimal_crowded(n, bound=12) == uncrowded_frontier(n, bound=12)

    def test_every_element_passes_the_direct_test(self):
        for n in range(1, 17):
            for w in minimal_crowded(n):
                assert is_minimal_crowded_direct(w).minimal, w

    def test_counts_follow_the_block_count(self):
        counts = {n: len(minimal_crowded(n, bound=30)) for n in range(1, 31)}
        assert counts == {n: minimal_crowded_count(n) for n in range(1, 31)}
        assert (counts[13], counts[20], counts[30]) == (84, 1434, 48925)


class TestKnuth:
    def test_forced_neighbor(self):
        assert knuth_neighbors(Permutation((3, 1, 2))) == [Permutation((1, 3, 2))]
        assert knuth_neighbors(Permutation((1, 3, 2))) == [Permutation((3, 1, 2))]

    def test_neighbors_preserve_insertion_tableau(self):
        for w in all_permutations(6):
            for neighbor in knuth_neighbors(w):
                assert rsk(neighbor).p == rsk(w).p

    def test_classes_are_p_fibers(self):
        component: dict[Permutation, Permutation] = {}
        for w in all_permutations(5):
            if w in component:
                continue
            frontier, component[w] = [w], w
            while frontier:
                current = frontier.pop()
                for neighbor in knuth_neighbors(current):
                    if neighbor not in component:
                        component[neighbor] = w
                        frontier.append(neighbor)
        fibers: dict[tuple, set] = {}
        for w in all_permutations(5):
            fibers.setdefault(rsk(w).p.rows, set()).add(w)
        for members in fibers.values():
            assert len({component[w] for w in members}) == 1
        assert len({component[w] for w in component}) == len(fibers)


class TestDot:
    def test_poset_dot(self):
        dot = poset_to_dot(4)
        assert dot.startswith("digraph fc_poset {")
        assert dot.count("fillcolor") == 14
        assert "penwidth" not in dot  # no crowded elements at degree 4

    def test_minimal_crowded_highlighted(self):
        dot = poset_to_dot(6)
        assert '"415263" [fillcolor=lightcoral penwidth=3];' in dot
