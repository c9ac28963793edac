import json
from itertools import permutations

import pytest

from fcperm import (
    BoundExceeded,
    Permutation,
    all_permutations,
    build_fc_poset,
    classify,
    down_covers,
    fc_crowding,
    fc_elements,
    is_fully_commutative,
    is_minimal_crowded_direct,
    knuth_neighbors,
    poset_to_dot,
    principal_ideal,
    right_weak_leq,
    rsk,
    uncrowded_frontier,
    up_covers,
)

from conftest import brute_avoids_321, wide_scan_is_uncrowded


P = Permutation.from_text


class TestCovers:
    def test_golden_edge(self):
        edges = up_covers(P("41623785"))
        lifted = {e.index: e.upper for e in edges}
        assert lifted[5] == P("41627385")

    def test_identity_covers(self):
        assert len(up_covers(Permutation.identity(6))) == 5
        assert down_covers(Permutation.identity(6)) == []

    def test_down_cover_indices(self):
        assert [e.index for e in down_covers(P("41627385"))] == [1, 3, 5, 7]

    def test_up_plus_down_is_everything(self):
        for w in all_permutations(6):
            assert len(up_covers(w)) + len(down_covers(w)) == 5

    def test_edges_recombine(self):
        for w in all_permutations(5):
            for e in down_covers(w):
                assert e.lower.times(e.index) == e.upper == w


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


class TestFcPoset:
    def test_small_sizes(self):
        assert len(build_fc_poset(3).elements) == 5
        assert len(build_fc_poset(1).elements) == 1
        assert len(build_fc_poset(5).elements) == 42

    def test_elements_are_the_321_avoiders(self):
        poset = build_fc_poset(6)
        expected = {w for w in all_permutations(6) if is_fully_commutative(w)}
        assert set(poset.elements) == expected

    def test_edge_count_against_pair_scan(self):
        poset = build_fc_poset(4)
        expected = 0
        for v in all_permutations(4):
            if not is_fully_commutative(v):
                continue
            for i in range(1, 4):
                w = v.times(i)
                if w.length() == v.length() + 1 and is_fully_commutative(w):
                    expected += 1
        assert len(poset.edges) == expected

    def test_bound_guard(self):
        with pytest.raises(BoundExceeded):
            build_fc_poset(10)

    def test_json_round_trip(self):
        poset = build_fc_poset(4)
        blob = poset.to_json_dict()
        assert json.loads(json.dumps(blob)) == blob
        assert blob["n"] == 4 and len(blob["nodes"]) == 14

    def test_downward_closure(self):
        for w in fc_elements(7):
            for e in down_covers(w):
                assert is_fully_commutative(e.lower)


class TestFcElements:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_lexicographic_321_avoiders(self, n):
        expected = [p for p in permutations(range(1, n + 1)) if brute_avoids_321(p)]
        assert [w.image for w in fc_elements(n)] == expected

    def test_elements_are_valid_permutations(self):
        for w in fc_elements(7):
            assert Permutation(w.image) == w
            assert hash(Permutation(w.image)) == hash(w)

    def test_catalan_counts_past_the_brute_force_range(self):
        assert len(fc_elements(10, bound=10)) == 16796
        assert len(fc_elements(11, bound=11)) == 58786

    def test_bound_guard(self):
        for enumerate_ in (fc_elements, fc_crowding):
            with pytest.raises(BoundExceeded, match="degree 10 exceeds bound 9"):
                enumerate_(10)

    @pytest.mark.parametrize("n", [0, -1])
    def test_degree_below_one(self, n):
        for enumerate_ in (fc_elements, fc_crowding, uncrowded_frontier, build_fc_poset):
            with pytest.raises(ValueError, match="degree at least 1"):
                enumerate_(n)


class TestFcCrowding:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_verdicts_match_classify(self, n):
        # the walk lists fc_elements in its order, each with classify's verdict
        pairs = [(w.image, crowded) for w, crowded in fc_crowding(n, bound=10)]
        expected = [(w.image, classify(w).crowded) for w in fc_elements(n, bound=10)]
        assert pairs == expected


def _frontier_from_poset_edges(n):
    """Both frontiers read off build_fc_poset's cover edges, with verdicts
    from a wide window scan of the tableau's second row."""
    poset = build_fc_poset(n)
    crowded = {
        w: not wide_scan_is_uncrowded(rsk(w).p.row(2)) for w in poset.elements
    }
    maximal_uncrowded = tuple(
        w
        for w in poset.elements
        if not crowded[w] and all(crowded[e.upper] for e in poset.up[w])
    )
    minimal_crowded = tuple(
        w
        for w in poset.elements
        if crowded[w] and not any(crowded[e.lower] for e in poset.down[w])
    )
    return maximal_uncrowded, minimal_crowded


class TestFrontier:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_frontier_from_poset_edges(self, n):
        assert uncrowded_frontier(n) == _frontier_from_poset_edges(n)

    def test_minimal_crowded_counts(self):
        counts = [len(uncrowded_frontier(n, bound=11)[1]) for n in range(5, 12)]
        assert counts == [0, 1, 2, 6, 10, 21, 32]

    def test_no_crowded_elements_below_degree_six(self):
        for n in range(1, 6):
            maximal_uncrowded, minimal_crowded = uncrowded_frontier(n)
            assert minimal_crowded == ()
            if n >= 2:
                assert maximal_uncrowded  # the poset has tops

    def test_golden_member(self):
        _, minimal_crowded = uncrowded_frontier(8)
        assert P("41627385") in minimal_crowded

    def test_frontier_matches_direct_test(self):
        for n in (6, 7):
            _, minimal_crowded = uncrowded_frontier(n)
            direct = {
                w
                for w in fc_elements(n)
                if is_minimal_crowded_direct(w).minimal
            }
            assert set(minimal_crowded) == direct


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
        dot = poset_to_dot(build_fc_poset(4))
        assert dot.startswith("digraph fc_poset {")
        assert dot.count("fillcolor") == 14
        assert "penwidth" not in dot  # no crowded elements at degree 4

    def test_minimal_crowded_highlighted(self):
        dot = poset_to_dot(build_fc_poset(6))
        assert '"415263" [fillcolor=lightcoral penwidth=3];' in dot
