from itertools import combinations

import pytest

from mapdelta import (
    DisconnectedGraph,
    EmptyFamily,
    LabeledGraph,
    NotDeltaMatroid,
    SetFamily,
    check_basis_exchange,
    check_symmetric_exchange,
    cotree_bases,
    lower_matroid,
    parity_uniform,
    rank_gap_check,
    spanning_tree_bases,
    upper_matroid,
)
from mapdelta.fixtures import all_fixtures, get_fixture
from mapdelta.random_maps import random_corpus
from mapdelta.selections import enumerate_feasible_gamma

from gridmaps import plane_grid

# feasible-set lists quoted from the shipped FAMILY fixtures
TWELVE_TRIPLES = [
    {1, 3, 4}, {1, 3, 5}, {1, 3, 6}, {1, 4, 5}, {1, 4, 6}, {2, 3, 4},
    {2, 3, 5}, {2, 3, 6}, {2, 4, 5}, {2, 4, 6}, {3, 4, 5}, {3, 4, 6},
]
TWO_FIVE_SETS = [{1, 2, 3, 4, 5}, {1, 2, 3, 4, 6}]


def fam(sets, ground=None):
    ground = ground if ground is not None else set().union(*map(set, sets)) if sets else set()
    return SetFamily.of(ground, sets)


class TestSymmetricExchange:
    def test_twelve_triples_pass(self):
        ok, witness = check_symmetric_exchange(fam(TWELVE_TRIPLES))
        assert ok and witness is None

    def test_disjoint_pairs_fail_with_first_counterexample(self):
        ok, witness = check_symmetric_exchange(fam([{1, 2}, {3, 4}]))
        assert not ok
        assert witness == (frozenset({1, 2}), frozenset({3, 4}), 1)

    def test_empty_and_pair(self):
        ok, _ = check_symmetric_exchange(fam([set(), {1, 2}], ground={1, 2}))
        assert ok

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamily):
            check_symmetric_exchange(SetFamily.of({1}, []))


class TestBasisExchange:
    def test_rank_one_uniform(self):
        ok, _ = check_basis_exchange(fam([{1}, {2}]))
        assert ok

    def test_mixed_cardinalities_fail(self):
        ok, witness = check_basis_exchange(fam([{1}, {2, 3}]))
        assert not ok and witness[0] == frozenset({1})

    def test_triangle_spanning_trees(self):
        ok, _ = check_basis_exchange(fam([{1, 2}, {1, 3}, {2, 3}]))
        assert ok


class TestUpperLower:
    def test_triples_plus_five_sets(self):
        f = fam(TWELVE_TRIPLES + TWO_FIVE_SETS)
        lower = lower_matroid(f)
        upper = upper_matroid(f)
        assert lower.rank == 3
        assert set(lower.bases.members) == {frozenset(s) for s in TWELVE_TRIPLES}
        assert upper.rank == 5
        assert set(upper.bases.members) == {frozenset(s) for s in TWO_FIVE_SETS}

    def test_empty_set_family(self):
        f = fam([set()], ground=set())
        assert upper_matroid(f).rank == 0
        assert lower_matroid(f).rank == 0

    def test_torus_one_vertex_ranks(self):
        f = fam([set(), {1, 2}], ground={1, 2})
        assert lower_matroid(f).rank == 0
        assert upper_matroid(f).rank == 2

    def test_non_delta_matroid_rejected(self):
        with pytest.raises(NotDeltaMatroid):
            upper_matroid(fam([{1, 2}, {3, 4}]))

    def test_empty_family_rejected(self):
        empty = fam([], ground={1, 2})
        for read in (upper_matroid, lower_matroid, lambda f: rank_gap_check(get_fixture("torus1v"), f)):
            with pytest.raises(EmptyFamily):
                read(empty)

    def test_extraction_always_passes_basis_exchange(self):
        for sets in (TWELVE_TRIPLES + TWO_FIVE_SETS, [set(), {1, 2}], TWELVE_TRIPLES):
            f = fam(sets, ground={1, 2, 3, 4, 5, 6})
            for matroid in (upper_matroid(f), lower_matroid(f)):
                ok, _ = check_basis_exchange(matroid.bases)
                assert ok


def _is_spanning_forest(graph, edge_ids, n_vertices):
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merged = 0
    lookup = {eid: (u, v) for eid, u, v in graph.edges}
    for eid in edge_ids:
        u, v = lookup[eid]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False  # cycle (loops included)
        parent[ru] = rv
        merged += 1
    return merged == n_vertices - 1


def referee_spanning_tree_bases(graph):
    """The per-subset oracle spanning_tree_bases replaced: a fresh edge
    lookup and union-find dict for each subset, and a count of merges."""
    ids = sorted(graph.edge_ids)
    k = len(graph.vertices) - 1
    trees = [frozenset(sub) for sub in combinations(ids, k)
             if _is_spanning_forest(graph, sub, len(graph.vertices))]
    return SetFamily.of(ids, trees)


def triangle():
    return LabeledGraph("triangle", (0, 1, 2), ((1, 0, 1), (2, 1, 2), (3, 2, 0)))


class TestGraphMatroids:
    def test_triangle_trees(self):
        assert set(spanning_tree_bases(triangle()).members) == {
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})
        }

    def test_triangle_cotrees(self):
        assert set(cotree_bases(triangle()).members) == {
            frozenset({1}), frozenset({2}), frozenset({3})
        }

    def test_single_loop(self):
        g = LabeledGraph("loop", (0,), ((1, 0, 0),))
        assert spanning_tree_bases(g).members == (frozenset(),)
        assert cotree_bases(g).members == (frozenset({1}),)

    def test_bridge(self):
        g = LabeledGraph("bridge", (0, 1), ((1, 0, 1),))
        assert spanning_tree_bases(g).members == (frozenset({1}),)

    def test_k5_cotree_count_matches_cayley(self):
        g = get_fixture("k5torus").underlying_graph()
        cotrees = cotree_bases(g)
        assert len(cotrees) == 125
        assert cotrees.cardinalities() == [6]

    def test_trees_agree_with_referee(self):
        maps = all_fixtures() + random_corpus(1105, 200, max_edges=7) + [plane_grid(3, 3)]
        for cmap in maps:
            for graph in (cmap.underlying_graph(), cmap.dual_graph()):
                assert spanning_tree_bases(graph) == referee_spanning_tree_bases(graph), graph.name

    def test_disconnected_rejected(self):
        g = LabeledGraph("disc", (0, 1, 2), ((1, 0, 1),))
        with pytest.raises(DisconnectedGraph):
            spanning_tree_bases(g)


class TestRankGapAndParity:
    @pytest.mark.parametrize("name", ["loop", "crosscap", "torus1v"])
    def test_rank_gap_on_fixture(self, name):
        m = get_fixture(name)
        assert rank_gap_check(m, enumerate_feasible_gamma(m))

    def test_crosscap_family_is_mixed_parity(self):
        m = get_fixture("crosscap")
        f = enumerate_feasible_gamma(m)
        assert set(f.members) == {frozenset(), frozenset({1})}
        assert not parity_uniform(f)

    def test_figure_families_parity(self):
        assert parity_uniform(fam(TWELVE_TRIPLES))
        assert parity_uniform(fam(TWELVE_TRIPLES + TWO_FIVE_SETS))
        assert not parity_uniform(fam(TWELVE_TRIPLES + TWO_FIVE_SETS + [{1, 2, 3, 4}]))
        assert parity_uniform(fam([set()], ground=set()))
