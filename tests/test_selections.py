import pytest

from mapdelta import (
    GroundSetTooLarge,
    Selection,
    enumerate_feasible_gamma,
    enumerate_feasible_k,
    find_hamiltonian,
    is_fully_black_hamiltonian,
    subgraph_components,
)
from mapdelta.families import SetFamily
from mapdelta.fixtures import all_fixtures, get_fixture
from mapdelta.random_maps import random_corpus
from mapdelta.selections import all_green


def sel(m, greens):
    return Selection(frozenset(range(1, m.n_edges + 1)), frozenset(greens))


def family(ground_size, *sets):
    return SetFamily.of(range(1, ground_size + 1), sets)


class TestSelectionSubgraph:
    def test_loop_red_pair_single_cycle(self):
        m = get_fixture("loop")
        assert len(subgraph_components(m, sel(m, []))) == 1

    def test_loop_green_pair_two_cycles(self):
        m = get_fixture("loop")
        assert len(subgraph_components(m, sel(m, [1]))) == 2

    def test_all_green_gives_green_black_subgraph(self):
        """All green keeps the green and black edges: its cycles are the
        green/black orbits, the faces."""
        for m in all_fixtures():
            assert subgraph_components(m, all_green(m)) == m.orbit_cycles("GB")

    def test_every_flag_degree_two(self):
        """Every selection's cycles partition the flags, and each cycle
        steps from a flag to its chosen partner, then along black, and so on
        round to its first flag."""
        m = get_fixture("k4sphere")
        for mask in range(1 << m.n_edges):
            s = Selection.from_mask(range(1, m.n_edges + 1), mask)
            chosen = [(m.rho_g if e in s.greens else m.rho_r)[x] for x, e in enumerate(m.edge_of_flag)]
            cycles = subgraph_components(m, s)
            assert sorted(x for c in cycles for x in c) == list(range(m.n_flags))
            for c in cycles:
                assert len(c) % 2 == 0
                for i, x in enumerate(c):
                    assert c[(i + 1) % len(c)] == (m.rho_b if i % 2 else chosen)[x]


class TestHamiltonicity:
    def test_bridge(self):
        m = get_fixture("bridge")
        assert is_fully_black_hamiltonian(m, sel(m, [1]))
        assert not is_fully_black_hamiltonian(m, sel(m, []))

    def test_loop(self):
        m = get_fixture("loop")
        assert is_fully_black_hamiltonian(m, sel(m, []))

    def test_crosscap_both_selections(self):
        m = get_fixture("crosscap")
        assert is_fully_black_hamiltonian(m, sel(m, []))
        assert is_fully_black_hamiltonian(m, sel(m, [1]))


class TestFeasibleGamma:
    def test_bridge(self):
        m = get_fixture("bridge")
        assert enumerate_feasible_gamma(m) == family(1, {1})

    def test_loop(self):
        m = get_fixture("loop")
        assert enumerate_feasible_gamma(m) == family(1, frozenset())

    def test_torus_one_vertex(self):
        m = get_fixture("torus1v")
        assert enumerate_feasible_gamma(m) == family(2, frozenset(), {1, 2})

    def test_red_color_is_complement(self):
        for m in all_fixtures():
            green = enumerate_feasible_gamma(m)
            red = enumerate_feasible_gamma(m, color="red")
            assert red == green.complement()

    def test_size_guard(self):
        with pytest.raises(GroundSetTooLarge):
            enumerate_feasible_gamma(get_fixture("k5torus"), max_edges=9)


class TestFeasibleK:
    def test_torus_one_vertex_all_subsets(self):
        m = get_fixture("torus1v")
        assert enumerate_feasible_k(m) == family(2, frozenset(), {1}, {2}, {1, 2})

    def test_loop(self):
        assert enumerate_feasible_k(get_fixture("loop")) == family(1, frozenset())

    def test_bridge(self):
        assert enumerate_feasible_k(get_fixture("bridge")) == family(1, {1})

    def test_gamma_subset_of_k(self):
        for m in all_fixtures():
            assert enumerate_feasible_gamma(m).is_subfamily_of(enumerate_feasible_k(m))


class TestFindHamiltonian:
    def test_loop_returns_red_pair(self):
        m = get_fixture("loop")
        assert find_hamiltonian(m).greens == frozenset()

    def test_output_hamiltonian_on_fixtures(self):
        for m in all_fixtures():
            s, swaps, initial = find_hamiltonian(m, with_stats=True)
            assert is_fully_black_hamiltonian(m, s)
            assert swaps <= max(initial - 1, 0)
            assert s.greens in enumerate_feasible_gamma(m)

    def test_k5_green_count_within_tree_bounds(self):
        m = get_fixture("k5torus")
        g = m.underlying_graph()
        d = m.dual_graph()
        lo = len(g.vertices) - 1
        hi = m.n_edges - (len(d.vertices) - 1)
        assert lo <= len(find_hamiltonian(m).greens) <= hi


class TestSwapDynamics:
    def test_single_swap_changes_components_by_at_most_one(self):
        for m in all_fixtures():
            if m.n_edges > 6:
                continue
            for mask in range(1 << m.n_edges):
                s = Selection.from_mask(range(1, m.n_edges + 1), mask)
                before = len(subgraph_components(m, s))
                for eid in range(1, m.n_edges + 1):
                    after = len(subgraph_components(m, s.swap(eid)))
                    assert abs(after - before) <= 1


def test_scan_families_equal_the_sorted_survey():
    """On the 667 maps, F_gamma and F_K in both colours, built straight from
    the scan's ascending masks, equal `SetFamily.from_masks` of the survey,
    which deduplicates, sorts and checks the range again."""
    maps = all_fixtures() + random_corpus(1105, 200, 7) + random_corpus(2021, 60, 10) + random_corpus(77, 400, 12)
    assert len(maps) == 667
    for cmap in maps:
        ground = range(1, cmap.n_edges + 1)
        full = (1 << cmap.n_edges) - 1
        for enum, masks in zip((enumerate_feasible_gamma, enumerate_feasible_k), cmap.selection_survey):
            # equal fields: the same ground and the same masks in the same order
            assert enum(cmap) == SetFamily.from_masks(ground, masks)
            assert enum(cmap, color="red") == SetFamily.from_masks(ground, [full ^ p for p in masks])
