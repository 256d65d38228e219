import pytest

from mapdelta import (
    BadQuadrilateral,
    Disconnected,
    FixedPoint,
    NotInvolution,
    RedGreenParallel,
    validate_map,
)
from mapdelta.fixtures import all_fixtures, get_fixture
from mapdelta.formats import emit_graph
from mapdelta.maps import LabeledGraph, from_rotation_system, involution_from_pairs
from mapdelta.random_maps import random_corpus
from mapdelta.selections import feasible_families

from gridmaps import plane_grid


def pairing(n, pairs):
    return involution_from_pairs(n, pairs, "test")


class TestValidation:
    def test_loop_map_is_valid(self):
        m = get_fixture("loop")
        assert m.n_flags == 4
        assert m.n_edges == 1

    def test_fixed_point_rejected(self):
        with pytest.raises(FixedPoint):
            pairing(4, [(0, 0), (1, 2)])

    def test_not_involution_rejected(self):
        with pytest.raises(NotInvolution):
            pairing(4, [(0, 1), (1, 2)])
        with pytest.raises(NotInvolution):
            validate_map("bad", (1, 0, 3, 2), (1, 2, 3, 0), (2, 3, 0, 1))

    def test_red_green_parallel_rejected(self):
        r = pairing(4, [(0, 1), (2, 3)])
        b = pairing(4, [(0, 2), (1, 3)])
        with pytest.raises(RedGreenParallel):
            validate_map("bad", r, r, b)

    def test_bad_quadrilateral_rejected(self):
        # R union G forms one 8-cycle instead of two quadrilaterals
        r = pairing(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        g = pairing(8, [(1, 2), (3, 4), (5, 6), (7, 0)])
        b = pairing(8, [(0, 3), (1, 6), (2, 5), (4, 7)])
        with pytest.raises(BadQuadrilateral):
            validate_map("bad", r, g, b)

    def test_odd_flag_count_rejected(self):
        with pytest.raises(BadQuadrilateral):
            validate_map("bad", (1, 0), (1, 0), (1, 0))

    def test_disjoint_union_rejected(self):
        # two disjoint copies of the loop map
        loop = get_fixture("loop")

        def doubled(rho):
            return tuple(rho) + tuple(x + 4 for x in rho)

        with pytest.raises(Disconnected):
            validate_map("bad", doubled(loop.rho_r), doubled(loop.rho_g), doubled(loop.rho_b))

    def test_validated_map_keeps_its_quadrilaterals(self):
        for m in all_fixtures():
            cmap = validate_map(m.name, m.rho_r, m.rho_g, m.rho_b)
            assert "quadrilaterals" in vars(cmap)
            assert cmap.quadrilaterals == tuple(m.orbit_cycles("RG"))

    @pytest.mark.parametrize("signs,edge", [({1: 0}, 1), ({2: 7}, 2), ({1: -1, 3: -1}, 3)])
    def test_rotation_system_signs_are_checked(self, signs, edge):
        g = LabeledGraph("digon", (0, 1), ((1, 0, 1), (2, 0, 1)))
        rotations = {0: ((1, 0), (2, 0)), 1: ((1, 1), (2, 1))}
        assert from_rotation_system("digon", g, rotations, {1: -1, 2: 1}).n_edges == 2
        with pytest.raises(ValueError, match="^sign %r on edge %d: expected " % (signs[edge], edge)):
            from_rotation_system("digon", g, rotations, signs)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="^vertex 0 appears twice$"):
            LabeledGraph("g", (0, 0, 1), ((1, 0, 1), (2, 0, 1)))


class TestOrbits:
    @pytest.mark.parametrize(
        "name,counts",
        [("bridge", (2, 1, 1)), ("loop", (1, 1, 2)), ("crosscap", (1, 1, 1))],
    )
    def test_small_orbit_counts(self, name, counts):
        m = get_fixture(name)
        rb, rg, gb = counts
        assert len(m.orbit_cycles("RB")) == rb
        assert len(m.orbit_cycles("RG")) == rg
        assert len(m.orbit_cycles("GB")) == gb

    def test_quadrilateral_counts(self):
        assert len(get_fixture("loop").quadrilaterals) == 1
        assert len(get_fixture("torus1v").quadrilaterals) == 2
        assert len(get_fixture("k5torus").quadrilaterals) == 10

    def test_quadrilaterals_partition_flags(self):
        for m in all_fixtures():
            flags = [x for quad in m.quadrilaterals for x in quad]
            assert sorted(flags) == list(range(m.n_flags))
            assert len(m.orbit_cycles("RG")) == m.n_flags // 4

    def test_edge_numbering_by_min_flag(self):
        for m in all_fixtures():
            mins = [min(q) for q in m.quadrilaterals]
            assert mins == sorted(mins)


def referee_incidence_graph(cmap, cycles, suffix):
    """The graph and dual made another way, as a referee: an owner dict
    labels the flags, and edge e joins the set of cycles that quadrilateral
    e meets."""
    owner = {}
    for ci, cyc in enumerate(cycles):
        for x in cyc:
            owner[x] = ci
    edges = []
    for i, quad in enumerate(cmap.quadrilaterals):
        ends = set()
        for x in quad:
            ends.add(owner[x])
        ends = sorted(ends)
        if len(ends) == 1:
            edges.append((i + 1, ends[0], ends[0]))
        elif len(ends) == 2:
            edges.append((i + 1, ends[0], ends[1]))
        else:  # impossible for a valid map: a quad meets at most 2 cycles
            raise AssertionError("quadrilateral %d meets %d cycles" % (i + 1, len(ends)))
    return LabeledGraph(
        name=cmap.name + suffix,
        vertices=tuple(range(len(cycles))),
        edges=tuple(edges),
    )


def grid_maps():
    """Plane grids, and torus and Klein-bottle grids, of up to 5 x 6 vertices."""
    maps = [plane_grid(r, c) for r in range(1, 5) for c in range(max(r, 2), 6)]
    for kind in ("torus", "klein"):
        maps += [plane_grid(r, c, **{kind: True}) for r in range(3, 6) for c in range(r, 7)]
    return maps


class TestGraphs:
    def test_graph_and_dual_match_referee(self):
        maps = all_fixtures() + random_corpus(1105, 200, 7) + random_corpus(2021, 60, 10) + grid_maps()
        for m in maps:
            assert emit_graph(m.underlying_graph()) == emit_graph(
                referee_incidence_graph(m, m.orbit_cycles("RB"), ".graph")), m.name
            assert emit_graph(m.dual_graph()) == emit_graph(
                referee_incidence_graph(m, m.orbit_cycles("GB"), ".dual")), m.name

    def test_graph_and_dual_built_once(self):
        """After a scan, every call hands out the same two graphs."""
        for m in all_fixtures():
            feasible_families(m)
            assert m.underlying_graph() is m.underlying_graph()
            assert m.dual_graph() is m.dual_graph()

    def test_bridge_graph_and_dual(self):
        m = get_fixture("bridge")
        g = m.underlying_graph()
        d = m.dual_graph()
        assert len(g.vertices) == 2 and g.edges[0][1] != g.edges[0][2]
        assert len(d.vertices) == 1 and d.edges[0][1] == d.edges[0][2]

    def test_loop_graph_and_dual(self):
        m = get_fixture("loop")
        g = m.underlying_graph()
        d = m.dual_graph()
        assert len(g.vertices) == 1 and g.edges[0][1] == g.edges[0][2]
        assert len(d.vertices) == 2 and d.edges[0][1] != d.edges[0][2]

    def test_k5_fixture_is_self_dual(self):
        m = get_fixture("k5torus")
        for graph in (m.underlying_graph(), m.dual_graph()):
            assert len(graph.vertices) == 5
            pairs = sorted((min(u, v), max(u, v)) for _, u, v in graph.edges)
            assert len(set(pairs)) == 10
            assert all(u != v for u, v in pairs)

    def test_same_edge_ids_both_sides(self):
        for m in all_fixtures():
            g = m.underlying_graph()
            d = m.dual_graph()
            assert g.edge_ids == d.edge_ids
            assert len(g.edge_ids) == m.n_edges


class TestInvariants:
    @pytest.mark.parametrize("name,chi", [("loop", 2), ("bridge", 2), ("theta", 2),
                                          ("k4sphere", 2), ("crosscap", 1),
                                          ("torus1v", 0), ("k5torus", 0)])
    def test_euler_characteristic(self, name, chi):
        assert get_fixture(name).euler_characteristic() == chi

    @pytest.mark.parametrize("name,orientable", [("loop", True), ("crosscap", False),
                                                 ("torus1v", True)])
    def test_orientability(self, name, orientable):
        assert get_fixture(name).is_orientable() is orientable

    def test_orientability_matches_two_coloring_search(self):
        # independent oracle: try all 2-colorings on the small fixtures
        for m in all_fixtures():
            if m.n_flags > 12:
                continue
            edges = [(x, y) for x, y, _ in m.flag_edges()]
            colorable = any(
                all((mask >> x) & 1 != (mask >> y) & 1 for x, y in edges)
                for mask in range(1 << m.n_flags)
            )
            assert m.is_orientable() == colorable

    def test_flag_graph_three_regular(self):
        for m in all_fixtures():
            degree = [0] * m.n_flags
            for x, y, _ in m.flag_edges():
                degree[x] += 1
                degree[y] += 1
            assert set(degree) == {3}
