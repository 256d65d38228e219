import pytest

from mapdelta.errors import AmbiguousCorners, AmbiguousGluing, LabelMismatch, ReconstructionError
from mapdelta.fixtures import get_fixture
from mapdelta.maps import LabeledGraph
from mapdelta.rebuild import build_map, maps_isomorphic, recover_rotations, roundtrip_check

from gridmaps import plane_grid


class TestRecoverRotations:
    def test_k4_degree_three_rotations(self):
        m = get_fixture("k4sphere")
        g, d = m.underlying_graph(), m.dual_graph()
        rot = recover_rotations(g, d)
        for v in g.vertices:
            assert len(rot.ends_at(v)) == 3

    def test_k5_degree_four_rotations(self):
        m = get_fixture("k5torus")
        rot = recover_rotations(m.underlying_graph(), m.dual_graph())
        for v in range(5):
            assert len(rot.ends_at(v)) == 4

    def test_bridge_with_loop_dual_ambiguous(self):
        g = LabeledGraph("bridge", (0, 1), ((1, 0, 1),))
        gstar = LabeledGraph("loopd", (0,), ((1, 0, 0),))
        with pytest.raises(AmbiguousCorners):
            recover_rotations(g, gstar)

    def test_label_mismatch(self):
        g = LabeledGraph("a", (0, 1), ((1, 0, 1),))
        gstar = LabeledGraph("b", (0,), ((2, 0, 0),))
        with pytest.raises(LabelMismatch):
            recover_rotations(g, gstar)


class TestBuildMap:
    def test_k4_rebuild_is_spherical_and_orientable(self):
        m = get_fixture("k4sphere")
        g, d = m.underlying_graph(), m.dual_graph()
        rebuilt = build_map(g, d, recover_rotations(g, d))
        assert rebuilt.euler_characteristic() == 2
        assert rebuilt.is_orientable()

    def test_k5_rebuild_is_toroidal(self):
        m = get_fixture("k5torus")
        g, d = m.underlying_graph(), m.dual_graph()
        rebuilt = build_map(g, d, recover_rotations(g, d))
        assert rebuilt.euler_characteristic() == 0

    def test_edge_bordering_one_face_twice_ambiguous(self):
        # loop map: its single edge has a loop in neither graph, but the
        # bridge map's edge borders its unique face twice (dual loop)
        m = get_fixture("bridge")
        g, d = m.underlying_graph(), m.dual_graph()
        with pytest.raises(ReconstructionError):
            build_map(g, d, recover_rotations(g, d))


class TestRoundtrip:
    @pytest.mark.parametrize("name", ["k4sphere", "k5torus", "theta"])
    def test_roundtrip_succeeds(self, name):
        assert roundtrip_check(get_fixture(name))

    @pytest.mark.parametrize("name", ["loop", "bridge", "torus1v", "crosscap"])
    def test_ambiguous_fixtures_error_out(self, name):
        with pytest.raises((AmbiguousCorners, AmbiguousGluing)):
            roundtrip_check(get_fixture(name))

    def test_rebuilt_graphs_match_pointwise(self):
        m = get_fixture("k5torus")
        g, d = m.underlying_graph(), m.dual_graph()
        rebuilt = build_map(g, d, recover_rotations(g, d))
        assert rebuilt.underlying_graph().edge_ids == g.edge_ids
        assert rebuilt.dual_graph().edge_ids == d.edge_ids
        assert len(rebuilt.vertex_cycles) == len(g.vertices)
        assert len(rebuilt.face_cycles) == len(d.vertices)

    def test_torus_grid_rebuilds_without_endpoint_scans(self, monkeypatch):
        # LabeledGraph.endpoints scans every edge; checking the rebuild edge
        # by edge through it would be quadratic in the edge count
        m = plane_grid(6, 8, torus=True)
        g, d = m.underlying_graph(), m.dual_graph()
        rot = recover_rotations(g, d)
        calls = []
        scan = LabeledGraph.endpoints
        monkeypatch.setattr(LabeledGraph, "endpoints", lambda graph, eid: calls.append(eid) or scan(graph, eid))
        rebuilt = build_map(g, d, rot)
        assert calls == []
        assert maps_isomorphic(m, rebuilt)


class TestDegreeTwoVertices:
    """A degree-2 vertex on two distinct edges has both corners between the
    same two faces; either split gives an isomorphic map.  The 2x2 grid is a
    4-cycle, every vertex of degree 2."""

    @pytest.mark.parametrize("rows,cols", [(r, c) for r in range(2, 6) for c in range(r, 8)])
    def test_plane_grid_roundtrips(self, rows, cols):
        assert roundtrip_check(plane_grid(rows, cols))


class TestIsomorphism:
    def test_map_isomorphic_to_itself(self):
        for name in ("loop", "crosscap", "k4sphere"):
            m = get_fixture(name)
            assert maps_isomorphic(m, m)

    def test_different_maps_not_isomorphic(self):
        assert not maps_isomorphic(get_fixture("loop"), get_fixture("crosscap"))
        assert not maps_isomorphic(get_fixture("loop"), get_fixture("torus1v"))

    def test_flag_relabeling_preserves_isomorphism(self):
        m = get_fixture("crosscap")
        # rotate flag labels by the permutation (0 1 2 3) -> (2 3 0 1)
        perm = [2, 3, 0, 1]

        def relabel(rho):
            out = [0] * 4
            for x in range(4):
                out[perm[x]] = perm[rho[x]]
            return tuple(out)

        from mapdelta.maps import validate_map

        other = validate_map("crosscap2", relabel(m.rho_r), relabel(m.rho_g), relabel(m.rho_b))
        assert maps_isomorphic(m, other)
