import hashlib

import pytest

from mapdelta.errors import (
    AmbiguousCorners,
    AmbiguousGluing,
    LabelMismatch,
    ReconstructionError,
    ValidationFailed,
)
from mapdelta.fixtures import all_fixtures, get_fixture
from mapdelta.formats import emit_map
from mapdelta.maps import LabeledGraph
from mapdelta.random_maps import random_corpus
from mapdelta.rebuild import build_map, maps_isomorphic, recover_rotations, roundtrip_check

from gridmaps import plane_grid, wheel


class TestRecoverRotations:
    def test_k4_degree_three_rotations(self):
        m = get_fixture("k4sphere")
        g, d = m.underlying_graph(), m.dual_graph()
        rot = recover_rotations(g, d)
        for v in g.vertices:
            assert len(rot[v]) == 3

    def test_k5_degree_four_rotations(self):
        m = get_fixture("k5torus")
        rot = recover_rotations(m.underlying_graph(), m.dual_graph())
        for v in range(5):
            assert len(rot[v]) == 4

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

    def test_partial_rotation_is_a_reconstruction_error(self):
        # vertex 0's ends are in no rotation, so they carry no faces
        m = get_fixture("k5torus")
        g, d = m.underlying_graph(), m.dual_graph()
        rot = {v: ends for v, ends in recover_rotations(g, d).items() if v != 0}
        with pytest.raises(ReconstructionError):
            build_map(g, d, rot)

    def test_edge_bordering_one_face_twice_ambiguous(self):
        # loop map: its single edge has a loop in neither graph, but the
        # bridge map's edge borders its unique face twice (dual loop)
        m = get_fixture("bridge")
        g, d = m.underlying_graph(), m.dual_graph()
        with pytest.raises(ReconstructionError):
            build_map(g, d, recover_rotations(g, d))

    def test_flanking_faces_must_match_the_edge(self):
        # theta graph against a star dual: every pair of edges shares face
        # q, so the corner graphs are triangles, but every corner gets q
        g = LabeledGraph("theta", (0, 1), ((1, 0, 1), (2, 0, 1), (3, 0, 1)))
        gstar = LabeledGraph("star", ("q", "a", "b", "c"), ((1, "q", "a"), (2, "q", "b"), (3, "q", "c")))
        rot = recover_rotations(g, gstar)
        with pytest.raises(ValidationFailed) as exc:
            build_map(g, gstar, rot)
        assert str(exc.value) == "faces flanking end (1, 0) do not match the dual endpoints of its edge"


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

    def test_torus_grid_roundtrips(self):
        m = plane_grid(6, 8, torus=True)
        g, d = m.underlying_graph(), m.dual_graph()
        rebuilt = build_map(g, d, recover_rotations(g, d))
        assert maps_isomorphic(m, rebuilt)

    @pytest.mark.parametrize("rows,cols", [(r, c) for r in (3, 4) for c in range(r, 6)])
    def test_klein_grid_roundtrips(self, rows, cols):
        m = plane_grid(rows, cols, klein=True)
        assert not m.is_orientable() and m.euler_characteristic() == 0
        g, d = m.underlying_graph(), m.dual_graph()
        rebuilt = build_map(g, d, recover_rotations(g, d))
        assert not rebuilt.is_orientable() and rebuilt.euler_characteristic() == 0
        assert maps_isomorphic(m, rebuilt)

    # md5 of the emitted rebuilt map: pins the flag numbering and the signs
    @pytest.mark.parametrize(
        "rows,cols,surface,digest",
        [
            (3, 3, "torus", "6c098b6334c39d2167c20ea8fdc1284a"),
            (4, 5, "torus", "b8433bb42bdce93494ec95dab2680544"),
            (6, 8, "torus", "b4f8738c1eacb1f81432f059d7284e7a"),
            (3, 3, "klein", "0637ff2aa125884868901d4246267481"),
            (3, 4, "klein", "6de48e5b11373e6c3494afaf1e446a34"),
            (4, 5, "klein", "75ff270ca1ba2ea373d9d69da24ae60f"),
        ],
    )
    def test_rebuilt_grid_text_is_pinned(self, rows, cols, surface, digest):
        m = plane_grid(rows, cols, **{surface: True})
        g, d = m.underlying_graph(), m.dual_graph()
        text = emit_map(build_map(g, d, recover_rotations(g, d)))
        assert hashlib.md5(text.encode()).hexdigest() == digest


class TestDegreeTwoVertices:
    """A degree-2 vertex on two distinct edges has both corners between the
    same two faces; either split gives an isomorphic map.  The 2x2 grid is a
    4-cycle, every vertex of degree 2."""

    @pytest.mark.parametrize("rows,cols", [(r, c) for r in range(2, 6) for c in range(r, 8)])
    def test_plane_grid_roundtrips(self, rows, cols):
        assert roundtrip_check(plane_grid(rows, cols))


class TestHighDegree:
    def test_wheel_roundtrips(self):
        m = wheel(300)
        g, d = m.underlying_graph(), m.dual_graph()
        rot = recover_rotations(g, d)
        assert len(rot[0]) == 300
        assert maps_isomorphic(m, build_map(g, d, rot))


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


# The all-pairs corner-graph construction, kept as a referee for the
# face-grouped walk in `recover_rotations`.


def _ends_by_vertex(graph):
    ends = {v: [] for v in graph.vertices}
    for eid, u, v in graph.edges:
        ends[u].append((eid, 0))
        ends[v].append((eid, 1))
    return ends


def _dual_endpoints(gstar):
    return {eid: (p, q) for eid, p, q in gstar.edges}


def _shared_faces(dual_ends, e, f):
    return set(dual_ends[e]) & set(dual_ends[f])


def referee_recover_rotations(g, gstar):
    if g.edge_ids != gstar.edge_ids:
        raise LabelMismatch(
            "graph and dual carry different edge labels: %s vs %s"
            % (sorted(g.edge_ids), sorted(gstar.edge_ids))
        )
    dual_ends = _dual_endpoints(gstar)
    rotations = {}
    for v, ends in _ends_by_vertex(g).items():
        k = len(ends)
        if k < 2:
            raise AmbiguousCorners("vertex %r has degree %d; no corner cycle exists" % (v, k))
        weight = {}
        for i in range(k):
            for j in range(i + 1, k):
                a, b = ends[i], ends[j]
                shared = _shared_faces(dual_ends, a[0], b[0])
                if shared:
                    weight[(a, b)] = weight[(b, a)] = len(shared)
        degree = {a: sum(w for (x, _y), w in weight.items() if x == a) for a in ends}
        if any(degree[a] != 2 for a in ends):
            raise AmbiguousCorners("corner graph at vertex %r is not 2-regular" % (v,))
        # walk the cycle, consuming adjacency multiplicity
        remaining = dict(weight)
        cycle = [ends[0]]
        cur = ends[0]
        while True:
            step = next((b for b in ends if remaining.get((cur, b), 0) > 0), None)
            if step is None:
                break
            remaining[(cur, step)] -= 1
            remaining[(step, cur)] -= 1
            if step == ends[0]:
                break
            cycle.append(step)
            cur = step
        if len(cycle) != k or any(remaining.values()):
            raise AmbiguousCorners("corner graph at vertex %r is not a single cycle" % (v,))
        rotations[v] = tuple(cycle)
    return rotations


def _outcome(recover, g, gstar):
    try:
        return list(recover(g, gstar).items())
    except ReconstructionError as exc:
        return type(exc), str(exc)


REFEREE_INPUTS = {
    "fixtures": all_fixtures,
    "corpus1105": lambda: random_corpus(1105, 200, 7),
    "corpus77": lambda: random_corpus(77, 400, 12),
    "plane": lambda: [plane_grid(r, c) for r in range(2, 6) for c in range(r, 8)],
    "torus": lambda: [plane_grid(r, c, torus=True) for r in range(3, 7) for c in range(r, 9)],
    "klein": lambda: [plane_grid(r, c, klein=True) for r in range(3, 7) for c in range(r, 9)],
}


class TestReferee:
    @pytest.mark.parametrize("name", sorted(REFEREE_INPUTS))
    def test_recover_rotations_agrees_with_referee(self, name):
        for m in REFEREE_INPUTS[name]():
            g, d = m.underlying_graph(), m.dual_graph()
            assert _outcome(recover_rotations, g, d) == _outcome(referee_recover_rotations, g, d), m.name
