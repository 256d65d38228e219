import hashlib
import random

import pytest

from mapdelta.errors import (
    AmbiguousCorners,
    AmbiguousGluing,
    LabelMismatch,
    MapValidationError,
    ReconstructionError,
    ValidationFailed,
)
from mapdelta.fixtures import all_fixtures, get_fixture
from mapdelta.formats import emit_map
from mapdelta.maps import LabeledGraph, from_rotation_system
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
        assert _built(build_map, g, d, rot) == (
            ValidationFailed, "rebuilt flag graph is invalid: rotation system does not cover the darts exactly once")

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


    def test_label_mismatch(self):
        m = get_fixture("k4sphere")
        g, d = m.underlying_graph(), m.dual_graph()
        rot = recover_rotations(g, d)
        renamed = LabeledGraph(d.name, d.vertices, tuple((e + 10, p, q) for e, p, q in d.edges))
        with pytest.raises(LabelMismatch):
            build_map(g, renamed, rot)

    def test_rotation_filed_under_another_vertex(self):
        # each of theta's two rotations under the other vertex's key
        m = get_fixture("theta")
        g, d = m.underlying_graph(), m.dual_graph()
        rot = recover_rotations(g, d)
        swapped = {0: rot[1], 1: rot[0]}
        assert _built(build_map, g, d, swapped) == (
            ValidationFailed, "end %r in the rotation at vertex 0 is at vertex 1" % (rot[1][0],))
        assert_agrees_with_referee(g, d, swapped)

    def test_rotation_names_an_unknown_edge(self):
        m = get_fixture("k4sphere")
        g, d = m.underlying_graph(), m.dual_graph()
        rot = recover_rotations(g, d)
        rot[0] += ((99, 0),)
        assert _built(build_map, g, d, rot) == (
            ValidationFailed, "end (99, 0) in the rotation at vertex 0 names no edge")

    def test_isolated_vertex(self):
        m = get_fixture("k4sphere")
        g, d = m.underlying_graph(), m.dual_graph()
        rot = recover_rotations(g, d)
        lonely_g = LabeledGraph(g.name, g.vertices + ("lonely",), g.edges)
        lonely_d = LabeledGraph(d.name, d.vertices + ("lonely",), d.edges)
        assert _built(build_map, lonely_g, d, rot) == (ValidationFailed, "vertex count changed in the rebuild")
        assert _built(build_map, g, lonely_d, rot) == (ValidationFailed, "face count changed in the rebuild")

    def test_faces_merged_in_the_dual(self):
        # two faces of the torus grid that share no vertex, as one dual
        # vertex: every corner still reads one face, but the glued map
        # has one face more than the dual has vertices
        m = plane_grid(6, 8, torus=True)
        g, d = m.underlying_graph(), m.dual_graph()
        faces_of = {e: {p, q} for e, p, q in d.edges}
        faces_at = {v: set().union(*(faces_of[e] for e, _ in ends)) for v, ends in _ends_by_vertex(g).items()}
        far = next(f for f in d.vertices if not any({0, f} <= faces for faces in faces_at.values()))
        merged = LabeledGraph(d.name, d.vertices[1:], tuple(
            (e, far if p == 0 else p, far if q == 0 else q) for e, p, q in d.edges))
        rot = recover_rotations(g, merged)
        assert _built(build_map, g, merged, rot) == (ValidationFailed, "face count changed in the rebuild")
        # the referee compared face labels, which the merge keeps
        assert isinstance(_built(referee_build_map, g, merged, rot), str)


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


# The glue-then-compare `build_map`, kept as a referee for the checks on the
# inputs that replaced its comparison: it re-derives the glued map's vertex
# and face labels and both graphs and compares them with g and gstar.


def referee_build_map(g, gstar, rot):
    """Rebuild the map from graph, dual, and rotation system.

    Corner i at a vertex lies between the ends at positions i and i + 1 of
    its rotation, and its face is read in place: at a vertex of degree
    other than 2 it is the one face the two ends' edges share.  At a
    vertex of degree 2 on two distinct edges both corners lie between the
    same two faces, and either split is a local reflection (flip the
    vertex and the signs of its two edges) giving an isomorphic map, so
    corner 0 takes its edge's first dual endpoint and corner 1 the other.
    The two flags of an end carry the faces of the corners before and
    after it; the edge's sign is +1 iff flag (edge, end 0, side 0) and
    flag (edge, end 1, side 1) carry the same face.

    Raises AmbiguousGluing when an edge borders one face twice (dual
    loop), a vertex of degree 2 lies on one loop, or the edges at a corner
    do not share exactly one face; ValidationFailed when the faces
    flanking an end are not its edge's dual endpoints, the rotations do
    not cover every end once, or the glued map is invalid or does not
    reproduce g and gstar.  Flags are numbered 4 * edge rank + 2 * end +
    side over the sorted input edge ids, so the rebuilt map's canonical
    quadrilateral numbering follows them.
    """
    dual_ends = {eid: (p, q) for eid, p, q in gstar.edges}
    for eid, (p, q) in dual_ends.items():
        if p == q:
            raise AmbiguousGluing("edge %r borders one face twice (dual loop)" % (eid,))
    loops = sum(len(ends) == 2 and ends[0][0] == ends[1][0] for ends in rot.values())
    if loops:
        raise AmbiguousGluing("%d corner faces remain undetermined" % (2 * loops))

    ranked = sorted(g.edge_ids)
    edge_rank = {eid: i for i, eid in enumerate(ranked)}
    face_of_flag = [None] * (4 * len(ranked))
    for v, ends in rot.items():
        if len(ends) == 2:
            corners = dual_ends[ends[0][0]]
        else:
            corners = []
            for (e, _), (f, _) in zip(ends, ends[1:] + ends[:1]):
                shared = set(dual_ends[e]).intersection(dual_ends[f])
                if len(shared) != 1:
                    raise AmbiguousGluing(
                        "edges %r and %r share %d faces at a corner of vertex %r" % (e, f, len(shared), v)
                    )
                corners.append(shared.pop())
        for i, (eid, end) in enumerate(ends):
            before, after = corners[i - 1], corners[i]
            if {before, after} != set(dual_ends[eid]):
                raise ValidationFailed(
                    "faces flanking end %r do not match the dual endpoints of its edge" % ((eid, end),)
                )
            x = 4 * edge_rank[eid] + 2 * end
            face_of_flag[x], face_of_flag[x + 1] = before, after
    signs = {eid: 1 if face_of_flag[4 * r] == face_of_flag[4 * r + 3] else -1 for eid, r in edge_rank.items()}

    by_rank = LabeledGraph(g.name, g.vertices, tuple(sorted(g.edges)))
    try:
        cmap = from_rotation_system(g.name + ".rebuilt", by_rank, rot, signs)
    except (MapValidationError, ValueError) as exc:
        raise ValidationFailed("rebuilt flag graph is invalid: %s" % exc) from exc

    _check_encodes(cmap, g, gstar, face_of_flag, dual_ends, ranked)
    return cmap


def _check_encodes(cmap, g, gstar, face_of_flag, dual_ends, ranked):
    """The rebuilt map must reproduce g and gstar, edge by edge."""
    vertex_of_end = {}
    for eid, u, v in g.edges:
        vertex_of_end[(eid, 0)] = u
        vertex_of_end[(eid, 1)] = v

    def end_of_flag(x):
        return (ranked[x // 4], (x % 4) // 2)

    vertex_label = {}
    for ci, cyc in enumerate(cmap.vertex_cycles):
        vs = {vertex_of_end[end_of_flag(x)] for x in cyc}
        if len(vs) != 1:
            raise ValidationFailed("a red/black cycle mixes input vertices")
        vertex_label[ci] = next(iter(vs))
    face_label = {}
    for ci, cyc in enumerate(cmap.face_cycles):
        fs = {face_of_flag[x] for x in cyc}
        if len(fs) != 1:
            raise ValidationFailed("a green/black cycle mixes input faces")
        face_label[ci] = next(iter(fs))
    if len(set(vertex_label.values())) != len(g.vertices):
        raise ValidationFailed("vertex count changed in the rebuild")
    if len(set(face_label.values())) != len(gstar.vertices):
        raise ValidationFailed("face count changed in the rebuild")

    built_g = {e: (u, v) for e, u, v in cmap.underlying_graph().edges}
    built_d = {e: (p, q) for e, p, q in cmap.dual_graph().edges}
    for i, eid in enumerate(ranked):
        u, v = built_g[i + 1]
        if {vertex_label[u], vertex_label[v]} != {vertex_of_end[(eid, 0)], vertex_of_end[(eid, 1)]}:
            raise ValidationFailed("edge %r has wrong endpoints in the rebuild" % (eid,))
        p, q = built_d[i + 1]
        if {face_label[p], face_label[q]} != set(dual_ends[eid]):
            raise ValidationFailed("edge %r has wrong dual endpoints in the rebuild" % (eid,))



def true_rotations(cmap):
    """The rotation system of cmap itself, on the ends of its own graph.
    Quadrilateral (x, r x, g r x, r g r x) of edge e has one end on its
    first two flags and the other on the rest; end 0 is the one at the
    smaller vertex, as in `underlying_graph`.  Each red/black cycle, rooted
    with a red step, meets one end on every other flag."""
    vertex = {x: v for v, cyc in enumerate(cmap.vertex_cycles) for x in cyc}
    end_of = {}
    for e, (a, b, c, d) in enumerate(cmap.quadrilaterals, 1):
        flip = int(vertex[a] > vertex[c])
        end_of[a] = end_of[b] = (e, flip)
        end_of[c] = end_of[d] = (e, 1 - flip)
    return {v: tuple(end_of[x] for x in cyc[::2]) for v, cyc in enumerate(cmap.vertex_cycles)}


def perturbed(rng, rot):
    """rot after one or two random edits: an end swapped between two
    vertices, a vertex dropped, an end repeated (inserted, or written over
    another end), a rotation shuffled or reversed, or an extra empty key."""
    rot = {v: list(ends) for v, ends in rot.items()}
    for _ in range(rng.choice((1, 1, 2))):
        kind = rng.choice(("swap", "drop", "repeat", "shuffle", "reverse", "empty"))
        keys = [v for v in rot if rot[v]]
        if not keys:
            break
        if kind == "swap" and len(keys) > 1:
            u, v = rng.sample(keys, 2)
            i, j = rng.randrange(len(rot[u])), rng.randrange(len(rot[v]))
            rot[u][i], rot[v][j] = rot[v][j], rot[u][i]
        elif kind == "drop":
            del rot[rng.choice(keys)]
        elif kind == "repeat":
            end, ends = rng.choice(rot[rng.choice(keys)]), rot[rng.choice(keys)]
            if rng.random() < 0.5:
                ends.insert(rng.randrange(len(ends) + 1), end)
            else:
                ends[rng.randrange(len(ends))] = end
        elif kind == "shuffle":
            rng.shuffle(rot[rng.choice(keys)])
        elif kind == "reverse":
            rot[rng.choice(keys)].reverse()
        elif kind == "empty":
            rot["extra%d" % len(rot)] = []
    return {v: tuple(ends) for v, ends in rot.items()}


def _built(build, g, gstar, rot):
    try:
        return emit_map(build(g, gstar, rot))
    except Exception as exc:  # the referee also fails with KeyError and the like
        return type(exc), str(exc)


def assert_agrees_with_referee(g, gstar, rot):
    """Same text, or same exception and message, but for two differences.
    Where the referee found a red/black cycle mixing input vertices,
    build_map names the end off its vertex.  Where every rotation lies at
    one vertex but some under another vertex's key, the referee, which
    never read the keys, rebuilt the map; build_map refuses, and gives the
    referee's map once each rotation is filed under its own vertex."""
    ours, theirs = _built(build_map, g, gstar, rot), _built(referee_build_map, g, gstar, rot)
    if ours == theirs:
        return
    assert ours[0] is ValidationFailed and " in the rotation at vertex " in ours[1], (ours, theirs)
    if theirs != (ValidationFailed, "a red/black cycle mixes input vertices"):
        at = {end: v for v, ends in _ends_by_vertex(g).items() for end in ends}
        homes = {v: {at[end] for end in ends} for v, ends in rot.items() if ends}
        assert all(len(home) == 1 for home in homes.values()), (ours, theirs)
        refiled = {home.pop(): rot[v] for v, home in homes.items()}
        assert _built(build_map, g, gstar, refiled) == theirs


def rotation_systems(maps):
    """(g, gstar, rotations) for the recovered and the true rotations of
    each map, where recover_rotations succeeds, and the true ones otherwise."""
    for m in maps:
        g, d = m.underlying_graph(), m.dual_graph()
        try:
            yield g, d, recover_rotations(g, d)
        except ReconstructionError:
            pass
        yield g, d, true_rotations(m)


PERTURBED = 10_000
PERTURBED_MAX_EDGES = 24  # larger maps are compared unperturbed, to keep the run short


class TestBuildMapReferee:
    @pytest.mark.parametrize("name", sorted(REFEREE_INPUTS))
    def test_agrees_with_referee(self, name):
        for g, d, rot in rotation_systems(REFEREE_INPUTS[name]()):
            assert_agrees_with_referee(g, d, rot)

    def test_agrees_with_referee_on_perturbed_rotations(self):
        maps = [m for name in sorted(REFEREE_INPUTS) for m in REFEREE_INPUTS[name]()]
        bases = [(g, d, rot) for g, d, rot in rotation_systems(maps)
                 if len(g.edges) <= PERTURBED_MAX_EDGES and isinstance(_built(referee_build_map, g, d, rot), str)]
        rng = random.Random(20)
        for i in range(PERTURBED):
            g, d, rot = bases[i % len(bases)]
            assert_agrees_with_referee(g, d, perturbed(rng, rot))
