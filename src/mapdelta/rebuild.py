"""Rebuild a map from its underlying graph and geometric dual.

The graphs must share one edge-label set.  Rotations around a vertex are
recovered from the dual: two edges follow each other in the rotation only
if they are incident to a common dual vertex (a shared face).  A face is
then forced onto every corner; whenever that assignment is not forced, an
error is raised instead of guessing.  The corner faces give every edge a
sign (+1 when the edge keeps the face sides, -1 when it twists them), and
the rotations and signs, a signed rotation system, go to
`maps.from_rotation_system`, which builds the flag graph.
"""

from __future__ import annotations

from .errors import (
    AmbiguousCorners,
    AmbiguousGluing,
    LabelMismatch,
    MapValidationError,
    ValidationFailed,
)
from .maps import LabeledGraph, from_rotation_system

# an edge-end is (edge_id, end_index); a loop has ends 0 and 1 at one vertex


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


def recover_rotations(g, gstar):
    """Recover the rotation system of g from co-incidence in gstar.

    At each vertex the corner graph on its edge-ends (ends adjacent with
    multiplicity = number of shared dual vertices of their edges) must be a
    single cycle; that cycle is the rotation.  Raises AmbiguousCorners
    otherwise, LabelMismatch if the edge-label sets differ.  Returns
    {vertex: tuple of edge-ends}, each rotation up to rotation and
    reflection: the form `from_rotation_system` takes.
    """
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


def _assign_corner_faces(dual_ends, rot):
    """Force a face (dual vertex) onto every corner, or raise.

    A corner (v, i) sits between the ends at positions i and i + 1 of the
    rotation at v.  Its face must be shared by both bounding edges, and the
    two corners flanking an end must carry the two distinct dual endpoints
    of that end's edge.  Singleton candidate sets seed the assignment,
    which is then propagated end by end.

    At a vertex of degree 2 whose two ends lie on distinct edges, both
    corners lie between the same two edges, so which of the two shared
    faces each one gets is never forced.  Either choice is a local
    reflection (flip the vertex and the signs of its two edges), which
    gives an isomorphic map, so when propagation stalls the first open
    such corner takes the first of its edge's dual endpoints, and
    propagation goes on.  Anything left open after that is ambiguous.
    """
    candidates = {}
    for v, ends in rot.items():
        k = len(ends)
        for i in range(k):
            a, b = ends[i], ends[(i + 1) % k]
            candidates[(v, i)] = set(_shared_faces(dual_ends, a[0], b[0]))
    flank = {}
    for v, ends in rot.items():
        k = len(ends)
        for i, d in enumerate(ends):
            flank[d] = ((v, (i - 1) % k), (v, i))

    # corners at a vertex of degree 2 on two distinct edges that share two
    # faces: either face gives an isomorphic map
    free = [(v, 0) for v, ends in rot.items()
            if len(ends) == 2 and ends[0][0] != ends[1][0] and len(candidates[(v, 0)]) == 2]
    assigned = {c: next(iter(cand)) for c, cand in candidates.items() if len(cand) == 1}
    changed = True
    while changed:
        changed = False
        for d, (c_before, c_after) in flank.items():
            faces = set(dual_ends[d[0]])
            for known, other in ((c_before, c_after), (c_after, c_before)):
                if known in assigned and other not in assigned:
                    forced = (faces - {assigned[known]}) & candidates[other]
                    if len(forced) != 1:
                        raise AmbiguousGluing(
                            "cannot force the face of corner %r at end %r" % (other, d)
                        )
                    assigned[other] = next(iter(forced))
                    changed = True
        seed = None if changed else next((c for c in free if c not in assigned), None)
        if seed is not None:
            edge = rot[seed[0]][0][0]
            assigned[seed] = next(f for f in dual_ends[edge] if f in candidates[seed])
            changed = True
    if len(assigned) != len(candidates):
        raise AmbiguousGluing(
            "%d corner faces remain undetermined" % (len(candidates) - len(assigned))
        )
    for d, (c_before, c_after) in flank.items():
        if {assigned[c_before], assigned[c_after]} != set(dual_ends[d[0]]):
            raise ValidationFailed(
                "faces flanking end %r do not match the dual endpoints of its edge" % (d,)
            )
    return assigned


def build_map(g, gstar, rot):
    """Rebuild the map from graph, dual, and rotation system.

    The two flags of an end carry the faces of the corners before and
    after it, which are the two distinct dual endpoints of its edge.  The
    edge's sign is +1 iff flag (edge, end 0, side 0) and flag (edge, end 1,
    side 1) carry the same face; `from_rotation_system` then glues the flag
    graph from the rotations and signs.  Raises AmbiguousGluing when some
    edge borders a single face (dual loop) or a corner face is not forced,
    and ValidationFailed when the rotations do not cover every end once,
    the glued graph is not a valid map, or it does not reproduce g and
    gstar.

    Flags are numbered 4 * edge rank + 2 * end + side over the sorted input
    edge ids, so the rebuilt map's canonical quadrilateral numbering
    follows them.
    """
    dual_ends = _dual_endpoints(gstar)
    for eid, (p, q) in dual_ends.items():
        if p == q:
            raise AmbiguousGluing("edge %r borders one face twice (dual loop)" % (eid,))
    faces = _assign_corner_faces(dual_ends, rot)

    edge_rank = {eid: i for i, eid in enumerate(sorted(g.edge_ids))}
    face_of_flag = [None] * (4 * len(edge_rank))
    for v, ends in rot.items():
        k = len(ends)
        for i, (eid, end) in enumerate(ends):
            x = 4 * edge_rank[eid] + 2 * end
            face_of_flag[x] = faces[(v, (i - 1) % k)]
            face_of_flag[x + 1] = faces[(v, i)]
    signs = {eid: 1 if face_of_flag[4 * r] == face_of_flag[4 * r + 3] else -1 for eid, r in edge_rank.items()}

    ranked = LabeledGraph(g.name, g.vertices, tuple(sorted(g.edges)))
    try:
        cmap = from_rotation_system(g.name + ".rebuilt", ranked, rot, signs)
    except (MapValidationError, ValueError) as exc:
        raise ValidationFailed("rebuilt flag graph is invalid: %s" % exc) from exc

    _check_encodes(cmap, g, gstar, face_of_flag, dual_ends)
    return cmap


def _check_encodes(cmap, g, gstar, face_of_flag, dual_ends):
    """The rebuilt map must reproduce g and gstar, edge by edge."""
    vertex_of_end = {}
    for eid, u, v in g.edges:
        vertex_of_end[(eid, 0)] = u
        vertex_of_end[(eid, 1)] = v
    ranked = sorted(g.edge_ids)

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


def maps_isomorphic(a, b, match_edge_ids=True):
    """Color-preserving (and optionally quad-label-preserving) isomorphism.

    A connected 3-regular flag graph is rigid once one flag image is fixed:
    images propagate along the three involutions.  Try every admissible
    seed and check consistency.
    """
    if a.n_flags != b.n_flags:
        return False
    n = a.n_flags
    if match_edge_ids:
        seeds = [y for y in range(n) if b.edge_of_flag[y] == a.edge_of_flag[0]]
    else:
        seeds = list(range(n))
    for seed in seeds:
        phi = [-1] * n
        phi[0] = seed
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            for rho_a, rho_b_ in ((a.rho_r, b.rho_r), (a.rho_g, b.rho_g), (a.rho_b, b.rho_b)):
                y, img = rho_a[x], rho_b_[phi[x]]
                if phi[y] == -1:
                    phi[y] = img
                    stack.append(y)
                elif phi[y] != img:
                    ok = False
                    break
        if not ok or -1 in phi or len(set(phi)) != n:
            continue
        if match_edge_ids and any(a.edge_of_flag[x] != b.edge_of_flag[phi[x]] for x in range(n)):
            continue
        return True
    return False


def roundtrip_check(cmap):
    """Rebuild the map from its own graph and dual and compare.

    True iff the rebuilt map is color- and edge-label-isomorphic to the
    original.  Ambiguity errors from the two stages propagate.
    """
    g = cmap.underlying_graph()
    gstar = cmap.dual_graph()
    rot = recover_rotations(g, gstar)
    rebuilt = build_map(g, gstar, rot)
    return maps_isomorphic(cmap, rebuilt)
