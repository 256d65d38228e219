"""Rebuild a map from its underlying graph and geometric dual.

The graphs must share one edge-label set.  Rotations around a vertex are
recovered from the dual: two edges follow each other in the rotation only
if they are incident to a common dual vertex (a shared face).  The face of
each corner is then local: it is the one face that the two edges bounding
the corner share, read in place, with no propagation between corners;
where that face is not forced, an error is raised instead of guessing.
The faces of the corners on either side of each end give every edge a
sign (+1 when the edge keeps the face sides, -1 when it twists them), and
the rotations and signs, a signed rotation system, go to
`maps.from_rotation_system`, which glues the flag graph.
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


def _check_labels(g, gstar):
    if g.edge_ids != gstar.edge_ids:
        raise LabelMismatch(
            "graph and dual carry different edge labels: %s vs %s"
            % (sorted(g.edge_ids), sorted(gstar.edge_ids))
        )


def recover_rotations(g, gstar):
    """Recover the rotation system of g from co-incidence in gstar.

    At each vertex the corner graph on its edge-ends joins two ends once
    for every face (dual vertex) their edges share.  Grouping the ends by
    face gives it, since the ends on one face are pairwise adjacent, so
    the cost is linear in the degree.  The corner graph must be a single
    cycle; that cycle is the rotation, walked from the vertex's first end
    towards its neighbour that comes first among the vertex's ends.
    Raises AmbiguousCorners otherwise, LabelMismatch if the edge-label
    sets differ.  Returns {vertex: tuple of edge-ends}, each rotation up to
    rotation and reflection: the form `from_rotation_system` takes.
    """
    _check_labels(g, gstar)
    faces_of = {eid: {p, q} for eid, p, q in gstar.edges}
    rotations = {}
    for v, ends in _ends_by_vertex(g).items():
        k = len(ends)
        if k < 2:
            raise AmbiguousCorners("vertex %r has degree %d; no corner cycle exists" % (v, k))
        on_face = {}
        for d in ends:
            for f in faces_of[d[0]]:
                on_face.setdefault(f, []).append(d)
        if any(sum(len(on_face[f]) - 1 for f in faces_of[d[0]]) != 2 for d in ends):
            raise AmbiguousCorners("corner graph at vertex %r is not 2-regular" % (v,))
        neighbours = {d: [x for f in faces_of[d[0]] for x in on_face[f] if x != d] for d in ends}
        # walk the cycle; a double adjacency at the start closes it after one step
        start = prev = ends[0]
        cur = min(neighbours[start], key=ends.index)
        cycle = [start]
        while cur != start:
            cycle.append(cur)
            a, b = neighbours[cur]
            prev, cur = cur, b if a == prev else a
        if len(cycle) != k:
            raise AmbiguousCorners("corner graph at vertex %r is not a single cycle" % (v,))
        rotations[v] = tuple(cycle)
    return rotations


def build_map(g, gstar, rot):
    """Rebuild the map from graph, dual, and rotation system.

    Corner i at a vertex lies between the ends at positions i and i + 1 of
    its rotation, and its face is read in place: at a vertex of degree
    other than 2 it is the one face the two ends' edges share.  At a
    vertex of degree 2 on two distinct edges both corners lie between the
    same two faces, and either split is a local reflection (flip the
    vertex and the signs of its two edges) giving an isomorphic map, so
    corner 0 takes its edge's first dual endpoint and corner 1 the other.
    An end's flanks (the faces of the corners before and after it) must be
    its edge's dual endpoints; the edge's sign is +1 iff the face before
    end 0 is the face after end 1.  The glued map's edge i is the i-th
    smallest input edge id, its red/black cycles are the rotations and
    each green/black cycle lies on one face, so it encodes g and gstar
    once each rotation holds only ends at its vertex, every vertex of g
    and gstar has an edge, and it has one face cycle per dual vertex (a
    count that local corner reading cannot settle).

    Raises LabelMismatch if the edge-label sets differ; AmbiguousGluing
    when an edge borders one face twice (dual loop), a vertex of degree 2
    lies on one loop, or the edges at a corner do not share exactly one
    face; ValidationFailed when a rotation names an edge neither graph has,
    flanks do not match, the rotations do not cover every end once, or a
    check above fails.
    """
    _check_labels(g, gstar)
    dual_ends = {eid: (p, q) for eid, p, q in gstar.edges}
    for eid, (p, q) in dual_ends.items():
        if p == q:
            raise AmbiguousGluing("edge %r borders one face twice (dual loop)" % (eid,))
    for v, ends in rot.items():
        for end in ends:
            if end[0] not in dual_ends:
                raise ValidationFailed("end %r in the rotation at vertex %r names no edge" % (end, v))
    loops = sum(len(ends) == 2 and ends[0][0] == ends[1][0] for ends in rot.values())
    if loops:
        raise AmbiguousGluing("%d corner faces remain undetermined" % (2 * loops))

    flanks = {}
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
        for i, end in enumerate(ends):
            flanks[end] = corners[i - 1], corners[i]
            if set(flanks[end]) != set(dual_ends[end[0]]):
                raise ValidationFailed(
                    "faces flanking end %r do not match the dual endpoints of its edge" % (end,)
                )
    # an edge with an end missing from the rotations gets no sign; from_rotation_system rejects those
    signs = {eid: 1 if flanks[eid, 0][0] == flanks[eid, 1][1] else -1
             for eid in dual_ends if (eid, 0) in flanks and (eid, 1) in flanks}

    by_rank = LabeledGraph(g.name, g.vertices, tuple(sorted(g.edges)))
    try:
        cmap = from_rotation_system(g.name + ".rebuilt", by_rank, rot, signs)
    except (MapValidationError, ValueError) as exc:
        raise ValidationFailed("rebuilt flag graph is invalid: %s" % exc) from exc

    # from_rotation_system has rejected any end that is repeated, missing or not of g
    at = {end: v for v, ends in _ends_by_vertex(g).items() for end in ends}
    for v, ends in rot.items():
        for end in ends:
            if at[end] != v:
                raise ValidationFailed("end %r in the rotation at vertex %r is at vertex %r" % (end, v, at[end]))
    if len(set(at.values())) != len(g.vertices):
        raise ValidationFailed("vertex count changed in the rebuild")
    faces = {f for ends in dual_ends.values() for f in ends}
    if len(faces) != len(gstar.vertices) or len(cmap.face_cycles) != len(faces):
        raise ValidationFailed("face count changed in the rebuild")
    return cmap


def maps_isomorphic(a, b):
    """Color- and edge-label-preserving isomorphism.

    A connected 3-regular flag graph is rigid once one flag image is fixed:
    images propagate along the three involutions.  Try every flag of b on
    flag 0's edge as the image of flag 0 and check consistency.
    """
    if a.n_flags != b.n_flags:
        return False
    n = a.n_flags
    for seed in (y for y in range(n) if b.edge_of_flag[y] == a.edge_of_flag[0]):
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
        if any(a.edge_of_flag[x] != b.edge_of_flag[phi[x]] for x in range(n)):
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
