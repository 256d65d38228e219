"""Flag graphs with three perfect matchings (red/green/black) and their orbits.

A map is stored as three fixed-point-free involutions on the flag set
{0, ..., n-1}.  Red/black orbits are the vertices of the encoded graph,
red/green orbits its edges (quadrilaterals), green/black orbits its faces.
Each orbit structure is walked once per map and kept (`cached_property`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernel
from .errors import (
    BadQuadrilateral,
    Disconnected,
    FixedPoint,
    NotInvolution,
    RedGreenParallel,
)

RED = "R"
GREEN = "G"
BLACK = "B"


def involution_from_pairs(n, pairs, color):
    """Turn a list of unordered flag pairs into a partner array.

    Raises NotInvolution if a flag occurs twice or is missing, FixedPoint on
    a pair (x, x).
    """
    partner = [-1] * n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise NotInvolution("%s: flag out of range in pair (%d, %d)" % (color, a, b))
        if a == b:
            raise FixedPoint("%s: flag %d paired with itself" % (color, a))
        if partner[a] != -1 or partner[b] != -1:
            raise NotInvolution("%s: flag %d or %d matched twice" % (color, a, b))
        partner[a] = b
        partner[b] = a
    for x, p in enumerate(partner):
        if p == -1:
            raise NotInvolution("%s: flag %d is unmatched" % (color, x))
    return tuple(partner)


def check_involution(n, partner, color):
    if len(partner) != n:
        raise NotInvolution("%s: expected %d entries, got %d" % (color, n, len(partner)))
    for x, p in enumerate(partner):
        if not 0 <= p < n:
            raise NotInvolution("%s: partner of %d out of range" % (color, x))
        if p == x:
            raise FixedPoint("%s: flag %d is a fixed point" % (color, x))
        if partner[p] != x:
            raise NotInvolution("%s: partner map is not symmetric at %d" % (color, x))


@dataclass(frozen=True)
class LabeledGraph:
    """Multigraph with loops; every edge carries a distinct integer label."""

    name: str
    vertices: tuple
    edges: tuple  # of (edge_id, u, v)

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) < len(self.vertices):
            twice = next(v for i, v in enumerate(self.vertices) if v in self.vertices[:i])
            raise ValueError("vertex %r appears twice" % (twice,))
        seen = set()
        for eid, u, v in self.edges:
            if eid in seen:
                raise ValueError("edge id %r appears twice" % (eid,))
            seen.add(eid)
            if u not in vs or v not in vs:
                raise ValueError("edge %r has undeclared endpoint" % (eid,))

    @property
    def edge_ids(self):
        return frozenset(eid for eid, _, _ in self.edges)

    def is_connected(self):
        if not self.vertices:
            return True
        adj = {v: [] for v in self.vertices}
        for _, u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


def _orbits_of_two_matchings(n, inv_a, inv_b):
    """Cycles of the union of two perfect matchings, as flag lists.

    Each cycle alternates inv_a / inv_b edges and is rooted at its smallest
    flag, starting with the inv_a step; cycles sorted by root.
    """
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        x = start
        use_a = True
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = inv_a[x] if use_a else inv_b[x]
            use_a = not use_a
        cycles.append(tuple(cycle))
    return cycles


def _cycle_labels(n, cycles, first=0):
    """label[x] = first + the index of the cycle holding flag x."""
    label = [0] * n
    for i, cyc in enumerate(cycles, first):
        for x in cyc:
            label[x] = i
    return label


@dataclass(frozen=True)
class CombinatorialMap:
    """A validated 3-edge-colored flag graph.

    Immutable; construct through :func:`validate_map` (direct construction
    skips the axioms and is for internal use only).
    """

    name: str
    n_flags: int
    rho_r: tuple
    rho_g: tuple
    rho_b: tuple

    @property
    def n_edges(self):
        return self.n_flags // 4

    @cached_property
    def quadrilaterals(self):
        """Red/green orbits as 4-tuples, sorted by minimum flag.

        Quadrilateral i (0-based here) is the edge with id i + 1.
        """
        quads = _orbits_of_two_matchings(self.n_flags, self.rho_r, self.rho_g)
        return tuple(quads)

    @cached_property
    def edge_of_flag(self):
        """edge_of_flag[x] = 1-based edge id of the quadrilateral holding x."""
        return tuple(_cycle_labels(self.n_flags, self.quadrilaterals, 1))

    @cached_property
    def selection_survey(self):
        """(hamiltonian_masks, linkable_masks): the 2^m selection scan of
        `kernel.survey_selections`, made once per map, as ascending tuples."""
        ham, link = kernel.survey_selections(
            self.n_flags, self.n_edges, self.rho_r, self.rho_g, self.rho_b, self.edge_of_flag,
            self.underlying_graph(), self.dual_graph(),
        )
        return tuple(ham), tuple(link)

    def orbit_cycles(self, colors):
        """Cycles of the union of two color classes; colors like "RB"."""
        rho = {RED: self.rho_r, GREEN: self.rho_g, BLACK: self.rho_b}
        return _orbits_of_two_matchings(self.n_flags, rho[colors[0]], rho[colors[1]])

    @cached_property
    def vertex_cycles(self):
        return tuple(self.orbit_cycles("RB"))

    @cached_property
    def face_cycles(self):
        return tuple(self.orbit_cycles("GB"))

    def _incidence_graph(self, cycles, far, suffix):
        # edge e joins the cycles holding flags 0 and `far` of quadrilateral e
        label = _cycle_labels(self.n_flags, cycles)
        edges = []
        for e, quad in enumerate(self.quadrilaterals, 1):
            u, v = label[quad[0]], label[quad[far]]
            edges.append((e, u, v) if u <= v else (e, v, u))
        return LabeledGraph(self.name + suffix, tuple(range(len(cycles))), tuple(edges))

    @cached_property
    def _graphs(self):
        """(underlying graph, dual graph), built once per map.

        In quadrilateral (x, r x, g r x, r g r x), x and r x lie on one end
        vertex and g r x on the other; x and its green partner r g r x lie
        on one side face and r x on the other.
        """
        return (self._incidence_graph(self.vertex_cycles, 2, ".graph"),
                self._incidence_graph(self.face_cycles, 1, ".dual"))

    def underlying_graph(self):
        """The encoded graph: red/black cycles as vertices, quads as edges."""
        return self._graphs[0]

    def dual_graph(self):
        """The geometric dual: green/black cycles as vertices, same edges."""
        return self._graphs[1]

    def euler_characteristic(self):
        return len(self.vertex_cycles) - self.n_edges + len(self.face_cycles)

    @cached_property
    def _flag_walk(self):
        """(flags reached from flag 0, bipartite): the one 2-coloring walk
        of the flag graph, read by validation and by orientability."""
        rhos = (self.rho_r, self.rho_g, self.rho_b)
        color = [-1] * self.n_flags
        color[0] = 0
        stack = [0]
        bipartite = True
        while stack:
            x = stack.pop()
            c = 1 - color[x]
            for rho in rhos:
                y = rho[x]
                if color[y] == -1:
                    color[y] = c
                    stack.append(y)
                elif color[y] != c:
                    bipartite = False
        return self.n_flags - color.count(-1), bipartite

    def is_orientable(self):
        """True iff the flag graph is bipartite (2-colorable)."""
        return self._flag_walk[1]


def validate_map(name, rho_r, rho_g, rho_b):
    """Check the three map axioms and return a CombinatorialMap.

    Arguments are partner arrays (or anything indexable of equal length).
    Raises the first violated axiom: NotInvolution / FixedPoint,
    RedGreenParallel, BadQuadrilateral, Disconnected.
    """
    n = len(rho_r)
    if n == 0 or n % 4 != 0:
        raise BadQuadrilateral("flag count %d is not a positive multiple of 4" % n)
    rho_r, rho_g, rho_b = tuple(rho_r), tuple(rho_g), tuple(rho_b)
    check_involution(n, rho_r, RED)
    check_involution(n, rho_g, GREEN)
    check_involution(n, rho_b, BLACK)
    for x in range(n):
        if rho_r[x] == rho_g[x]:
            raise RedGreenParallel("flags %d and %d are joined by both red and green" % (x, rho_r[x]))
    cmap = CombinatorialMap(name=name, n_flags=n, rho_r=rho_r, rho_g=rho_g, rho_b=rho_b)
    for quad in cmap.quadrilaterals:
        if len(quad) != 4:
            raise BadQuadrilateral(
                "red/green orbit of flag %d has %d flags, expected 4" % (quad[0], len(quad))
            )
    if cmap._flag_walk[0] != n:
        raise Disconnected("flag graph is not connected")
    # These axioms already make the flag graph bridgeless: a red or green
    # edge lies on its 4-flag quadrilateral, and a black edge between two
    # quadrilaterals on a red/black cycle of length at least 4.
    return cmap


def from_rotation_system(name, graph, rotations, signs=None):
    """Build a map from a rotation system on a LabeledGraph.

    rotations: {vertex: cyclic tuple of darts}, where a dart is (edge_id, end)
    with end 0/1 distinguishing the two ends of an edge (a loop contributes
    both darts at its vertex).  signs: {edge_id: +1 | -1}, +1 by default;
    -1 glues the edge with a twist (flip of face sides).  Every dart must
    occur exactly once, and every sign must be +1 or -1 on an edge of the
    graph; ValueError otherwise.

    Flag 4 * i + 2 * end + side lies on dart (edge_id, end) of edge i of
    graph.edges (counting from 0), on side 0 before the dart in its rotation
    or side 1 after it; so the map's edge i + 1 is edge i of graph.edges.
    """
    signs = signs or {}
    edge_ids = graph.edge_ids
    for eid, sign in signs.items():
        if eid not in edge_ids or sign not in (1, -1):
            raise ValueError("sign %r on edge %r: expected +1 or -1 on an edge of the graph" % (sign, eid))
    first_flag = {}  # of each dart, on its side 0
    for i, (eid, _u, _v) in enumerate(graph.edges):
        first_flag[eid, 0], first_flag[eid, 1] = 4 * i, 4 * i + 2
    seen = set()
    for rot in rotations.values():
        for d in rot:
            if d in seen:
                raise ValueError("dart %r occurs twice in the rotation system" % (d,))
            seen.add(d)
    if seen != first_flag.keys():
        raise ValueError("rotation system does not cover the darts exactly once")

    n = 4 * len(graph.edges)
    rho_b = [0] * n
    for rot in rotations.values():
        k = len(rot)
        for i in range(k):
            a = first_flag[rot[i]] + 1
            b = first_flag[rot[(i + 1) % k]]
            rho_b[a], rho_b[b] = b, a
    # red joins the two sides of a dart; green joins side 0 of end 0 to
    # side 1 of end 1 (x ^ 3), or to side 0 on a twisted edge (x ^ 2)
    twisted = [signs.get(eid, 1) == -1 for eid, _u, _v in graph.edges]
    rho_r = [x ^ 1 for x in range(n)]
    rho_g = [x ^ (2 if twisted[x >> 2] else 3) for x in range(n)]
    return validate_map(name, rho_r, rho_g, rho_b)
