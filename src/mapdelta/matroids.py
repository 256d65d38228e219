"""Exchange-axiom checkers, upper/lower matroids, and graph matroid oracles.

All checks are brute force; the point of this package is exhaustive
verification at desk scale, not oracle efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DisconnectedGraph, NotDeltaMatroid
from .families import SetFamily


def check_symmetric_exchange(family):
    """Symmetric exchange: for F1, F2 and x in F1 ^ F2 some y in F1 ^ F2
    has F1 ^ {x, y} in the family (y = x allowed).

    Returns (True, None) or (False, (F1, F2, x)) with the first violating
    triple in canonical order.
    """
    family.require_nonempty()
    members = set(family.members)
    for f1 in family.members:
        for f2 in family.members:
            diff = f1 ^ f2
            for x in sorted(diff):
                if not any(f1 ^ {x, y} in members for y in diff):
                    return False, (f1, f2, x)
    return True, None


def check_basis_exchange(family):
    """Basis exchange: equicardinal members, and for x in B1 - B2 some
    y in B2 - B1 has B1 ^ {x, y} in the family.
    """
    family.require_nonempty()
    sizes = family.cardinalities()
    if len(sizes) > 1:
        small = family.restrict_to_cardinality(sizes[0]).members[0]
        big = family.restrict_to_cardinality(sizes[-1]).members[0]
        return False, (small, big, None)
    members = set(family.members)
    for b1 in family.members:
        for b2 in family.members:
            for x in sorted(b1 - b2):
                if not any(b1 ^ {x, y} in members for y in b2 - b1):
                    return False, (b1, b2, x)
    return True, None


@dataclass(frozen=True)
class Matroid:
    ground: frozenset
    bases: SetFamily

    @property
    def rank(self):
        return len(self.bases.members[0]) if self.bases.members else 0


def _require_delta_matroid(family):
    ok, witness = check_symmetric_exchange(family)
    if not ok:
        raise NotDeltaMatroid("family fails symmetric exchange at %r" % (witness,))
    return family


def extremal_matroids(family):
    """(lower, upper): the matroids of the minimum- and the maximum-cardinality
    members.  Unchecked: the caller has established symmetric exchange."""
    sizes = family.cardinalities()
    return tuple(Matroid(ground=family.ground, bases=family.restrict_to_cardinality(k))
                 for k in (sizes[0], sizes[-1]))


def upper_matroid(family):
    """Matroid of the maximum-cardinality feasible sets."""
    return extremal_matroids(_require_delta_matroid(family))[1]


def lower_matroid(family):
    """Matroid of the minimum-cardinality feasible sets."""
    return extremal_matroids(_require_delta_matroid(family))[0]


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


def spanning_tree_bases(graph):
    """All spanning trees of a connected multigraph, by exhaustive check."""
    if not graph.is_connected():
        raise DisconnectedGraph("graph %r is not connected" % (graph.name,))
    ids = sorted(graph.edge_ids)
    k = len(graph.vertices) - 1
    trees = [
        frozenset(sub)
        for sub in combinations(ids, k)
        if _is_spanning_forest(graph, sub, len(graph.vertices))
    ]
    return SetFamily.of(ids, trees)


def cotree_bases(graph):
    """Bases of the cocycle matroid: complements of spanning trees."""
    return spanning_tree_bases(graph).complement()


def parity_uniform(family):
    """True iff all member cardinalities have the same parity."""
    family.require_nonempty()
    parities = {len(s) % 2 for s in family.members}
    return len(parities) == 1


def rank_gap_check(cmap, family):
    """rank(upper) - rank(lower) must equal 2 - Euler characteristic."""
    lower, upper = extremal_matroids(_require_delta_matroid(family))
    return upper.rank - lower.rank == 2 - cmap.euler_characteristic()
