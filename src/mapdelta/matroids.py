"""Exchange-axiom checkers, upper/lower matroids, and graph matroid oracles.

The exchange checkers are exhaustive over all pairs of members, but run on
integer bitmasks: each first member's exchange partners are found once, and
the second members are tested for it together, as bits of one integer.  The
spanning-tree oracle is brute force over edge subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DisconnectedGraph, NotDeltaMatroid
from .families import SetFamily


def _first_violation(family, x_in_f1):
    """The first (F1, F2, x) in canonical order with no y in F1 ^ F2 such
    that F1 ^ {x, y} is a member, x ranging over F1 ^ F2 (over F1 - F2 when
    x_in_f1), or None.

    Bit i of a mask is the i-th smallest ground element, so ascending bits
    are ascending elements.  For each F1, cover[x] is the mask of every y
    with F1 ^ {x, y} a member (y = x included); (F2, x) violates exactly
    when F2 differs from F1 at x and agrees with it on cover[x].  Bit j of
    cols[y] tells whether member j holds y, so the members F2 violating at
    one x are an AND of columns, as the bits of one integer.  The lowest
    such member over all x, then the lowest x for it, is the first violation.
    """
    masks = family.masks
    m = len(family.ground)
    # row j is member j's bits, highest first, with member 0 as the last row;
    # a leading 1 keeps every row m characters long, m = 0 included
    rows = [format(p | 1 << m, "b")[1:] for p in reversed(masks)]
    cols = [int("".join(col), 2) for col in zip(*rows)][::-1]
    everyone = (1 << len(masks)) - 1
    present = set(masks)
    for a in masks:
        cover = [0] * m
        for x in range(m):
            for y in range(x, m):
                if a ^ (1 << x | 1 << y) in present:
                    cover[x] |= 1 << y
                    cover[y] |= 1 << x
        same = [cols[y] if a >> y & 1 else everyone ^ cols[y] for y in range(m)]
        first, at = 0, None
        for x in range(m):
            if cover[x] >> x & 1 or (x_in_f1 and not a >> x & 1):
                continue  # F1 ^ {x} is a member, or x is outside the range
            hits = everyone ^ same[x]
            rest = cover[x]
            while rest and hits:
                low = rest & -rest
                hits &= same[low.bit_length() - 1]
                rest ^= low
            low = hits & -hits
            if low and (at is None or low < first):
                first, at = low, x
        if at is not None:
            return family.set_of(a), family.set_of(masks[first.bit_length() - 1]), family.elements[at]
    return None


def check_symmetric_exchange(family):
    """Symmetric exchange: for F1, F2 and x in F1 ^ F2 some y in F1 ^ F2
    has F1 ^ {x, y} in the family (y = x allowed).

    Returns (True, None) or (False, (F1, F2, x)) with the first violating
    triple in canonical order.
    """
    family.require_nonempty()
    witness = _first_violation(family, x_in_f1=False)
    return witness is None, witness


def check_basis_exchange(family):
    """Basis exchange: equicardinal members, and for x in B1 - B2 some
    y in B2 - B1 has B1 ^ {x, y} in the family.
    """
    family.require_nonempty()
    sizes = family.cardinalities()
    if len(sizes) > 1:
        # the masks run by cardinality: the first of each size comes first
        big = next(p for p in family.masks if p.bit_count() == sizes[-1])
        return False, (family.set_of(family.masks[0]), family.set_of(big), None)
    # for x in B1, B1 ^ {x, y} has |B1| elements only for y outside B1, so
    # this is symmetric exchange with x restricted to B1 - B2
    witness = _first_violation(family, x_in_f1=True)
    return witness is None, witness


@dataclass(frozen=True)
class Matroid:
    ground: frozenset
    bases: SetFamily

    @property
    def rank(self):
        return self.bases.masks[0].bit_count() if self.bases.masks else 0


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
    return len({k % 2 for k in family.cardinalities()}) == 1


def rank_gap_check(cmap, family):
    """rank(upper) - rank(lower) must equal 2 - Euler characteristic."""
    lower, upper = extremal_matroids(_require_delta_matroid(family))
    return upper.rank - lower.rank == 2 - cmap.euler_characteristic()
