"""Exchange-axiom checkers, upper/lower matroids, and graph matroid oracles.

The exchange checkers are exhaustive over all pairs of members, but run on
integer bitmasks: each first member's exchange partners are found once, and
the second members are tested for it together, as bits of one integer.  A
shadow index, built once per family in O(N*m) dict updates, gives each
(member, element) pair its exchange partners in one lookup.  The
spanning-tree oracle is brute force over edge subsets, with one union-find
list per subset.
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

    Bit i of a mask is the i-th smallest ground element.  The shadow index
    maps q to the y with q ^ {y} a member, so shadow[F1 ^ {x}] holds the y
    with F1 ^ {x, y} a member (bit x is F1 itself).  (F2, x) violates when
    F2 differs from F1 at x and agrees with it on the rest of that shadow;
    bit j of cols[y] (ncols[y]) says member j holds (lacks) y, so these F2
    are an AND of columns.  The lowest over all x, then the lowest x for it,
    is the first violation: O(N*m) dict work plus the AND chain.
    """
    masks = family.masks
    m = len(family.ground)
    # row j is member j's bits, highest first, with member 0 as the last row;
    # a leading 1 keeps every row m characters long, m = 0 included
    rows = [format(p | 1 << m, "b")[1:] for p in reversed(masks)]
    cols = [int("".join(col), 2) for col in zip(*rows)][::-1]
    ncols = [col ^ (1 << len(masks)) - 1 for col in cols]
    shadow = {}
    for y in range(m):
        e = 1 << y
        for b in masks:
            q = b ^ e
            shadow[q] = shadow.get(q, 0) | e
    for a in masks:
        skip = shadow.get(a, 0) | (~a if x_in_f1 else 0)
        first, at = 0, None
        for x in range(m):
            e = 1 << x
            if skip & e:
                continue  # F1 ^ {x} is a member, or x is outside the range
            hits = (ncols if a & e else cols)[x]
            rest = shadow[a ^ e] ^ e
            while rest and hits:
                low = rest & -rest
                hits &= (cols if a & low else ncols)[low.bit_length() - 1]
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


def spanning_tree_bases(graph):
    """All spanning trees of a connected multigraph, by exhaustive check: in
    a connected graph an acyclic set of |V| - 1 edges is a spanning tree."""
    if not graph.is_connected():
        raise DisconnectedGraph("graph %r is not connected" % (graph.name,))
    index = {v: i for i, v in enumerate(graph.vertices)}
    ends = {eid: (index[u], index[v]) for eid, u, v in graph.edges}
    ids = sorted(ends)
    # bit i of a tree's mask is edge ids[i]
    edges = [(1 << i, *ends[eid]) for i, eid in enumerate(ids)]
    roots = list(range(len(graph.vertices)))
    trees = []
    for sub in combinations(edges, len(graph.vertices) - 1):
        parent = roots[:]
        mask = 0
        for bit, u, v in sub:
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                break  # a cycle (loops included)
            parent[u] = v
            mask |= bit
        else:
            trees.append(mask)
    return SetFamily.from_masks(ids, trees)


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
