"""Fully black 2-regular subgraphs of a map via per-edge pair selections.

Every such subgraph keeps all black edges and, on each quadrilateral, either
its two green or its two red edges.  A selection is encoded by the set of
green-selected edge ids; iterating selections as m-bit masks (bit m - e =
green on edge e) keeps every enumeration reproducible.

The feasible families come from one exhaustive scan of the 2^m masks, made
by the bit-sliced `kernel.survey_selections` at most once per map: the map
keeps both mask lists (`CombinatorialMap.selection_survey`), so F_gamma and
F_K, in either colour and from any entry point, read the same scan.  The
scan reads F_K's connectivity off the map's graph G and dual G*: K + red
and K + green are both connected iff the green-selected edges A connect G
and E - A connects G*.
`MAX_ENUM_EDGES` guards its size on every call, cached or not.  The scan's
masks become family members as they are: over the ground {1..m}, bit m - e
is the bit `SetFamily` gives edge e, so no set is built per member.  They
come out distinct and ascending, so the family is built directly: reversed
and stably sorted by popcount they are in canonical order, with no
deduplication, range check or second sort.  The
per-selection functions here (`subgraph_components`,
`is_fully_black_hamiltonian`, `find_hamiltonian`) trace one selection at a
time: they build its chosen-partner array and walk the cycles it makes
with black through `maps._orbits_of_two_matchings`, the walker that gives
a map its vertices, edges and faces.  They never read the scan or the
graphs, so they stay an independent path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroundSetTooLarge
from .families import SetFamily, bit_order
from .maps import _cycle_labels, _orbits_of_two_matchings

MAX_ENUM_EDGES = 24

GREEN_PAIR = "green"
RED_PAIR = "red"


@dataclass(frozen=True)
class Selection:
    """Per-edge choice of the green or the red pair."""

    ground: frozenset  # all edge ids of the map
    greens: frozenset  # edge ids on which the green pair is kept

    def __post_init__(self):
        if not self.greens <= self.ground:
            raise ValueError("green-selected edges outside the ground set")

    @classmethod
    def from_mask(cls, ground, mask):
        """The selection of a mask, its bits in `bit_order` of the ground."""
        return cls(frozenset(ground), frozenset(e for x, e in enumerate(bit_order(ground)) if mask >> x & 1))

    def swap(self, edge_id):
        if edge_id not in self.ground:
            raise KeyError(edge_id)
        return Selection(self.ground, self.greens ^ {edge_id})


def all_green(cmap):
    ground = frozenset(range(1, cmap.n_edges + 1))
    return Selection(ground, ground)


def _chosen_partners(cmap, sel):
    """Partner array of the chosen pair: green on the edges in sel.greens,
    red on the others."""
    return [cmap.rho_g[x] if e in sel.greens else cmap.rho_r[x] for x, e in enumerate(cmap.edge_of_flag)]


def subgraph_components(cmap, sel):
    """Flag cycles of the selection subgraph, smallest-root order."""
    return _orbits_of_two_matchings(cmap.n_flags, _chosen_partners(cmap, sel), cmap.rho_b)


def is_fully_black_hamiltonian(cmap, sel):
    """True iff the selection subgraph is one cycle through all flags."""
    return len(subgraph_components(cmap, sel)) == 1


def _scan(cmap, max_edges):
    m = cmap.n_edges
    if m > max_edges:
        raise GroundSetTooLarge("map has %d edges; refusing to scan 2^%d selections (limit %d)" % (m, m, max_edges))
    return cmap.selection_survey


def _mask_family(cmap, masks, color=GREEN_PAIR):
    # the scan's masks are distinct and ascending, so reversed and stably
    # sorted by size they are in canonical order
    fam = SetFamily(frozenset(range(1, cmap.n_edges + 1)), tuple(sorted(reversed(masks), key=int.bit_count)))
    if color == RED_PAIR:
        return fam.complement()
    if color != GREEN_PAIR:
        raise ValueError("color must be %r or %r" % (GREEN_PAIR, RED_PAIR))
    return fam


def enumerate_feasible_gamma(cmap, color=GREEN_PAIR, max_edges=MAX_ENUM_EDGES):
    """Feasible sets of the Hamiltonian-cycle delta-matroid.

    One member per fully black Hamiltonian cycle: the edges whose chosen
    pair is the given color (green by default; red gives the complemented
    family).
    """
    ham_masks, _ = _scan(cmap, max_edges)
    return _mask_family(cmap, ham_masks, color)


def enumerate_feasible_k(cmap, color=GREEN_PAIR, max_edges=MAX_ENUM_EDGES):
    """Feasible sets of the 2-valent delta-matroid.

    Members come from selections whose subgraph K has both K + red and
    K + green connected.
    """
    _, link_masks = _scan(cmap, max_edges)
    return _mask_family(cmap, link_masks, color)


def feasible_families(cmap, max_edges=MAX_ENUM_EDGES):
    """(F_gamma, F_K), green-selected, from a single scan of the selections."""
    ham_masks, link_masks = _scan(cmap, max_edges)
    return _mask_family(cmap, ham_masks), _mask_family(cmap, link_masks)


def find_hamiltonian(cmap, with_stats=False):
    """Deterministic swap search for a fully black Hamiltonian cycle.

    Starts from the all-green selection; while the subgraph is disconnected,
    swaps the lowest-id quadrilateral whose two chosen edges lie in
    different components.  Each such swap merges the two components, so the
    search ends after at most (initial components - 1) swaps.
    """
    sel = all_green(cmap)
    cycles = subgraph_components(cmap, sel)
    initial = len(cycles)
    swaps = 0
    while len(cycles) > 1:
        comp_of = _cycle_labels(cmap.n_flags, cycles)
        for eid, quad in enumerate(cmap.quadrilaterals, 1):
            # the chosen pair covers all 4 flags of the quad, two per edge;
            # its edges lie in different components iff the quad's flags do
            if len({comp_of[x] for x in quad}) == 2:
                sel = sel.swap(eid)
                swaps += 1
                break
        else:  # connected flag graph guarantees a cross-component quad
            raise AssertionError("disconnected subgraph with no cross-component quadrilateral")
        cycles = subgraph_components(cmap, sel)
    if with_stats:
        return sel, swaps, initial
    return sel
