"""The bit-sliced selection scan against the per-mask loop it replaced,
kept here as a referee: the same Hamiltonian and linkable mask lists,
element for element, on every map.  The referee finds linkability on the
flags, the scan on the map's graph and dual, so the two paths agreeing
checks that reading too; a per-mask connectivity test of the two graphs
checks the statement itself."""

import hashlib

import pytest

from mapdelta import kernel
from mapdelta.fixtures import all_fixtures
from mapdelta.formats import emit_family
from mapdelta.maps import LabeledGraph
from mapdelta.random_maps import random_corpus
from mapdelta.selections import MAX_ENUM_EDGES, feasible_families

from gridmaps import plane_grid


def _components(n, partner_lists):
    """Component labels of the flag graph with the given partner arrays."""
    label = [-1] * n
    nlabels = 0
    for start in range(n):
        if label[start] != -1:
            continue
        label[start] = nlabels
        stack = [start]
        while stack:
            x = stack.pop()
            for partner in partner_lists:
                y = partner[x]
                if label[y] == -1:
                    label[y] = nlabels
                    stack.append(y)
        nlabels += 1
    return label, nlabels


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def referee_survey_selections(n, m, rho_r, rho_g, rho_b, edge_of_flag):
    """Scan all 2^m selections; return (hamiltonian_masks, linkable_masks).
    Bit m - e of a mask keeps the green pair on edge e."""
    comp_r, ncomp_r = _components(n, (rho_r, rho_b))
    comp_g, ncomp_g = _components(n, (rho_g, rho_b))

    ham_masks = []
    link_masks = []
    for mask in range(1 << m):
        # Hamiltonicity: trace the cycle through flag 0, alternating the
        # chosen red/green edge with the black edge.
        x = 0
        length = 0
        while True:
            x = rho_g[x] if (mask >> (m - edge_of_flag[x])) & 1 else rho_r[x]
            x = rho_b[x]
            length += 2
            if x == 0:
                break
        if length == n:
            ham_masks.append(mask)

        # K + red connected: green-chosen edges must join up the red/black
        # components (red-chosen and black edges are already inside them).
        ok = True
        if ncomp_r > 1:
            parent = list(range(ncomp_r))
            left = ncomp_r - 1
            for x in range(n):
                if (mask >> (m - edge_of_flag[x])) & 1:
                    a = _find(parent, comp_r[x])
                    b = _find(parent, comp_r[rho_g[x]])
                    if a != b:
                        parent[a] = b
                        left -= 1
            ok = left == 0
        if ok and ncomp_g > 1:
            parent = list(range(ncomp_g))
            left = ncomp_g - 1
            for x in range(n):
                if not (mask >> (m - edge_of_flag[x])) & 1:
                    a = _find(parent, comp_g[x])
                    b = _find(parent, comp_g[rho_r[x]])
                    if a != b:
                        parent[a] = b
                        left -= 1
            ok = left == 0
        if ok:
            link_masks.append(mask)
    return ham_masks, link_masks


def scan_args(cmap):
    return (cmap.n_flags, cmap.n_edges, cmap.rho_r, cmap.rho_g, cmap.rho_b, cmap.edge_of_flag,
            cmap.underlying_graph(), cmap.dual_graph())


@pytest.fixture(scope="module")
def refereed():
    """The referee reads the flags only, not the graph and the dual."""
    maps = all_fixtures() + random_corpus(1105, 200, 7) + random_corpus(2021, 60, 10)
    return [(c, referee_survey_selections(*scan_args(c)[:6])) for c in maps]


def test_linkable_masks_connect_graph_and_dual():
    """K + red and K + green are both connected iff the green-selected
    edges A connect the graph G and E - A connects the dual G*."""
    maps = all_fixtures() + random_corpus(1105, 200, 7) + random_corpus(2021, 60, 10)
    for cmap in maps:
        g, d, m = cmap.underlying_graph(), cmap.dual_graph(), cmap.n_edges
        linkable = []
        for mask in range(1 << m):
            green = {e for e in range(1, m + 1) if mask >> (m - e) & 1}
            spanning = LabeledGraph("A", g.vertices, tuple(x for x in g.edges if x[0] in green))
            cospanning = LabeledGraph("E-A", d.vertices, tuple(x for x in d.edges if x[0] not in green))
            if spanning.is_connected() and cospanning.is_connected():
                linkable.append(mask)
        assert tuple(linkable) == cmap.selection_survey[1], cmap.name


@pytest.mark.parametrize("block", [kernel.BLOCK_MASKS, 1 << 3])
def test_kernel_matches_referee(refereed, monkeypatch, block):
    """With 2^3 masks per block every map with m > 3 crosses blocks."""
    monkeypatch.setattr(kernel, "BLOCK_MASKS", block)
    assert max(c.n_edges for c, _ in refereed) == 10
    for cmap, expected in refereed:
        assert kernel.survey_selections(*scan_args(cmap)) == expected, cmap.name


def test_scan_at_the_edge_guard(monkeypatch):
    """The 4x4 plane grid has m = MAX_ENUM_EDGES; on a plane map both
    families are the spanning trees, 100,352 of them.  The families are
    then built from the same mask lists, without a second scan."""
    grid = plane_grid(4, 4)
    assert grid.n_edges == MAX_ENUM_EDGES == 24
    ham, link = kernel.survey_selections(*scan_args(grid))
    assert len(ham) == len(link) == 100_352
    assert ham == link
    assert ham == sorted(set(ham)) and link == sorted(set(link))

    monkeypatch.setattr(kernel, "survey_selections", lambda *args: (ham, link))
    gamma, k = feasible_families(grid)
    assert len(gamma) == len(k) == 100_352
    assert gamma == k and gamma.cardinalities() == [15]
    text = emit_family(gamma)
    lines = text.splitlines()
    assert len(lines) == 100_352
    assert lines[0] == "{1,2,3,4,5,6,7,9,11,13,14,16,18,20,21}"
    assert lines[-1] == "{2,4,6,7,9,11,13,14,16,18,20,21,22,23,24}"
    # the whole text, so that no middle line can move unnoticed
    assert hashlib.md5(text.encode()).hexdigest() == "ab6fd86d1cd93a62784ec8e676f506f6"
