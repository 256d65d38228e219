"""The bit-sliced selection scan against the per-mask loop it replaced,
kept here as a referee: the same Hamiltonian and linkable mask lists,
element for element, on every map.  The referee finds linkability on the
flags, the scan on the map's graph and dual, so the two paths agreeing
checks that reading too; a per-mask connectivity test of the two graphs
checks the statement itself."""

import hashlib
import random
from itertools import compress

import pytest

from mapdelta import kernel
from mapdelta.fixtures import all_fixtures
from mapdelta.formats import emit_family
from mapdelta.maps import LabeledGraph
from mapdelta.random_maps import random_corpus, random_map
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


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def referee_append_bits(out, x, base):
    """`compress` over every bit of x, whatever its density: the kernel's
    dense walk, kept as the referee for its choice between the two walks."""
    if x:
        bits = format(x, "b").encode().translate(_BITS)[::-1]
        out.extend(compress(range(base, base + len(bits)), bits))


def _random_block(rng, length, ones):
    """An int of bit length `length` with `ones` set bits, the top one among them."""
    digits = ["0"] * (length - 1)
    for p in rng.sample(range(length - 1), ones - 1):
        digits[p] = "1"
    return int("1" + "".join(digits), 2)


def _bit_walk_inputs():
    rng = random.Random(15)
    width = kernel.BLOCK_MASKS
    cases = [("zero", 0, 0), ("bit-0", 1, 0), ("top-bit", 1 << (width - 1), 0),
             ("full", (1 << width) - 1, 0)]
    # 4 x set bits just below, at (or just below) and just above the bit
    # length, where the kernel switches from the sparse walk to the dense one
    for length in (width, width - 3, 41):
        quarter = length // 4
        for ones in (quarter - 1, quarter, quarter + 1):
            cases.append(("%d-of-%d" % (ones, length), _random_block(rng, length, ones), 0))
    cases.append(("sparse-based", _random_block(rng, 1000, 30), 5 << 16))
    cases.append(("dense-based", _random_block(rng, 1000, 900), 5 << 16))
    return cases


@pytest.mark.parametrize("x, base", [pytest.param(x, base, id=name) for name, x, base in _bit_walk_inputs()])
def test_append_bits_matches_referee(x, base):
    out = [-1]
    kernel._append_bits(out, x, base)
    assert out == [-1] + [base + p for p in range(x.bit_length()) if x >> p & 1]


def test_survey_same_under_either_walk(monkeypatch):
    """The scan's blocks on these maps, 2^14 to 2^16 masks wide, take both
    walks."""
    maps = [plane_grid(3, 4)] + [random_map(s, max_edges=16) for s in (10, 0, 6)]
    blocks = []
    walk = kernel._append_bits

    def spy(out, x, base):
        blocks.append(x)
        walk(out, x, base)

    monkeypatch.setattr(kernel, "_append_bits", spy)
    fast = [kernel.survey_selections(*scan_args(c)) for c in maps]
    monkeypatch.setattr(kernel, "_append_bits", referee_append_bits)
    assert fast == [kernel.survey_selections(*scan_args(c)) for c in maps]
    sparse = {x.bit_count() * 4 < x.bit_length() for x in blocks}
    assert sparse == {True, False}
