"""The selection-scan kernel: all 2^m selections tested at once, bit-sliced.

A selection mask p has bit m - e set when the green pair is kept on edge e,
the bit `families.bit_order` gives edge e of the ground {1..m}.
The scan classifies the fully black 2-regular subgraph K of every mask:

  * Hamiltonian: K is a single cycle through all flags;
  * doubly linkable: K + all red edges and K + all green edges are both
    connected.  The red/black orbits are the vertices of the map's graph G
    and the green/black orbits those of its dual G*, so this says that the
    green-selected edges A connect G and E - A connects G*.

Instead of looping over the masks, the scan works on Python ints in which
bit p stands for mask p (bit slicing), so one big-int AND or OR moves a
whole block of masks through a step of the test:

  * `col[e]` holds the masks that keep the green pair on edge e + 1, that
    is the column of bit m - 1 - e;
  * Hamiltonicity traces the cycle through flag 0 for every mask at once:
    `at[x]` holds the masks whose trace sits on flag x, and each step sends
    `at[x] & col[e]` along the green edge and the rest along the red one,
    then the black edge.  Masks back at flag 0 before step n/2 close a
    shorter cycle and are dropped; those back at the last step are
    Hamiltonian.
  * Linkability is reachability from vertex 0 of G over the edges whose
    column holds the mask, then from vertex 0 of G* over the other edges.

The masks go through in blocks of BLOCK_MASKS.  Within a block only the low
bits, those of the highest edges, vary; the column of any other edge is all
ones or all zeros, so memory stays bounded for any m the scan accepts.

Each block's result int becomes a list of masks by one of two bit walks,
picked by its popcount: the families are sparse (on a plane map both are the
spanning trees), so a block with under one set bit in four is walked from
set bit to set bit, at a cost that follows the output; a denser one goes
through `compress` over all its bits, faster when most bits are set.
"""

import sys
from itertools import compress

IS_COMPILED = False  # there is no compiled kernel; perfbench records this flag
scan = sys.modules[__name__]  # the module that implements survey_selections

BLOCK_MASKS = 1 << 16  # masks per block; a power of two

_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _arcs(n_vertices, edges):
    """For each vertex a of a graph, the arcs (b, edge bit) by which its
    non-loop edges (e, u, v) join it to another vertex b."""
    arcs = [[] for _ in range(n_vertices)]
    for e, u, v in edges:
        if u != v:
            arcs[u].append((v, e - 1))
            arcs[v].append((u, e - 1))
    return arcs


def _columns(width):
    """The column of each bit e < width over 2^width masks: bit p of it is
    set iff bit e of p is."""
    size = 1 << width
    cols = []
    for e in range(width):
        run = 1 << e
        col = ((1 << run) - 1) << run  # one period: run zeros, then run ones
        period = 2 * run
        while period < size:
            col |= col << period
            period *= 2
        cols.append(col)
    return cols


def _hamiltonian(n, rho_r, rho_g, rho_b, edge_of_flag, col, full):
    """Masks whose trace from flag 0 first returns to it after n flags."""
    moves = [(col[edge_of_flag[x] - 1], rho_b[rho_g[x]], rho_b[rho_r[x]]) for x in range(n)]
    at = {0: full}
    closed = 0
    for _ in range(n // 2):
        step = {}
        get = step.get
        for x, p in at.items():
            c, yg, yr = moves[x]
            green = p & c
            if green:
                step[yg] = get(yg, 0) | green
            red = p ^ green
            if red:
                step[yr] = get(yr, 0) | red
        closed = step.pop(0, 0)
        at = step
    return closed


def _connected(arcs, gate, masks):
    """The masks of `masks` for which every vertex is reachable from vertex
    0 over the arcs (b, e) with the mask in gate[e]."""
    reach = [0] * len(arcs)
    reach[0] = masks
    todo = [0]
    while todo:
        a = todo.pop()
        here = reach[a]
        for b, e in arcs[a]:
            old = reach[b]
            new = old | (here & gate[e])
            if new != old:
                reach[b] = new
                todo.append(b)
    linked = masks
    for r in reach:
        linked &= r
    return linked


def _append_bits(out, x, base):
    """Append base + p for every set bit p of x, in ascending order.

    A sparse x, under one set bit in four, is walked one set bit at a time
    over the gaps between its ones, so the cost follows the output.  A denser
    x goes through `compress` over all its bits, which costs about the same
    whatever the density but is 2.5x faster than the gap walk on a full block."""
    if x.bit_count() * 4 < x.bit_length():
        p = base - 1
        for gap in format(x, "b")[::-1].split("1")[:-1]:
            p += len(gap) + 1
            out.append(p)
    elif x:
        bits = format(x, "b").encode().translate(_BITS)[::-1]
        out.extend(compress(range(base, base + len(bits)), bits))


def survey_selections(n, m, rho_r, rho_g, rho_b, edge_of_flag, graph, dual):
    """Scan all 2^m selections; return (hamiltonian_masks, linkable_masks),
    each an ascending list.  A mask is linkable iff its green-selected edges
    A connect `graph` (G) and E - A connects `dual` (G*)."""
    arcs_r = _arcs(len(graph.vertices), graph.edges)
    arcs_g = _arcs(len(dual.vertices), dual.edges)

    width = min(m, BLOCK_MASKS.bit_length() - 1)
    full = (1 << (1 << width)) - 1
    low = _columns(width)
    ham_masks = []
    link_masks = []
    for block in range(1 << (m - width)):
        # the columns of bits 0..m-1, reversed: col[e - 1] is bit m - e, edge e
        col = (low + [full if (block >> i) & 1 else 0 for i in range(m - width)])[::-1]
        base = block << width
        _append_bits(ham_masks, _hamiltonian(n, rho_r, rho_g, rho_b, edge_of_flag, col, full), base)
        linked = _connected(arcs_r, col, full)
        if linked:
            linked = _connected(arcs_g, [full ^ c for c in col], linked)
        _append_bits(link_masks, linked, base)
    return ham_masks, link_masks
