"""Grid maps, and the flag graph's edges, for the tests."""

from mapdelta.maps import BLACK, GREEN, RED, LabeledGraph, from_rotation_system


def flag_edges(cmap):
    """The edges of a map's flag graph as (x, y, color) with x < y, red,
    then green, then black."""
    for color, rho in ((RED, cmap.rho_r), (GREEN, cmap.rho_g), (BLACK, cmap.rho_b)):
        for x, y in enumerate(rho):
            if x < y:
                yield x, y, color


def plane_grid(rows, cols, torus=False, klein=False):
    """The rows x cols grid graph with its plane rotation system; with
    torus, the grid whose rows and columns wrap round (rows, cols >= 3);
    with klein, the row wrap goes from (rows - 1, j) to (0, -j) through a
    twisted edge, which puts the grid on the Klein bottle."""
    vid = lambda i, j: i % rows * cols + j % cols  # noqa: E731
    edges, darts, signs = [], {vid(i, j): {} for i in range(rows) for j in range(cols)}, {}
    for i in range(rows):
        for j in range(cols):
            for di, dj, here, there in ((0, 1, "E", "W"), (1, 0, "N", "S")):
                if torus or klein or (i + di < rows and j + dj < cols):
                    eid = len(edges) + 1
                    twist = klein and i + di == rows
                    far = vid(0, -j) if twist else vid(i + di, j + dj)
                    edges.append((eid, vid(i, j), far))
                    darts[vid(i, j)][here] = (eid, 0)
                    darts[far][there] = (eid, 1)
                    if twist:
                        signs[eid] = -1
    name = "%s%dx%d" % ("klein" if klein else "torus" if torus else "grid", rows, cols)
    graph = LabeledGraph(name, tuple(range(rows * cols)), tuple(edges))
    rotations = {v: tuple(d[k] for k in "ENWS" if k in d) for v, d in darts.items()}
    return from_rotation_system(name, graph, rotations, signs)


def wheel(n):
    """The wheel with hub 0 and rim vertices 1..n (n >= 3), with its plane
    rotation system: spoke i joins the hub to rim vertex i, rim edge n + i
    joins rim vertex i to the next one."""
    edges = [(i, 0, i) for i in range(1, n + 1)] + [(n + i, i, i % n + 1) for i in range(1, n + 1)]
    graph = LabeledGraph("wheel%d" % n, tuple(range(n + 1)), tuple(edges))
    rotations = {0: tuple((i, 0) for i in range(1, n + 1))}
    for i in range(1, n + 1):
        rotations[i] = ((i, 1), (n + (i - 2) % n + 1, 1), (n + i, 0))
    return from_rotation_system(graph.name, graph, rotations)
