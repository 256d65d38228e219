"""Plane grid maps for the tests."""

from mapdelta.maps import LabeledGraph, from_rotation_system


def plane_grid(rows, cols):
    """The rows x cols grid graph with its plane rotation system."""
    vid = lambda i, j: i * cols + j  # noqa: E731
    edges, darts = [], {vid(i, j): {} for i in range(rows) for j in range(cols)}
    for i in range(rows):
        for j in range(cols):
            for di, dj, here, there in ((0, 1, "E", "W"), (1, 0, "N", "S")):
                if i + di < rows and j + dj < cols:
                    eid = len(edges) + 1
                    edges.append((eid, vid(i, j), vid(i + di, j + dj)))
                    darts[vid(i, j)][here] = (eid, 0)
                    darts[vid(i + di, j + dj)][there] = (eid, 1)
    name = "grid%dx%d" % (rows, cols)
    graph = LabeledGraph(name, tuple(range(rows * cols)), tuple(edges))
    rotations = {v: tuple(d[k] for k in "ENWS" if k in d) for v, d in darts.items()}
    return from_rotation_system(name, graph, rotations)
