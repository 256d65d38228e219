"""Seeded random small maps for property checking.

A random map is a random connected multigraph (loops and parallels allowed)
with a random rotation system and random edge signs, pushed through the
rotation-system builder.  Generation is reproducible from the seed.
"""

from __future__ import annotations

import random

from .maps import LabeledGraph, from_rotation_system

DEFAULT_MAX_EDGES = 7  # most edges of a random map unless a caller says otherwise


def random_labeled_graph(rng, max_edges=DEFAULT_MAX_EDGES):
    while True:
        n_vertices = rng.randint(1, min(4, max_edges + 1))
        m = rng.randint(max(1, n_vertices - 1), max_edges)
        edges = []
        for eid in range(1, m + 1):
            u = rng.randrange(n_vertices)
            v = rng.randrange(n_vertices)
            edges.append((eid, u, v))
        g = LabeledGraph("rand", tuple(range(n_vertices)), tuple(edges))
        if g.is_connected():
            return g


def random_map(seed, max_edges=DEFAULT_MAX_EDGES):
    rng = random.Random(seed)
    g = random_labeled_graph(rng, max_edges=max_edges)
    darts = {v: [] for v in g.vertices}
    for eid, u, v in g.edges:
        darts[u].append((eid, 0))
        darts[v].append((eid, 1))
    rotations = {}
    for v, ds in darts.items():
        rng.shuffle(ds)
        rotations[v] = tuple(ds)
    signs = {eid: rng.choice((1, -1)) for eid, _, _ in g.edges}
    return from_rotation_system("rand-%d" % seed, g, rotations, signs)


def random_corpus(seed, count, max_edges=DEFAULT_MAX_EDGES):
    """`count` independent random maps derived from one master seed."""
    rng = random.Random(seed)
    return [random_map(rng.randrange(2**60), max_edges=max_edges) for _ in range(count)]
