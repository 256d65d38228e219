"""The benchmark's workloads: fixed inputs, one op per input, and the check
of each op's output.

An op is one user-level command on one input, made through the public
functions the CLI calls.  Every op starts from text, so no per-object cache
(the orbits are `cached_property`) carries over from one pass to the next.
`build` receives the freshly imported mapdelta modules and returns the ops;
the inputs depend only on the fixed seeds below, never on the run's --seed,
so every pass of every run does the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import reference

CORPUS_SEED = 1105  # the acceptance corpus: random_corpus(1105, 200, 7)
ENUM_RANDOM_SEEDS = (10, 0, 6)  # random_map(seed, max_edges=16) has m = 14, 15, 16
REFUTE_SEED = 2021  # source maps and mutations of the refute families


@dataclass
class Op:
    name: str
    payload: tuple  # the op's input texts
    expect: dict = field(default_factory=dict)  # what the reference check needs


# --- corpus: the verify-all path -------------------------------------------------

def build_corpus(md):
    cmaps = [md.fixtures.get_fixture(n) for n in md.fixtures.fixture_names()]
    cmaps += md.random_maps.random_corpus(CORPUS_SEED, 200, max_edges=7)
    return [Op(c.name, (md.formats.emit_map(c),)) for c in cmaps]


def run_corpus(md, op):
    cmap = md.formats.parse_map(op.payload[0])
    return md.report.verify_map(cmap).render()


def check_corpus(op, out):
    return reference.check_report(op.payload[0], out)


# --- enumerate: the feasible path on larger maps --------------------------------

PLANAR_GRIDS = ((2, 4), (3, 3), (2, 5), (3, 4))  # rows x columns; m = 10, 12, 13, 17


def planar_grid(md, rows, cols):
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
    graph = md.maps.LabeledGraph(name, tuple(range(rows * cols)), tuple(edges))
    rotations = {v: tuple(d[k] for k in "ENWS" if k in d) for v, d in darts.items()}
    return md.maps.from_rotation_system(name, graph, rotations)


def build_enumerate(md):
    ops = [Op(c.name, (md.formats.emit_map(c),), {"planar": True})
           for c in (planar_grid(md, r, c) for r, c in PLANAR_GRIDS)]
    for seed in ENUM_RANDOM_SEEDS:
        c = md.random_maps.random_map(seed, max_edges=16)
        ops.append(Op("%s-m%d" % (c.name, c.n_edges), (md.formats.emit_map(c),), {"planar": False}))
    return ops


def run_enumerate(md, op):
    cmap = md.formats.parse_map(op.payload[0])
    gamma = md.selections.enumerate_feasible_gamma(cmap)
    k = md.selections.enumerate_feasible_k(cmap)
    gamma_text = md.formats.emit_family(gamma)
    k_text = md.formats.emit_family(k)
    sel = md.selections.find_hamiltonian(cmap)
    return gamma_text, k_text, tuple(sorted(sel.greens))


def check_enumerate(op, out):
    return reference.check_feasible(op.payload[0], *out, planar=op.expect["planar"])


# --- rebuild: the reconstruct path on torus and Klein-bottle grids --------------

REBUILD_GRIDS = (  # (a, b, klein): a x b vertices, 2ab edges, every vertex of degree 4
    (4, 4, False), (5, 5, True), (6, 8, False), (8, 8, True),
    (10, 10, False), (10, 12, True), (12, 12, False),
)


def surface_grid(a, b, klein):
    """Graph and dual edge lists of the a x b grid on the torus, or on the
    Klein bottle when the column wrap reverses the rows.

    Vertex (x, y) and face (x, y) (the square above and right of vertex
    (x, y)) are both numbered x*b + y.  Edge h(x, y) runs from (x, y) to the
    right, v(x, y) from (x, y) upwards.
    """
    at = lambda x, y: (x % a) * b + y % b  # noqa: E731
    graph, dual = [], []
    for x in range(a):
        for y in range(b):
            h, v = 1 + at(x, y), 1 + a * b + at(x, y)
            twist = klein and x == a - 1
            graph.append((h, at(x, y), at(0, -y) if twist else at(x + 1, y)))
            graph.append((v, at(x, y), at(x, y + 1)))
            dual.append((h, at(x, y - 1), at(x, y)))
            left = at(a - 1, -y - 1) if klein and x == 0 else at(x - 1, y)
            dual.append((v, left, at(x, y)))
    return graph, dual


def graph_text(name, n, edges):
    lines = ["graph %s" % name, "vertices %s" % " ".join(str(i) for i in range(n))]
    lines += ["edge %d %d %d" % e for e in sorted(edges)]
    return "\n".join(lines) + "\n"


def build_rebuild(md):
    ops = []
    for a, b, klein in REBUILD_GRIDS:
        name = "%s%dx%d" % ("klein" if klein else "torus", a, b)
        graph, dual = surface_grid(a, b, klein)
        texts = (graph_text(name, a * b, graph), graph_text(name + ".dual", a * b, dual))
        ops.append(Op(name, texts, {"graph": graph, "dual": dual, "orientable": not klein}))
    return ops


def run_rebuild(md, op):
    graph = md.formats.parse_graph(op.payload[0])
    dual = md.formats.parse_graph(op.payload[1])
    rot = md.rebuild.recover_rotations(graph, dual)
    text = md.formats.emit_map(md.rebuild.build_map(graph, dual, rot))
    md.formats.parse_map(text)
    return text


def check_rebuild(op, out):
    return reference.check_rebuilt(out, op.expect["graph"], op.expect["dual"], op.expect["orientable"])


# --- refute: the check-delta path on mostly broken families ---------------------

MUTATIONS = ("drop", "toggle", "add")
REFUTE_SOURCES = 60  # random maps with m <= 10 next to k5torus
MAX_MUTATED = 160  # largest source family that is mutated
MAX_INTACT = 48  # largest source family that is also kept intact


def family_text(sets):
    return "".join("{%s}\n" % ",".join(str(e) for e in sorted(s))
                   for s in reference.canonical(sets))


def mutate(rng, sets, m, how):
    """One member dropped, one element toggled, or one new set added, such
    that no set repeats; None when 100 draws found no such change."""
    sets = list(sets)
    if how == "drop":
        sets.pop(rng.randrange(len(sets)))
        return sets
    present = set(sets)
    for _ in range(100):
        i = rng.randrange(len(sets))
        if how == "toggle":
            new = sets[i] ^ {rng.randint(1, m)}
        else:
            new = frozenset(e for e in range(1, m + 1) if rng.random() < 0.5)
        if new not in present:
            if how == "toggle":
                sets[i] = new
            else:
                sets.append(new)
            return sets
    return None


def build_refute(md):
    rng = random.Random(REFUTE_SEED)
    sources = [md.fixtures.get_fixture("k5torus")]
    sources += md.random_maps.random_corpus(REFUTE_SEED, REFUTE_SOURCES, max_edges=10)
    ops = []
    for cmap in sources:
        for variant, enum in (("gamma", md.selections.enumerate_feasible_gamma),
                              ("k", md.selections.enumerate_feasible_k)):
            sets = list(enum(cmap).members)
            if len(sets) < 2 or (len(sets) > MAX_MUTATED and cmap.name != "k5torus"):
                continue
            name = "%s:%s" % (cmap.name, variant)
            for how in MUTATIONS:
                mutated = mutate(rng, sets, cmap.n_edges, how)
                if mutated is not None:
                    ops.append(Op("%s:%s" % (name, how), (family_text(mutated),)))
            if len(sets) <= MAX_INTACT:
                ops.append(Op(name + ":intact", (family_text(sets),)))
    return ops


def run_refute(md, op):
    family = md.formats.parse_family(op.payload[0])
    return md.matroids.check_symmetric_exchange(family)


def check_refute(op, out):
    return reference.check_refutation(op.payload[0], out)


@dataclass(frozen=True)
class Workload:
    build: object
    run: object
    check: object
    hardest: str  # the op whose median time is hardest_op_s


WORKLOADS = {
    "corpus": Workload(build_corpus, run_corpus, check_corpus, "k5torus"),
    "enumerate": Workload(build_enumerate, run_enumerate, check_enumerate, "grid3x4"),
    "rebuild": Workload(build_rebuild, run_rebuild, check_rebuild, "torus12x12"),
    "refute": Workload(build_refute, run_refute, check_refute, "k5torus:k:toggle"),
}
