"""Reference computations that check mapdelta's outputs.

Nothing here imports mapdelta.  Every check recomputes its answer from the
text the program read or wrote, with its own MAP and FAMILY readers, its own
orbit and cycle tracing, its own connectivity test, an exact matrix-tree
count and its own canonical-order exchange checker.  A check returns a list
of problems; an empty list means the output is right.
"""

from __future__ import annotations


# --- MAP text and flag-graph orbits -----------------------------------------

class RefMap:
    """A flag graph read from MAP text, with the orbits the checks need.

    Edge ids follow the MAP format's convention: red/green orbits sorted by
    their smallest flag are edges 1, 2, ...
    """

    def __init__(self, text):
        lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
        lines = [line for line in lines if line]
        if len(lines) != 5 or not lines[0].startswith("map ") or not lines[1].startswith("flags "):
            raise ValueError("not MAP text")
        self.name = lines[0].split()[1]
        n = int(lines[1].split()[1])
        rho = {}
        for line in lines[2:]:
            color, _, rest = line.partition(":")
            partner = [-1] * n
            for tok in rest.split():
                a, b = (int(t) for t in tok.split("-"))
                if a == b or partner[a] != -1 or partner[b] != -1:
                    raise ValueError("%s is not a perfect matching" % color)
                partner[a], partner[b] = b, a
            if -1 in partner:
                raise ValueError("%s leaves a flag unmatched" % color)
            rho[color.strip()] = partner
        if n <= 0 or n % 4 or sorted(rho) != ["B", "G", "R"]:
            raise ValueError("MAP text needs R, G and B on 4k flags")
        self.n = n
        self.r, self.g, self.b = rho["R"], rho["G"], rho["B"]
        if any(self.r[x] == self.g[x] for x in range(n)):
            raise ValueError("a red and a green edge are parallel")
        self.quads = orbits(n, self.r, self.g)
        if any(len(q) != 4 for q in self.quads):
            raise ValueError("a red/green orbit is not a quadrilateral")
        self.m = len(self.quads)
        self.edge = orbit_index(n, self.quads)  # 0-based edge of each flag
        self.vertices = orbits(n, self.r, self.b)
        self.faces = orbits(n, self.g, self.b)
        self.vertex = orbit_index(n, self.vertices)
        self.face = orbit_index(n, self.faces)
        # the two green (red) edges of a quadrilateral join these vertices (faces)
        self.green_links = [[] for _ in range(self.m)]
        self.red_links = [[] for _ in range(self.m)]
        for x in range(n):
            self.green_links[self.edge[x]].append((self.vertex[x], self.vertex[self.g[x]]))
            self.red_links[self.edge[x]].append((self.face[x], self.face[self.r[x]]))

    @property
    def chi(self):
        return len(self.vertices) - self.m + len(self.faces)

    def is_connected(self):
        return len(orbits(self.n, self.r, self.g, self.b)) == 1

    def is_orientable(self):
        side = [-1] * self.n
        for start in range(self.n):
            if side[start] != -1:
                continue
            side[start] = 0
            stack = [start]
            while stack:
                x = stack.pop()
                for y in (self.r[x], self.g[x], self.b[x]):
                    if side[y] == -1:
                        side[y] = 1 - side[x]
                        stack.append(y)
                    elif side[y] == side[x]:
                        return False
        return True

    def ends(self, e, kind):
        """The vertex (or face) orbits met by edge e (0-based)."""
        owner = self.vertex if kind == "vertex" else self.face
        return {owner[x] for x in self.quads[e]}

    def is_hamiltonian(self, greens):
        """Trace the cycle through flag 0 of the selection `greens` (bit e-1
        set = green pair on edge e) and test that it covers every flag."""
        x, length = 0, 0
        while True:
            x = self.g[x] if greens >> self.edge[x] & 1 else self.r[x]
            x = self.b[x]
            length += 2
            if x == 0:
                return length == self.n

    def is_linkable(self, greens):
        """K + red and K + green connected, tested on the vertex and face
        graphs: red and black edges already join each vertex's flags, so
        K + red is connected iff the green-chosen edges join all vertices;
        dually for K + green and the faces."""
        chosen = [e for e in range(self.m) if greens >> e & 1]
        others = [e for e in range(self.m) if not greens >> e & 1]
        return (links_connect(len(self.vertices), (p for e in chosen for p in self.green_links[e]))
                and links_connect(len(self.faces), (p for e in others for p in self.red_links[e])))

    def count_feasible(self):
        """(|F_gamma|, |F_K|) by testing every one of the 2^m selections."""
        gamma = k = 0
        for greens in range(1 << self.m):
            gamma += self.is_hamiltonian(greens)
            k += self.is_linkable(greens)
        return gamma, k

    def spanning_tree_count(self):
        """Spanning trees of the underlying graph by the matrix-tree theorem."""
        nv = len(self.vertices)
        lap = [[0] * nv for _ in range(nv)]
        for e in range(self.m):
            ends = sorted(self.ends(e, "vertex"))
            if len(ends) == 2:
                u, v = ends
                lap[u][u] += 1
                lap[v][v] += 1
                lap[u][v] -= 1
                lap[v][u] -= 1
        return integer_determinant([row[1:] for row in lap[1:]])


def orbits(n, *matchings):
    """Components of the union of the matchings, each a flag list, in order
    of smallest flag."""
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [], [start]
        while stack:
            x = stack.pop()
            comp.append(x)
            for rho in matchings:
                if not seen[rho[x]]:
                    seen[rho[x]] = True
                    stack.append(rho[x])
        out.append(sorted(comp))
    return out


def orbit_index(n, orbit_list):
    owner = [0] * n
    for i, orbit in enumerate(orbit_list):
        for x in orbit:
            owner[x] = i
    return owner


def links_connect(count, pairs):
    parent = list(range(count))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    left = count - 1
    for a, b in pairs:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            left -= 1
    return left == 0


def integer_determinant(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# --- FAMILY text and the exchange axiom ---------------------------------------

def read_family(text):
    """Member sets of FAMILY text, in file order, as frozensets."""
    sets = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not (line.startswith("{") and line.endswith("}")):
            raise ValueError("bad FAMILY line %r" % line)
        body = line[1:-1].strip()
        sets.append(frozenset(int(t) for t in body.split(",")) if body else frozenset())
    return sets


def canonical(sets):
    return sorted(set(sets), key=lambda s: (len(s), sorted(s)))


def first_exchange_violation(sets):
    """The first (F1, F2, x) in canonical order at which symmetric exchange
    fails, or None.  Sets are bitmasks over the sorted ground set, so bit
    order is element order."""
    members = canonical(sets)
    ground = sorted(frozenset().union(*members))
    bit = {e: i for i, e in enumerate(ground)}
    masks = [sum(1 << bit[e] for e in s) for s in members]
    present = set(masks)
    for i, f1 in enumerate(masks):
        for f2 in masks:
            diff = f1 ^ f2
            xs = [b for b in range(len(ground)) if diff >> b & 1]
            for x in xs:
                if not any(f1 ^ (1 << x | 1 << y) in present for y in xs):
                    return members[i], set_of(f2, ground), ground[x]
    return None


def set_of(mask, ground):
    return frozenset(e for i, e in enumerate(ground) if mask >> i & 1)


# --- the checks, one per workload ---------------------------------------------

THEOREM_CHECKS = (
    "gamma-symmetric-exchange",
    "k-symmetric-exchange",
    "lower-is-cycle-matroid",
    "upper-is-cocycle-matroid",
    "rank-gap-is-2-minus-chi",
)


def check_report(map_text, rendered):
    """A `verify_map` report: header figures from the benchmark's own orbit
    count and selection count, and every check line PASS."""
    ref = RefMap(map_text)
    gamma, k = ref.count_feasible()
    nv, nf = len(ref.vertices), len(ref.faces)
    lines = rendered.splitlines()
    want = [
        "map %s: m=%d |V|=%d |V*|=%d chi=%d orientable=%s"
        % (ref.name, ref.m, nv, nf, ref.chi, ref.is_orientable()),
        "families: |F_gamma|=%d |F_K|=%d ranks: lower=%d upper=%d"
        % (gamma, k, nv - 1, ref.m - nf + 1),
    ]
    problems = ["expected %r, got %r" % (w, got) for w, got in zip(want, lines[:2] + ["", ""]) if w != got]
    checks = lines[2:]
    problems += ["check line %r is not PASS" % line for line in checks if not line.startswith("PASS ")]
    names = {line.split()[1] for line in checks if len(line.split()) > 1}
    problems += ["missing check %s" % name for name in THEOREM_CHECKS if name not in names]
    return problems


def check_feasible(map_text, gamma_text, k_text, hamiltonian_greens, planar):
    """`feasible` output: every set passes the benchmark's own Hamiltonian or
    linkable test, and the counts are right.  On a plane map both families
    are the spanning trees, counted by the matrix-tree theorem; otherwise
    they are counted over all 2^m selections."""
    ref = RefMap(map_text)
    problems = []
    if planar:
        if ref.chi != 2:
            problems.append("map is not planar: chi=%d" % ref.chi)
        want = (ref.spanning_tree_count(),) * 2
    else:
        want = ref.count_feasible()
    for label, text, test, count in (("F_gamma", gamma_text, ref.is_hamiltonian, want[0]),
                                     ("F_K", k_text, ref.is_linkable, want[1])):
        sets = read_family(text)
        if len(set(sets)) != len(sets):
            problems.append("%s repeats a set" % label)
        if len(sets) != count:
            problems.append("|%s|=%d, expected %d" % (label, len(sets), count))
        for s in sets:
            if not s <= set(range(1, ref.m + 1)) or not test(sum(1 << (e - 1) for e in s)):
                problems.append("%s holds the infeasible set %s" % (label, sorted(s)))
                break
    if not ref.is_hamiltonian(sum(1 << (e - 1) for e in hamiltonian_greens)):
        problems.append("swap search result %s is not Hamiltonian" % (sorted(hamiltonian_greens),))
    return problems


def check_rebuilt(map_text, graph_edges, dual_edges, orientable):
    """A rebuilt grid map: closed-form V, E, F, chi and orientability of an
    a x b torus or Klein-bottle grid, and edge by edge it encodes the input
    graph and dual.  Edge e of the map is the e-th smallest input edge id."""
    ref = RefMap(map_text)
    nv = len({v for _, u, w in graph_edges for v in (u, w)})
    nf = len({f for _, p, q in dual_edges for f in (p, q)})
    problems = []
    got = (len(ref.vertices), ref.m, len(ref.faces), ref.chi, ref.is_orientable(), ref.is_connected())
    want = (nv, len(graph_edges), nf, 0, orientable, True)
    if got != want:
        problems.append("(V, E, F, chi, orientable, connected) = %r, expected %r" % (got, want))
        return problems
    for kind, edges in (("vertex", graph_edges), ("face", dual_edges)):
        edges = sorted(edges)
        label = {}
        for e, (_, u, w) in enumerate(edges):
            for orbit in ref.ends(e, kind):
                label[orbit] = label.get(orbit, {u, w}) & {u, w}
        if any(len(c) != 1 for c in label.values()):
            problems.append("a %s orbit matches no single input %s" % (kind, kind))
            continue
        label = {orbit: next(iter(c)) for orbit, c in label.items()}
        if len(set(label.values())) != len(label):
            problems.append("two %s orbits encode one input %s" % (kind, kind))
        for e, (eid, u, w) in enumerate(edges):
            if {label[o] for o in ref.ends(e, kind)} != {u, w}:
                problems.append("edge %d has the wrong %s ends" % (eid, kind))
                break
    return problems


def check_refutation(family_text, verdict):
    """`check-delta` output: the verdict and the first violating triple in
    canonical order, against the benchmark's own checker."""
    want = first_exchange_violation(read_family(family_text))
    want = (True, None) if want is None else (False, want)
    if verdict != want:
        return ["verdict %r, expected %r" % (verdict, want)]
    return []
